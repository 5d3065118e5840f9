"""Closed-form split updates for one Taylor term, their inverses, their
exact log-determinants, and their vector-Jacobian products.

Each operator acts on one side (q or p) with the coefficient realized at the
current opposite variable and time, which a same-side step never touches, so
forward steps are exactly invertible by re-evaluating the coefficient.

All functions take plain arrays (vector or batch); the log-det is returned
per sample (a scalar for vector inputs, shape ``(n,)`` for batches).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SINGULARITY_MARGIN = 1e-12


class SingularityError(RuntimeError):
    """A k>=2 step hit the singular set; the step is rejected, never clamped."""

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class UnsupportedModeError(RuntimeError):
    """Dense k=1 steps are inference-only."""


@dataclass
class OperatorStep:
    """One realized split update: side, order, duration and coefficient."""

    side: str
    order: int
    tau: float
    coeff: np.ndarray
    form: str = "diagonal"  # order-1 only


def _zeros_like_logdet(x):
    return np.zeros(np.shape(x)[:-1])


# ---------------------------------------------------------------------------
# order 0: translation


def apply_order0(x, s0, tau):
    """x + tau * s0; log-det is exactly zero."""
    return x + tau * s0, _zeros_like_logdet(x)


def invert_order0(x, s0, tau):
    return x - tau * s0, _zeros_like_logdet(x)


# ---------------------------------------------------------------------------
# order 1: elementwise (or dense) exponential scaling


def apply_order1(x, s1, tau, form="diagonal"):
    """exp(tau*s1) applied to x; log-det = tr(tau*s1).

    Diagonal form scales elementwise.  Dense form applies a true matrix
    exponential (``scipy.linalg.expm``) and is inference-only.
    """
    x = np.asarray(x, dtype=np.float64)
    s1 = np.asarray(s1, dtype=np.float64)
    if form == "dense":
        d = x.shape[-1]
        mats = s1.reshape(s1.shape[:-1] + (d, d))
        # imported here: scipy.linalg adds ~80 ms to the package import,
        # and only the inference-only dense form needs it
        from scipy.linalg import expm

        em = expm(tau * mats)
        y = np.einsum("...ij,...j->...i", em, x)
        logdet = tau * np.trace(mats, axis1=-2, axis2=-1)
        return y, logdet
    return np.exp(tau * s1) * x, tau * s1.sum(axis=-1)


def invert_order1(x, s1, tau, form="diagonal"):
    return apply_order1(x, s1, -tau, form=form)


# ---------------------------------------------------------------------------
# sparse higher orders: componentwise ODE dx/dt = s * x^k, k >= 2
#
# The closed form is x' = (x^(1-k) + tau*(1-k)*s)^(1/(1-k)) componentwise.
# Because the base equals x'^(1-k), the tabulated log-det
#   sum_i [k/(1-k)] log|base_i| - k log|x_i|
# collapses to  k * sum_i (log|x'_i| - log|x_i|),  which is what we compute.
# The base must keep the sign of x^(1-k) throughout the step (a sign flip
# means the trajectory blew up); for k >= 3 the base is always positive and
# the output keeps the sign of x, since the odd-power ODE preserves sign.


def _orderk_transform(x, sk, k, tau):
    x = np.asarray(x, dtype=np.float64)
    sk = np.asarray(sk, dtype=np.float64)
    small = np.abs(x) <= SINGULARITY_MARGIN
    if np.any(small):
        comp = int(np.argwhere(small)[0][-1])
        raise SingularityError(
            f"zero coordinate in order-{k} step (component {comp})", component=comp
        )
    sgn = np.sign(x)
    base0 = x ** (1 - k)  # sign of x for even k, positive for odd k
    base1 = base0 + tau * (1 - k) * sk
    bad = (np.sign(base1) != np.sign(base0)) | (np.abs(base1) <= SINGULARITY_MARGIN)
    if np.any(bad):
        comp = int(np.argwhere(bad)[0][-1])
        raise SingularityError(
            f"order-{k} step base crosses zero (component {comp})", component=comp
        )
    # |base| through the constant sign factor sgn_b
    sgn_b = np.sign(base1)
    base = sgn_b * x ** float(1 - k) + (sgn_b * tau * (1 - k)) * sk
    y = sgn * base ** (1.0 / (1 - k))
    logdet = float(k) * (
        np.log(sgn * y).sum(axis=-1) - np.log(sgn * x).sum(axis=-1)
    )
    return y, logdet


def apply_orderk(x, sk, k, tau):
    """Closed-form sparse higher-order update with exact per-sample log-det."""
    if k < 2:
        raise ValueError(f"apply_orderk needs k >= 2, got {k}")
    return _orderk_transform(x, sk, k, tau)


def invert_orderk(x, sk, k, tau):
    """Inverse closed form: the power chain reversed (duration negated)."""
    if k < 2:
        raise ValueError(f"invert_orderk needs k >= 2, got {k}")
    return _orderk_transform(x, sk, k, -tau)


# ---------------------------------------------------------------------------
# step dispatch


def apply_step(step: OperatorStep, x):
    if step.order == 0:
        return apply_order0(x, step.coeff, step.tau)
    if step.order == 1:
        return apply_order1(x, step.coeff, step.tau, form=step.form)
    return apply_orderk(x, step.coeff, step.order, step.tau)


def invert_step(step: OperatorStep, x):
    """Exact inverse of ``apply_step`` with the same realized coefficient.

    The returned log-det is the inverse map's own log-det, i.e. the negated
    forward contribution.
    """
    if step.order == 0:
        return invert_order0(x, step.coeff, step.tau)
    if step.order == 1:
        return invert_order1(x, step.coeff, step.tau, form=step.form)
    return invert_orderk(x, step.coeff, step.order, step.tau)


# ---------------------------------------------------------------------------
# vector-Jacobian products


def step_vjp(step: OperatorStep, x, y, gy, gl):
    """Cotangents (gx, gc) of x and of the coefficient for
    ``y, logdet = apply_step(step, x)``, given the cotangents gy of y and
    gl of the per-sample logdet.

    An inverse step is the forward step with tau negated, so
    ``invert_step(step, x)`` differentiates as ``apply_step`` at -tau.
    """
    tau, k = step.tau, step.order
    gl = np.expand_dims(gl, -1)
    if k == 0:
        # y = x + tau*s, logdet = 0
        return gy, tau * gy
    if k == 1:
        if step.form != "diagonal":
            raise UnsupportedModeError("dense k=1 steps are inference-only")
        # y = exp(tau*s) x, logdet = tau*sum(s)
        return gy * np.exp(tau * step.coeff), tau * (gy * y + gl)
    # y^(1-k) = x^(1-k) + tau*(1-k)*s and logdet = k*sum(log|y| - log|x|);
    # implicit differentiation gives dy/dx = (y/x)^k and dy/ds = tau*y^k
    r = y / x
    rk1 = r ** (k - 1)
    gx = gy * rk1 * r + k * gl * (rk1 - 1.0) / x
    gc = tau * y ** (k - 1) * (gy * y + k * gl)
    return gx, gc
