"""Closed-form split updates for one Taylor term, their inverses, their
exact log-determinants, and their vector-Jacobian products.

Each operator acts on one side (q or p) with the coefficient realized at the
current opposite variable and time, which a same-side step never touches, so
forward steps are exactly invertible by re-evaluating the coefficient.  Each
update is the exact flow of a frozen vector field, so its inverse is the
same closed form run for -tau.

All functions take plain arrays (vector or batch); the log-det is returned
per sample (a scalar for vector inputs, shape ``(n,)`` for batches).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


# ---------------------------------------------------------------------------
# closed-form updates


def apply_step(step: OperatorStep, x):
    """``(y, logdet)``: the closed-form update of x and its per-sample
    log-det.

    * order 0 translates, ``x + tau*s``, and preserves volume;
    * order 1 scales, ``exp(tau*s) x`` with log-det ``tr(tau*s)``: elementwise
      in the diagonal form, a true matrix exponential (``scipy.linalg.expm``)
      in the inference-only dense form;
    * order k >= 2 solves dx/dt = s * x^k componentwise (below).
    """
    tau, k = step.tau, step.order
    if k == 0:
        return x + tau * step.coeff, np.zeros(np.shape(x)[:-1])
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(step.coeff, dtype=np.float64)
    if k == 1:
        if step.form == "dense":
            mats = s.reshape(s.shape[:-1] + (x.shape[-1],) * 2)
            # imported here: scipy.linalg adds ~80 ms to the package import,
            # and only the inference-only dense form needs it
            from scipy.linalg import expm

            y = np.einsum("...ij,...j->...i", expm(tau * mats), x)
            return y, tau * np.trace(mats, axis1=-2, axis2=-1)
        return np.exp(tau * s) * x, tau * s.sum(axis=-1)
    if k < 0:
        raise ValueError(f"operator order must be >= 0, got {k}")
    # The closed form is x' = (x^(1-k) + tau*(1-k)*s)^(1/(1-k)) componentwise.
    # Because the base equals x'^(1-k), the tabulated log-det
    #   sum_i [k/(1-k)] log|base_i| - k log|x_i|
    # collapses to  k * sum_i (log|x'_i| - log|x_i|),  which is what we
    # compute.  The base must keep the sign of x^(1-k) throughout the step (a
    # sign flip means the trajectory blew up); for k >= 3 the base is always
    # positive and the output keeps the sign of x, since the odd-power ODE
    # preserves sign.
    small = np.abs(x) <= SINGULARITY_MARGIN
    if np.any(small):
        comp = int(np.argwhere(small)[0][-1])
        raise SingularityError(
            f"zero coordinate in order-{k} step (component {comp})", component=comp
        )
    sgn = np.sign(x)
    base0 = x ** (1 - k)  # sign of x for even k, positive for odd k
    base1 = base0 + tau * (1 - k) * s
    bad = (np.sign(base1) != np.sign(base0)) | (np.abs(base1) <= SINGULARITY_MARGIN)
    if np.any(bad):
        comp = int(np.argwhere(bad)[0][-1])
        raise SingularityError(
            f"order-{k} step base crosses zero (component {comp})", component=comp
        )
    # |base| through the constant sign factor sgn_b
    sgn_b = np.sign(base1)
    base = sgn_b * x ** float(1 - k) + (sgn_b * tau * (1 - k)) * s
    y = sgn * base ** (1.0 / (1 - k))
    logdet = float(k) * (
        np.log(sgn * y).sum(axis=-1) - np.log(sgn * x).sum(axis=-1)
    )
    return y, logdet


def invert_step(step: OperatorStep, x):
    """Exact inverse of ``apply_step`` with the same realized coefficient:
    the forward closed form at -tau.  The returned log-det is the inverse
    map's own, i.e. the negated forward contribution."""
    return apply_step(replace(step, tau=-step.tau), x)


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
