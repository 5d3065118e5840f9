"""Closed-form split updates for one Taylor term and the field term they
integrate: values, inverses, exact log-determinants, vector-Jacobian products.

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
DIAGONAL, DENSE = "diagonal", "dense"  # the order-1 coefficient's forms


@dataclass
class OperatorStep:
    """One realized split update: side, order, duration and coefficient.
    A dense order-1 coefficient is a matrix ``(..., d, d)``."""

    side: str
    order: int
    tau: float
    coeff: np.ndarray
    form: str = DIAGONAL  # order-1 only


def _matrix(coeff, x):
    """``coeff`` if it is a dense ``(..., d, d)`` coefficient for x."""
    if np.shape(coeff)[-2:] == (np.shape(x)[-1],) * 2:
        return coeff
    raise ValueError(f"dense coefficient must be (..., d, d), d = {np.shape(x)[-1]}; "
                     f"got shape {np.shape(coeff)}")


# ---------------------------------------------------------------------------
# closed-form updates

# Pade-13 coefficients b_0..b_13 and the 1-norm up to which the approximant
# needs no scaling (Higham 2005, SIAM J. Matrix Anal. Appl. 26(4))
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0,
          670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
          16380.0, 182.0, 1.0)
THETA13 = 5.371920351148152


def expm(a):
    """Matrix exponential of a ``(d, d)`` matrix or a stack ``(..., d, d)``:
    the Pade-13 approximant with scaling and squaring, the scaling exponent
    chosen per matrix from its 1-norm.  A matrix with a non-finite 1-norm
    takes no squarings and comes out NaN; the rest of the stack is
    unaffected."""
    a = np.asarray(a, dtype=np.float64)
    norm = np.abs(a).sum(axis=-2).max(axis=-1)[..., None, None]
    finite = np.isfinite(norm)
    # a non-finite norm must not reach the integer cast
    norm = np.maximum(np.where(finite, norm, 0.0), THETA13)
    s = np.ceil(np.log2(norm / THETA13)).astype(int)
    a = np.ldexp(np.where(finite, a, 0.0), -s)
    b = PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    ident = np.eye(a.shape[-1])
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    # squarings run while any matrix needs one; a finished matrix squared
    # again may overflow, and np.where drops that value
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(s.max(initial=0)):
            r = np.where(s > i, r @ r, r)
    return np.where(finite, r, np.nan)


def apply_step(step: OperatorStep, x):
    """``(y, logdet)``: the closed-form update of x and its per-sample
    log-det.

    * order 0 translates, ``x + tau*s``, and preserves volume;
    * order 1 scales, ``exp(tau*s) x`` with log-det ``tr(tau*s)``: elementwise
      in the diagonal form, a true matrix exponential (``expm``) in the
      dense form;
    * order k >= 2 solves dx/dt = s * x^k componentwise (below), NaN on
      its singular set.
    """
    tau, k = step.tau, step.order
    if k == 0:
        return x + tau * step.coeff, np.zeros(np.shape(x)[:-1])
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(step.coeff, dtype=np.float64)
    if k == 1:
        if step.form == DENSE:
            mats = _matrix(s, x)
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
    # preserves sign.  A component on the singular set (|x| or |base| at most
    # SINGULARITY_MARGIN, or a base that changes sign) is rejected, never
    # clamped: it comes out NaN, and so does its row's log-det.  NaN enters
    # before any division or log, so a singular row raises no warning.
    x = np.where(np.abs(x) <= SINGULARITY_MARGIN, np.nan, x)
    sgn = np.sign(x)
    base0 = x ** (1 - k)  # sign of x for even k, positive for odd k
    base1 = base0 + tau * (1 - k) * s
    bad = (np.sign(base1) != np.sign(base0)) | (np.abs(base1) <= SINGULARITY_MARGIN)
    base1 = np.where(bad, np.nan, base1)
    y = sgn * np.abs(base1) ** (1.0 / (1 - k))
    logdet = float(k) * (
        np.log(sgn * y).sum(axis=-1) - np.log(sgn * x).sum(axis=-1)
    )
    return y, logdet


def invert_step(step: OperatorStep, x):
    """Exact inverse of ``apply_step`` with the same realized coefficient:
    the forward closed form at -tau.  The returned log-det is the inverse
    map's own, i.e. the negated forward contribution."""
    return apply_step(replace(step, tau=-step.tau), x)


def apply_coefficient(coeff, x, k, form=DIAGONAL):
    """Apply a realized order-k coefficient to the same-side variable: k=0
    ignores x, k=1 is diagonal (elementwise) or dense (matrix-vector), k>=2
    the sparse on-diagonal contraction, an elementwise product with x^k."""
    if k == 0:
        return coeff
    if k == 1:
        if form == DENSE:
            return np.einsum("...ij,...j->...i", _matrix(coeff, x), x)
        return coeff * x
    return coeff * x ** float(k)


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
        if step.form == DENSE:
            # y = E x with E = expm(A), A = tau*M: g_x = E^T gy and
            # g_M = tau*(L(A^T, gy x^T) + gl*I), L expm's Frechet derivative;
            # expm([[A^T, gy x^T], [0, A^T]]) = [[E^T, L], [0, E^T]] gives both
            d = x.shape[-1]
            blk = np.zeros(gy.shape[:-1] + (2 * d, 2 * d))
            a_t = tau * np.swapaxes(_matrix(step.coeff, x), -1, -2)
            blk[..., :d, :d] = blk[..., d:, d:] = a_t
            blk[..., :d, d:] = gy[..., :, None] * x[..., None, :]
            blk = expm(blk)
            g_m = tau * (blk[..., :d, d:] + gl[..., None] * np.eye(d))
            gx = np.einsum("...ij,...j->...i", blk[..., :d, :d], gy)
            return gx, g_m
        # y = exp(tau*s) x, logdet = tau*sum(s)
        return gy * np.exp(tau * step.coeff), tau * (gy * y + gl)
    # y^(1-k) = x^(1-k) + tau*(1-k)*s and logdet = k*sum(log|y| - log|x|);
    # implicit differentiation gives dy/dx = (y/x)^k and dy/ds = tau*y^k
    r = y / x
    rk1 = r ** (k - 1)
    gx = gy * rk1 * r + k * gl * (rk1 - 1.0) / x
    gc = tau * y ** (k - 1) * (gy * y + k * gl)
    return gx, gc


def operand_vjp(coeff, x, k, form, g):
    """The x cotangent of ``apply_coefficient(coeff, x, k, form)`` given its
    output cotangent ``g``, which may carry leading seed axes; None for the
    k=0 term, which does not depend on x."""
    if k == 0:
        return None
    if k == 1:
        if form == DENSE:
            # y = M x:  g_x = M^T g
            return np.einsum("...ij,...i->...j", _matrix(coeff, x), g)
        return g * coeff
    c = float(k)
    return g * coeff * c * x ** (c - 1.0)


def coefficient_vjp(coeff, x, k, form, g):
    """Cotangents (g_x, g_coeff) of ``apply_coefficient(coeff, x, k, form)``
    given its output cotangent ``g``, which may carry leading seed axes.

    The products are grouped as a reverse sweep over ``coeff * x**k``
    groups them; g_x is ``operand_vjp``'s, zero for the k=0 term.
    """
    if k == 0:
        return np.zeros(np.broadcast_shapes(np.shape(g), np.shape(x))), g
    g_x = operand_vjp(coeff, x, k, form, g)
    if k == 1:
        # y = M x:  g_M = g (outer) x
        return g_x, g[..., :, None] * x[..., None, :] if form == DENSE else g * x
    return g_x, g * x ** float(k)
