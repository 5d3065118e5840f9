"""Closed-form split updates: values, inverses, exact log-dets and VJPs.

Oracles: hand-computable examples for each order, finite-difference
Jacobians for log-dets and vector-Jacobian products, the dense tensor
contraction for the sparse higher-order form, and scipy.linalg.expm for the
dense matrix exponential.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import verletflow.operators as ops
from verletflow.checks import fd_logdet
from verletflow.operators import OperatorStep, SingularityError


def fwd(order, x, s, tau, form="diagonal"):
    """``apply_step`` of a q-side step."""
    return ops.apply_step(OperatorStep("q", order, tau, s, form), x)


def inv(order, x, s, tau, form="diagonal"):
    """``invert_step`` of a q-side step."""
    return ops.invert_step(OperatorStep("q", order, tau, s, form), x)


# -- order 0: translation ---------------------------------------------------


def test_order0_value_and_logdet():
    x = np.array([1.0, -2.0])
    s = np.array([3.0, 0.5])
    y, logdet = fwd(0, x, s, 0.1)
    assert np.array_equal(y, np.array([1.3, -1.95]))
    assert logdet == 0.0


def test_order0_inverse_exact(rng):
    x = rng.standard_normal(4)
    s = rng.standard_normal(4)
    y, _ = fwd(0, x, s, 0.37)
    back, logdet = inv(0, y, s, 0.37)
    assert np.array_equal(back, y - 0.37 * s)
    assert np.allclose(back, x, atol=1e-15)
    assert logdet == 0.0


# -- order 1: exponential scaling -------------------------------------------


def test_order1_diagonal_value_and_logdet():
    x = np.array([2.0, -1.0])
    s = np.array([np.log(2.0), 0.0])
    y, logdet = fwd(1, x, s, 1.0)
    assert np.allclose(y, [4.0, -1.0], atol=1e-14)
    # log-det = tau * sum(s): log 2
    assert np.isclose(logdet, np.log(2.0), atol=1e-14)


def test_order1_diagonal_inverse_roundtrip(rng):
    x = rng.standard_normal(5)
    s = rng.standard_normal(5)
    y, ld_f = fwd(1, x, s, 0.42)
    back, ld_b = inv(1, y, s, 0.42)
    assert np.allclose(back, x, atol=1e-13)
    assert np.isclose(ld_f + ld_b, 0.0, atol=1e-13)


def test_order1_dense_matches_scipy_expm(rng):
    d = 3
    mat = rng.standard_normal((d, d)) * 0.8
    x = rng.standard_normal(d)
    y, logdet = fwd(1, x, mat, 0.7, "dense")
    y_ref = scipy.linalg.expm(0.7 * mat) @ x
    assert np.allclose(y, y_ref, atol=1e-12)
    assert np.isclose(logdet, 0.7 * np.trace(mat), atol=1e-13)


def test_order1_dense_batch_and_inverse(rng):
    d, n = 2, 4
    mat = rng.standard_normal((n, d, d)) * 0.5
    x = rng.standard_normal((n, d))
    y, ld = fwd(1, x, mat, 0.3, "dense")
    back, ld_b = inv(1, y, mat, 0.3, "dense")
    assert np.allclose(back, x, atol=1e-12)
    assert np.allclose(ld + ld_b, 0.0, atol=1e-13)
    assert ld.shape == (n,)


# -- the matrix exponential -------------------------------------------------


def norm1(m):
    return np.abs(m).sum(axis=-2).max(axis=-1)


def stack_with_norms(rng, d, norms):
    """Random (len(norms), d, d) matrices scaled to the given 1-norms."""
    m = rng.standard_normal((len(norms), d, d))
    return m * (np.asarray(norms) / norm1(m))[:, None, None]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_expm_matches_scipy_across_scalings(d, rng):
    # 1-norms below and above theta_13 in one call: the matrices take 0 to
    # 3 squarings, each its own
    m = stack_with_norms(rng, d, np.geomspace(0.01, 40.0, 12))
    assert norm1(m).min() < ops.THETA13 < norm1(m).max()
    e = ops.expm(m)
    for mi, ei in zip(m, e):
        ref = scipy.linalg.expm(mi)
        # the difference is mostly scipy's error: against 40-digit
        # arithmetic at entry sd 3, scipy reads up to 1.1e-12, this 6.7e-15
        assert np.abs(ei - ref).max() <= 1e-11 * np.abs(ref).max()
        # a single (d, d) input gives the stack's bits
        assert np.array_equal(ops.expm(mi), ei)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_expm_inverse_and_diagonal_closed_form(d, rng):
    m = stack_with_norms(rng, d, np.geomspace(0.1, 40.0, 8))
    e, e_inv = ops.expm(m), ops.expm(-m)
    err = np.abs(e @ e_inv - np.eye(d)).max(axis=(1, 2))
    assert np.all(err <= 1e-13 * norm1(e) * norm1(e_inv))
    diag = rng.uniform(-5.0, 5.0, size=(8, d))
    ref = np.exp(diag)[..., None] * np.eye(d)
    assert np.allclose(ops.expm(diag[..., None] * np.eye(d)), ref, rtol=1e-13, atol=0)


def test_expm_non_finite_matrices_take_no_squarings():
    # a NaN or inf 1-norm must not reach the integer cast of the scaling
    # exponent (an invalid cast, and on some platforms ~2^31 squarings)
    m = np.zeros((4, 2, 2))
    m[0, 0, 1] = np.nan
    m[1, 1, 0] = np.inf
    w = 1e6  # 18 squarings of a rotation generator
    m[2] = [[0.0, w], [-w, 0.0]]
    m[3] = [[0.3, -1.2], [0.4, 0.1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = ops.expm(m)
    assert np.all(np.isnan(e[:2]))
    rot = np.array([[np.cos(w), np.sin(w)], [-np.sin(w), np.cos(w)]])
    assert np.abs(e[2] - rot).max() < 1e-8
    assert np.array_equal(e[3], ops.expm(m[3]))


# -- sparse higher orders ----------------------------------------------------


def test_order2_worked_example():
    # x=1, s=1, tau=0.5: x' = (1 + 0.5*(-1)*1)^(-1) = 2;
    # log-det = 2*(log 2 - log 1) = 2 log 2; dy/dx = (y/x)^2 = 4.
    y, logdet = fwd(2, np.array([1.0]), np.array([1.0]), 0.5)
    assert np.allclose(y, [2.0], atol=1e-14)
    assert np.isclose(logdet, 2 * np.log(2.0), atol=1e-14)
    fd = fd_logdet(
        lambda v: fwd(2, v, np.array([1.0]), 0.5)[0], np.array([1.0])
    )
    assert np.isclose(fd, np.log(4.0), atol=1e-8)


def test_order3_worked_example():
    # x=1, s=0.4, tau=0.9875: base = 1 - 2*0.9875*0.4 = 0.21,
    # x' = 0.21^(-1/2).
    y, _ = fwd(3, np.array([1.0]), np.array([0.4]), 0.9875)
    assert np.isclose(y[0], 0.21 ** (-0.5), atol=1e-14)


def test_orderk_tabulated_logdet_identity(rng):
    # the reported log-det equals the sum form
    # sum_i [k/(1-k)] log|base_i| - k log|x_i| for the same base.
    for k in (2, 3, 4):
        x = rng.uniform(0.5, 1.5, size=6)
        if k % 2 == 1:
            x *= rng.choice([-1.0, 1.0], size=6)
        s = rng.uniform(-0.3, 0.3, size=6)
        tau = 0.3
        y, logdet = fwd(k, x, s, tau)
        base = x ** (1 - k) + tau * (1 - k) * s
        tabulated = (k / (1 - k)) * np.log(np.abs(base)).sum() - k * np.log(
            np.abs(x)
        ).sum()
        assert np.isclose(float(logdet), tabulated, atol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_orderk_matches_fd_jacobian(k, rng):
    for _ in range(20):
        x = rng.uniform(0.5, 1.5, size=4)
        if k % 2 == 1:
            x *= rng.choice([-1.0, 1.0], size=4)
        # keep tau*(k-1)*|s| below the smallest |x|^(1-k) so the base
        # cannot cross zero for any draw
        s_max = (1.0 / 1.5) ** (k - 1) / (0.4 * (k - 1)) * 0.8
        s = rng.uniform(-s_max, s_max, size=4)
        tau = rng.uniform(0.05, 0.4)
        y, logdet = fwd(k, x, s, tau)
        fd = fd_logdet(lambda v: fwd(k, v, s, tau)[0], x)
        assert abs(float(logdet) - fd) < 1e-6
        # per-component derivative closed form dy/dx = (y/x)^k
        h = 1e-6
        yp, _ = fwd(k, x + h, s, tau)
        ym, _ = fwd(k, x - h, s, tau)
        assert np.allclose((yp - ym) / (2 * h), (y / x) ** k, rtol=1e-4)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_orderk_inverse_roundtrip(k, rng):
    for _ in range(20):
        x = rng.uniform(0.4, 1.6, size=5)
        if k % 2 == 1:
            x *= rng.choice([-1.0, 1.0], size=5)
        s = rng.uniform(-0.2, 0.2, size=5)
        y, ld_f = fwd(k, x, s, 0.25)
        back, ld_b = inv(k, y, s, 0.25)
        assert np.allclose(back, x, atol=1e-12)
        assert np.isclose(float(ld_f) + float(ld_b), 0.0, atol=1e-12)


def test_orderk_odd_preserves_sign():
    x = np.array([-1.0, 1.0])
    s = np.array([0.2, 0.2])
    y, _ = fwd(3, x, s, 0.5)
    assert np.sign(y[0]) == -1 and np.sign(y[1]) == 1
    assert np.isclose(abs(y[0]), y[1], atol=1e-14)


def test_orderk_even_negative_input():
    # k=2 with x<0: base = 1/x < 0 must stay negative through the step
    x = np.array([-1.0])
    s = np.array([0.3])
    y, logdet = fwd(2, x, s, 0.5)
    # x' = 1/(1/x - tau*s) = 1/(-1.15)
    assert np.isclose(y[0], 1.0 / (-1.15), atol=1e-14)
    fd = fd_logdet(lambda v: fwd(2, v, s, 0.5)[0], x)
    assert np.isclose(float(logdet), fd, atol=1e-7)


def test_orderk_rejects_zero_coordinate():
    with pytest.raises(SingularityError) as exc:
        fwd(2, np.array([1.0, 0.0]), np.array([0.1, 0.1]), 0.1)
    assert exc.value.component == 1


def test_orderk_rejects_base_sign_flip():
    # x=1, s=1, k=2, tau=1.5: base = 1 - 1.5 < 0 flips sign -> singular
    with pytest.raises(SingularityError):
        fwd(2, np.array([1.0]), np.array([1.0]), 1.5)


def test_orderk_rejects_small_k():
    # orders 0 and 1 have their own closed forms; a negative order has none
    with pytest.raises(ValueError):
        fwd(-1, np.array([1.0]), np.array([1.0]), 0.1)
    with pytest.raises(ValueError):
        inv(-2, np.array([1.0]), np.array([1.0]), 0.1)


# -- steps and their VJPs ------------------------------------------------


def test_invert_step_negates_forward_logdet(rng):
    x = rng.uniform(0.5, 1.5, size=3)
    for order in (0, 1, 2, 3):
        c = rng.uniform(-0.2, 0.2, size=3)
        step = OperatorStep("p", order, 0.3, c)
        y, ld_f = ops.apply_step(step, x)
        back, ld_b = ops.invert_step(step, y)
        assert np.allclose(back, x, atol=1e-12)
        assert np.isclose(float(ld_f) + float(ld_b), 0.0, atol=1e-12)


def test_batch_logdet_shape(rng):
    x = rng.uniform(0.5, 1.5, size=(7, 3))
    c = rng.uniform(-0.2, 0.2, size=(7, 3))
    for order in (0, 1, 2):
        y, ld = ops.apply_step(OperatorStep("q", order, 0.2, c), x)
        assert y.shape == (7, 3)
        assert np.asarray(ld).shape == (7,)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_taped_step_matches_plain_and_grads(order, rng, fd_grad):
    # the x-cotangent of d(sum y)/dx against finite differences, forward
    # and inverse (an inverse step differentiates as the forward one at -tau)
    x = rng.uniform(0.5, 1.5, size=4)
    c = rng.uniform(-0.2, 0.2, size=4)
    for tau, run in ((0.3, ops.apply_step), (-0.3, ops.invert_step)):
        step = OperatorStep("q", order, abs(tau), c)
        y, _ = run(step, x)
        g, _ = ops.step_vjp(OperatorStep("q", order, tau, c), x, y,
                            np.ones(4), 0.0)
        g_fd = fd_grad(lambda xx: run(step, xx)[0].sum(), x)
        assert np.allclose(g, g_fd, rtol=1e-5, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(0, 3),
    dim=st.integers(1, 4),
    rows=st.sampled_from([None, 1, 3]),
    sign=st.sampled_from([1.0, -1.0]),
    dense=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_vjp_matches_fd(order, dim, rows, sign, dense, seed, fd_grad):
    """(gx, gc) of <wy, y> + <wl, logdet> for every order and the dense
    k=1 form, both signs of tau, dims 1-4, vector and batch shapes."""
    rng = np.random.default_rng(seed)
    shape = (dim,) if rows is None else (rows, dim)
    form = "dense" if dense and order == 1 else "diagonal"
    c_shape = shape + (dim,) if form == "dense" else shape
    tau = sign * rng.uniform(0.05, 0.4)
    x = rng.uniform(0.5, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    # keep |tau*(k-1)*s| below half the smallest |x|^(1-k): no base crosses 0
    s_max = 0.5 * (1.0 / 1.5) ** max(order - 1, 0) / (0.4 * max(order - 1, 1))
    c = rng.uniform(-s_max, s_max, size=c_shape)
    wy = rng.standard_normal(shape)
    wl = rng.standard_normal(shape[:-1])
    step = OperatorStep("q", order, tau, c, form)

    def objective(xx, cc):
        y, logdet = ops.apply_step(OperatorStep("q", order, tau, cc, form), xx)
        return float((wy * y).sum() + (wl * logdet).sum())

    y, _ = ops.apply_step(step, x)
    gx, gc = ops.step_vjp(step, x, y, wy, wl)
    fd_x = fd_grad(lambda xx: objective(xx, c), x)
    fd_c = fd_grad(lambda cc: objective(x, cc), c)
    assert gx.shape == shape and np.shape(gc) == c_shape
    assert np.allclose(gx, fd_x, rtol=1e-6, atol=1e-7)
    assert np.allclose(gc, fd_c, rtol=1e-6, atol=1e-7)


def test_flattened_dense_coefficient_is_rejected(rng):
    """A dense coefficient must be a (..., d, d) matrix: its flattened
    (..., d*d) form is a ValueError naming the expected shape, not a
    silent misread."""
    x = rng.standard_normal((4, 2))
    flat = rng.standard_normal((4, 4))  # 4 rows of d*d: square, yet not (4, 2, 2)
    step = OperatorStep("q", 1, 0.3, flat, "dense")
    calls = [lambda: ops.apply_step(step, x),
             lambda: ops.step_vjp(step, x, x, x, np.zeros(4)),
             lambda: ops.apply_coefficient(flat, x, 1, "dense"),
             lambda: ops.coefficient_vjp(flat, x, 1, "dense", x)]
    for call in calls:
        with pytest.raises(ValueError, match=r"\(\.\.\., d, d\), d = 2"):
            call()


def test_sparse_contraction_matches_dense_oracle(rng, dense_contraction_oracle):
    from verletflow.flow import apply_coefficient

    for k in (2, 3, 4):
        x = rng.standard_normal(4)
        coeff = rng.standard_normal(4)
        fast = apply_coefficient(coeff, x, k)
        slow = dense_contraction_oracle(coeff, x, k)
        assert np.allclose(fast, slow, atol=1e-12)
