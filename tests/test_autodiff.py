"""Gradient correctness of every tape primitive and of the MLP's explicit
VJPs against central finite differences, plus MLP plumbing.  Finite
differences are the independent oracle; step 1e-6 gives ~1e-10 truncation
error on these smooth maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verletflow.autodiff as ad
from verletflow.autodiff import Mlp, Tape

REL_TOL = 1e-5


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        old = xf[i]
        xf[i] = old + h
        fp = f(x)
        xf[i] = old - h
        fm = f(x)
        xf[i] = old
        flat[i] = (fp - fm) / (2 * h)
    return g


def assert_grad_matches(build, x, rel=REL_TOL):
    """``build(var) -> scalar Var``; compares reverse-mode vs FD."""
    x = np.asarray(x, dtype=np.float64)
    tape = Tape()
    xv = tape.var(x.copy())
    out = build(xv)
    (g,) = ad.grad(out, np.asarray(1.0), [xv])

    def f(arr):
        t = Tape()
        return float(build(t.var(arr)).value)

    g_fd = fd_grad(f, x.copy())
    scale = max(1.0, np.abs(g_fd).max())
    assert np.abs(g - g_fd).max() / scale < rel


UNARY = {
    "neg": lambda v: ad.sum_all(ad.neg(v)),
    "tanh": lambda v: ad.sum_all(ad.tanh(v)),
    "exp": lambda v: ad.sum_all(ad.exp(v)),
    "sum_last": lambda v: ad.sum_all(ad.sum_last(v)),
    "sum_all": ad.sum_all,
    "mean_all": ad.mean_all,
    "pow3": lambda v: ad.sum_all(ad.powc(v, 3)),
    "pow_neg2": lambda v: ad.sum_all(ad.powc(v, -2)),
    "pow_half": lambda v: ad.sum_all(ad.powc(v, 0.5)),
}


@pytest.mark.parametrize("name", sorted(UNARY))
def test_unary_gradients(name, rng):
    x = rng.uniform(0.5, 2.0, size=(3, 4))  # positive: safe for all ops
    assert_grad_matches(UNARY[name], x)


def test_log_gradient(rng):
    x = rng.uniform(0.5, 3.0, size=(2, 5))
    assert_grad_matches(lambda v: ad.sum_all(ad.log(v)), x)


@pytest.mark.parametrize(
    "op", [ad.add, ad.sub, ad.mul], ids=["add", "sub", "mul"]
)
def test_binary_gradients_both_slots(op, rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    assert_grad_matches(lambda v: ad.sum_all(op(v, b)), a)
    assert_grad_matches(lambda v: ad.sum_all(op(a, v)), b)


def test_binary_broadcasting_gradients(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal(4)  # broadcasts over rows
    assert_grad_matches(lambda v: ad.sum_all(ad.mul(a, v)), b)
    c = rng.standard_normal(())
    assert_grad_matches(lambda v: ad.sum_all(ad.add(a, v)), c)


def test_dot_gradient(rng):
    a = rng.standard_normal(5)
    b = rng.standard_normal(5)
    assert_grad_matches(lambda v: ad.dot(v, b), a)
    assert_grad_matches(lambda v: ad.dot(a, v), b)


def test_concat_last_gradient(rng):
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 2))
    assert_grad_matches(lambda v: ad.sum_all(ad.concat_last(v, b)), a)
    assert_grad_matches(lambda v: ad.sum_all(ad.concat_last(a, v)), b)


def test_linear_gradients_all_slots(rng):
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((2, 3))
    b = rng.standard_normal(2)
    assert_grad_matches(lambda v: ad.sum_all(ad.linear(v, w, b)), x)
    assert_grad_matches(lambda v: ad.sum_all(ad.linear(x, v, b)), w)
    assert_grad_matches(lambda v: ad.sum_all(ad.linear(x, w, v)), b)


def test_operator_overloads_match_functions(rng):
    x = rng.standard_normal(4)
    tape = Tape()
    v = tape.var(x)
    via_ops = ad.sum_all(-(v + v * 2.0) - 1.0 + 0.5 * v)
    via_fns = ad.sum_all(
        ad.add(
            ad.sub(ad.neg(ad.add(v, ad.mul(v, 2.0))), 1.0), ad.mul(v, 0.5)
        )
    )
    assert np.allclose(via_ops.value, via_fns.value)


def test_grad_reused_subexpression(rng):
    # diamond graph: y = (x*x) + (x*x); dy/dx = 4x
    x = rng.standard_normal(3)
    tape = Tape()
    v = tape.var(x)
    sq = ad.mul(v, v)
    out = ad.sum_all(ad.add(sq, sq))
    (g,) = ad.grad(out, np.asarray(1.0), [v])
    assert np.allclose(g, 4 * x, atol=1e-12)


def test_grad_unused_leaf_is_zero(rng):
    tape = Tape()
    a = tape.var(rng.standard_normal(3))
    b = tape.var(rng.standard_normal(3))
    out = ad.sum_all(ad.mul(a, a))
    ga, gb = ad.grad(out, np.asarray(1.0), [a, b])
    assert np.allclose(gb, 0.0)
    assert np.allclose(ga, 2 * a.value)


def test_grad_rejects_untaped_output():
    with pytest.raises(ValueError):
        ad.grad(np.ones(3), np.asarray(1.0), [])


def test_backward_requires_scalar(rng):
    tape = Tape()
    v = tape.var(rng.standard_normal(3))
    with pytest.raises(ValueError):
        ad.backward(tape, ad.mul(v, 2.0), [v])


def test_jacobian_analytic():
    J = ad.jacobian(lambda v: ad.mul(v, np.array([3.0, -1.0])), np.array([2.0, 5.0]))
    assert np.allclose(J, np.diag([3.0, -1.0]))
    # nonlinear: f(x) = x^3 elementwise, J = diag(3 x^2)
    x = np.array([0.5, -1.5, 2.0])
    J = ad.jacobian(lambda v: ad.powc(v, 3), x)
    assert np.allclose(J, np.diag(3 * x**2), atol=1e-12)


def test_mlp_forward_matches_plain(rng):
    mlp = Mlp([3, 5, 2], seed=1)
    x = rng.standard_normal((4, 3))
    tape = Tape()
    out = mlp.forward(tape.var(x))
    assert np.allclose(out.value, mlp(x), atol=0.0)


def test_mlp_gradient_vs_fd(rng):
    mlp = Mlp([3, 6, 2], seed=2)
    x0 = rng.standard_normal(3)
    p0 = mlp.get_params()

    def loss_of(params):
        mlp.set_params(params)
        return float(mlp(x0).sum())

    acts = []
    out = mlp(x0, acts)
    g = np.zeros(mlp.num_params)
    mlp.vjp(acts, np.ones_like(out), g)
    g_fd = fd_grad(lambda p: loss_of(p), p0.copy())
    mlp.set_params(p0)
    scale = max(1.0, np.abs(g_fd).max())
    assert np.abs(g - g_fd).max() / scale < REL_TOL


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    rows=st.sampled_from([None, 1, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mlp_vjp_matches_fd(sizes, rows, seed):
    """Input and parameter VJPs of <w, mlp(x)> for any layer sizes, vector
    and batch inputs; ``vjp`` adds into the gradient it is given."""
    rng = np.random.default_rng(seed)
    mlp = Mlp(sizes, seed=seed)
    mlp.set_params(rng.standard_normal(mlp.num_params))  # nonzero biases too
    x = rng.standard_normal((sizes[0],) if rows is None else (rows, sizes[0]))
    w = rng.standard_normal(x.shape[:-1] + (sizes[-1],))
    p0 = mlp.get_params()

    def of_params(params):
        mlp.set_params(params)
        return float((w * mlp(x)).sum())

    acts = []
    out = mlp(x, acts)
    assert np.array_equal(out, mlp(x))  # recording does not change the bits
    base = rng.standard_normal(mlp.num_params)
    g = base.copy()
    g_x = mlp.vjp(acts, w, g)
    fd_x = fd_grad(lambda xx: float((w * mlp(xx)).sum()), x.copy())
    fd_p = fd_grad(of_params, p0.copy())
    mlp.set_params(p0)
    assert np.allclose(g_x, fd_x, rtol=1e-6, atol=1e-7)
    assert np.allclose(g - base, fd_p, rtol=1e-6, atol=1e-7)


def test_mlp_param_roundtrip_and_zero(rng):
    mlp = Mlp([2, 4, 3], seed=3)
    p = mlp.get_params()
    assert p.size == mlp.num_params == (2 * 4 + 4) + (4 * 3 + 3)
    mlp2 = Mlp([2, 4, 3], seed=99)
    mlp2.set_params(p)
    x = rng.standard_normal((5, 2))
    assert np.array_equal(mlp(x), mlp2(x))
    mlp2.zero_()
    assert np.array_equal(mlp2(x), np.zeros((5, 3)))


def test_mlp_biases_start_zero():
    mlp = Mlp([3, 4, 2], seed=0)
    for b in mlp.biases:
        assert np.array_equal(b, np.zeros_like(b))


def test_mlp_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Mlp([3])
    with pytest.raises(ValueError):
        Mlp([3, 0, 2])
