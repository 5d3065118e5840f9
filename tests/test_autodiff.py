"""The MLP: its forward pass against plain numpy, its explicit input and
parameter VJPs against an analytic Jacobian and against central finite
differences (the shared ``fd_grad`` fixture), and its parameter plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verletflow.autodiff import Mlp, layer_views

REL_TOL = 1e-5


def test_jacobian_analytic():
    """The full input Jacobian, one ``vjp`` sweep over identity seed rows,
    against the closed form: W for an affine net, and
    W2 diag(1 - tanh^2(W1 x + b1)) W1 for one tanh hidden layer."""
    lin = Mlp([2, 2], seed=0)
    lin.set_params(np.array([3.0, 0.5, -2.0, -1.0, 0.1, 0.2]))
    acts = []
    lin(np.array([2.0, 5.0]), acts)
    J = lin.vjp(acts, np.eye(2))  # row i = d out_i / d x
    assert np.allclose(J, [[3.0, 0.5], [-2.0, -1.0]], rtol=0.0, atol=1e-15)

    mlp = Mlp([3, 5, 2], seed=4)
    mlp.set_params(np.random.default_rng(4).standard_normal(mlp.num_params))
    x = np.array([0.5, -1.5, 2.0])
    acts = []
    mlp(x, acts)
    J = mlp.vjp(acts, np.eye(2))
    (w1, w2), b1 = mlp.weights, mlp.biases[0]
    h = np.tanh(w1 @ x + b1)
    assert J.shape == (2, 3)
    assert np.allclose(J, w2 @ np.diag(1.0 - h * h) @ w1, rtol=0.0, atol=1e-12)


def test_mlp_forward_matches_plain(rng):
    """Recording and plain calls give the bits of the layers written out in
    numpy, and the record holds every layer's input."""
    mlp = Mlp([3, 5, 2], seed=1)
    mlp.set_params(rng.standard_normal(mlp.num_params))
    x = rng.standard_normal((4, 3))
    (w1, w2), (b1, b2) = mlp.weights, mlp.biases
    h = np.tanh(x @ w1.T + b1)
    acts = []
    out = mlp(x, acts)
    assert np.array_equal(out, h @ w2.T + b2)
    assert np.array_equal(mlp(x), out)
    assert len(acts) == 2
    assert np.array_equal(acts[0], x) and np.array_equal(acts[1], h)


def test_mlp_workspace_matches_fresh_bits(rng):
    """Hidden layers of unequal widths in one list, reused across calls of
    two nets and two row counts, give the bits of fresh arrays; a call whose
    shapes match overwrites the list's arrays, and the output is never one
    of them."""
    nets = [Mlp([3, 16, 8, 32, 2], seed=2), Mlp([3, 4, 2], seed=3)]
    acts = []
    for rows in (50, 7, 50):
        for mlp in nets:
            x = rng.standard_normal((rows, 3))
            out = mlp(x, acts)
            assert np.array_equal(out, mlp(x))
            assert len(acts) == len(mlp.weights)
            assert not any(np.shares_memory(out, a) for a in acts)
    held = acts[1:]
    nets[1](x, acts)
    assert all(a is b for a, b in zip(acts[1:], held, strict=True))


def test_mlp_gradient_vs_fd(rng, fd_grad):
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
    g_fd = fd_grad(loss_of, p0)
    mlp.set_params(p0)
    scale = max(1.0, np.abs(g_fd).max())
    assert np.abs(g - g_fd).max() / scale < REL_TOL


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    rows=st.sampled_from([None, 1, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mlp_vjp_matches_fd(sizes, rows, seed, fd_grad):
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
    fd_x = fd_grad(lambda xx: float((w * mlp(xx)).sum()), x)
    fd_p = fd_grad(of_params, p0)
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
    # a net built on a given buffer overwrites all of it and keeps it
    buf = np.full(mlp.num_params, np.nan)
    into = Mlp([3, 4, 2], seed=0, params=buf)
    assert into.params is buf and np.array_equal(buf, mlp.params)


def test_mlp_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Mlp([3])
    with pytest.raises(ValueError):
        Mlp([3, 0, 2])
    with pytest.raises(ValueError, match="expected 8 parameters"):
        layer_views(np.zeros(7), [3, 2])
    with pytest.raises(ValueError, match="input dim 2 != first layer size 3"):
        Mlp([3, 2], seed=0)(np.zeros((4, 2)))
