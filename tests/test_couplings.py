"""Coupling layers and their split-step reconstructions.

The central property: an additive layer equals one order-0 step, an affine
layer equals an order-0 step followed by an order-1 step, with the step
duration cancelling, so states and log-dets match to machine precision for
any tau.
"""

import numpy as np
import pytest

from verletflow.autodiff import Mlp
from verletflow.couplings import (
    ADDITIVE,
    AFFINE,
    CouplingLayer,
    apply_coupling,
    apply_verlet_steps,
    as_verlet_steps,
)

D_Q, D_P = 2, 3


def make_layers(seed):
    return [
        CouplingLayer(ADDITIVE, "q", Mlp([D_P, 8, D_Q], seed=(seed, 0))),
        CouplingLayer(ADDITIVE, "p", Mlp([D_Q, 8, D_P], seed=(seed, 1))),
        CouplingLayer(
            AFFINE, "q",
            Mlp([D_P, 8, D_Q], seed=(seed, 2)), Mlp([D_P, 8, D_Q], seed=(seed, 3)),
        ),
        CouplingLayer(
            AFFINE, "p",
            Mlp([D_Q, 8, D_P], seed=(seed, 4)), Mlp([D_Q, 8, D_P], seed=(seed, 5)),
        ),
    ]


def test_layer_validation():
    shift = Mlp([D_P, 4, D_Q], seed=0)
    with pytest.raises(ValueError):
        CouplingLayer("glow", "q", shift)
    with pytest.raises(ValueError):
        CouplingLayer(ADDITIVE, "x", shift)
    with pytest.raises(ValueError):
        CouplingLayer(AFFINE, "q", shift)  # missing scale net


def test_additive_layer_formula(rng):
    layer = make_layers(1)[0]
    q = rng.standard_normal(D_Q)
    p = rng.standard_normal(D_P)
    q1, p1, ld = apply_coupling(layer, q, p)
    assert np.array_equal(q1, q + layer.shift_net(p))
    assert np.array_equal(p1, p)
    assert ld == 0.0


def test_affine_layer_formula_and_fd_logdet(rng):
    layer = make_layers(2)[3]  # affine on p
    q = rng.standard_normal(D_Q)
    p = rng.standard_normal(D_P)
    q1, p1, ld = apply_coupling(layer, q, p)
    s = layer.scale_net(q)
    assert np.allclose(p1, p * np.exp(s) + layer.shift_net(q), atol=0.0)
    assert np.array_equal(q1, q)
    assert np.isclose(ld, s.sum(), atol=1e-14)
    # finite-difference check of the log-det over the acted-on block
    h = 1e-6
    jac = np.empty((D_P, D_P))
    for j in range(D_P):
        dp = np.zeros(D_P)
        dp[j] = h
        jac[:, j] = (
            apply_coupling(layer, q, p + dp)[1] - apply_coupling(layer, q, p - dp)[1]
        ) / (2 * h)
    assert np.isclose(ld, np.linalg.slogdet(jac)[1], atol=1e-8)


@pytest.mark.parametrize("tau", [0.01, 0.5, 1.0])
def test_layer_equals_step_composition(tau, rng):
    for layer in make_layers(3):
        q = rng.standard_normal(D_Q)
        p = rng.standard_normal(D_P)
        q1, p1, ld1 = apply_coupling(layer, q, p)
        steps = as_verlet_steps(layer, tau)
        q2, p2, ld2 = apply_verlet_steps(steps, q, p)
        assert np.abs(q1 - q2).max() < 1e-12
        assert np.abs(p1 - p2).max() < 1e-12
        assert abs(float(ld1) - float(ld2)) < 1e-12


def test_step_counts_and_orders():
    layers = make_layers(4)
    assert [s.order for s in as_verlet_steps(layers[0], 0.3)] == [0]
    affine_steps = as_verlet_steps(layers[2], 0.3)
    assert [s.order for s in affine_steps] == [0, 1]
    assert all(s.side == "q" for s in affine_steps)
    with pytest.raises(ValueError):
        as_verlet_steps(layers[0], 0.0)


def test_stack_composition_matches_sequential(rng):
    layers = make_layers(5)
    q = rng.standard_normal((6, D_Q))
    p = rng.standard_normal((6, D_P))
    # sequential application of the layers themselves
    q1, p1, total = q, p, np.zeros(6)
    for layer in layers:
        q1, p1, ld = apply_coupling(layer, q1, p1)
        total = total + ld
    steps = [s for layer in layers for s in as_verlet_steps(layer, tau=0.25)]
    q2, p2, ld2 = apply_verlet_steps(steps, q, p)
    assert np.abs(q1 - q2).max() < 1e-11
    assert np.abs(p1 - p2).max() < 1e-11
    assert np.abs(total - ld2).max() < 1e-11


def test_batched_layers(rng):
    layer = make_layers(6)[2]
    q = rng.standard_normal((5, D_Q))
    p = rng.standard_normal((5, D_P))
    q1, p1, ld = apply_coupling(layer, q, p)
    assert q1.shape == (5, D_Q) and ld.shape == (5,)
    # consistent with per-row application
    for i in range(5):
        qi, pi, ldi = apply_coupling(layer, q[i], p[i])
        assert np.allclose(q1[i], qi, atol=0.0)
        assert np.isclose(ld[i], ldi, atol=0.0)
