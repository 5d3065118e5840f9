"""Phase-space state, coefficient nets, and the split vector field."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verletflow.autodiff import Mlp
from verletflow.flow import (
    DENSE,
    CoefficientNet,
    OrderError,
    PhaseState,
    VerletFlow,
    apply_coefficient,
)
from verletflow.integrators import IntegratorConfig, rk4_integrate
from verletflow.persist import load_checkpoint, save_checkpoint


# -- PhaseState --------------------------------------------------------------


def test_state_accepts_vectors_and_batches(rng):
    s = PhaseState(q=[1.0, 2.0], p=[3.0, 4.0, 5.0], t=0.5)
    assert s.d_q == 2 and s.d_p == 3
    b = PhaseState(q=rng.standard_normal((7, 2)), p=rng.standard_normal((7, 3)), t=0.0)
    assert b.q.shape == (7, 2)


def test_state_rejects_bad_inputs():
    with pytest.raises(ValueError):
        PhaseState(q=[1.0], p=[2.0], t=1.5)
    with pytest.raises(ValueError):
        PhaseState(q=[1.0], p=[2.0], t=-0.1)
    with pytest.raises(ValueError):
        PhaseState(q=[np.nan], p=[2.0], t=0.0)
    with pytest.raises(ValueError):
        PhaseState(q=np.empty(0), p=[2.0], t=0.0)


def test_state_with_replaces_fields():
    s = PhaseState(q=[1.0], p=[2.0], t=0.0)
    s2 = s.with_(t=1.0, dlogp=3.5)
    assert s2.t == 1.0 and s2.dlogp == 3.5
    assert np.array_equal(s2.q, s.q)


# -- coefficient nets --------------------------------------------------------


def test_coefficient_net_appends_time_feature(rng):
    mlp = Mlp([3, 4, 2], seed=1)
    net = CoefficientNet("q", 0, mlp)
    p = rng.standard_normal(2)
    out1 = net(p, 0.25)
    assert np.array_equal(out1, mlp(np.concatenate([p, [0.25]])))
    assert not np.array_equal(out1, net(p, 0.75))  # time matters


# -- flow construction -------------------------------------------------------


def test_create_shapes_and_validation():
    flow = VerletFlow(2, 3, order=2, hidden=[8], seed=0)
    assert flow.d_q == 2 and flow.d_p == 3 and flow.order == 2
    assert len(flow.q_nets) == 3 and len(flow.p_nets) == 3
    # q-side nets read p (+time); p-side nets read q (+time)
    assert flow.q_nets[0].net.in_dim == 4
    assert flow.p_nets[0].net.in_dim == 3
    assert flow.q_nets[0].net.out_dim == 2
    assert flow.p_nets[2].net.out_dim == 3


def test_create_dense_k1_output_size(rng):
    flow = VerletFlow(3, 2, order=1, hidden=[4], seed=0, k1_form=DENSE)
    assert flow.q_nets[1].net.out_dim == 9
    assert flow.p_nets[1].net.out_dim == 4
    assert flow.k1_form == DENSE
    # a dense coefficient is a (d, d) matrix, any other a vector
    for side, d, d_opp in (("q", 3, 2), ("p", 2, 3)):
        c0, c1 = flow.nets(side)
        for lead in ((), (5,)):
            opp = rng.standard_normal(lead + (d_opp,))
            assert c0(opp, 0.3).shape == lead + (d,)
            assert c1(opp, 0.3).shape == lead + (d, d)


def test_constructor_validates_shape():
    # checkpoint headers and configs feed the shape straight in
    with pytest.raises(OrderError):
        VerletFlow(2, 2, order=-1)
    with pytest.raises(ValueError, match="banded"):
        VerletFlow(2, 2, order=1, k1_form="banded")
    for d_q, d_p, hidden in ((0, 2, [4]), (2, 0, [4]), (2, 2, [4, 0]), (2, 2, [])):
        with pytest.raises(ValueError, match=">= 1"):
            VerletFlow(d_q, d_p, order=1, hidden=hidden)


# -- field evaluation --------------------------------------------------------


def test_eval_field_is_sum_of_terms(rng):
    flow = VerletFlow(2, 2, order=2, hidden=[8], seed=3)
    state = PhaseState(q=rng.standard_normal(2), p=rng.standard_normal(2), t=0.4)
    fq, fp = flow.eval_field(state.q, state.p, state.t, [])
    sq = sum(apply_coefficient(flow.nets("q")[k](state.p, state.t), state.q, k)
             for k in range(3))
    sp = sum(apply_coefficient(flow.nets("p")[k](state.q, state.t), state.p, k)
             for k in range(3))
    assert np.allclose(fq, sq, atol=0.0)
    assert np.allclose(fp, sp, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(0, 3),
    d_q=st.integers(1, 4),
    d_p=st.integers(1, 4),
    rows=st.sampled_from([None, 1, 3]),
    dense=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_field_vjp_matches_fd(order, d_q, d_p, rows, dense, seed, fd_grad):
    """(q, p) cotangents of <wq, f_q> + <wp, f_p> for orders 0-3, dims 1-4,
    vector and batch shapes, diagonal and dense k=1."""
    rng = np.random.default_rng(seed)
    form = DENSE if dense else "diagonal"
    flow = VerletFlow(d_q, d_p, order=order, hidden=[5],
                      seed=seed % 997, k1_form=form)
    lead = () if rows is None else (rows,)
    q0, p0 = rng.standard_normal(lead + (d_q,)), rng.standard_normal(lead + (d_p,))
    t = rng.uniform()
    wq, wp = rng.standard_normal(q0.shape), rng.standard_normal(p0.shape)

    def objective(q, p):
        fq, fp = flow.eval_field(q, p, t, [])
        return float((wq * fq).sum() + (wp * fp).sum())

    record = []
    flow.eval_field(q0, p0, t, record)
    assert len(record) == 2 * (order + 1)
    gq, gp = flow.field_vjp(q0, p0, record, wq, wp)
    assert np.allclose(gq, fd_grad(lambda q: objective(q, p0), q0), rtol=1e-6, atol=1e-7)
    assert np.allclose(gp, fd_grad(lambda p: objective(q0, p), p0), rtol=1e-6, atol=1e-7)
    # a leading seed axis carries one cotangent per seed
    sq, sp = flow.field_vjp(q0, p0, record, np.stack([wq, -2 * wq]), np.zeros_like(wp))
    zq, zp = flow.field_vjp(q0, p0, record, wq, np.zeros_like(wp))
    assert sq.shape == (2,) + q0.shape and sp.shape == (2,) + p0.shape
    assert np.allclose(sq[0], zq, rtol=1e-13, atol=1e-14)
    assert np.allclose(sp[1], -2 * zp, rtol=1e-13, atol=1e-14)
    # a side given None is not computed, and the other side reads as if it
    # were given zero
    gq_only, none_p = flow.field_vjp(q0, p0, record, wq, None)
    none_q, gp_only = flow.field_vjp(q0, p0, record, None, wp)
    assert none_p is None and none_q is None
    assert np.allclose(gq_only, zq, rtol=1e-13, atol=1e-14)
    assert np.allclose(gp_only, flow.field_vjp(q0, p0, record, np.zeros_like(wq), wp)[1],
                       rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("order,form", [(0, "diagonal"), (1, "diagonal"),
                                        (2, "diagonal"), (3, "diagonal"), (1, DENSE)],
                         ids=["0", "1", "2", "3", "1-dense"])
def test_eval_field_refills_a_record_in_place(order, form, rng):
    """A record passed again keeps its lists and hidden arrays, and holds
    the bits, and gives the field_vjp, of a fresh record at the new state."""
    flow = VerletFlow(2, 3, order=order, hidden=[16, 8, 32], seed=order, k1_form=form)
    first, second = ((rng.standard_normal((6, 2)), rng.standard_normal((6, 3)), t)
                     for t in (0.2, 0.7))
    record, fresh = [], []
    flow.eval_field(*first, record)
    held = [(acts, acts[1:]) for _, acts in record]
    field = flow.eval_field(*second, record)
    for got, want in zip(field, flow.eval_field(*second, fresh), strict=True):
        assert np.array_equal(got, want)
    for (coeff, acts), (lst, hidden), (coeff0, acts0) in zip(record, held, fresh, strict=True):
        assert acts is lst and all(a is b for a, b in zip(acts[1:], hidden, strict=True))
        assert np.array_equal(coeff, coeff0)
        assert all(np.array_equal(a, b) for a, b in zip(acts, acts0, strict=True))
    wq, wp = rng.standard_normal((6, 2)), rng.standard_normal((6, 3))
    for got, want in zip(flow.field_vjp(*second[:2], record, wq, wp),
                         flow.field_vjp(*second[:2], fresh, wq, wp), strict=True):
        assert np.array_equal(got, want)


def test_zeroed_flow_field_vanishes(identity_flow, rng):
    state = PhaseState(q=rng.standard_normal(2), p=rng.standard_normal(2), t=0.7)
    fq, fp = identity_flow.eval_field(state.q, state.p, state.t, [])
    assert np.array_equal(fq, np.zeros(2))
    assert np.array_equal(fp, np.zeros(2))


def test_eval_field_reports_nonfinite_orders():
    # an RK4 run records the side and order of the first non-finite term
    flow = VerletFlow(2, 2, order=1, hidden=[4], seed=5)
    flow.q_nets[1].net.biases[-1][:] = np.inf

    state = PhaseState(q=[0.1, 0.2], p=[0.3, 0.4], t=0.0)
    with np.errstate(invalid="ignore"):
        res = rk4_integrate(flow, state, IntegratorConfig(steps=1, method="rk4-exact"))
    assert res.failures[["step", "side", "order"]].tolist() == (0, "q", 1)


def test_apply_coefficient_orders(rng):
    x = rng.standard_normal(3)
    c = rng.standard_normal(3)
    assert np.array_equal(apply_coefficient(c, x, 0), c)
    assert np.array_equal(apply_coefficient(c, x, 1), c * x)
    assert np.allclose(apply_coefficient(c, x, 3), c * x**3, atol=1e-15)


def test_apply_coefficient_dense_k1(rng):
    x = rng.standard_normal(2)
    mat = rng.standard_normal((2, 2))
    out = apply_coefficient(mat, x, 1, form=DENSE)
    assert np.allclose(out, mat @ x, atol=1e-15)


def test_dense_oracle_matches_manual_k2(dense_contraction_oracle):
    # hyper-diagonal (2,1)-tensor contraction is c_i * x_i^2
    c = np.array([2.0, -1.0, 0.5])
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(dense_contraction_oracle(c, x, 2), c * x**2)


# -- parameter plumbing ------------------------------------------------------


def test_param_roundtrip_preserves_field(rng):
    flow = VerletFlow(2, 2, order=1, hidden=[8], seed=6)
    other = VerletFlow(2, 2, order=1, hidden=[8], seed=99)
    other.set_params(flow.get_params())
    state = PhaseState(q=rng.standard_normal(2), p=rng.standard_normal(2), t=0.5)
    for side, opp in (("q", state.p), ("p", state.q)):
        for k in (0, 1):
            assert np.array_equal(
                flow.nets(side)[k](opp, state.t), other.nets(side)[k](opp, state.t)
            )


def test_param_canonical_order_q_before_p():
    # q-side nets k ascending, then p-side; per layer W row-major, then b
    flow = VerletFlow(1, 2, order=1, hidden=[3], seed=0)
    nets = flow.q_nets + flow.p_nets
    assert [(c.side, c.order) for c in nets] == [("q", 0), ("q", 1), ("p", 0), ("p", 1)]
    parts = [a.ravel() for c in nets for w, b in zip(c.net.weights, c.net.biases)
             for a in (w, b)]
    assert np.array_equal(flow.params, np.concatenate(parts))


@pytest.mark.parametrize("form", ["diagonal", DENSE])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_nets_are_views_into_flow_params(order, form):
    flow = VerletFlow(2, 3, order=order, hidden=[4, 3], seed=1, k1_form=form)
    assert flow.num_params == flow.params.size
    nets = flow.q_nets + flow.p_nets
    assert nets[0].span.start == 0 and nets[-1].span.stop == flow.params.size
    for c, after in zip(nets, nets[1:]):
        assert c.span.stop == after.span.start
    for c in nets:
        assert np.shares_memory(c.net.params, flow.params[c.span])
        for a in c.net.weights + c.net.biases:
            assert np.shares_memory(a, flow.params[c.span])


def test_set_params_is_seen_by_nets_and_get_params_copies(rng):
    flow = VerletFlow(2, 2, order=1, hidden=[4], seed=0)
    new = rng.standard_normal(flow.num_params)
    flow.set_params(new)
    assert np.array_equal(flow.params, new) and not np.shares_memory(flow.params, new)
    c = flow.p_nets[1]
    assert np.array_equal(c.net.biases[-1], new[c.span][-c.net.out_dim:])
    x = np.append([0.3, -0.2], 0.5)
    w1, b1, w2, b2 = (new[c.span][i:j] for i, j in ((0, 12), (12, 16), (16, 24), (24, 26)))
    expected = w2.reshape(2, 4) @ np.tanh(w1.reshape(4, 3) @ x + b1) + b2
    assert np.allclose(c([0.3, -0.2], 0.5), expected, rtol=1e-13, atol=1e-15)
    copy = flow.get_params()
    copy[:] = 0.0
    assert np.array_equal(flow.params, new)


def test_set_params_size_mismatch():
    flow = VerletFlow(2, 2, order=0, hidden=[4], seed=0)
    before = flow.get_params()
    # a single value must not broadcast over the vector
    for bad in (np.zeros(flow.num_params + 1), np.zeros(1), 0.0):
        with pytest.raises(ValueError):
            flow.set_params(bad)
    assert np.array_equal(flow.params, before)


@pytest.mark.parametrize("rows", [128, 1024])
def test_flow_set_params_load_and_pickle_remake_the_weight_copies(rows, rng, tmp_path):
    """``set_params``, ``load_checkpoint`` and a pickle round trip each give
    a flow whose field is, byte for byte, that of the flow that drew its
    parameters; the copies' views stay read-only in all three."""
    built = VerletFlow(2, 2, order=1, hidden=(64, 64, 64), seed=1)
    into = VerletFlow(2, 2, order=1, hidden=(64, 64, 64), seed=2)
    into.set_params(built.params)
    save_checkpoint(tmp_path / "ck.txt", built)
    q, p = rng.standard_normal((rows, 2)), rng.standard_normal((rows, 2))
    want = built.eval_field(q, p, 0.3, [])
    for flow in (into, load_checkpoint(tmp_path / "ck.txt"), pickle.loads(pickle.dumps(built))):
        for got, ref in zip(flow.eval_field(q, p, 0.3, []), want, strict=True):
            assert got.tobytes() == ref.tobytes()
        for c in flow.q_nets + flow.p_nets:
            assert np.shares_memory(c.net.params, flow.params)
            assert not (flow.params.flags.writeable or c.net.weights[1].flags.writeable)
