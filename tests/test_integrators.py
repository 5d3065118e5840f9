"""Taylor-Verlet and RK4 integration: analytic oracles, exact inversion,
the recorded reverse sweep, cross-method agreement, and probe/seed
plumbing."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verletflow.flow as flow_module
import verletflow.integrators as integ
from verletflow.autodiff import Mlp
from verletflow.flow import DENSE, DIAGONAL, PhaseState, VerletFlow
from verletflow.importance import rademacher_probes
from verletflow.integrators import (
    IntegratorConfig,
    integrate,
    rk4_integrate,
    verlet_integrate,
    verlet_vjp,
)


def linear_q_flow(s1):
    """Order-1 flow whose q-field is diag(s1)*q and whose p-field is zero.

    Built by zeroing every net and setting the q-side k=1 output bias, so
    the coefficient is constant in (p, t).
    """
    flow = VerletFlow(len(s1), len(s1), order=1, hidden=[4], seed=0).zero_()
    flow.q_nets[1].net.biases[-1][:] = np.asarray(s1, dtype=np.float64)
    return flow


def probes_for(state, cfg):
    """The rk4-hutchinson probe bank of a state whose rows are samples
    0..n-1 under ``cfg.seed`` (None for the other methods)."""
    if cfg.method != "rk4-hutchinson":
        return None
    lead = state.q.shape[:-1]
    bank = rademacher_probes(cfg.seed, range(math.prod(lead)),
                             cfg.hutchinson_probes, state.d_q + state.d_p)
    return bank.reshape(lead + bank.shape[1:])


# -- config validation -------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(steps=0)
    with pytest.raises(ValueError):
        IntegratorConfig(t0=0.5, t1=0.5)
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk4-hutchinson", hutchinson_probes=0)
    assert IntegratorConfig(t0=1.0, t1=0.0, steps=4).tau == -0.25


@pytest.mark.parametrize("t0,t1", [(0.0, 2.0), (-0.5, 1.0), (1.0, 1.5),
                                   (0.0, float("nan"))])
def test_config_rejects_times_outside_unit_interval(t0, t1):
    # a usage error before any step, not a divergence after all of them
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        IntegratorConfig(t0=t0, t1=t1, steps=4)


def test_integrate_dispatch_checks_method(small_flow, rng):
    state = PhaseState(q=rng.standard_normal(2), p=rng.standard_normal(2), t=0.0)
    with pytest.raises(ValueError):
        verlet_integrate(small_flow, state, IntegratorConfig(method="rk4-exact"))
    with pytest.raises(ValueError):
        rk4_integrate(small_flow, state, IntegratorConfig(method="taylor-verlet"))
    with pytest.raises(ValueError):
        verlet_integrate(
            small_flow, state.with_(t=0.5), IntegratorConfig(t0=0.0, t1=1.0)
        )
    with pytest.raises(ValueError, match="state.t"):
        rk4_integrate(small_flow, state.with_(t=0.5), IntegratorConfig(method="rk4-exact"))


# -- identity flow -----------------------------------------------------------


def test_identity_flow_is_noop(identity_flow, rng):
    q = rng.standard_normal(2)
    p = rng.standard_normal(2)
    state = PhaseState(q=q, p=p, t=0.0)
    for method in ("taylor-verlet", "rk4-exact", "rk4-hutchinson"):
        cfg = IntegratorConfig(steps=10, method=method)
        res = integrate(identity_flow, state, cfg, probes_for(state, cfg))
        assert np.allclose(res.state.q, q, atol=1e-15)
        assert np.allclose(res.state.p, p, atol=1e-15)
        assert abs(float(np.asarray(res.dlogp))) < 1e-14


# -- analytic linear flow ----------------------------------------------------


@pytest.mark.parametrize("steps", [1, 10, 100])
def test_linear_flow_matches_closed_form(steps, rng):
    s1 = np.array([0.4, -0.7])
    flow = linear_q_flow(s1)
    q0 = rng.standard_normal(2)
    p0 = rng.standard_normal(2)
    res = verlet_integrate(
        flow, PhaseState(q=q0, p=p0, t=0.0), IntegratorConfig(steps=steps)
    )
    # each step scales q by exp(tau*s1) exactly, so any step count composes
    # to exp((t1-t0)*s1); dlogp = -(t1-t0)*sum(s1)
    assert np.allclose(res.state.q, np.exp(s1) * q0, atol=1e-10)
    assert np.allclose(res.state.p, p0, atol=1e-15)
    assert abs(float(res.dlogp) - (-(s1.sum()))) < 1e-10


def test_linear_flow_partial_interval():
    s1 = np.array([0.2, 0.3])
    flow = linear_q_flow(s1)
    q0 = np.array([1.0, -2.0])
    res = verlet_integrate(
        flow,
        PhaseState(q=q0, p=q0, t=0.25),
        IntegratorConfig(t0=0.25, t1=0.75, steps=7),
    )
    assert np.allclose(res.state.q, np.exp(0.5 * s1) * q0, atol=1e-12)
    assert abs(float(res.dlogp) + 0.5 * s1.sum()) < 1e-12


# -- exact inversion ---------------------------------------------------------


def test_forward_reverse_roundtrip(small_flow, rng):
    # the reverse run starts from the forward run's dlogp, so every method
    # must carry the incoming log-density change; Verlet inverts exactly,
    # RK4 to its truncation error
    q = rng.standard_normal((6, 2))
    p = rng.standard_normal((6, 2))
    state = PhaseState(q=q, p=p, t=0.0)
    for method, tol in (("taylor-verlet", 1e-10), ("rk4-exact", 1e-9),
                        ("rk4-hutchinson", 1e-9)):
        fwd_cfg = IntegratorConfig(steps=37, method=method)
        fwd = integrate(small_flow, state, fwd_cfg, probes_for(state, fwd_cfg))
        assert np.abs(fwd.dlogp).min() > 1e-2
        back_cfg = IntegratorConfig(t0=1.0, t1=0.0, steps=37, method=method)
        back = integrate(small_flow, fwd.state, back_cfg, probes_for(state, back_cfg))
        assert np.abs(back.state.q - q).max() < tol
        assert np.abs(back.state.p - p).max() < tol
        assert np.abs(np.asarray(back.dlogp)).max() < tol


def test_roundtrip_higher_order(rng):
    flow = VerletFlow(2, 2, order=2, hidden=[6], seed=11)
    # scale down the k=2 coefficients so trajectories avoid the singular set
    for side in ("q", "p"):
        flow.nets(side)[2].net.weights[-1] *= 0.05
    q = rng.uniform(0.5, 1.5, size=2)
    p = rng.uniform(0.5, 1.5, size=2)
    fwd = verlet_integrate(
        flow, PhaseState(q=q, p=p, t=0.0), IntegratorConfig(steps=50)
    )
    back = verlet_integrate(flow, fwd.state, IntegratorConfig(t0=1.0, t1=0.0, steps=50))
    assert np.abs(back.state.q - q).max() < 1e-9
    assert abs(float(back.dlogp)) < 1e-9


# -- recorded reverse sweep --------------------------------------------------


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("rows", [1024, 37], ids=["block", "tail"])
@pytest.mark.parametrize("t0,t1", [(0.0, 1.0), (1.0, 0.0)], ids=["fwd", "rev"])
def test_workspace_run_matches_recorded_bits(order, rows, t0, t1):
    # an unrecorded run passes one activation list to all its net calls; a
    # recorded run gives each substep a new one, so any aliasing would show
    # as a bit difference between the two
    flow = VerletFlow(2, 3, order, hidden=[16, 8, 32], seed=order)
    for side in ("q", "p"):
        for c in flow.nets(side)[2:]:
            c.net.weights[-1] *= 0.05
    rng = np.random.default_rng(order)
    state = PhaseState(q=rng.uniform(0.5, 1.5, (rows, 2)),
                       p=rng.uniform(0.5, 1.5, (rows, 3)), t=t0)
    cfg = IntegratorConfig(t0=t0, t1=t1, steps=5)
    plain = verlet_integrate(flow, state, cfg)
    recorded = verlet_integrate(flow, state, cfg, record=[])
    assert np.array_equal(plain.state.q, recorded.state.q)
    assert np.array_equal(plain.state.p, recorded.state.p)
    assert np.array_equal(plain.dlogp, recorded.dlogp)


@pytest.mark.parametrize(
    "order,form",
    [(0, DIAGONAL), (1, DIAGONAL), (2, DIAGONAL), (3, DIAGONAL), (1, DENSE)],
    ids=["0", "1", "2", "3", "1-dense"],
)
@pytest.mark.parametrize("t0,t1", [(0.0, 1.0), (1.0, 0.0)], ids=["fwd", "rev"])
def test_verlet_vjp_matches_fd(order, form, t0, t1, rng, fd_grad):
    """Parameter and start-state gradients of <wq, q1> + <wp, p1> +
    <wl, dlogp> through a recorded run, in both directions and for the
    dense k=1 form, against finite differences."""
    flow = VerletFlow(2, 2, order=order, hidden=[5], seed=20 + order,
                      k1_form=form)
    for c in flow.q_nets[2:] + flow.p_nets[2:]:
        c.net.weights[-1] *= 0.05
    cfg = IntegratorConfig(t0=t0, t1=t1, steps=3)
    start = PhaseState(q=rng.uniform(0.5, 1.5, (4, 2)),
                       p=rng.uniform(0.5, 1.5, (4, 2)), t=t0)
    wq, wp = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    wl = rng.standard_normal(4)

    def objective(q=start.q, p=start.p):
        res = verlet_integrate(flow, PhaseState(q=q, p=p, t=t0), cfg)
        return float((wq * res.state.q).sum() + (wp * res.state.p).sum()
                     + (wl * res.dlogp).sum())

    record = []
    plain = verlet_integrate(flow, start, cfg)
    res = verlet_integrate(flow, start, cfg, record)
    assert np.array_equal(res.state.q, plain.state.q)
    assert np.array_equal(res.dlogp, plain.dlogp)
    assert len(record) == res.field_evaluations
    g, g_q0, g_p0 = verlet_vjp(flow, record, wq, wp, wl)
    assert np.allclose(g_q0, fd_grad(lambda q: objective(q=q), start.q),
                       rtol=1e-5, atol=1e-8)
    assert np.allclose(g_p0, fd_grad(lambda p: objective(p=p), start.p),
                       rtol=1e-5, atol=1e-8)
    p0 = flow.get_params()
    h = 1e-6
    for i in rng.choice(p0.size, size=30, replace=False):
        pert = p0.copy()
        pert[i] += h
        flow.set_params(pert)
        fp = objective()
        pert[i] -= 2 * h
        flow.set_params(pert)
        fm = objective()
        fd = (fp - fm) / (2 * h)
        assert abs(g[i] - fd) <= 1e-5 * max(1.0, abs(fd))
    flow.set_params(p0)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
def test_composed_jacobian_logdet_matches_dlogp(order, d):
    """The exact Jacobian oracle: one reverse sweep over D = 2d copies of a
    start point, seeded with the identity rows and a zero dlogp cotangent,
    returns every row of the composed map's Jacobian J.  J must match a
    central-FD Jacobian of the forward map entrywise (so the cross-side
    blocks, which log det J cannot see, are checked too), and log det J must
    equal the log-det that the forward run accumulated, -dlogp."""
    rng = np.random.default_rng(100 * order + d)
    flow = VerletFlow(d, d, order=order, hidden=[8], seed=order + d)
    for c in flow.q_nets[2:] + flow.p_nets[2:]:
        c.net.weights[-1] *= 0.05
    q0 = rng.uniform(0.5, 1.5, d) * rng.choice([-1.0, 1.0], d)
    p0 = rng.uniform(0.5, 1.5, d) * rng.choice([-1.0, 1.0], d)
    dim = 2 * d
    start = PhaseState(q=np.tile(q0, (dim, 1)), p=np.tile(p0, (dim, 1)), t=0.0)
    record = []
    res = verlet_integrate(flow, start, IntegratorConfig(steps=4), record)
    eye = np.eye(dim)
    _, g_q0, g_p0 = verlet_vjp(flow, record, eye[:, :d], eye[:, d:], np.zeros(dim))
    jac = np.hstack([g_q0, g_p0])
    # column j of J from the forward map at x0 +- h e_j, all in one batch
    h = 1e-6
    x0 = np.concatenate([q0, p0])
    x = np.vstack([x0 + h * eye, x0 - h * eye])
    out = verlet_integrate(flow, PhaseState(q=x[:, :d], p=x[:, d:], t=0.0),
                           IntegratorConfig(steps=4)).state
    y = np.hstack([out.q, out.p])
    jac_fd = ((y[:dim] - y[dim:]) / (2 * h)).T
    assert np.abs(jac - jac_fd).max() <= 1e-7 * max(1.0, np.abs(jac).max())
    sign, logdet = np.linalg.slogdet(jac)
    assert sign == 1.0
    assert abs(logdet + res.dlogp[0]) < 1e-12


# -- cross-method agreement --------------------------------------------------


def test_rk4_agrees_with_verlet_in_small_step_limit(small_flow, rng):
    q = rng.standard_normal(2)
    p = rng.standard_normal(2)
    state = PhaseState(q=q, p=p, t=0.0)
    rv = verlet_integrate(small_flow, state, IntegratorConfig(steps=400))
    rr = rk4_integrate(
        small_flow, state, IntegratorConfig(steps=400, method="rk4-exact")
    )
    assert np.abs(rv.state.q - rr.state.q).max() < 1e-3
    assert np.abs(rv.state.p - rr.state.p).max() < 1e-3
    assert abs(float(rv.dlogp) - float(rr.dlogp)) < 1e-3


def test_hutchinson_and_exact_share_trajectories(small_flow, rng):
    state = PhaseState(
        q=rng.standard_normal((3, 2)), p=rng.standard_normal((3, 2)), t=0.0
    )
    re = rk4_integrate(
        small_flow, state, IntegratorConfig(steps=20, method="rk4-exact", seed=9)
    )
    cfg = IntegratorConfig(steps=20, method="rk4-hutchinson", seed=9)
    rh = rk4_integrate(small_flow, state, cfg, probes_for(state, cfg))
    assert np.array_equal(re.state.q, rh.state.q)
    assert np.array_equal(re.state.p, rh.state.p)
    assert not np.array_equal(np.asarray(re.dlogp), np.asarray(rh.dlogp))


def test_hutchinson_unbiased_over_probes(small_flow, rng):
    # averaging the one-probe estimates over many seeds approaches exact
    state = PhaseState(q=rng.standard_normal(2), p=rng.standard_normal(2), t=0.0)
    exact = float(
        rk4_integrate(
            small_flow, state, IntegratorConfig(steps=10, method="rk4-exact")
        ).dlogp
    )
    cfgs = [IntegratorConfig(steps=10, method="rk4-hutchinson", seed=s)
            for s in range(200)]
    ests = [float(rk4_integrate(small_flow, state, cfg, probes_for(state, cfg)).dlogp)
            for cfg in cfgs]
    spread = np.std(ests)
    assert abs(np.mean(ests) - exact) < 4 * spread / np.sqrt(len(ests)) + 1e-6


# -- trace oracles -----------------------------------------------------------


def _random_field(order, d_q, d_p, rows, dense, seed):
    """A random flow and a recorded field evaluation at a random state."""
    rng = np.random.default_rng(seed)
    flow = VerletFlow(d_q, d_p, order=order, hidden=[5], seed=seed % 997,
                      k1_form=DENSE if dense else "diagonal")
    lead = () if rows is None else (rows,)
    state = PhaseState(q=rng.standard_normal(lead + (d_q,)),
                       p=rng.standard_normal(lead + (d_p,)), t=rng.uniform())
    record = []
    flow.eval_field(state.q, state.p, state.t, record)
    return flow, state, record, rng


TRACE_CASES = dict(
    order=st.integers(0, 3),
    d_q=st.integers(1, 4),
    d_p=st.integers(1, 4),
    rows=st.sampled_from([None, 1, 3]),
    dense=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(**TRACE_CASES)
def test_exact_trace_matches_closed_form(order, d_q, d_p, rows, dense, seed):
    """tr df/d(q, p) = sum over sides and k >= 1 of k * s_k . x^(k-1), with
    tr M for a dense k=1 coefficient."""
    flow, state, record, _ = _random_field(order, d_q, d_p, rows, dense, seed)
    want = np.zeros(state.q.shape[:-1])
    for side, x, opp in (("q", state.q, state.p), ("p", state.p, state.q)):
        for k in range(1, order + 1):
            s = flow.nets(side)[k](opp, state.t)
            if k == 1 and dense:
                want = want + np.trace(s, axis1=-2, axis2=-1)
            else:
                want = want + (k * s * x ** (k - 1)).sum(axis=-1)
    bank, draws = integ._seed_bank(IntegratorConfig(method="rk4-exact"),
                                   state.q, state.p, None)
    assert draws == 1
    got = integ._trace(flow, state.q, state.p, record, bank)
    assert np.shape(got) == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(probes=st.integers(1, 3), **TRACE_CASES)
def test_hutchinson_trace_is_probe_quadratic_form(order, d_q, d_p, rows, dense,
                                                  seed, probes):
    """The estimate is the probe mean of eps^T J eps, with J built row by
    row from the field VJP."""
    flow, state, record, rng = _random_field(order, d_q, d_p, rows, dense, seed)
    cfg = IntegratorConfig(method="rk4-hutchinson", hutchinson_probes=probes,
                           seed=seed % 997)
    probes_bank = probes_for(state, cfg)
    lead = state.q.shape[:-1]
    rows_j = []
    for i in range(d_q + d_p):
        e = np.zeros(lead + (d_q + d_p,))
        e[..., i] = 1.0
        gq, gp = flow.field_vjp(state.q, state.p, record, e[..., :d_q], e[..., d_q:])
        rows_j.append(np.concatenate([gq, gp], axis=-1))
    jac = np.stack(rows_j, axis=-2)  # (..., out, in)
    eps = probes_bank.astype(np.float64)  # (..., probes, d)
    want = np.einsum("...ja,...ab,...jb->...j", eps, jac, eps).mean(axis=-1)
    bank, draws = integ._seed_bank(cfg, state.q, state.p, probes_bank)
    assert draws == probes
    got = integ._trace(flow, state.q, state.p, record, bank) / draws
    assert np.shape(got) == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("method", ["rk4-exact", "rk4-hutchinson"])
def test_rk4_runs_dense_k1_flows(method, rng):
    flow = VerletFlow(2, 2, order=1, hidden=[4], seed=3, k1_form=DENSE)
    state = PhaseState(q=rng.standard_normal((5, 2)),
                       p=rng.standard_normal((5, 2)), t=0.0)
    cfg = IntegratorConfig(steps=4, method=method)
    res = rk4_integrate(flow, state, cfg, probes_for(state, cfg))
    assert np.all(np.isfinite(res.state.q)) and np.all(np.isfinite(res.dlogp))


# -- counters and bookkeeping ------------------------------------------------


def test_field_evaluation_counters(small_flow, rng):
    state = PhaseState(q=rng.standard_normal(2), p=rng.standard_normal(2), t=0.0)
    rv = verlet_integrate(small_flow, state, IntegratorConfig(steps=8))
    # order-1 flow: (order+1) coefficients x 2 sides per step
    assert rv.field_evaluations == 8 * 2 * 2
    rr = rk4_integrate(small_flow, state, IntegratorConfig(steps=8, method="rk4-exact"))
    assert rr.field_evaluations == 4 * 8


@pytest.mark.parametrize("method,probes,vjps,net_vjps",
                         [("rk4-exact", 1, 2, 0), ("rk4-hutchinson", 1, 1, 4),
                          ("rk4-hutchinson", 3, 3, 12)],
                         ids=["exact", "hutchinson-1", "hutchinson-3"])
def test_rk4_stage_vjp_count(small_flow, rng, monkeypatch, method, probes, vjps, net_vjps):
    # a stage takes one field VJP per side (exact) or per probe (Hutchinson);
    # an exact VJP seeds one side, forms no coefficient cotangent and sweeps
    # no net, a probe forms one per net and sweeps all four of the order-1
    # flow's nets
    calls, net_calls, coeff_calls = [], [], []
    real, real_net, real_coeff = VerletFlow.field_vjp, Mlp.vjp, flow_module.coefficient_vjp
    monkeypatch.setattr(VerletFlow, "field_vjp",
                        lambda *args: calls.append(1) or real(*args))
    monkeypatch.setattr(Mlp, "vjp", lambda *args: net_calls.append(1) or real_net(*args))
    monkeypatch.setattr(flow_module, "coefficient_vjp",
                        lambda *args: coeff_calls.append(1) or real_coeff(*args))
    state = PhaseState(q=rng.standard_normal((3, 2)),
                       p=rng.standard_normal((3, 2)), t=0.0)
    cfg = IntegratorConfig(steps=1, method=method, hutchinson_probes=probes)
    rk4_integrate(small_flow, state, cfg, probes_for(state, cfg))
    assert len(calls) == 4 * vjps
    assert len(net_calls) == len(coeff_calls) == 4 * net_vjps


def test_singularity_becomes_integration_error():
    # the failing row is recorded at its substep and holds the state it had
    # before it; the other row runs on as if alone (nll_batch turns such a
    # record into IntegrationError)
    flow = VerletFlow(1, 1, order=2, hidden=[2], seed=0).zero_()
    flow.q_nets[2].net.biases[-1][:] = 50.0  # base sign flip for q > 0.02
    cfg = IntegratorConfig(steps=1)
    res = verlet_integrate(flow, PhaseState(q=[[1.0], [-1.0]], p=[[1.0], [1.0]], t=0.0), cfg)
    assert res.failed.tolist() == [True, False]
    assert res.failures[0].tolist() == (0, "q", 2, 0)
    assert (res.state.q[0, 0], res.state.p[0, 0], res.dlogp[0]) == (1.0, 1.0, 0.0)
    alone = verlet_integrate(flow, PhaseState(q=[-1.0], p=[1.0], t=0.0), cfg)
    assert not alone.failed
    assert np.array_equal(res.state.q[1], alone.state.q) and res.dlogp[1] == alone.dlogp


def test_failed_row_holds_through_later_steps():
    # the failing row keeps its record and its state from before the failing
    # substep over every later step; the other row runs on as if alone
    flow = VerletFlow(1, 1, order=2, hidden=[2], seed=0).zero_()
    flow.q_nets[2].net.biases[-1][:] = 50.0  # base sign flip for q > 0.02
    cfg = IntegratorConfig(steps=3)
    res = verlet_integrate(flow, PhaseState(q=[[1.0], [-1.0]], p=[[1.0], [1.0]], t=0.0), cfg)
    assert res.failed.tolist() == [True, False]
    assert res.failures[0].tolist() == (0, "q", 2, 0)
    assert (res.state.q[0, 0], res.state.p[0, 0], res.dlogp[0]) == (1.0, 1.0, 0.0)
    alone = verlet_integrate(flow, PhaseState(q=[-1.0], p=[1.0], t=0.0), cfg)
    assert not alone.failed
    assert np.array_equal(res.state.q[1], alone.state.q)
    assert np.array_equal(res.state.p[1], alone.state.p) and res.dlogp[1] == alone.dlogp


@pytest.mark.parametrize("method", ["rk4-exact", "rk4-hutchinson"])
def test_rk4_stage_overflow_is_integration_error(method):
    # a row that overflows in a step is recorded at that step and holds the
    # state it started the step with
    cfg = IntegratorConfig(steps=10, method=method)
    # q^2 and q^3 are finite at the step's start and overflow at its midpoint
    flow = VerletFlow(1, 1, order=3, hidden=[2], seed=0).zero_()
    flow.q_nets[2].net.biases[-1][:] = 1.0
    flow.q_nets[3].net.biases[-1][:] = 1.0
    state = PhaseState(q=[1e100], p=[0.0], t=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        res = rk4_integrate(flow, state, cfg, probes_for(state, cfg))
    assert res.failures.tolist() == (0, "q", 2, 0)
    assert res.state.q.tolist() == [1e100] and res.dlogp == 0.0
    # a finite field that carries the last stage's input past the float range
    flow = VerletFlow(1, 1, order=0, hidden=[2], seed=0).zero_()
    flow.q_nets[0].net.biases[-1][:] = 1e308
    state = PhaseState(q=[1e308], p=[0.0], t=0.0)
    cfg = IntegratorConfig(steps=1, method=method)
    with np.errstate(over="ignore"):
        res = rk4_integrate(flow, state, cfg, probes_for(state, cfg))
    assert res.failures.tolist() == (0, "q", -1, 0)
    assert res.state.q.tolist() == [1e308]


def dlogp_overflow_start():
    return PhaseState(q=[[0.3, -0.2], [0.1, 0.4]], p=[[0.5, 0.1], [-0.2, 0.3]], t=0.0)


def test_verlet_logdet_overflow_fails_the_row():
    # a coefficient of -inf sends q to 0, a finite state, and the log-det to
    # -inf: the row fails at that substep and holds its start, dlogp 0
    flow = VerletFlow(2, 2, order=1, hidden=[3], seed=0).zero_()
    net = flow.q_nets[1].net
    net.weights[0][:], net.biases[0][:], net.weights[-1][:] = 0.0, 1.0, -1e308
    state = dlogp_overflow_start()
    with np.errstate(all="ignore"):
        res = verlet_integrate(flow, state, IntegratorConfig(steps=2))
    assert res.failures.tolist() == [(0, "q", 1, 0)] * 2
    assert np.array_equal(res.state.q, state.q) and np.array_equal(res.state.p, state.p)
    assert res.dlogp.tolist() == [0.0, 0.0]


def test_rk4_trace_overflow_fails_the_row():
    # finite fields whose Hutchinson trace is NaN: the row fails at the step
    # end's dlogp site and holds its start, dlogp 0; rk4-exact stays finite
    flow = VerletFlow(2, 2, order=1, hidden=[3], seed=0)
    for c in flow.q_nets + flow.p_nets:
        c.net.weights[0][:], c.net.weights[-1][:], c.net.biases[-1][:] = 0.0, 1e308, 0.01
    state = dlogp_overflow_start()
    cfg = IntegratorConfig(steps=2, method="rk4-hutchinson")
    with np.errstate(all="ignore"):
        res = rk4_integrate(flow, state, cfg, rademacher_probes(0, range(2), 1, 4))
        exact = rk4_integrate(flow, state, IntegratorConfig(steps=2, method="rk4-exact"))
    assert res.failures.tolist() == [(0, "", -1, 0)] * 2
    assert np.array_equal(res.state.q, state.q) and np.array_equal(res.state.p, state.p)
    assert res.dlogp.tolist() == [0.0, 0.0]
    assert not exact.failed.any() and np.isfinite(exact.dlogp).all()


# -- probes ------------------------------------------------------------------


def test_rademacher_probes_per_sample_split():
    bank = rademacher_probes(3, range(5), probes=2, dim=4)
    assert bank.shape == (5, 2, 4)
    assert set(np.unique(bank)) <= {-1, 1}
    # sample identity, not position, determines the probes
    shifted = rademacher_probes(3, range(2, 7), probes=2, dim=4)
    assert np.array_equal(bank[2:], shifted[:3])
    assert not np.array_equal(bank, rademacher_probes(4, range(5), 2, 4))


def test_more_probes_reduce_variance(small_flow, rng):
    state = PhaseState(q=rng.standard_normal(2), p=rng.standard_normal(2), t=0.0)
    exact = float(
        rk4_integrate(
            small_flow, state, IntegratorConfig(steps=10, method="rk4-exact")
        ).dlogp
    )

    def spread(probes):
        cfgs = [IntegratorConfig(steps=10, method="rk4-hutchinson",
                                 hutchinson_probes=probes, seed=s)
                for s in range(60)]
        vals = [float(rk4_integrate(small_flow, state, cfg, probes_for(state, cfg)).dlogp)
                for cfg in cfgs]
        return np.sqrt(np.mean((np.array(vals) - exact) ** 2))

    assert spread(8) < spread(1)


@pytest.mark.parametrize("method", ["rk4-exact", "rk4-hutchinson"])
def test_rk4_traces_leave_no_cyclic_garbage(small_flow, rng, method):
    # a trace's field record is freed by refcount once the trace is taken
    state = PhaseState(q=rng.standard_normal((8, 2)),
                       p=rng.standard_normal((8, 2)), t=0.0)
    gc.collect()
    gc.disable()
    try:
        cfg = IntegratorConfig(steps=2, method=method)
        rk4_integrate(small_flow, state, cfg, probes_for(state, cfg))
        assert gc.collect() == 0
    finally:
        gc.enable()
