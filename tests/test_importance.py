"""Importance-sampling log Z estimation: exactness on an identity flow,
per-sample seeding, curve/SD bookkeeping, invalid-weight handling."""

import numpy as np
import pytest
from scipy.special import logsumexp

from verletflow import IntegratorConfig, PhaseState, VerletFlow, integrate
from verletflow.densities import (
    UnnormalizedDensity,
    standard_normal,
    standard_normal_logpdf,
)
import verletflow.importance as importance
from verletflow.importance import (
    SD_BATCHES,
    estimate_logZ,
    log_mean_exp,
    log_weights,
    rademacher_probes,
    source_rows,
)


@pytest.fixture
def normal_target():
    """Unnormalized standard normal on q with known offset log 5."""
    return UnnormalizedDensity(standard_normal(2), logZ_true=np.log(5.0))


def test_log_mean_exp_matches_direct(rng):
    x = rng.standard_normal(100)
    assert np.isclose(log_mean_exp(x), np.log(np.mean(np.exp(x))), atol=1e-12)
    # stability: huge values must not overflow
    assert np.isclose(log_mean_exp(x + 1000), log_mean_exp(x) + 1000, atol=1e-9)


def test_source_rows_are_batch_independent():
    x = importance.source_rows(4, 0, 10, 5)
    assert x.shape == (10, 5)
    assert np.array_equal(x[:4], importance.source_rows(4, 0, 4, 5))
    # a row depends on (seed, index) only, not on where its range starts
    assert np.array_equal(x[3:7], importance.source_rows(4, 3, 7, 5))


def test_direct_integration_takes_the_estimators_probes():
    # the estimator is the one source of probes: a direct call given sample
    # i's draw and probes reproduces sample i's model log-density, and the
    # integrator draws none of its own
    flow = VerletFlow(2, 2, 1, hidden=[8], seed=4)
    cfg = IntegratorConfig(steps=2, seed=5, method="rk4-hutchinson",
                           hutchinson_probes=2)
    x0 = source_rows(5, 1024, 2048, 4)
    eps = rademacher_probes(5, range(1024, 2048), 2, 4)
    state = PhaseState(q=x0[:, :2], p=x0[:, 2:], t=0.0)
    res = integrate(flow, state, cfg, hutchinson_eps=eps)
    *_, log_model = next(importance.push_blocks(flow, cfg, 1024, 2048))
    assert (standard_normal_logpdf(x0) + res.dlogp).tobytes() == log_model.tobytes()
    with pytest.raises(ValueError, match="probe bank"):
        integrate(flow, state, cfg)
    with pytest.raises(ValueError, match="probe bank"):  # one sample's shape
        integrate(flow, state, cfg, hutchinson_eps=eps[:1])
    with pytest.raises(ValueError, match="probe bank"):
        integrate(flow, state, IntegratorConfig(steps=2, method="rk4-exact"),
                  hutchinson_eps=eps)


def test_identity_flow_weights_are_exact(identity_flow, normal_target):
    # identity map, target = source on q up to the injected constant:
    # every log-weight equals logZ_true exactly
    lw = log_weights(
        identity_flow, normal_target, 50, IntegratorConfig(steps=5, seed=0)
    )
    assert np.allclose(lw, np.log(5.0), atol=1e-12)


def test_log_weights_worker_count_invariance(identity_flow, normal_target):
    cfg = IntegratorConfig(steps=5, seed=3)
    lw1 = log_weights(identity_flow, normal_target, 20, cfg, workers=1)
    lw3 = log_weights(identity_flow, normal_target, 20, cfg, workers=3)
    assert np.array_equal(lw1, lw3)


@pytest.mark.parametrize(
    "method,n,steps",
    [("taylor-verlet", 1024, 5), ("taylor-verlet", 3000, 5),
     ("rk4-hutchinson", 1100, 2)],
    ids=["1024", "3000", "rk4-hutchinson-1100"],
)
def test_log_weights_byte_identical_across_workers(normal_target, method, n, steps):
    # a random width-64 flow: chunks split at other than whole blocks
    # (e.g. 512-row halves) take a different BLAS kernel and change bits;
    # rk4-hutchinson also draws each block's probes per sample
    flow = VerletFlow(2, 2, 1, hidden=(64, 64, 64), seed=0)
    cfg = IntegratorConfig(steps=steps, seed=0, method=method)
    ref = log_weights(flow, normal_target, n, cfg, workers=1)
    assert np.all(np.isfinite(ref))
    for workers in (2, 3):
        lw = log_weights(flow, normal_target, n, cfg, workers=workers)
        assert lw.tobytes() == ref.tobytes(), f"workers={workers}"


def test_log_weights_all_methods_agree_on_identity(identity_flow, normal_target):
    vals = {}
    for method in ("taylor-verlet", "rk4-exact", "rk4-hutchinson"):
        cfg = IntegratorConfig(steps=5, seed=1, method=method)
        vals[method] = log_weights(identity_flow, normal_target, 10, cfg)
    for lw in vals.values():
        assert np.allclose(lw, np.log(5.0), atol=1e-10)


def test_estimate_logz_curve_layout(identity_flow, normal_target):
    rep = estimate_logZ(
        identity_flow, normal_target, 1000, IntegratorConfig(steps=5, seed=0)
    )
    assert [m for m, _, _ in rep.logZ_curve] == [10, 100, 1000]
    assert np.isclose(rep.logZ, np.log(5.0), atol=1e-12)
    assert rep.sd < 1e-12  # constant weights
    assert rep.invalid_count == 0 and not rep.unreliable
    assert rep.method == "taylor-verlet"
    assert rep.wall_seconds > 0


def test_estimate_logz_sd_is_chunked_std(small_flow):
    target = UnnormalizedDensity(standard_normal(2), logZ_true=0.0)
    cfg = IntegratorConfig(steps=10, seed=2)
    rep = estimate_logZ(small_flow, target, 200, cfg)
    lw = rep.log_weights
    chunks = np.array_split(lw, SD_BATCHES)
    sub = [logsumexp(c) - np.log(c.size) for c in chunks]
    assert np.isclose(rep.sd, np.std(sub, ddof=1), atol=1e-12)
    assert np.isclose(rep.logZ, logsumexp(lw) - np.log(lw.size), atol=1e-12)


def test_estimate_logz_converges_on_random_flow(small_flow):
    # a fixed random flow is still a valid proposal for the normal target
    target = UnnormalizedDensity(standard_normal(2), logZ_true=0.0)
    rep = estimate_logZ(small_flow, target, 4000, IntegratorConfig(steps=25, seed=0))
    assert abs(rep.logZ) < max(3 * rep.sd, 0.1)


def test_invalid_weights_are_nan_and_counted(normal_target):
    # order-2 flow with a huge k=2 coefficient: most trajectories blow up
    flow = VerletFlow(2, 2, order=2, hidden=[2], seed=0).zero_()
    flow.q_nets[2].net.biases[-1][:] = 200.0
    rep = estimate_logZ(
        flow, normal_target, 40, IntegratorConfig(steps=3, seed=0)
    )
    assert rep.invalid_count > 0
    assert np.isnan(rep.log_weights).sum() == rep.invalid_count
    assert rep.unreliable
    # the estimate itself uses only the valid weights
    finite = rep.log_weights[np.isfinite(rep.log_weights)]
    if finite.size:
        assert np.isclose(rep.logZ, logsumexp(finite) - np.log(finite.size))


@pytest.mark.parametrize("method", ["rk4-exact", "rk4-hutchinson"])
def test_rk4_overflow_counts_as_failed_samples(normal_target, method):
    # order-3 flow whose q^2 and q^3 terms overflow inside an RK4 stage:
    # the failing samples come back NaN, without a warning, instead of the
    # estimate raising
    flow = VerletFlow(2, 2, order=3, hidden=[2], seed=0).zero_()
    flow.q_nets[2].net.biases[-1][:] = 100.0
    flow.q_nets[3].net.biases[-1][:] = 100.0
    rep = estimate_logZ(
        flow, normal_target, 64, IntegratorConfig(steps=10, seed=0, method=method)
    )
    assert rep.invalid_count > 0
    assert np.isnan(rep.log_weights).sum() == rep.invalid_count


def test_failing_block_falls_back_per_sample(normal_target, monkeypatch):
    # the same samples are invalid however the rows are blocked, the valid
    # weights of a failing block match the block-free values, and every
    # block is integrated once, failing rows or not
    flow = VerletFlow(2, 2, order=2, hidden=[2], seed=0).zero_()
    flow.q_nets[2].net.biases[-1][:] = 200.0
    cfg = IntegratorConfig(steps=3, seed=0)
    calls = []
    monkeypatch.setattr(importance, "integrate",
                        lambda *args, **kw: calls.append(1) or integrate(*args, **kw))
    ref = log_weights(flow, normal_target, 40, cfg)
    assert len(calls) == 1
    monkeypatch.setattr(importance, "BLOCK_ROWS", 7)
    lw = log_weights(flow, normal_target, 40, cfg)
    assert len(calls) == 1 + 6
    assert np.isnan(ref).any() and np.isfinite(ref).any()
    assert np.array_equal(np.isnan(lw), np.isnan(ref))
    assert np.allclose(lw, ref, rtol=0, atol=1e-12, equal_nan=True)


def test_good_rows_do_not_depend_on_failing_rows(normal_target, monkeypatch):
    # a row's weight has the same bits whichever other rows of its block
    # fail: here, when every failing source row is swapped for a good one
    flow = VerletFlow(2, 2, order=2, hidden=[16], seed=0)
    flow.set_params(3 * flow.params)
    cfg = IntegratorConfig(steps=20, seed=0)
    lw = log_weights(flow, normal_target, 64, cfg)
    bad = np.isnan(lw)
    assert bad.any() and not bad.all()
    rows = source_rows(cfg.seed, 0, 64, 4)
    swapped = np.where(bad[:, None], rows[~bad][0], rows)
    monkeypatch.setattr(importance, "source_rows", lambda seed, lo, hi, dim: swapped[lo:hi])
    again = log_weights(flow, normal_target, 64, cfg)
    assert np.isfinite(again).all()
    assert again[~bad].tobytes() == lw[~bad].tobytes()


@pytest.mark.parametrize("method", ["rk4-exact", "rk4-hutchinson"])
def test_rk4_refilled_record_matches_fresh_records(normal_target, method, monkeypatch):
    """rk4_integrate refills one record at every stage; clearing it first,
    so every stage records afresh, gives the same weights byte for byte
    over a full block and a tail."""
    flow = VerletFlow(2, 2, order=2, hidden=[16, 8, 32], seed=4)
    cfg = IntegratorConfig(steps=5, method=method, hutchinson_probes=2, seed=3)
    refilled = log_weights(flow, normal_target, 1100, cfg)
    eval_field = VerletFlow.eval_field

    def fresh(self, q, p, t, record):
        record.clear()
        return eval_field(self, q, p, t, record)

    monkeypatch.setattr(VerletFlow, "eval_field", fresh)
    assert np.isfinite(refilled).all()
    assert refilled.tobytes() == log_weights(flow, normal_target, 1100, cfg).tobytes()


def test_estimate_rejects_tiny_n(identity_flow, normal_target):
    with pytest.raises(ValueError):
        estimate_logZ(identity_flow, normal_target, 1, IntegratorConfig(steps=2))


def test_log_weights_speed_does_not_depend_on_heap_history(fresh_python):
    # in a fresh interpreter no earlier large allocation has raised the
    # allocator's trim threshold, so 512 KiB activations allocated per net
    # call would be handed back to the kernel and faulted in again on every
    # call (~12k minor faults here); the reused activation list takes a few hundred
    out = fresh_python(
        "import resource\n"
        "from verletflow import IntegratorConfig, VerletFlow\n"
        "from verletflow.densities import UnnormalizedDensity, standard_normal\n"
        "from verletflow.importance import log_weights\n"
        "flow = VerletFlow(2, 2, 1, seed=3)\n"
        "target = UnnormalizedDensity(standard_normal(2))\n"
        "cfg = IntegratorConfig(steps=10, seed=0)\n"
        "log_weights(flow, target, 2048, cfg)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "log_weights(flow, target, 2048, cfg)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    assert int(out) <= 2000
