"""Likelihood training: recorded and plain losses agree exactly, the
reverse-sweep gradient matches finite differences at every Taylor order,
training is deterministic and actually learns."""

import gc
import weakref

import numpy as np
import pytest

from verletflow import VerletFlow
from verletflow.densities import default_trimodal, standard_normal
from verletflow.training import Adam, TrainConfig, nll_batch, train


def tiny_cfg(**kw):
    base = dict(epochs=5, batch_size=16, steps=3, seed=0, hidden_sizes=(8,))
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    for rate in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(hidden_sizes=())
    with pytest.raises(ValueError):
        TrainConfig(steps=0)


def test_taped_and_plain_losses_agree_exactly(rng):
    # the recorded run (TapedFlowParams) and the plain run share one code path
    flow = VerletFlow(2, 2, order=1, hidden=[8], seed=1)
    cfg = tiny_cfg()
    q = default_trimodal().sample(16, seed=0)
    plain = nll_batch(flow, q, cfg, np.random.default_rng(7))
    loss, _ = nll_batch(flow, q, cfg, np.random.default_rng(7), record=True)
    assert loss == plain  # identical arithmetic, not just close


def damped_flow(order, seed, hidden=(4,), k1_form="diagonal"):
    """Random flow whose k >= 2 coefficients are scaled down so the
    higher-order closed forms stay clear of their singular set."""
    flow = VerletFlow(2, 2, order=order, hidden=list(hidden), seed=seed,
                      k1_form=k1_form)
    for c in flow.q_nets[2:] + flow.p_nets[2:]:
        c.net.weights[-1] *= 0.05
    return flow


def assert_nll_gradient_matches_fd(flow, cfg, q, rng, picks=40, h=1e-6):
    _, params = nll_batch(flow, q, cfg, np.random.default_rng(3), record=True)
    g = params.grad_flat()
    p0 = flow.get_params()
    assert g.shape == p0.shape
    for i in rng.choice(p0.size, size=min(picks, p0.size), replace=False):
        pert = p0.copy()
        pert[i] = p0[i] + h
        flow.set_params(pert)
        fp = nll_batch(flow, q, cfg, np.random.default_rng(3))
        pert[i] = p0[i] - h
        flow.set_params(pert)
        fm = nll_batch(flow, q, cfg, np.random.default_rng(3))
        fd = (fp - fm) / (2 * h)
        assert abs(g[i] - fd) <= 1e-3 * max(1.0, abs(fd))
    flow.set_params(p0)


def test_nll_gradient_matches_fd(rng):
    flow = VerletFlow(2, 2, order=1, hidden=[4], seed=2)
    q = default_trimodal().sample(8, seed=1)
    assert_nll_gradient_matches_fd(flow, tiny_cfg(steps=2), q, rng)


@pytest.mark.parametrize(
    "order,form",
    [(0, "diagonal"), (2, "diagonal"), (3, "diagonal"), (1, "dense")],
    ids=["0", "2", "3", "1-dense"],
)
def test_nll_gradient_matches_fd_other_orders(order, form, rng):
    flow = damped_flow(order, seed=10 + order, k1_form=form)
    q = default_trimodal().sample(8, seed=1)
    assert_nll_gradient_matches_fd(flow, tiny_cfg(steps=2), q, rng)


def test_recorded_nll_leaves_no_cyclic_garbage():
    flow = VerletFlow(2, 2, order=1, hidden=[8], seed=1)
    q = default_trimodal().sample(16, seed=0)
    gc.collect()
    gc.disable()
    try:
        _, params = nll_batch(flow, q, tiny_cfg(), np.random.default_rng(7),
                              record=True)
        params.grad_flat()
        del params
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_train_frees_each_record_before_the_next(monkeypatch):
    # peak memory is one recorded batch: when an epoch's nll_batch starts,
    # no earlier epoch's record may still be alive
    import verletflow.training as tr

    real, earlier = tr.nll_batch, []

    def spy(*args, **kwargs):
        assert all(ref() is None for ref in earlier), "an earlier record is alive"
        loss, recorded = real(*args, **kwargs)
        earlier.append(weakref.ref(recorded))
        return loss, recorded

    monkeypatch.setattr(tr, "nll_batch", spy)
    train(default_trimodal(), tiny_cfg(epochs=3))
    assert len(earlier) == 3


def test_grad_flat_sweeps_the_record_once():
    # the sweep releases each substep as it goes, so a second sweep has
    # nothing to differentiate and must say so instead of returning zeros
    flow = VerletFlow(2, 2, order=1, hidden=[8], seed=1)
    q = default_trimodal().sample(16, seed=0)
    _, recorded = nll_batch(flow, q, tiny_cfg(), np.random.default_rng(7),
                            record=True)
    assert np.any(recorded.grad_flat() != 0)
    assert recorded.record == []
    with pytest.raises(RuntimeError, match="already swept"):
        recorded.grad_flat()


def test_nll_batch_rejects_bad_shapes():
    flow = VerletFlow(2, 2, order=1, hidden=[4], seed=0)
    cfg = tiny_cfg()
    with pytest.raises(ValueError):
        nll_batch(flow, np.zeros(2), cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        nll_batch(flow, np.zeros((0, 2)), cfg, np.random.default_rng(0))


def test_identity_flow_nll_is_analytic():
    # zero field: NLL = mean(-log N(q1) - log N(p1)) with p1 the fresh draws
    flow = VerletFlow(2, 2, order=1, hidden=[4], seed=0).zero_()
    cfg = tiny_cfg()
    q = default_trimodal().sample(32, seed=2)
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
    p = rng_b.standard_normal((32, 2))
    got = nll_batch(flow, q, cfg, rng_a)
    x = np.concatenate([q, p], axis=-1)
    expected = float(np.mean(0.5 * (x * x).sum(axis=-1) + 2 * np.log(2 * np.pi)))
    assert np.isclose(got, expected, atol=1e-12)


def test_adam_reference_step():
    # one step from zero moments: update = -lr * g/(|g|+eps) elementwise sign
    opt = Adam(3, lr=0.1)
    p = np.zeros(3)
    g = np.array([0.5, -2.0, 0.0])
    out = opt.step(p, g)
    expected = -0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(out, expected, atol=1e-9)


def test_train_decreases_nll_and_is_deterministic():
    target = default_trimodal()
    cfg = TrainConfig(epochs=30, batch_size=64, steps=5, seed=0, hidden_sizes=(16,))
    flow1, rep1 = train(target, cfg)
    flow2, rep2 = train(target, cfg)
    assert np.array_equal(flow1.get_params(), flow2.get_params())
    assert rep1.nll_per_epoch == rep2.nll_per_epoch
    head = np.mean(rep1.nll_per_epoch[:5])
    tail = np.mean(rep1.nll_per_epoch[-5:])
    assert tail < head
    assert not rep1.diverged and rep1.skipped_batches == 0
    assert rep1.wall_time > 0


def test_train_seed_changes_result():
    target = default_trimodal()
    f1, _ = train(target, tiny_cfg(seed=0))
    f2, _ = train(target, tiny_cfg(seed=1))
    assert not np.array_equal(f1.get_params(), f2.get_params())


def test_train_accepts_existing_flow():
    target = standard_normal(2)
    flow = VerletFlow(2, 2, order=1, hidden=[8], seed=5)
    before = flow.get_params().copy()
    out, rep = train(target, tiny_cfg(), flow=flow)
    assert out is flow
    assert not np.array_equal(before, flow.get_params())


def test_train_numeric_blowup_aborts_with_finite_params():
    import warnings

    target = default_trimodal()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        flow, rep = train(target, tiny_cfg(epochs=8, learning_rate=1e4))
    assert rep.diverged
    assert np.all(np.isfinite(flow.get_params()))


def test_train_divergence_keeps_last_good_params(monkeypatch):
    import verletflow.training as tr

    target = standard_normal(2)
    calls = {"n": 0}
    real = tr.nll_batch

    def flaky(flow, q, cfg, rng, *, record=False):
        calls["n"] += 1
        if calls["n"] == 3:  # poison the third epoch
            _, params = real(flow, q, cfg, rng, record=record)
            return float("nan"), params
        return real(flow, q, cfg, rng, record=record)

    monkeypatch.setattr(tr, "nll_batch", flaky)
    flow, rep = tr.train(target, tiny_cfg(epochs=10))
    assert rep.diverged
    assert len(rep.nll_per_epoch) == 2  # epochs before the poisoned one
    assert np.all(np.isfinite(flow.get_params()))
