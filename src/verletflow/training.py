"""Likelihood-based training of a Verlet flow.

The flow maps the augmented standard normal at t=0 to the augmented target
at t=1.  The loss is the exact likelihood of the discrete composed map,
computed by the Taylor-Verlet integrator run in reverse (t=1 -> 0).  Its
gradient is a reverse sweep over the recorded substeps with explicit
vector-Jacobian products; no continuous adjoint, trace integration or tape
is involved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .densities import standard_normal_logpdf
from .flow import PhaseState, VerletFlow
from .integrators import (
    TAYLOR_VERLET,
    DivergenceError,
    IntegrationError,
    IntegratorConfig,
    verlet_integrate,
    verlet_vjp,
)


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 256
    learning_rate: float = 1e-3
    steps: int = 20  # integration steps during training
    seed: int = 0
    hidden_sizes: tuple = (64, 64, 64)

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("config values must be positive")
        if self.steps < 1:
            raise ValueError("train steps must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not self.hidden_sizes:
            raise ValueError("hidden_sizes must be nonempty")


@dataclass
class TrainReport:
    nll_per_epoch: list
    wall_time: float
    skipped_batches: int = 0
    diverged: bool = False


# perfbench/tracing.py wraps ``TapedFlowParams.grad_flat`` by name, so the
# class keeps its name until the benchmark renames that span.
class TapedFlowParams:
    """A recorded ``nll_batch`` run, ready for its reverse sweep:
    ``cotangents`` are the loss's w.r.t. the run's final q, p and dlogp."""

    def __init__(self, flow: VerletFlow, record, cotangents):
        self.flow = flow
        self.record = record
        self.cotangents = cotangents

    def grad_flat(self):
        """Loss gradient w.r.t. every flow parameter, laid out as
        ``flow.params``.

        The sweep consumes the record, so the gradient is taken once.
        """
        if not self.record:
            raise RuntimeError("grad_flat already swept this record")
        return verlet_vjp(self.flow, self.record, *self.cotangents)[0]


def nll_batch(flow: VerletFlow, q_batch, cfg: TrainConfig, rng, *, record=False):
    """Mean negative log-likelihood of a batch of target q-samples.

    Each sample is augmented with a fresh p ~ N(0, I), integrated in
    reverse to t=0 and scored against the standard-normal source.  Returns
    the loss as a float; with ``record=True``, returns (loss,
    TapedFlowParams) whose ``grad_flat()`` gives the gradient.  A failed
    row raises ``IntegrationError`` if it hit a k >= 2 step's singular set
    (the batch is skipped), else ``DivergenceError``.
    """
    q1 = np.asarray(q_batch, dtype=np.float64)
    if q1.ndim != 2 or q1.shape[0] < 1:
        raise ValueError("q_batch must be a nonempty (n, d_q) array")
    p1 = rng.standard_normal((q1.shape[0], flow.d_p))
    icfg = IntegratorConfig(t0=1.0, t1=0.0, steps=cfg.steps, method=TAYLOR_VERLET)
    substeps = [] if record else None
    res = verlet_integrate(flow, PhaseState(q=q1, p=p1, t=1.0), icfg, substeps)
    failed = res.failures[res.failed]
    if failed.size:
        error = IntegrationError if (failed["order"] >= 2).any() else DivergenceError
        raise error(f"{failed.size} of {len(q1)} rows failed, the first at "
                    f"(step, side, order, component) {failed[0]}")
    logpi0 = standard_normal_logpdf(
        np.concatenate([res.state.q, res.state.p], axis=-1)
    )
    # reverse-run dlogp accumulates +log|det J_forward|, so the model
    # log-likelihood is  log pi_0(x_0) - dlogp_reverse
    loss = float(np.mean(-(logpi0 - res.dlogp)))
    if not record:
        return loss
    # loss = mean(dlogp + |x0|^2 / 2) + const, with x0 = (q0, p0)
    n = len(q1)
    cotangents = (res.state.q / n, res.state.p / n, np.full(n, 1.0 / n))
    return loss, TapedFlowParams(flow, substeps, cotangents)


class Adam:
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, n_params, lr):
        self.lr = lr
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, params, grad):
        self.t += 1
        self.m = self.BETA1 * self.m + (1 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1 - self.BETA2) * grad * grad
        m_hat = self.m / (1 - self.BETA1**self.t)
        v_hat = self.v / (1 - self.BETA2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


def train(target, cfg: TrainConfig, flow: VerletFlow = None, callback=None):
    """Adam loop over nll_batch; deterministic given cfg.seed.

    ``target`` is a Gmm over q-space.  A fresh order-1 flow with
    d_q = d_p = target.dim is created unless one is passed in.  On numeric
    divergence the loop aborts and the flow keeps the last good params.
    """
    start = time.perf_counter()
    if flow is None:
        flow = VerletFlow(target.dim, target.dim, 1, hidden=cfg.hidden_sizes, seed=cfg.seed)
    opt = Adam(flow.num_params, cfg.learning_rate)
    nlls = []
    skipped = 0
    diverged = False
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng((cfg.seed, epoch))
        q_batch = target.sample(cfg.batch_size, seed=(cfg.seed, epoch, 1))
        # overflow is an outcome below (a skipped batch or divergence), not
        # a warning
        with np.errstate(all="ignore"):
            try:
                nll, recorded = nll_batch(flow, q_batch, cfg, rng, record=True)
            except DivergenceError:
                diverged = True
                break
            except IntegrationError:
                skipped += 1
                continue
            if not np.isfinite(nll):
                diverged = True
                break
            grad = recorded.grad_flat()
            # the sweep freed the record; nothing else of this batch may
            # outlive the epoch either
            del recorded
            new_params = opt.step(flow.params, grad)
        if not np.all(np.isfinite(new_params)):
            diverged = True
            break
        flow.set_params(new_params)
        nlls.append(nll)
        if callback is not None:
            callback(epoch, nll)
    return flow, TrainReport(
        nll_per_epoch=nlls,
        wall_time=time.perf_counter() - start,
        skipped_batches=skipped,
        diverged=diverged,
    )
