"""Importance-sampling estimation of the partition constant.

The flow is the proposal: samples are drawn from the augmented standard
normal, pushed forward to t=1, and scored.  The importance weight is
pi_hat_aug(x) / pi_theta(x), whose mean under the proposal is Z; the
augmented target pi_hat_aug(q, p) = pi_hat(q) * N(p; 0, I) integrates to
the same Z as the unaugmented pi_hat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .densities import UnnormalizedDensity, logsumexp, standard_normal_logpdf
from .flow import PhaseState, VerletFlow
from .integrators import RK4_HUTCHINSON, integrate

SD_BATCHES = 10
# rows per block streamed through every integration step; 1024 keeps a
# (rows, 64) float64 activation at 512 KiB, well inside a per-core L2
BLOCK_ROWS = 1024


@dataclass
class WeightReport:
    log_weights: np.ndarray
    logZ_curve: list  # (m, logZ estimate at m, SD over sub-batches)
    method: str
    wall_seconds: float
    seed: int
    invalid_count: int = 0
    unreliable: bool = False

    @property
    def logZ(self):
        return self.logZ_curve[-1][1]

    @property
    def sd(self):
        return self.logZ_curve[-1][2]


def log_mean_exp(logs):
    """Stable log of the mean of exponentials (max subtracted first)."""
    logs = np.asarray(logs, dtype=np.float64)
    return float(logsumexp(logs) - np.log(logs.size))


def source_rows(seed, lo, hi, dim):
    """Standard-normal source rows for sample indices [lo, hi).

    Row i is drawn from its own generator, child i of
    ``SeedSequence(seed)`` (the child ``spawn`` would hand out), so a
    sample's draw depends only on (seed, i), never on batching or worker
    count.
    """
    x = np.empty((hi - lo, dim))
    for row, i in enumerate(range(lo, hi)):
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        x[row] = np.random.default_rng(child).standard_normal(dim)
    return x


def rademacher_probes(seed, sample_indices, probes, dim):
    """Per-sample Rademacher probe bank, split from (seed, sample-index) so
    estimates are independent of batching and worker count.

    Each sample's probes are drawn once and held fixed for every field
    evaluation along its trajectory, so the integrated trace estimate stays
    unbiased while the estimation error is coherent within a trajectory.

    Returns int8 array of shape (n, probes, dim) with entries +/-1.
    """
    out = np.empty((len(sample_indices), probes, dim), dtype=np.int8)
    for row, idx in enumerate(sample_indices):
        rng = np.random.default_rng((seed, 0x48, idx))
        out[row] = rng.integers(0, 2, size=(probes, dim), dtype=np.int8) * 2 - 1
    return out


def push_blocks(flow, cfg, lo, hi):
    """Push sample rows [lo, hi) forward one block at a time.

    Each block of ``BLOCK_ROWS`` rows (the last may be shorter) draws its
    source rows [q0 | p0] (``source_rows``) and rk4-hutchinson probes
    (``rademacher_probes``) from ``cfg.seed``, so every command pushes the
    same sample i, and runs through every integration step before the
    next starts, so the coefficient-net activations stay in cache.  With
    ``lo`` a multiple of ``BLOCK_ROWS``, row i always lands in block
    i // BLOCK_ROWS whatever the split of [0, n), and BLAS rounds a row
    the same way only within an equal-sized batch; each block is integrated
    once, and a row's failure does not touch the others.  Yields (a, b, q1,
    p1, log_model) per block: the end states and their model log-density,
    which is NaN for a sample whose integration failed.
    """
    d_q = flow.d_q
    dim = d_q + flow.d_p
    for a in range(lo, hi, BLOCK_ROWS):
        b = min(a + BLOCK_ROWS, hi)
        eps = None
        if cfg.method == RK4_HUTCHINSON:
            eps = rademacher_probes(cfg.seed, range(a, b),
                                    cfg.hutchinson_probes, dim)
        x0 = source_rows(cfg.seed, a, b, dim)
        # overflow in a trajectory is an outcome here (a NaN sample), not a
        # warning
        with np.errstate(all="ignore"):
            res = integrate(flow, PhaseState(q=x0[:, :d_q], p=x0[:, d_q:], t=cfg.t0),
                            cfg, hutchinson_eps=eps)
        dlogp = np.where(res.failed, np.nan, res.dlogp)
        yield a, b, res.state.q, res.state.p, standard_normal_logpdf(x0) + dlogp


# scored under the integration's error state: a finite but far-out end
# state overflows the target's log-density into an invalid weight, silently
@np.errstate(all="ignore")
def _log_weights_range(flow, target, cfg, lo, hi):
    """Log-weights for sample indices [lo, hi), ``lo`` block-aligned."""
    lw = np.empty(hi - lo)
    for a, b, q1, p1, log_model in push_blocks(flow, cfg, lo, hi):
        lw[a - lo : b - lo] = (
            target.log_density(q1) + standard_normal_logpdf(p1) - log_model
        )
    return lw


def log_weights(flow: VerletFlow, target: UnnormalizedDensity, n, cfg,
                workers=1):
    """n importance log-weights.

    Samples are streamed through ``push_blocks`` in fixed ``BLOCK_ROWS``
    blocks; with ``workers > 1`` each worker process takes a contiguous
    run of whole blocks.  Draws and probes are split per sample from
    (seed, sample-index) and every row is integrated in the same block
    whatever the worker count, so the result is byte-identical for any
    ``workers`` and any n.  Integration failures mark weights invalid
    (NaN) rather than substituting values.
    """
    blocks = -(-n // BLOCK_ROWS)
    workers = max(1, min(workers, blocks))
    if workers == 1:
        return _log_weights_range(flow, target, cfg, 0, n)
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.minimum(
        np.linspace(0, blocks, workers + 1, dtype=int) * BLOCK_ROWS, n
    )
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(
            _log_weights_range,
            [flow] * workers, [target] * workers, [cfg] * workers,
            bounds[:-1], bounds[1:],
        )
        return np.concatenate(list(parts))


def _curve_points(n):
    pts = []
    m = 10
    while m < n:
        pts.append(m)
        m *= 10
    pts.append(n)
    return pts


# the estimator's error state: weights too far apart or too large give an
# infinite sub-batch SD, which the caller rejects, and no warning
@np.errstate(all="ignore")
def estimate_logZ(flow, target, n, cfg, workers=1):
    """Running log Z curve from n log-weights.

    The SD at each sample count m is the standard deviation of the
    sub-estimates from ``SD_BATCHES`` equal contiguous chunks of the first
    m weights; per-sample seeding makes the chunks independent batches.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    start = time.perf_counter()
    lw = log_weights(flow, target, n, cfg, workers=workers)
    wall = time.perf_counter() - start
    valid = np.isfinite(lw)
    invalid = int(n - valid.sum())
    curve = []
    for m in _curve_points(n):
        head = lw[:m][np.isfinite(lw[:m])]
        if head.size == 0:
            curve.append((m, np.nan, np.nan))
            continue
        est = log_mean_exp(head)
        if head.size >= SD_BATCHES:
            chunks = np.array_split(head, SD_BATCHES)
            sub = [log_mean_exp(c) for c in chunks]
            sd = float(np.std(sub, ddof=1))
        else:
            sd = float("nan")
        curve.append((m, est, sd))
    return WeightReport(
        log_weights=lw,
        logZ_curve=curve,
        method=cfg.method,
        wall_seconds=wall,
        seed=cfg.seed,
        invalid_count=invalid,
        unreliable=invalid > 0.01 * n,
    )
