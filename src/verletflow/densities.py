"""Analytic toy densities: isotropic Gaussian mixtures and unnormalized
variants with a known partition constant for end-to-end checks of the
importance-sampling estimator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (None: all axes), for float64 input.

    The arithmetic of ``scipy.special.logsumexp`` on real input, so results
    carry the same bits: the maximum and its m ties are factored out, the
    rest sums to s, and the result is log1p(s / m) + log(m) + max.  Where
    that is not finite (all -inf, an inf or a nan) the direct
    log(sum(exp(a))) is returned instead.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
        # initial=-inf: an empty reduction gives -inf, like the direct sum
        a_max = np.max(a, axis=axis, keepdims=True, initial=-np.inf)
        ties = a == a_max
        m = np.sum(ties, axis=axis, keepdims=True, dtype=np.float64)
        rest = np.exp(np.where(ties, -np.inf, a) - a_max)
        s = np.sum(rest, axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    out = np.where(np.isfinite(out), out, direct)
    return np.squeeze(out, axis=axis)[()]


def standard_normal_logpdf(x):
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    return -0.5 * (x * x).sum(axis=-1) - 0.5 * d * LOG_2PI


@dataclass
class Gmm:
    """Mixture of isotropic Gaussians: (weight, mean, variance) per component."""

    weights: np.ndarray
    means: np.ndarray  # (n_components, dim)
    variances: np.ndarray  # (n_components,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.variances = np.asarray(self.variances, dtype=np.float64)
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {self.weights.sum()}, not 1")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")
        if not (len(self.weights) == len(self.means) == len(self.variances)):
            raise ValueError("component count mismatch")

    @property
    def dim(self):
        return self.means.shape[1]

    def log_density(self, x):
        x = np.asarray(x, dtype=np.float64)
        diff = x[..., None, :] - self.means  # (..., n_comp, dim)
        sq = (diff * diff).sum(axis=-1)
        comp_logpdf = (
            -0.5 * sq / self.variances
            - 0.5 * self.dim * (LOG_2PI + np.log(self.variances))
        )
        return logsumexp(comp_logpdf + np.log(self.weights), axis=-1)

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self.weights), size=n, p=self.weights)
        noise = rng.standard_normal((n, self.dim))
        return self.means[idx] + np.sqrt(self.variances[idx])[:, None] * noise


def standard_normal(dim):
    """Standard normal as a one-component mixture."""
    return Gmm(np.array([1.0]), np.zeros((1, dim)), np.array([1.0]))


@dataclass
class UnnormalizedDensity:
    """log pi_hat(x) = log pi_base(x) + logZ_true, with logZ_true injected
    deliberately so the partition-constant estimator has a known answer."""

    base: Gmm
    logZ_true: float = float(np.log(2.0))

    def log_density(self, x):
        return self.base.log_density(x) + self.logZ_true


def default_trimodal(variance=0.3):
    """The default two-dimensional trimodal target (configuration defaults,
    not values taken from any publication)."""
    return Gmm(
        weights=np.array([1.0, 1.0, 1.0]) / 3.0,
        means=np.array([[-2.5, -1.0], [2.5, -1.0], [0.0, 2.0]]),
        variances=np.array([variance, variance, variance]),
    )
