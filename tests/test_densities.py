"""Gaussian-mixture toys: log-densities against scipy oracles, normalization
by grid quadrature, and sampling moments; the numpy logsumexp against
scipy's bit for bit."""

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from verletflow.densities import (
    Gmm,
    UnnormalizedDensity,
    default_trimodal,
    logsumexp,
    standard_normal,
    standard_normal_logpdf,
)


def assert_same_bits(got, ref):
    """Equal shapes and types, equal bits where finite, and the same inf
    (with sign) and nan placement elsewhere."""
    assert type(got) is type(ref)
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    assert np.array_equal(got, ref, equal_nan=True)
    finite = np.isfinite(ref)
    assert np.array_equal(got.view(np.uint64)[finite], ref.view(np.uint64)[finite])


# few distinct values, so that maxima tie, plus -inf entries; a whole -inf
# row and one inf or nan entry (the direct-sum fallback) are drawn apart
ENTRIES = st.one_of(
    st.sampled_from([0.0, 1.5, -3.0, 700.0, -745.0, -np.inf]),
    st.floats(-800.0, 800.0),
)


@settings(max_examples=400, deadline=None)
@given(
    a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
                 elements=ENTRIES),
    axis=st.sampled_from([None, -1]),
    minus_inf_row=st.booleans(),
    special=st.sampled_from([None, None, np.inf, np.nan]),
    where=st.integers(0, 124),
)
def test_logsumexp_matches_scipy_bits(a, axis, minus_inf_row, special, where):
    if minus_inf_row:
        a.reshape(-1, a.shape[-1])[0] = -np.inf
    if special is not None:
        a.flat[where % a.size] = special
    with np.errstate(all="ignore"):
        ref = scipy.special.logsumexp(a, axis=axis)
    assert_same_bits(logsumexp(a, axis=axis), ref)


@pytest.mark.parametrize(
    "a",
    [[], [np.inf], [-np.inf], [np.nan], [np.inf, -np.inf], [-np.inf, -np.inf],
     [np.inf, np.inf], [np.nan, -np.inf], [1e308, 1e308], [-1e308, 1e308], 5.0],
    ids=str,
)
def test_logsumexp_edge_cases_match_scipy(a):
    with np.errstate(all="ignore"):
        ref = scipy.special.logsumexp(a)
    assert_same_bits(logsumexp(a), ref)


def test_standard_normal_logpdf_matches_scipy(rng):
    x = rng.standard_normal((10, 3))
    ref = stats.multivariate_normal(np.zeros(3), np.eye(3)).logpdf(x)
    assert np.allclose(standard_normal_logpdf(x), ref, atol=1e-12)


def test_gmm_log_density_matches_scipy_mixture(rng):
    gmm = default_trimodal()
    x = rng.standard_normal((50, 2)) * 3
    ref = np.zeros((50, 3))
    for c in range(3):
        ref[:, c] = stats.multivariate_normal(
            gmm.means[c], gmm.variances[c] * np.eye(2)
        ).logpdf(x)
    expected = np.log((np.exp(ref) * gmm.weights).sum(axis=1))
    assert np.allclose(gmm.log_density(x), expected, atol=1e-12)


def test_gmm_normalizes_on_grid():
    gmm = default_trimodal()
    xs = np.linspace(-8, 8, 400)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    dx = xs[1] - xs[0]
    total = np.exp(gmm.log_density(grid.reshape(-1, 2))).sum() * dx * dx
    assert abs(total - 1.0) < 1e-6


def test_gmm_sample_moments():
    gmm = default_trimodal()
    x = gmm.sample(200_000, seed=0)
    mean_true = (gmm.weights[:, None] * gmm.means).sum(axis=0)
    assert np.allclose(x.mean(axis=0), mean_true, atol=0.02)
    # second moment: within-component variance + between-component spread
    second_true = (
        gmm.weights[:, None] * (gmm.means**2 + gmm.variances[:, None])
    ).sum(axis=0)
    assert np.allclose((x**2).mean(axis=0), second_true, atol=0.05)


def test_gmm_sampling_deterministic():
    gmm = default_trimodal()
    assert np.array_equal(gmm.sample(100, seed=5), gmm.sample(100, seed=5))
    assert not np.array_equal(gmm.sample(100, seed=5), gmm.sample(100, seed=6))


def test_gmm_validation():
    with pytest.raises(ValueError):
        Gmm(np.array([0.5, 0.4]), np.zeros((2, 1)), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Gmm(np.array([1.0]), np.zeros((1, 1)), np.array([-1.0]))
    with pytest.raises(ValueError):
        Gmm(np.array([1.0]), np.zeros((2, 1)), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        Gmm(np.array([1.5, -0.5]), np.zeros((2, 1)), np.array([1.0, 1.0]))
    for weights, means, variances in (([[0.5, 0.5]], [[0.0]], [1.0]),
                                      ([0.5, 0.5], np.zeros((2, 1)), np.ones((2, 2))),
                                      ([1.0], np.zeros((1, 1, 2)), [1.0])):
        with pytest.raises(ValueError, match="1-D"):
            Gmm(np.array(weights), np.array(means), np.array(variances))
    # NaN fails every comparison, so it would pass the checks above
    for bad in ({"weights": [np.nan]}, {"means": [[0.0, np.nan]]},
                {"variances": [np.inf]}, {"variances": [np.nan]}):
        spec = {"weights": [1.0], "means": [[0.0, 0.0]], "variances": [1.0], **bad}
        with pytest.raises(ValueError, match="finite"):
            Gmm(**{k: np.array(v) for k, v in spec.items()})


def test_standard_normal_helper(rng):
    sn = standard_normal(3)
    x = rng.standard_normal((5, 3))
    assert np.allclose(sn.log_density(x), standard_normal_logpdf(x), atol=1e-12)


def test_unnormalized_density_offset(rng):
    base = default_trimodal()
    un = UnnormalizedDensity(base, logZ_true=np.log(2.0))
    x = rng.standard_normal((6, 2))
    assert np.allclose(
        un.log_density(x), base.log_density(x) + np.log(2.0), atol=0.0
    )
    assert np.isclose(UnnormalizedDensity(base).logZ_true, np.log(2.0))


def test_default_trimodal_layout():
    gmm = default_trimodal()
    assert np.allclose(gmm.weights, 1.0 / 3.0)
    assert np.array_equal(
        gmm.means, np.array([[-2.5, -1.0], [2.5, -1.0], [0.0, 2.0]])
    )
    assert np.allclose(gmm.variances, 0.3)
