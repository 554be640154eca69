import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.special import ndtr

from camsmeta import gaussmix
from camsmeta.errors import ContractError, DomainError
from camsmeta.gaussmix import (QUANTILE_TOL, GaussianMixture1D, grid_interval,
                               grid_quantile, grid_tail_prob,
                               mixture_quantiles)


def test_single_component_matches_normal():
    mix = GaussianMixture1D(np.array([1.0]), np.array([0.3]), np.array([0.7]))
    ref = stats.norm(0.3, 0.7)
    for x in (-1.0, 0.0, 0.3, 2.5):
        assert mix.cdf(x) == pytest.approx(ref.cdf(x), abs=1e-12)
    assert mix.median() == pytest.approx(0.3, abs=1e-7)
    lo, hi = mix.interval(0.95)
    assert lo == pytest.approx(ref.ppf(0.025), abs=1e-6)
    assert hi == pytest.approx(ref.ppf(0.975), abs=1e-6)
    assert mix.tail_prob(1.0) == pytest.approx(ref.sf(1.0), abs=1e-12)
    assert mix.mean() == pytest.approx(0.3)
    assert mix.var() == pytest.approx(0.49)


def test_two_component_moments():
    w = np.array([0.25, 0.75])
    mu = np.array([-1.0, 2.0])
    sd = np.array([0.5, 1.5])
    mix = GaussianMixture1D(w, mu, sd)
    mean = w @ mu
    var = w @ (sd**2 + mu**2) - mean**2
    assert mix.mean() == pytest.approx(mean, abs=1e-14)
    assert mix.var() == pytest.approx(var, abs=1e-12)
    # cdf is the weighted sum of component cdfs
    for x in (-2.0, 0.0, 1.0, 4.0):
        want = w @ stats.norm.cdf(x, mu, sd)
        assert mix.cdf(x) == pytest.approx(want, abs=1e-12)


def test_quantile_inverts_cdf():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(1, 5)
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
        mix = GaussianMixture1D(w, rng.normal(0, 2, n),
                                rng.uniform(0.1, 2.0, n))
        for q in (0.025, 0.5, 0.9, 0.975):
            x = mix.quantile(q)
            assert mix.cdf(x) == pytest.approx(q, abs=1e-7)


def test_atom_component():
    # sd = 0 components behave as point masses
    mix = GaussianMixture1D(np.array([0.4, 0.6]), np.array([0.0, 1.0]),
                            np.array([0.0, 0.5]))
    assert mix.cdf(-0.001) == pytest.approx(0.6 * stats.norm.cdf(-0.001, 1, 0.5),
                                            abs=1e-12)
    assert mix.cdf(0.0) >= 0.4
    assert mix.mean() == pytest.approx(0.6)
    assert mix.tail_prob(0.5) == pytest.approx(0.6 * stats.norm.sf(0.5, 1, 0.5),
                                               abs=1e-12)


def test_weight_normalization_guard():
    mix = GaussianMixture1D(np.array([2.0, 2.0]) / 4.0000000001,
                            np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    assert abs(mix.weights.sum() - 1.0) < 1e-15
    with pytest.raises(ContractError):
        GaussianMixture1D(np.array([0.7, 0.7]), np.array([0.0, 1.0]),
                          np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        GaussianMixture1D(np.array([1.2, -0.2]), np.array([0.0, 1.0]),
                          np.array([1.0, 1.0]))


def piecewise_cdf(nodes, weights, x):
    # independent construction: atom at the first node, then linear
    # interpolation of the cumulative weights between nodes
    cum = np.cumsum(weights) / np.sum(weights)
    return float(np.interp(x, nodes, cum))


def test_grid_quantile_hand_case():
    nodes = np.array([0.0, 1.0, 2.0])
    weights = np.array([0.5, 0.3, 0.2])
    assert grid_quantile(nodes, weights, 0.4) == 0.0
    assert grid_quantile(nodes, weights, 0.5) == 0.0
    # beyond the atom the cdf climbs linearly: F(1) = 0.8, F(2) = 1
    x = grid_quantile(nodes, weights, 0.65)
    assert piecewise_cdf(nodes, weights, x) == pytest.approx(0.65, abs=1e-9)
    x = grid_quantile(nodes, weights, 0.9)
    assert piecewise_cdf(nodes, weights, x) == pytest.approx(0.9, abs=1e-9)
    assert grid_quantile(nodes, weights, 0.999999) == pytest.approx(2.0, abs=1e-4)
    with pytest.raises(DomainError):
        grid_quantile(nodes, weights, 1.0)


def test_grid_quantile_random_consistency():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(3, 40)
        nodes = np.sort(rng.uniform(-3, 3, size=n))
        weights = rng.uniform(0.0, 1.0, size=n)
        weights[0] += 0.05
        q = rng.uniform(0.05, 0.95)
        x = grid_quantile(nodes, weights, q)
        got = piecewise_cdf(nodes, weights, x)
        assert got == pytest.approx(max(q, piecewise_cdf(nodes, weights,
                                                         nodes[0])),
                                    abs=1e-8)


def test_grid_interval_and_tail():
    nodes = np.linspace(0.0, 2.0, 21)
    weights = np.exp(-0.5 * ((nodes - 0.8) / 0.3) ** 2)
    weights[0] = 0.01
    lo, hi = grid_interval(nodes, weights, 0.95)
    assert lo < 0.8 < hi
    assert piecewise_cdf(nodes, weights, lo) == pytest.approx(0.025, abs=1e-8)
    assert piecewise_cdf(nodes, weights, hi) == pytest.approx(0.975, abs=1e-8)
    t = grid_tail_prob(nodes, weights, 0.8)
    assert t == pytest.approx(1.0 - piecewise_cdf(nodes, weights, 0.8),
                              abs=1e-12)
    assert grid_tail_prob(nodes, weights, -1.0) == pytest.approx(1.0)
    assert grid_tail_prob(nodes, weights, 3.0) == pytest.approx(0.0)


# ----------------------------------------------------------------------
# properties of the batched quantile engine
# ----------------------------------------------------------------------

def dense_cdf(weights, means, sds, x):
    """Unblocked reference: ndtr(z) @ w, atoms as steps."""
    x = np.asarray(x, dtype=float)[:, None]
    smooth = sds > 0
    out = ndtr((x - means[smooth]) / sds[smooth]) @ weights[smooth]
    return out + (x >= means[~smooth]) @ weights[~smooth]


@st.composite
def mixture_rows(draw, max_rows=4, atoms=True):
    """(weights, mixtures): m mixtures of n components each, sds spanning
    1e-4..10, optionally with atoms. ``weights`` is the batch's weight
    argument, shared (n,) or per row (m, n), taken from the normalized
    weights of the mixtures so that batch and single calls see equal input."""
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, 60))
    means = draw(arrays(float, (m, n), elements=st.floats(-10.0, 10.0)))
    sds = 10.0 ** draw(arrays(float, (m, n), elements=st.floats(-4.0, 1.0)))
    if atoms:
        sds[draw(arrays(bool, (m, n)))] = 0.0
    shared = draw(st.booleans())
    w = draw(arrays(float, (1 if shared else m, n),
                    elements=st.floats(0.01, 1.0)))
    w /= w.sum(axis=1, keepdims=True)
    mixes = [GaussianMixture1D(w_r, mu, sd) for w_r, mu, sd
             in zip(np.broadcast_to(w, (m, n)), means, sds)]
    weights = np.array([mix.weights for mix in mixes])
    return (weights[0] if shared else weights), mixes


def batch(weights, mixes, levels):
    return mixture_quantiles(weights, np.array([mix.means for mix in mixes]),
                             np.array([mix.sds for mix in mixes]), levels)


levels_st = st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(mixture_rows(), levels_st)
def test_batched_quantiles_bracket_the_level(rows, levels):
    weights, mixes = rows
    out = batch(weights, mixes, levels)
    assert out.shape == (len(mixes), len(levels))
    for mix, xs in zip(mixes, out):
        for q, x in zip(levels, xs):
            assert mix.cdf(x - QUANTILE_TOL) <= q <= mix.cdf(x + QUANTILE_TOL)


@settings(max_examples=200, deadline=None)
@given(mixture_rows(), levels_st)
def test_batch_equals_single_mixture(rows, levels):
    weights, mixes = rows
    out = batch(weights, mixes, levels)
    for mix, xs in zip(mixes, out):
        np.testing.assert_allclose(xs, mix.quantiles(levels),
                                   rtol=0.0, atol=1e-12)
        if len(levels) == 1:
            assert abs(mix.quantile(levels[0]) - xs[0]) <= 1e-12


def test_newton_step_on_a_subnormal_density_is_silent():
    # between well-separated narrow components the density underflows to a
    # subnormal and the Newton step overflows; the bracket takes over
    w = np.array([0.1, 0.5, 0.01, 1.0]) / 1.61
    means = np.array([[0.1, -9.0, -9.4, 0.0]])
    sds = np.array([[1e-3, 1e-3, 1e-4, 1e-3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = mixture_quantiles(w, means, sds, (0.5, 0.3))
    mix = GaussianMixture1D(w, means[0], sds[0])
    for q, x in zip((0.5, 0.3), out[0]):
        assert mix.cdf(x - QUANTILE_TOL) <= q <= mix.cdf(x + QUANTILE_TOL)


def test_per_row_weights_select_each_mixture():
    # the same components under two weightings give two different mixtures
    means = np.tile([-2.0, 0.0, 3.0], (2, 1))
    sds = np.tile([0.5, 1.0, 0.3], (2, 1))
    w = np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
    out = mixture_quantiles(w, means, sds, (0.25, 0.5, 0.75))
    for w_r, xs in zip(w, out):
        want = GaussianMixture1D(w_r, means[0], sds[0]).quantiles((0.25, 0.5, 0.75))
        np.testing.assert_array_equal(xs, want)
    assert out[0, 1] < -1.0 < 2.0 < out[1, 1]


@settings(max_examples=200, deadline=None)
@given(mixture_rows(max_rows=1),
       arrays(float, st.integers(1, 300), elements=st.floats(-60.0, 60.0)))
def test_blocked_cdf_matches_dense(rows, xs):
    mix = rows[1][0]
    xs = np.concatenate([xs, mix.means])  # atoms are hit exactly
    want = dense_cdf(mix.weights, mix.means, mix.sds, xs)
    with mock.patch.object(gaussmix, "BLOCK_CELLS", 97):  # many blocks
        got = mix.cdf(xs)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(mixture_rows(max_rows=1, atoms=False), st.floats(-5.0, 5.0),
       st.floats(0.05, 0.9), st.floats(0.01, 0.99))
def test_quantile_inside_atom_mass_is_the_atom(rows, loc, mass, frac):
    smooth = rows[1][0]
    mix = GaussianMixture1D(np.append(smooth.weights * (1.0 - mass), mass),
                            np.append(smooth.means, loc),
                            np.append(smooth.sds, 0.0))
    below = mix.cdf(loc) - mix.weights[-1]  # P(X < loc)
    q = below + frac * mix.weights[-1]
    assert abs(mix.quantile(q) - loc) <= QUANTILE_TOL


def test_engine_rejects_bad_input():
    w, mu, sd = np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1))
    for bad in ((0.0,), (1.0,), (float("nan"),), ()):
        with pytest.raises(DomainError):
            mixture_quantiles(w, mu, sd, bad)
    with pytest.raises(ContractError):
        mixture_quantiles(np.array([0.5, 0.5]), mu, sd, (0.5,))
    with pytest.raises(DomainError):
        mixture_quantiles(w, np.full((1, 1), np.inf), sd, (0.5,))


def test_cdf_working_set_is_blocked():
    # 2001 points x 3721 components is ~60 MB per dense temporary; blocked
    # evaluation keeps the traced peak to a few MB
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 1.0, 3721)
    mix = GaussianMixture1D(w / w.sum(), rng.normal(0.0, 1.0, 3721),
                            rng.uniform(0.05, 1.0, 3721))
    xs = np.linspace(-4.0, 4.0, 2001)
    tracemalloc.start()
    try:
        mix.cdf(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
