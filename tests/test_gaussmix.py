import math
import tracemalloc
import warnings
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.optimize import brentq
from scipy.special import ndtr

from camsmeta import gaussmix
from camsmeta.errors import ContractError, DomainError
from camsmeta.gaussmix import (QUANTILE_TOL, GaussianMixture1D, _normal_cdf,
                               mixture_cdf, mixture_quantiles)


def erfc_cdf(z):
    """Phi(z) from the standard library's erfc, elementwise."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])


def test_normal_cdf_kernel_against_erfc_on_a_dense_grid():
    z = np.concatenate([np.linspace(-40.0, 40.0, 160_001),
                        [1e300, -1e300, 5e-324]])
    cdf, e = _normal_cdf(z)
    assert np.max(np.abs(cdf - erfc_cdf(z))) <= 1e-15
    # the exp the kernel returns is the pdf's, bit for bit
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(e, np.exp(-0.5 * (z * z)))
    edges, _ = _normal_cdf(np.array([0.0, -0.0, np.inf, -np.inf]))
    assert edges.tolist() == [0.5, 0.5, 1.0, 0.0]


@settings(max_examples=300, deadline=None)
@given(arrays(float, st.integers(1, 50), elements=st.floats(
    allow_nan=False, allow_infinity=True, allow_subnormal=True)))
def test_normal_cdf_kernel_against_erfc_anywhere(z):
    cdf, _ = _normal_cdf(z)
    assert np.max(np.abs(cdf - erfc_cdf(z))) <= 1e-15
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))


def test_normal_cdf_kernel_on_atoms():
    # an atom (sd = 0) at, below and above the point is a step: CDF 1, 1, 0
    mix = GaussianMixture1D(np.array([0.25, 0.25, 0.5]),
                            np.array([1.0, 0.5, 2.0]), np.zeros(3))
    assert mix.cdf(1.0) == 0.5
    assert mix.cdf(np.array([0.0, 0.5, 1.9, 2.0])).tolist() == [
        0.0, 0.25, 0.5, 1.0]


def test_single_component_matches_normal():
    mix = GaussianMixture1D(np.array([1.0]), np.array([0.3]), np.array([0.7]))
    ref = stats.norm(0.3, 0.7)
    for x in (-1.0, 0.0, 0.3, 2.5):
        assert mix.cdf(x) == pytest.approx(ref.cdf(x), abs=1e-12)
    med, lo, hi = mix.quantiles((0.5, 0.025, 0.975))
    assert med == pytest.approx(0.3, abs=1e-7)
    assert lo == pytest.approx(ref.ppf(0.025), abs=1e-6)
    assert hi == pytest.approx(ref.ppf(0.975), abs=1e-6)


def test_two_component_moments():
    w = np.array([0.25, 0.75])
    mu = np.array([-1.0, 2.0])
    sd = np.array([0.5, 1.5])
    mix = GaussianMixture1D(w, mu, sd)
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
        np.testing.assert_array_equal(xs, mix.quantiles(levels))
        if len(levels) == 1:
            assert mix.quantile(levels[0]) == xs[0]


@settings(max_examples=100, deadline=None)
@given(mixture_rows(), levels_st, st.floats(-60.0, 60.0))
def test_results_do_not_depend_on_the_memory_layout(rows, levels, x):
    # Fortran-ordered arrays, transposed views and strided views hold the
    # same rows as C-ordered ones; quantiles and CDFs are equal bit for bit
    weights, mixes = rows
    means = np.array([mix.means for mix in mixes])
    sds = np.array([mix.sds for mix in mixes])
    want_q = mixture_quantiles(weights, means, sds, levels)
    want_cdf = mixture_cdf(weights, means, sds, x)
    for layout in (np.asfortranarray, lambda a: np.ascontiguousarray(a.T).T,
                   lambda a: np.repeat(a, 2, axis=1)[:, ::2]):
        args = (weights if weights.ndim == 1 else layout(weights),
                layout(means), layout(sds))
        np.testing.assert_array_equal(mixture_quantiles(*args, levels), want_q)
        np.testing.assert_array_equal(mixture_cdf(*args, x), want_cdf)


def test_single_normal_quantiles_within_a_quarter_tolerance():
    # the moment-matched start is exact here, so the certified exit returns
    # after one evaluation; its bound is QUANTILE_TOL / 4
    levels = (1e-6, 1e-4, 0.01, 0.025, 0.3, 0.5, 0.7, 0.975, 0.99,
              1.0 - 1e-4, 1.0 - 1e-6)
    for mean, sd in ((0.3, 0.7), (-40.0, 1e-3), (1e3, 25.0)):
        got = mixture_quantiles(np.ones(1), np.array([[mean]]),
                                np.array([[sd]]), levels)[0]
        want = [NormalDist(mean, sd).inv_cdf(q) for q in levels]
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=0.25 * QUANTILE_TOL)


@settings(max_examples=200, deadline=None)
@given(mixture_rows(max_rows=1, atoms=False), levels_st)
def test_quantiles_match_a_brent_root_of_the_ndtr_cdf(rows, levels):
    mix = rows[1][0]
    got = mix.quantiles(levels)
    for q, x in zip(levels, got):
        root, dens = brent_quantile(mix, q)
        # the two CDF kernels differ by up to ~5e-16, which moves the root by
        # 5e-16 / density: below a density of 1e-7 (a level in a gap between
        # components) no CDF defines the root to QUANTILE_TOL
        if dens >= 1e-7:
            assert abs(x - root) <= QUANTILE_TOL, (q, x, root, dens)


def brent_quantile(mix, q):
    """The q-quantile of ``mix`` as a Brent root of the ndtr CDF, and the
    mixture density there."""
    z = NormalDist().inv_cdf(q)
    lo = np.min(mix.means + mix.sds * z) - 1.0
    hi = np.max(mix.means + mix.sds * z) + 1.0
    root = brentq(lambda t: dense_cdf(mix.weights, mix.means, mix.sds,
                                      [t])[0] - q, lo, hi, xtol=1e-14)
    return root, mix.weights @ stats.norm.pdf(root, mix.means, mix.sds)


@settings(max_examples=200, deadline=None)
@given(mixture_rows(max_rows=1, atoms=False), levels_st, st.data())
def test_any_start_keeps_quantiles_within_tolerance(rows, levels, data):
    # starts inside the exact bracket or far outside it (then clipped into
    # it) end at the same root to within QUANTILE_TOL
    mix = rows[1][0]
    start = np.array([data.draw(st.floats(-1e3, 1e3) | st.floats(
        np.min(mix.means) - 3.0, np.max(mix.means) + 3.0)) for _ in levels])
    got = mixture_quantiles(mix.weights, mix.means[None, :], mix.sds[None, :],
                            levels, start[None, :])[0]
    for q, x in zip(levels, got):
        root, dens = brent_quantile(mix, q)
        # as in test_quantiles_match_a_brent_root_of_the_ndtr_cdf
        if dens >= 1e-7:
            assert abs(x - root) <= QUANTILE_TOL, (q, x, root, dens)


def test_third_order_exit_certifies_what_the_first_order_one_cannot():
    # two unit normals at -/+0.1: the median is 0, the bracket is 0.2 wide
    # (tol 2e-9). From a start 1e-4 off, one evaluation has Newton step s
    # near 1e-4: 2 L s^2 / f is some 1.2e-8, above tol / 4, while
    # (4 M |s|^3 / 3 + |g(-h)|) / (f - 2 |s f'|) is some 1.3e-12
    w = np.array([0.5, 0.5])
    means, sds = np.array([[-0.1, 0.1]]), np.ones((1, 2))
    start = np.array([[1e-4]])
    x = np.array([1e-4])
    cdf, pdf, dpdf = gaussmix._cdf_pdf(x, means, 1.0 / sds, w, True)
    step = (cdf - 0.5) / pdf
    slope = gaussmix._PHI_1 * 2.0 * 0.5
    tol = QUANTILE_TOL * 0.2
    assert 4.0 * slope * abs(step) <= pdf
    assert 2.0 * slope * step * step / pdf > 0.25 * tol
    calls = []
    cdf_pdf = gaussmix._cdf_pdf

    def counting(x, *args):
        calls.append(len(x))
        return cdf_pdf(x, *args)

    with mock.patch.object(gaussmix, "_cdf_pdf", counting):
        got = mixture_quantiles(w, means, sds, (0.5,), start)
    assert calls == [1]
    assert abs(got[0, 0]) <= 0.25 * tol


def test_engine_rejects_a_bad_start():
    w, mu, sd = np.array([0.5, 0.5]), np.zeros((1, 2)), np.ones((1, 2))
    for bad in (np.zeros((1, 2)), np.zeros(1), np.zeros((2, 1)),
                np.array([[np.nan]]), np.array([[np.inf]])):
        with pytest.raises(ContractError, match="start"):
            mixture_quantiles(w, mu, sd, (0.5,), bad)
    assert mixture_quantiles(w, mu, sd, (0.5,), np.array([[1e300]]))[0, 0] \
        == pytest.approx(0.0, abs=QUANTILE_TOL)


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


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-155])
def test_a_step_that_does_not_move_bisects(scale):
    # w / sd^2 overflows, so L and M are infinite and neither certified exit
    # fires, f' sums +inf and -inf, and at the median F(x) = q exactly: a
    # Newton step of 0 that used to pass the halving rule forever. A counter
    # ends a search that does not end, instead of hanging
    w = np.array([0.5, 0.5])
    means, sds = np.array([[-scale, scale]]), np.array([[scale, scale]])
    calls = []
    cdf_pdf = gaussmix._cdf_pdf

    def counting(x, *args):
        calls.append(len(x))
        assert len(calls) <= 300, "the quantile search does not end"
        return cdf_pdf(x, *args)

    levels = (0.5, 0.25)
    with mock.patch.object(gaussmix, "_cdf_pdf", counting):
        got = mixture_quantiles(w, means, sds, levels)
        single = GaussianMixture1D(w, means[0], sds[0]).quantile(0.25)
    # each within its tolerance (relative to the bracket, 2 * scale wide) of
    # the same mixture at unit scale
    unit = mixture_quantiles(w, means / scale, sds / scale, levels)
    assert np.all(np.abs(got / scale - unit) <= 3.0 * QUANTILE_TOL)
    assert single == got[0, 1]


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
    # a NaN weight is refused at once, not searched for forever
    nan_row = np.array([0.5, np.nan])
    with pytest.raises(ContractError, match="must sum to 1"):
        mixture_quantiles(nan_row, np.zeros((1, 2)), np.ones((1, 2)), (0.5,))


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
