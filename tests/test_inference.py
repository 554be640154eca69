import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from camsmeta.errors import (CamsmetaError, CamsmetaWarning, ContractError,
                             DomainError, GridEdgeWarning,
                             IdentifiabilityWarning)
from camsmeta.gaussmix import QUANTILE_TOL, GaussianMixture1D, _normal_cdf
from camsmeta import inference, verify
from camsmeta.inference import (_LOG_2PI, COARSE, FitResult, GridSpec,
                                ParameterSummary, PosteriorGrid, PriorSpec,
                                _axis_log_prior, _cholesky_rows,
                                _functional_moments, _pair_blocks,
                                _scalar_stats, _solve_grid, _summaries,
                                cross_term_correction, factorization_residual,
                                factorized_loglikelihood, fit_bim, fit_bms,
                                fit_cams, fit_overall,
                                interaction_trace, joint_loglikelihood)
from camsmeta.model_core import (CovarianceStructure, MetaDataset,
                                 StudyRecord, SubgroupObservation,
                                 cams_covariance, subgroup_arrays)
from camsmeta.verify import (BREAK_MIN, TOL_EXACT, SimScenario,
                             _cdf_witness, _gamma_bound, _grid_distance,
                             cams_oracle, simulate)


def make_dataset(seed=0, n=6, alpha=0.2, delta=0.6, gamma=0.3, noise=0.15):
    """Small deterministic two-subgroup dataset following the mean model."""
    rng = np.random.default_rng(seed)
    studies = []
    for i in range(n):
        pi = rng.uniform(0.15, 0.85)
        s = rng.uniform(0.1, 0.3)
        sa, sb = np.sqrt(pi) * s, np.sqrt(1.0 - pi) * s
        ya = alpha + delta * pi + rng.normal(0.0, noise) * sa
        yb = alpha + delta * pi + gamma + rng.normal(0.0, noise) * sb
        studies.append(StudyRecord.from_observations(
            f"S{i+1}", SubgroupObservation("A", ya, sa),
            SubgroupObservation("B", yb, sb)))
    return MetaDataset(tuple(studies))


def contrast_arrays(data):
    g = np.array([s.obs_b.estimate - s.obs_a.estimate for s in data.studies])
    vg = np.array([s.obs_a.std_error**2 + s.obs_b.std_error**2
                   for s in data.studies])
    return g, vg


def test_grid_axis_shape():
    nodes = GridSpec.axis(0.5, n_nodes=41)
    assert nodes.shape == (41,)
    assert nodes[0] == 0.0
    assert np.all(np.diff(nodes) > 0)
    assert nodes[-1] == pytest.approx(2.5)
    with pytest.raises(DomainError):
        GridSpec.axis(-1.0)
    with pytest.raises(DomainError):
        GridSpec.axis(np.inf)


@pytest.mark.parametrize("scale", [5e-324, 1e-322, 1e308, 4e307])
def test_grid_axis_refuses_a_scale_whose_nodes_leave_the_float_range(scale):
    # the lowest positive node underflows to 0, or the top one overflows:
    # refused, naming the scale, before np.geomspace can raise or warn
    with pytest.raises(DomainError, match=re.escape(
            f"grid prior scale {scale!r}")):
        GridSpec.axis(scale)
    with pytest.raises(DomainError, match="grid prior scale"):
        GridSpec.default(PriorSpec(tau_gamma_scale=scale), 3)
    # at one or two nodes the lowest positive node is the top one
    if scale < 1.0:
        assert GridSpec.axis(scale, 1).tolist() == [0.0]
        assert GridSpec.axis(scale, 2).tolist() == [0.0, 5.0 * scale]


def test_two_node_axis_puts_its_positive_node_at_the_top():
    # np.geomspace(a, b, 1) is [a]: the lone positive node must sit at five
    # prior scales, not at 1e-3 of that, where it would hold about half the
    # posterior and the fit would blame the prior scale for it
    assert GridSpec.axis(0.5, 2).tolist() == [0.0, 2.5]
    priors = PriorSpec()
    with warnings.catch_warnings():
        warnings.simplefilter("error", GridEdgeWarning)
        fit_cams(make_dataset(), priors, GridSpec.default(priors, 2))


@pytest.mark.parametrize("n", [3, 4, 41, 101])
def test_axes_of_three_or_more_nodes_are_zero_then_geometric(n):
    hi = 5.0 * 0.37
    want = np.concatenate([[0.0], np.geomspace(hi * 1e-3, hi, n - 1)])
    assert np.array_equal(GridSpec.axis(0.37, n), want)


@pytest.mark.parametrize("top", [np.inf, np.nan, 1e200])
def test_grid_rejects_nodes_whose_square_is_not_finite(top):
    with pytest.raises(DomainError, match="tau_gamma_nodes must be finite"):
        GridSpec(np.array([0.0, 1.0]), np.array([0.0, 1.0, top]))


def test_prior_spec_validation():
    with pytest.raises(DomainError):
        PriorSpec(tau_scale=0.0)
    for scale in (np.inf, np.nan):
        with pytest.raises(DomainError, match="prior scales"):
            PriorSpec(tau_gamma_scale=scale)
    with pytest.raises(ContractError):
        PriorSpec(location_prior=(("gamma", 0, 1), ("gamma", 0, 2)))
    p = PriorSpec(location_prior=(("gamma", 0, 1),))
    assert p.location_prior == (("gamma", 0.0, 1.0),)


@pytest.mark.parametrize("mean, sd", [
    (0.0, np.inf), (0.0, 1e-300), (0.0, np.nan), (0.0, 0.0), (0.0, -1.0),
    (0.0, 1e200), (0.0, 1e-160), (np.nan, 1.0), (np.inf, 1.0),
    (-np.inf, 1.0)])
def test_location_prior_values_are_refused_at_construction(mean, sd):
    # an sd whose square or its inverse is 0 or not finite (1e-160 squares
    # to a subnormal), or a mean that is not finite, would reach the solve
    # as a NaN weight or an overflow
    with pytest.raises(DomainError, match="location prior for gamma needs"):
        PriorSpec(location_prior=(("gamma", mean, sd),))


def test_smallest_location_prior_sd_still_fits():
    # 1 / sd^2 = 1e300 is finite, so the prior is taken, and pins gamma
    fit = fit_bim(make_dataset(seed=1), PriorSpec(
        location_prior=(("gamma", 0.25, 1e-150),)),
        GridSpec.default(PriorSpec(), n_nodes=11))
    assert fit.summaries["gamma"].median == pytest.approx(0.25, abs=1e-12)


def test_a_nan_weight_is_refused_by_the_posterior_grid():
    fit = fit_bim(make_dataset(seed=1), PriorSpec(),
                  GridSpec.default(PriorSpec(), n_nodes=11))
    weight = fit.grid.weight.copy()
    weight[0, 3] = np.nan
    with pytest.raises(ContractError, match="weights must sum to 1"):
        dataclasses.replace(fit.grid, weight=weight)


def test_bim_single_node_closed_form():
    # with the heterogeneity pinned at zero the posterior for gamma is the
    # precision-weighted normal, so summaries follow the closed form
    data = make_dataset(seed=1)
    g, vg = contrast_arrays(data)
    grid = GridSpec(np.array([0.0]), np.array([0.0]))
    fit = fit_bim(data, PriorSpec(), grid)
    w = 1.0 / vg
    mean = float(w @ g / w.sum())
    sd = float(1.0 / np.sqrt(w.sum()))
    s = fit.summaries["gamma"]
    assert s.median == pytest.approx(mean, abs=1e-7)
    assert s.lower == pytest.approx(mean - 1.959963984540054 * sd, abs=1e-6)
    assert s.upper == pytest.approx(mean + 1.959963984540054 * sd, abs=1e-6)
    assert s.p_positive == pytest.approx(stats.norm.sf(0.0, mean, sd),
                                         abs=1e-9)


def test_bim_conditional_moments_per_node():
    # at each tau_gamma node the conditional law has a closed form
    data = make_dataset(seed=1)
    g, vg = contrast_arrays(data)
    nodes = np.array([0.0, 0.2, 0.45])
    with pytest.warns(GridEdgeWarning, match="last tau_gamma grid node"):
        fit = fit_bim(data, PriorSpec(), GridSpec(np.array([0.0]), nodes))
    for idx, t in enumerate(nodes):
        w = 1.0 / (vg + t**2)
        assert fit.grid.cond_mean[0, idx, 0] == pytest.approx(
            float(w @ g / w.sum()), abs=1e-12)
        assert fit.grid.cond_cov[0, idx, 0, 0] == pytest.approx(
            1.0 / w.sum(), abs=1e-12)


def test_bim_node_weights_against_quadrature():
    # independent oracle: integrate the likelihood over gamma numerically
    # at each node and fold in the half-normal prior and trapezoid cell
    data = make_dataset(seed=2, n=5)
    g, vg = contrast_arrays(data)
    scale = 0.4
    nodes = GridSpec.axis(scale, n_nodes=31)
    grid = GridSpec(np.array([0.0]), nodes)
    fit = fit_bim(data, PriorSpec(tau_gamma_scale=scale), grid)
    _, got = fit.grid.scale_axis("tau_gamma")

    gam = np.linspace(g.min() - 6, g.max() + 6, 20001)
    log_like = np.empty(nodes.size)
    for i, t in enumerate(nodes):
        dens = np.prod(stats.norm.pdf(g[:, None], gam[None, :],
                                      np.sqrt(vg + t**2)[:, None]), axis=0)
        log_like[i] = np.log(np.trapezoid(dens, gam))
    log_prior = stats.halfnorm.logpdf(nodes, scale=scale)
    cell = np.zeros(nodes.size)
    cell[1:-1] = (nodes[2:] - nodes[:-2]) / 2
    cell[0] = (nodes[1] - nodes[0]) / 2
    cell[-1] = (nodes[-1] - nodes[-2]) / 2
    logw = log_like + log_prior + np.log(cell)
    want = np.exp(logw - logw.max())
    want /= want.sum()
    assert np.allclose(got, want, atol=5e-7)


def test_overall_conditional_moments_per_node():
    data = make_dataset(seed=3)
    pis = data.info_fractions
    m = np.array([(1 - p) * s.obs_a.estimate + p * s.obs_b.estimate
                  for p, s in zip(pis, data.studies)])
    vm = np.array([(1 - p)**2 * s.obs_a.std_error**2
                   + p**2 * s.obs_b.std_error**2
                   for p, s in zip(pis, data.studies)])
    nodes = np.array([0.0, 0.1])
    with pytest.warns(GridEdgeWarning, match="last tau grid node"):
        fit = fit_overall(data, PriorSpec(), GridSpec(nodes, np.array([0.0])))
    assert "tau" in fit.grid.scale_names
    for idx, t in enumerate(nodes):
        w = 1.0 / (vm + t**2)
        assert fit.grid.cond_mean[idx, 0, 0] == pytest.approx(
            float(w @ m / w.sum()), abs=1e-12)
    # with the grid collapsed to tau = 0 the summary is closed form
    flat = fit_overall(data, PriorSpec(),
                       GridSpec(np.array([0.0]), np.array([0.0])))
    w = 1.0 / vm
    assert flat.summaries["mu"].median == pytest.approx(
        float(w @ m / w.sum()), abs=1e-7)


def test_cams_matches_bim_on_gamma():
    data = make_dataset(seed=5)
    grid = GridSpec.default(PriorSpec(), n_nodes=41)
    bim = fit_bim(data, PriorSpec(), grid)
    cams = fit_cams(data, PriorSpec(), grid)
    sb, sc = bim.summaries["gamma"], cams.summaries["gamma"]
    assert sc.median == pytest.approx(sb.median, abs=1e-10)
    assert sc.lower == pytest.approx(sb.lower, abs=1e-10)
    assert sc.p_positive == pytest.approx(sb.p_positive, abs=1e-12)
    # the heterogeneity axis marginal matches too
    _, wb = bim.grid.scale_axis("tau_gamma")
    _, wc = cams.grid.scale_axis("tau_gamma")
    assert np.max(np.abs(wb - wc)) < 1e-12


def full_lattice_mixture(grid, vec):
    """The functional's mixture over every lattice node."""
    mean, sd = _functional_moments(grid, np.asarray(vec, dtype=float)[None, :])
    return GaussianMixture1D(grid.weight.reshape(-1), mean[0], sd[0])


def test_oracle_forced_half_breaks_equivalence():
    data = make_dataset(seed=6)
    grid = GridSpec.default(PriorSpec(), n_nodes=21)
    with pytest.warns(IdentifiabilityWarning):
        forced = cams_oracle(data, 0.5, PriorSpec(), grid)
    bim = fit_bim(data, PriorSpec(), grid)
    gamma = np.array([0.0, 0.0, 1.0])
    assert _cdf_witness(bim.functional_mixture("gamma"),
                        full_lattice_mixture(forced, gamma)) > BREAK_MIN
    # an upper bound on the honest distance, not a sample of it
    honest = cams_oracle(data, data.info_fractions, PriorSpec(), grid)
    assert _gamma_bound(bim.grid, honest, gamma) < 1e-10
    with pytest.raises(DomainError):
        cams_oracle(data, 1.5, PriorSpec(), grid)
    with pytest.raises(DomainError):
        cams_oracle(data, [0.3, 0.4, -0.1, 0.5, 0.5, 0.5], PriorSpec(), grid)


def test_functional_mixture_is_what_the_batched_readers_read():
    # one mixture per functional: the full lattice, read bit for bit alike
    fit = fit_cams(make_dataset(seed=4), PriorSpec(),
                   GridSpec.default(PriorSpec(), n_nodes=41))
    # weights that sum to 1 only to rounding, as a fit's may
    fit = dataclasses.replace(fit, grid=dataclasses.replace(
        fit.grid, weight=fit.grid.weight * (1.0 + 1e-12)))
    levels = (0.025, 0.1, 0.5, 0.9, 0.975)
    for spec in ("alpha", "beta", "gamma", "delta", {"alpha": 1.0, "delta": 0.3}):
        mix = fit.functional_mixture(spec)
        assert mix.weights.size == 41 * 41
        np.testing.assert_array_equal(
            mix.quantiles(levels), fit.functional_quantiles([spec], levels)[0])


def test_merged_lattice_is_the_direct_block_average():
    # 5 x 7 nodes in 2 x 3 blocks of up to 3 x 3: the corner block has no
    # weight and is dropped; the block holding only nodes (3, 6) and (4, 6)
    # has subnormal weight (1 and 2 times 5e-324) and stays a spread
    # component, not an atom at 0
    rng = np.random.default_rng(11)
    t, g, p = 5, 7, 2
    weight = rng.uniform(0.1, 1.0, (t, g))
    weight[:3, :3] = 0.0
    weight[3:, 6:] = 0.0
    weight /= weight.sum()
    weight[3:, 6] = [5e-324, 1e-323]
    mean = rng.normal(0.0, 1.0, (t, g, p))
    root = rng.normal(0.0, 0.3, (t, g, p, p))
    cov = root @ np.swapaxes(root, -1, -2)
    with np.errstate(divide="ignore"):
        log_w = np.log(weight)
    grid = PosteriorGrid(np.arange(t) * 0.1, np.arange(g) * 0.1, log_w,
                         weight, mean, cov, ("a", "b"), ("tau", "tau_gamma"))
    want = []
    for i in range(0, t, COARSE):
        for j in range(0, g, COARSE):
            w = weight[i:i + COARSE, j:j + COARSE].ravel()
            if w.sum() == 0.0:
                continue
            u = w / w.sum()
            m = mean[i:i + COARSE, j:j + COARSE].reshape(-1, p)
            c = cov[i:i + COARSE, j:j + COARSE].reshape(-1, p, p)
            centre = u @ m
            dev = m - centre
            want.append((w.sum(), centre, np.einsum(
                "k,kij->ij", u, c + dev[:, :, None] * dev[:, None, :])))
    merged = grid.merged
    assert len(want) == merged.weight.size == 5
    for (w, centre, c), got in zip(want, zip(*merged)):
        assert got[0] == pytest.approx(w, rel=1e-15)
        np.testing.assert_allclose(got[1], centre, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(got[2], c, rtol=1e-13, atol=1e-15)
    assert merged.weight[-1] == 1.5e-323
    assert np.linalg.eigvalsh(merged.cond_cov[-1]).min() > 0.0
    assert merged.cond_mean.flags.c_contiguous
    assert merged.cond_cov.flags.c_contiguous


def node_first_stats(blocks):
    """The summed ``_scalar_stats`` of ``blocks``, uncentred, node axes moved
    first."""
    a, b, quad, logdet = map(sum, zip(*(
        _scalar_stats(*blk, np.zeros(blk[1].shape[-1])) for blk in blocks)))
    return np.moveaxis(a, (0, 1), (-2, -1)), np.moveaxis(b, 0, -1), quad, logdet


def pinv_reference(blocks, param_names, priors, taus, tg, scale_names):
    """Log weights and conditional moments of a lattice from the normal
    matrix A itself: pinv(A) and the log of its top-rank eigenvalues, with
    the rank from the singular values of the design rows, prior rows
    included."""
    a, b, quad, logdet_v = node_first_stats(blocks)
    p = len(param_names)
    rows = np.vstack([x[(0,) * (x.ndim - 2)] for _, x, *_ in blocks])
    rank = np.linalg.matrix_rank(rows)
    cov = np.linalg.pinv(a, hermitian=True)
    theta = (cov @ b[..., None])[..., 0]
    logdet_a = np.log(np.linalg.eigvalsh(a)[..., p - rank:]).sum(axis=-1)
    log_marginal = (-0.5 * (logdet_v + quad - np.sum(b * theta, axis=-1)
                            + logdet_a)
                    - 0.5 * (rows.shape[0] - rank) * _LOG_2PI)
    log_prior = (_axis_log_prior(taus, priors.tau_scale, "tau" in scale_names)[:, None]
                 + _axis_log_prior(tg, priors.tau_gamma_scale,
                                   "tau_gamma" in scale_names)[None, :])
    return log_marginal + log_prior, theta, cov, rank


def rank_deficient_data():
    """Five studies that all have information fraction 0.4."""
    rng = np.random.default_rng(9)
    studies = []
    for i in range(5):
        s = rng.uniform(0.1, 0.3)
        sa, sb = np.sqrt(0.4) * s, np.sqrt(0.6) * s
        studies.append(StudyRecord.from_observations(
            f"S{i+1}",
            SubgroupObservation("A", rng.normal(), sa),
            SubgroupObservation("B", rng.normal(), sb)))
    return MetaDataset(tuple(studies))


def captured_solve(monkeypatch, module, run):
    """The arguments of the first ``_solve_grid`` call that ``run()`` makes
    through ``module``."""
    calls = []
    monkeypatch.setattr(module, "_solve_grid",
                        lambda *args: calls.append(args) or _solve_grid(*args))
    run()
    return calls[0]


def oracle_args(monkeypatch, scenario, force_half):
    """The solve arguments of a battery oracle: force-half or honest (at
    the information fractions), on the battery's 61-node grid."""
    data = simulate(scenario)
    return captured_solve(monkeypatch, verify, lambda: verify.cams_oracle(
        data, 0.5 if force_half else data.info_fractions, PriorSpec(),
        GridSpec.default(PriorSpec(), n_nodes=61)))


def bim_args(monkeypatch):
    data = simulate(SimScenario(n_studies=8, gamma=0.3, tau=0.1,
                                tau_gamma=0.1, uisd=1.0, seed=1))
    return captured_solve(monkeypatch, inference, lambda: fit_bim(
        data, PriorSpec(), GridSpec.default(PriorSpec(), n_nodes=61)))


def cams_args(monkeypatch, data, priors):
    return captured_solve(monkeypatch, inference, lambda: fit_cams(
        data, priors, GridSpec.default(priors, n_nodes=11)))


@pytest.mark.parametrize("case, want_rank", [
    ("force_half", 2), ("equal_fractions", 2), ("delta_prior", 3),
    ("honest_oracle", 3), ("bim", 1)])
def test_one_path_solve_matches_a_pinv_reference(monkeypatch, case, want_rank):
    # flat designs, a design made full rank only by a proper delta prior,
    # the battery's largest honest oracle (J=15) and a one-parameter solve
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IdentifiabilityWarning)
        args = {
            "force_half": lambda: oracle_args(
                monkeypatch, verify._unbalanced_scenario(21240), True),
            "honest_oracle": lambda: oracle_args(monkeypatch, SimScenario(
                n_studies=15, alpha=0.2, delta=0.8, gamma=0.3, tau=0.15,
                tau_gamma=0.12, seed=2), False),
            "bim": lambda: bim_args(monkeypatch),
            "equal_fractions": lambda: cams_args(
                monkeypatch, rank_deficient_data(), PriorSpec()),
            "delta_prior": lambda: cams_args(
                monkeypatch, rank_deficient_data(),
                PriorSpec(location_prior=(("delta", 0.2, 0.5),))),
        }[case]()
    log_weight, theta, cov, rank = pinv_reference(*args)
    assert rank == want_rank
    with warnings.catch_warnings():
        warnings.simplefilter("error" if rank == len(args[1]) else "ignore",
                              IdentifiabilityWarning)
        grid = _solve_grid(*args)
    np.testing.assert_allclose(grid.log_weight, log_weight, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grid.cond_mean, theta, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grid.cond_cov, cov, rtol=0, atol=1e-10)


def test_grid_edge_warning_on_truncated_heterogeneity():
    # true tau_gamma 3.0 lies beyond the default grid's 2.5 = 5 prior scales
    data = simulate(SimScenario(n_studies=15, gamma=0.3, tau=0.1,
                                tau_gamma=3.0, seed=1))
    with pytest.warns(GridEdgeWarning, match="last tau_gamma grid node"):
        fit = fit_cams(data)
    assert fit.summaries["tau_gamma"].upper < 3.0
    _, w = fit.grid.scale_axis("tau_gamma")
    assert w[-1] > 1e-3


def test_grid_edge_warning_silent_on_quickstart_data():
    priors = PriorSpec()
    grid = GridSpec.default(priors, n_nodes=101)
    with warnings.catch_warnings():
        warnings.simplefilter("error", GridEdgeWarning)
        for seed in range(8):
            data = simulate(SimScenario(n_studies=8, gamma=0.3, tau=0.1,
                                        tau_gamma=0.1, uisd=1.0, seed=seed))
            for fit in (fit_cams, fit_bim, fit_bms, fit_overall):
                fit(data, priors, grid)


location_priors = st.lists(
    st.tuples(st.sampled_from(("alpha", "beta", "delta", "gamma")),
              st.floats(-2.0, 2.0), st.floats(0.05, 5.0)),
    max_size=3, unique_by=lambda entry: entry[0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_studies=st.integers(3, 40),
       n_nodes=st.integers(11, 41), location=location_priors,
       tau=st.floats(0.0, 0.5), tau_gamma=st.floats(0.0, 0.5))
def test_cams_matches_joint_oracle(seed, n_studies, n_nodes, location, tau,
                                   tau_gamma):
    data = simulate(SimScenario(n_studies=n_studies, alpha=0.2, delta=0.8,
                                gamma=0.3, tau=tau, tau_gamma=tau_gamma,
                                seed=seed))
    priors = PriorSpec(location_prior=tuple(location))
    grid = GridSpec.default(priors, n_nodes=n_nodes)
    with warnings.catch_warnings():
        # a tight prior far from the data may push tau_gamma to the grid edge
        warnings.simplefilter("ignore", GridEdgeWarning)
        fit = fit_cams(data, priors, grid)
        oracle = cams_oracle(data, data.info_fractions, priors, grid)
    assert np.max(np.abs(fit.grid.weight - oracle.weight)) < 1e-12
    assert _grid_distance(fit.grid, oracle) < TOL_EXACT
    names = list(fit.functionals)
    want = _summaries(oracle, np.array([fit.functionals[n] for n in names]))
    for name, ref in zip(names, want):
        got = fit.summaries[name]
        for part in ("median", "lower", "upper", "p_positive"):
            assert getattr(got, part) == pytest.approx(getattr(ref, part),
                                                       abs=1e-9), (name, part)


def block_gls_stats(y, x, v):
    """Raw-coordinate GLS statistics (X'V^-1 X, X'V^-1 y, y'V^-1 y, sum
    log|V|) of study blocks y (J, b), x (J, b, p) with covariances v
    (T, G, J, b, b): every block inverted at every node."""
    vinv = np.linalg.inv(v)
    return (np.einsum("jbp,tgjbc,jcq->tgpq", x, vinv, x),
            np.einsum("jbp,tgjbc,jc->tgp", x, vinv, y),
            np.einsum("jb,tgjbc,jc->tg", y, vinv, y),
            np.linalg.slogdet(v)[1].sum(axis=-1))


@pytest.mark.parametrize("seed", range(5))
def test_pair_stats_match_the_raw_coordinate_solve(seed):
    # the reference inverts every study's 2x2 cams_covariance at every node
    rng = np.random.default_rng(seed)
    j = int(rng.integers(1, 12))
    ya, yb = rng.normal(0.0, 1.0, (2, j))
    va, vb = rng.uniform(0.01, 1.0, (2, j))
    pi = rng.uniform(0.0, 1.0, j)
    x = rng.normal(0.0, 1.0, (j, 2, 3))
    taus = np.array([0.0, 0.05, 0.3, 1.5])
    tg = np.array([0.0, 0.02, 0.4])
    got = node_first_stats(_pair_blocks(ya, yb, va, vb, pi, x, taus, tg))
    want = block_gls_stats(np.stack([ya, yb], 1), x,
                           cams_covariance(va, vb, pi, taus[:, None, None],
                                           tg[None, :, None]))
    # the fit sums log V relative to the first node
    want = want[:3] + (want[3] - want[3][0, 0],)
    for a, c in zip(got, want):
        assert a.shape == c.shape
        np.testing.assert_allclose(a, c, rtol=1e-9, atol=1e-9 * np.abs(c).max())


def dense_prior_reference(data, x, pi, taus, tg, prior, scales):
    """Node weights and conditional moments from every study's 2x2
    cams_covariance at weighting pi, inverted at every node, plus one
    normal prior (coefficients c, mean, sd) added to the normal equations
    by hand; half-normal priors on the scale axes named in ``scales``."""
    ya, yb, va, vb, _ = subgroup_arrays(data)
    v = cams_covariance(va, vb, pi, taus[:, None, None], tg[None, :, None])
    a, b, quad, logdet = block_gls_stats(np.stack([ya, yb], 1), x, v)
    c, mean, sd = prior
    a = a + np.outer(c, c) / sd ** 2
    b = b + c * mean / sd ** 2
    quad = quad + mean ** 2 / sd ** 2
    cov = np.linalg.inv(a)
    theta = np.einsum("tgpq,tgq->tgp", cov, b)
    log_w = -0.5 * (logdet + quad - np.einsum("tgp,tgp->tg", b, theta)
                    + np.linalg.slogdet(a)[1])
    for axis, (nodes, scale) in enumerate(((taus, 1.0), (tg, 0.5))):
        if ("tau", "tau_gamma")[axis] in scales:
            padded = np.concatenate([nodes[:1], nodes, nodes[-1:]])
            log_prior = (stats.halfnorm.logpdf(nodes, scale=scale)
                         + np.log(0.5 * (padded[2:] - padded[:-2])))
            log_w = log_w + np.expand_dims(log_prior, 1 - axis)
    w = np.exp(log_w - log_w.max())
    return w / w.sum(), theta, cov


@pytest.mark.parametrize("case", ["cams_beta", "bms_mu_a"])
def test_a_prior_on_a_reported_functional_matches_the_dense_solve(case):
    # a prior on beta = delta + gamma or on mu_a = alpha - gamma / 2, neither
    # of them a coordinate, is one more row of the normal equations
    data = make_dataset(seed=12)
    ya, yb, va, vb, pi = subgroup_arrays(data)
    ones, zeros = np.ones(pi.size), np.zeros(pi.size)
    grid = GridSpec.default(PriorSpec(), n_nodes=15)
    if case == "cams_beta":
        name, prior = "beta", (np.array([0.0, 1.0, 1.0]), 0.4, 0.05)
        x = np.stack([np.stack([ones, pi, zeros], 1),
                      np.stack([ones, pi, ones], 1)], 1)
        fit = fit_cams(data, PriorSpec(location_prior=((name, 0.4, 0.05),)),
                       grid)
        want = dense_prior_reference(data, x, pi, grid.tau_nodes,
                                     grid.tau_gamma_nodes, prior,
                                     ("tau", "tau_gamma"))
    else:
        name, prior = "mu_a", (np.array([1.0, -0.5]), -0.3, 0.1)
        x = np.broadcast_to(np.array([[1.0, -0.5], [1.0, 0.5]]),
                            (pi.size, 2, 2))
        fit = fit_bms(data, PriorSpec(location_prior=((name, -0.3, 0.1),)),
                      grid)
        want = dense_prior_reference(data, x, 0.5, np.array([0.0]),
                                     grid.tau_gamma_nodes, prior,
                                     ("tau_gamma",))
    np.testing.assert_array_equal(fit.functionals[name], prior[0])
    for got, ref in zip((fit.grid.weight, fit.grid.cond_mean,
                         fit.grid.cond_cov), want):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)
    assert fit.provenance["priors"]["location"] == {name: list(prior[1:])}


@pytest.mark.parametrize("fit", [fit_bim, fit_bms, fit_cams, fit_overall],
                         ids=lambda f: f.__name__)
def test_a_prior_on_an_unreported_name_is_refused(fit):
    data = make_dataset(seed=13)
    reported = sorted(fit(data).functionals)
    with pytest.raises(ContractError) as info:
        fit(data, priors=PriorSpec(location_prior=(("gama", 0.3, 1.0),)))
    assert str(info.value) == (
        f"no functional named ['gama'] to put a location prior on; this "
        f"estimator reports {reported}")


def test_cams_working_set_stays_one_dimensional():
    # a joint (T, G, J, 2, 2) covariance build needs over 1 GB at this size
    data = simulate(SimScenario(n_studies=1000, gamma=0.3, tau=0.1,
                                tau_gamma=0.1, seed=0))
    grid = GridSpec.default(PriorSpec(), n_nodes=101)
    tracemalloc.start()
    try:
        fit_cams(data, PriorSpec(), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_cholesky_rows_match_lapack(r):
    # node-last stacks (r, r, T, G) against LAPACK on the node-first copy
    rng = np.random.default_rng(r)
    p = r + 1
    factors = rng.normal(size=(7, 5, r, r + 3))
    system = factors @ np.swapaxes(factors, -1, -2) + 1e-3 * np.eye(r)
    rows = rng.normal(size=(r, p))
    taus, tg = np.linspace(0.0, 0.6, 7), np.linspace(0.0, 0.4, 5)
    node_last = np.moveaxis(system, (-2, -1), (0, 1)).copy()
    diag, solved = _cholesky_rows(node_last, rows, taus, tg)
    chol = np.linalg.cholesky(system)
    np.testing.assert_allclose(np.moveaxis(diag, 0, -1),
                               np.diagonal(chol, axis1=-2, axis2=-1),
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(np.moveaxis(solved, (0, 1), (-2, -1)),
                               np.linalg.inv(chol) @ rows,
                               rtol=1e-12, atol=1e-12)
    # a pivot that is not positive and finite is a clean DomainError that
    # names its node
    for bad in (-1.0, 0.0, np.nan, np.inf):
        broken = node_last.copy()
        broken[r - 1, r - 1, 3, 2] = bad
        with pytest.raises(DomainError, match=r"numerically singular at "
                           r"tau = 0\.3, tau_gamma = 0\.2:.*tau_prior"):
            _cholesky_rows(broken, rows, taus, tg)


@pytest.mark.parametrize("fit", [fit_bim, fit_bms, fit_cams, fit_overall],
                         ids=lambda f: f.__name__)
def test_each_fit_factors_its_node_systems_once(fit, monkeypatch):
    # the pilot solution is a pseudo-inverse, so the per-node solve is the
    # only Cholesky pass of a solve; CAMS solves once per axis
    calls, solves = [], []

    def counting(*args):
        calls.append(args)
        return _cholesky_rows(*args)

    monkeypatch.setattr(inference, "_cholesky_rows", counting)
    monkeypatch.setattr(inference, "_solve_grid", lambda *args: solves.append(
        args) or _solve_grid(*args))
    fit(make_dataset(), PriorSpec(), GridSpec.default(PriorSpec(), 11))
    assert len(calls) == len(solves) == (2 if fit is fit_cams else 1)


def test_bms_lattice_working_set_stays_per_chunk():
    # with alpha heterogeneity the mean block varies along both axes; a
    # (T, G, J) covariance build needs about 250 MB at this size
    data = simulate(SimScenario(n_studies=1000, gamma=0.3, tau=0.1,
                                tau_gamma=0.1, seed=0))
    grid = GridSpec.default(PriorSpec(), n_nodes=101)
    tracemalloc.start()
    try:
        fit_bms(data, PriorSpec(), grid, alpha_heterogeneity=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_bms_functionals():
    data = make_dataset(seed=7)
    grid = GridSpec.default(PriorSpec(), n_nodes=31)
    fit = fit_bms(data, PriorSpec(), grid)
    assert set(fit.summaries) >= {"alpha", "gamma", "mu_a", "mu_b"}
    # mu_b - mu_a = gamma holds at the functional level
    assert np.allclose(
        np.array(fit.functionals["mu_b"]) - np.array(fit.functionals["mu_a"]),
        np.array(fit.functionals["gamma"]))


def test_flat_prior_rule():
    data = make_dataset(seed=8, n=2)
    grid = GridSpec.default(PriorSpec(), n_nodes=11)
    with pytest.raises(ContractError):
        fit_cams(data, PriorSpec(), grid)
    # informative location priors lift the study-count requirement
    priors = PriorSpec(location_prior=(("alpha", 0.0, 2.0),
                                       ("delta", 0.0, 2.0),
                                       ("gamma", 0.0, 2.0)))
    fit = fit_cams(data, priors, grid)
    assert fit.summaries["gamma"].lower < fit.summaries["gamma"].upper
    # prior rows of full rank lift it whichever functionals they name; rows
    # that leave a direction flat do not
    fit_cams(data, PriorSpec(location_prior=(("alpha", 0.0, 2.0),
                                             ("beta", 0.0, 2.0),
                                             ("delta", 0.0, 2.0))), grid)
    with pytest.raises(ContractError, match="flat location priors"):
        fit_cams(data, PriorSpec(location_prior=(("beta", 0.0, 2.0),
                                                 ("delta", 0.0, 2.0),
                                                 ("gamma", 0.0, 2.0))), grid)


def test_rank_deficiency_warns():
    # equal information fractions collapse the intercept and slope columns
    data = rank_deficient_data()
    grid = GridSpec.default(PriorSpec(), n_nodes=11)
    with pytest.warns(IdentifiabilityWarning):
        fit = fit_cams(data, PriorSpec(), grid)
    # gamma stays identified even when alpha/delta are not separable
    assert np.isfinite(fit.summaries["gamma"].median)


def test_joint_loglikelihood_against_scipy():
    data = make_dataset(seed=10, n=4)
    rng = np.random.default_rng(1)
    for _ in range(20):
        alpha, delta, gamma = rng.normal(0, 1, size=3)
        het = CovarianceStructure(rng.uniform(0, 0.5), rng.uniform(0, 0.5))
        got = joint_loglikelihood(data, alpha, delta, gamma, het)
        want = 0.0
        for s in data.studies:
            p = s.info_fraction
            mean = np.array([alpha + delta * p, alpha + delta * p + gamma])
            cov = np.array([
                [s.obs_a.std_error**2 + het.tau**2 + p**2 * het.tau_gamma**2,
                 het.tau**2 - p * (1 - p) * het.tau_gamma**2],
                [het.tau**2 - p * (1 - p) * het.tau_gamma**2,
                 s.obs_b.std_error**2 + het.tau**2
                 + (1 - p)**2 * het.tau_gamma**2]])
            want += stats.multivariate_normal.logpdf(
                [s.obs_a.estimate, s.obs_b.estimate], mean, cov)
        assert got == pytest.approx(want, abs=1e-9)


def test_factorization_exact_at_if():
    data = make_dataset(seed=11)
    rng = np.random.default_rng(2)
    for _ in range(50):
        alpha, delta, gamma = rng.normal(0, 1, size=3)
        het = CovarianceStructure(rng.uniform(0, 0.4), rng.uniform(0, 0.4))
        resid = factorization_residual(data, alpha, delta, gamma, het)
        assert abs(resid) < 1e-11


def test_factorization_blocks_sum():
    data = make_dataset(seed=12)
    het = CovarianceStructure(0.1, 0.2)
    joint = joint_loglikelihood(data, 0.1, 0.5, 0.3, het)
    lg, lm = factorized_loglikelihood(data, 0.1, 0.5, 0.3, het)
    assert joint == pytest.approx(lg + lm, abs=1e-11)


def test_forced_pi_residual_matches_analytic():
    data = make_dataset(seed=13)
    rng = np.random.default_rng(3)
    for _ in range(20):
        alpha, delta, gamma = rng.normal(0, 1, size=3)
        het = CovarianceStructure(rng.uniform(0, 0.3), rng.uniform(0, 0.3))
        pi = np.full(len(data.studies), 0.5)
        resid = factorization_residual(data, alpha, delta, gamma, het, pi=pi)
        want = cross_term_correction(data, alpha, delta, gamma, het, pi=pi)
        assert resid == pytest.approx(want, abs=1e-9)
        assert abs(resid) > 0  # the cut is real away from the balance point


def per_row_p_positive(weights, mu, sd):
    """P(X > 0) of one mixture row as it was read before the batched pass:
    Phi(mu / sd) summed over the smooth components, the positive atoms
    added, clipped to [0, 1]."""
    w = weights / weights.sum()
    smooth = sd > 0
    p = float(w[smooth] @ _normal_cdf(mu[smooth] / sd[smooth])[0])
    p += float(w[~smooth] @ (mu[~smooth] > 0.0))
    return min(max(p, 0.0), 1.0)


def test_batched_p_positive_matches_the_per_row_read():
    # quick-start data (the CLI simulate defaults), every estimator
    priors = PriorSpec()
    grid = GridSpec.default(priors, n_nodes=101)
    for seed in range(8):
        data = simulate(SimScenario(n_studies=8, gamma=0.3, tau=0.1,
                                    tau_gamma=0.1, uisd=1.0, seed=seed))
        for fit_one in (fit_cams, fit_bim, fit_bms, fit_overall):
            fit = fit_one(data, priors, grid)
            names = list(fit.functionals)
            mean, sd = _functional_moments(
                fit.grid, np.array([fit.functionals[n] for n in names]))
            for name, mu, s in zip(names, mean, sd):
                want = per_row_p_positive(fit.grid.weight.ravel(), mu, s)
                assert abs(fit.summaries[name].p_positive - want) <= 1e-15


def mixture_summary(weights, means, sds):
    """``_summaries`` of X on a one-parameter lattice whose node k holds the
    component weights[k] Normal(means[k], sds[k]^2)."""
    w = np.asarray(weights, dtype=float)
    grid = inference.PosteriorGrid(
        np.arange(float(w.size)), np.zeros(1), np.log(w)[:, None], w[:, None],
        np.asarray(means, dtype=float)[:, None, None],
        np.square(np.asarray(sds, dtype=float))[:, None, None, None],
        ("x",), ())
    return _summaries(grid, np.ones((1, 1)))[0]


def test_batched_p_positive_tails_and_atoms():
    # far tail: read as the upper tail, not 1 - F (off by 4e-5 relative)
    far = mixture_summary([1.0], [-7.0], [1.0]).p_positive
    assert far == pytest.approx(0.5 * math.erfc(7.0 / math.sqrt(2.0)),
                                rel=1e-8, abs=0.0)
    assert mixture_summary([1.0], [-0.7], [0.7]).p_positive == pytest.approx(
        stats.norm.sf(1.0, 0.3, 0.7), abs=1e-12)
    # an atom at 0 is not positive, one above it is
    for zero in (0.0, -0.0):
        assert mixture_summary([1.0], [zero], [0.0]).p_positive == 0.0
    assert mixture_summary([0.25, 0.25, 0.5], [0.0, -0.5, 1.0],
                           np.zeros(3)).p_positive == 0.5
    assert mixture_summary([0.4, 0.6], [-0.5, 0.5],
                           [0.0, 0.5]).p_positive == pytest.approx(
        0.6 * stats.norm.sf(0.5, 1.0, 0.5), abs=1e-12)
    # positive atoms whose weights sum past 1 by rounding: clipped to 1
    w = np.array([8.0, 17.0, 3.0]) / 28.0
    assert mixture_summary(w, np.ones(3), np.zeros(3)).p_positive == 1.0


def old_scale_summary(nodes, weights):
    """A scale SD's summary as three separate readers computed it before
    ``FitResult.summaries`` read it with one ``np.interp``: each quantile
    by ``searchsorted``, P(> 0) as 1 - F(0), F(0) the zero node's mass."""
    cum = np.cumsum(weights / weights.sum())

    def quantile(q):
        if q <= cum[0] or nodes.size == 1:
            return float(nodes[0])
        idx = int(np.searchsorted(cum, q))
        if idx >= nodes.size:
            return float(nodes[-1])
        c0, c1 = cum[idx - 1], cum[idx]
        return float(nodes[idx - 1]
                     + (q - c0) / (c1 - c0) * (nodes[idx] - nodes[idx - 1]))

    tail = 0.0 if nodes.size == 1 else min(max(1.0 - cum[0], 0.0), 1.0)
    return ParameterSummary(quantile(0.5), quantile(0.025), quantile(0.975),
                            tail)


def summary_gap(a, b):
    return max(abs(x - y) for x, y in zip(dataclasses.astuple(a),
                                          dataclasses.astuple(b)))


def scale_fit(nodes, weights):
    """A one-parameter fit whose tau axis carries ``weights`` on ``nodes``."""
    nodes = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    with np.errstate(divide="ignore"):
        log_w = np.log(w)[:, None]
    grid = inference.PosteriorGrid(
        nodes, np.zeros(1), log_w, w[:, None], np.zeros((nodes.size, 1, 1)),
        np.ones((nodes.size, 1, 1, 1)), ("x",), ("tau",))
    return FitResult("OVERALL", grid, {}, {"x": np.ones(1)})


def piecewise_cdf(nodes, weights, x):
    # independent construction: atom at the first node, then linear
    # interpolation of the cumulative weights between nodes
    cum = np.cumsum(weights) / np.sum(weights)
    return float(np.interp(x, nodes, cum))


def test_scale_summary_hand_case():
    # an atom at the zero node, then a CDF that climbs linearly between
    # nodes: F(0) = 0.5, F(1) = 0.8, F(2) = 1
    tau = scale_fit([0.0, 1.0, 2.0], [0.5, 0.3, 0.2]).summaries["tau"]
    assert (tau.median, tau.lower, tau.p_positive) == (0.0, 0.0, 0.5)
    assert tau.upper == pytest.approx(1.875, abs=1e-12)
    # every level inside the atom reads the zero node
    tau = scale_fit([0.0, 1.0, 2.0], [0.98, 0.01, 0.01]).summaries["tau"]
    assert (tau.median, tau.lower, tau.upper) == (0.0, 0.0, 0.0)
    assert tau.p_positive == pytest.approx(0.02, abs=1e-15)
    # a level on a node's cumulative weight reads that node
    tau = scale_fit([0.0, 1.0, 2.0], [0.01, 0.49, 0.5]).summaries["tau"]
    assert tau.median == 1.0
    assert tau.lower == pytest.approx(0.015 / 0.49, abs=1e-12)
    assert tau.upper == pytest.approx(1.95, abs=1e-12)
    assert tau.p_positive == pytest.approx(0.99, abs=1e-15)
    # a single-node axis is all atom
    tau = scale_fit([0.0], [1.0]).summaries["tau"]
    assert dataclasses.astuple(tau) == (0.0, 0.0, 0.0, 0.0)


def test_scale_summary_random_consistency():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(3, 40)
        nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0,
                                                             size=n - 1))])
        weights = rng.uniform(0.0, 1.0, size=n)
        weights[0] += 0.05
        tau = scale_fit(nodes, weights).summaries["tau"]
        atom = piecewise_cdf(nodes, weights, 0.0)
        for q, x in ((0.5, tau.median), (0.025, tau.lower),
                     (0.975, tau.upper)):
            assert piecewise_cdf(nodes, weights, x) == pytest.approx(
                max(q, atom), abs=1e-8)
        assert tau.p_positive == pytest.approx(1.0 - atom, abs=1e-15)


def test_scale_summary_interval_and_tail():
    nodes = np.linspace(0.0, 2.0, 21)
    weights = np.exp(-0.5 * ((nodes - 0.8) / 0.3) ** 2)
    weights[0] = 0.01
    tau = scale_fit(nodes, weights).summaries["tau"]
    assert tau.lower < 0.8 < tau.upper
    for q, x in ((0.5, tau.median), (0.025, tau.lower), (0.975, tau.upper)):
        assert piecewise_cdf(nodes, weights, x) == pytest.approx(q, abs=1e-8)
    assert tau.p_positive == pytest.approx(
        1.0 - piecewise_cdf(nodes, weights, 0.0), abs=1e-12)


@pytest.mark.parametrize("n_studies, n_nodes", [(3, 11), (8, 61), (15, 101),
                                                (100, 61), (1000, 101)])
def test_scale_summaries_match_the_old_grid_readers(n_studies, n_nodes):
    # one np.interp per axis reads what the three separate readers read,
    # to rounding, for every estimator
    data = simulate(SimScenario(n_studies=n_studies, gamma=0.3, tau=0.1,
                                tau_gamma=0.1, seed=n_studies))
    priors = PriorSpec()
    grid = GridSpec.default(priors, n_nodes=n_nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CamsmetaWarning)
        fits = [fit(data, priors, grid)
                for fit in (fit_cams, fit_bim, fit_bms, fit_overall)]
    for fit in fits:
        for name in fit.grid.scale_names:
            assert summary_gap(fit.summaries[name], old_scale_summary(
                *fit.grid.scale_axis(name))) <= 1e-15


def old_axis_log_prior(nodes, scale, in_use):
    """The axis prior as two helpers summed it before they were folded."""
    if not in_use:
        return np.zeros(nodes.size)
    log_pdf = (0.5 * math.log(2.0 / math.pi) - math.log(scale)
               - 0.5 * (nodes / scale) ** 2)
    if nodes.size == 1:
        return log_pdf + np.zeros(1)
    w = np.empty(nodes.size)
    w[0] = 0.5 * (nodes[1] - nodes[0])
    w[-1] = 0.5 * (nodes[-1] - nodes[-2])
    w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    return log_pdf + np.log(w)


def test_axis_log_prior_is_the_old_expression_bit_for_bit():
    axes = [GridSpec.axis(scale, n) for scale in (1e-3, 0.3, 0.5, 1.0, 7.0)
            for n in (1, 2, 3, 41, 101)]
    axes += [np.array([0.0]), np.array([0.7]), np.array([0.0, 1.5])]
    for nodes in axes:
        for scale in (0.3, 1.0, 2.5):
            for in_use in (True, False):
                got = _axis_log_prior(nodes, scale, in_use)
                want = old_axis_log_prior(nodes, scale, in_use)
                assert got.shape == want.shape == nodes.shape
                assert got.tobytes() == want.tobytes()


def test_summaries_are_read_off_the_grid_on_first_access(monkeypatch):
    # a fit holds no summaries until they are read: then the batched
    # functional summaries and each scale marginal's reader, once; a
    # fit given another grid reads them off that grid
    assert [f.name for f in dataclasses.fields(inference.FitResult)] == [
        "estimator", "grid", "provenance", "functionals"]
    calls = []
    monkeypatch.setattr(inference, "_summaries",
                        lambda *args: calls.append(1) or _summaries(*args))
    priors = PriorSpec()
    grid = GridSpec.default(priors, n_nodes=31)
    fit = fit_cams(make_dataset(seed=3), priors, grid)
    assert not calls
    names = list(fit.functionals)
    want = dict(zip(names, _summaries(
        fit.grid, np.array([fit.functionals[n] for n in names]))))
    assert list(fit.summaries) == names + ["tau", "tau_gamma"]
    assert {name: fit.summaries[name] for name in names} == want
    for name in ("tau", "tau_gamma"):
        old = old_scale_summary(*fit.grid.scale_axis(name))
        assert summary_gap(fit.summaries[name], old) <= 1e-15
    assert fit.summaries is fit.summaries and len(calls) == 1
    other = fit_cams(make_dataset(seed=4), priors, grid)
    moved = dataclasses.replace(fit, grid=other.grid)
    assert moved.summaries == other.summaries != fit.summaries


def test_interaction_trace_zero_node_closed_form():
    # conditioning on tau_gamma = 0 gives the fixed-effect pooled contrast
    data = make_dataset(seed=16)
    g, vg = contrast_arrays(data)
    fit = fit_bim(data, PriorSpec(), GridSpec.default(PriorSpec(), n_nodes=41))
    pt = interaction_trace(fit, [0.0])[0]
    assert pt.tau_gamma == 0.0
    w = 1.0 / vg
    assert pt.median == pytest.approx(float(w @ g / w.sum()), abs=5e-8)
    # 50% interval brackets the median
    assert pt.lower < pt.median < pt.upper


def test_interaction_trace_snaps():
    data = make_dataset(seed=17)
    fit = fit_bim(data, PriorSpec(), GridSpec.default(PriorSpec(), n_nodes=21))
    nodes = fit.grid.tau_gamma_nodes
    value = (nodes[3] + nodes[4]) / 2 + 1e-9
    pt = interaction_trace(fit, [value])[0]
    assert pt.tau_gamma in (nodes[3], nodes[4])


def test_provenance_hash_tracks_data():
    d1 = make_dataset(seed=18)
    d2 = make_dataset(seed=19)
    grid = GridSpec.default(PriorSpec(), n_nodes=11)
    f1 = fit_bim(d1, PriorSpec(), grid)
    f1b = fit_bim(d1, PriorSpec(), grid)
    f2 = fit_bim(d2, PriorSpec(), grid)
    assert f1.provenance["dataset_sha256"] == f1b.provenance["dataset_sha256"]
    assert f1.provenance["dataset_sha256"] != f2.provenance["dataset_sha256"]
    assert f1.provenance["n_studies"] == 6
    assert f1.estimator == "BIM"


def pair_dataset(est, se):
    return MetaDataset(tuple(
        StudyRecord.from_observations(
            f"S{i + 1}", SubgroupObservation("A", float(e[0]), float(s[0])),
            SubgroupObservation("B", float(e[1]), float(s[1])))
        for i, (e, s) in enumerate(zip(est, se))))


@st.composite
def pair_arrays(draw):
    """(estimates, SEs), each (J, 2), with information fractions at least
    0.05 apart so that the CAMS design keeps full rank."""
    twentieths = draw(st.lists(st.integers(1, 19), min_size=3, max_size=8,
                               unique=True))
    j = len(twentieths)
    pi = np.array(twentieths) / 20.0
    total = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=j,
                                   max_size=j)))
    est = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * j,
                                 max_size=2 * j))).reshape(j, 2)
    return est, np.stack([np.sqrt(pi), np.sqrt(1.0 - pi)], 1) * total[:, None]


# estimator -> (fit, functionals negated by an A/B swap, functionals moved
# by a common shift); BMS also swaps mu_a and mu_b
SYMMETRY_CASES = {
    "bms": (fit_bms, ("gamma",), ("alpha", "mu_a", "mu_b")),
    "bms_alpha_heterogeneity": (
        lambda data, priors, grid: fit_bms(data, priors, grid, True),
        ("gamma",), ("alpha", "mu_a", "mu_b")),
    "cams": (fit_cams, ("beta", "delta", "gamma"), ("alpha",)),
}


def assert_summary_close(got, want, sign=1.0, shift=0.0, tail=True):
    """got equals sign * want + shift; quantiles relative to the interval."""
    if sign < 0:
        want = type(want)(-want.median, -want.upper, -want.lower,
                          1.0 - want.p_positive)
    tol = 1e-9 * (1.0 + want.upper - want.lower)
    for part in ("median", "lower", "upper"):
        assert abs(getattr(got, part) - getattr(want, part) - shift) <= tol, part
    if tail:
        assert abs(got.p_positive - want.p_positive) <= 1e-9


@pytest.mark.parametrize("case", sorted(SYMMETRY_CASES))
@settings(max_examples=200, deadline=None)
@given(arrays=pair_arrays(), n_nodes=st.integers(1, 21),
       shift=st.floats(-5.0, 5.0))
def test_label_swap_and_common_shift(case, arrays, n_nodes, shift):
    # swapping A and B negates every contrast and keeps both heterogeneity
    # posteriors; shifting every estimate moves only the location parameters
    fit, negated, moved = SYMMETRY_CASES[case]
    est, se = arrays
    priors = PriorSpec()
    grid = GridSpec.default(priors, n_nodes=n_nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CamsmetaWarning)
        base = fit(pair_dataset(est, se), priors, grid)
        swapped = fit(pair_dataset(est[:, ::-1], se[:, ::-1]), priors, grid)
        shifted = fit(pair_dataset(est + shift, se), priors, grid)
    for other in (swapped, shifted):
        assert np.max(np.abs(other.grid.weight - base.grid.weight)) < 1e-9
    for name in negated:
        assert_summary_close(swapped.summaries[name], base.summaries[name], -1.0)
    if case != "cams":
        assert_summary_close(swapped.summaries["alpha"], base.summaries["alpha"])
        assert_summary_close(swapped.summaries["mu_a"], base.summaries["mu_b"])
        assert_summary_close(swapped.summaries["mu_b"], base.summaries["mu_a"])
    for name in base.functionals:
        if name in moved:
            assert_summary_close(shifted.summaries[name], base.summaries[name],
                                 shift=shift, tail=False)
        else:
            assert_summary_close(shifted.summaries[name], base.summaries[name])


EQUIVARIANCE_FITS = {
    "bim": fit_bim,
    "bms": fit_bms,
    "cams": fit_cams,
    "overall": fit_overall,
}


@pytest.mark.parametrize("case", sorted(EQUIVARIANCE_FITS))
@settings(max_examples=200, deadline=None)
@given(arrays=pair_arrays(), n_nodes=st.integers(1, 21),
       power=st.integers(-330, 330))
# uncentred, y'Wy - b'theta cancels here and moves the CAMS weights 1.5e-12
@example(arrays=(np.array([[-1.0, -3.0], [1.0, -3.0], [1.0, 2.0]]),
                 np.array([[0.1218, 0.177], [0.1063, 0.1444],
                           [0.0901, 0.1102]])),
         n_nodes=11, power=6)
def test_scale_equivariance(case, arrays, n_nodes, power):
    # estimates, SEs and both prior scales (hence the grid nodes) times c:
    # every location and scale summary scales by c, to within the quantile
    # tolerance relative to c, and the weights stay put
    fit = EQUIVARIANCE_FITS[case]
    est, se = arrays
    c = 2.0 ** power
    priors = PriorSpec()
    scaled_priors = PriorSpec(c * priors.tau_scale, c * priors.tau_gamma_scale)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CamsmetaWarning)
        base = fit(pair_dataset(est, se), priors,
                   GridSpec.default(priors, n_nodes=n_nodes))
        scaled = fit(pair_dataset(c * est, c * se), scaled_priors,
                     GridSpec.default(scaled_priors, n_nodes=n_nodes))
    assert np.max(np.abs(scaled.grid.weight - base.grid.weight)) <= 1e-12
    tol = 2.0 * QUANTILE_TOL * c
    for name, want in base.summaries.items():
        got = scaled.summaries[name]
        for part in ("median", "lower", "upper"):
            assert abs(getattr(got, part) - c * getattr(want, part)) <= tol, (
                name, part)
        assert abs(got.p_positive - want.p_positive) <= 1e-12, name


@pytest.mark.parametrize("fit", [fit_bim, fit_bms, fit_cams, fit_overall],
                         ids=lambda f: f.__name__)
def test_subnormal_variances_are_a_clean_domain_error(fit):
    # SEs near 1e-161 square to subnormal variances: 1 / var overflows
    rng = np.random.default_rng(4)
    est = rng.normal(0.0, 1.0, (5, 2))
    se = rng.uniform(0.05, 0.3, (5, 2)) * 1e-160
    with pytest.raises(DomainError, match="overflows or underflows") as info:
        fit(pair_dataset(est, se))
    assert info.traceback[-1].name == "_scalar_stats"


@pytest.mark.parametrize("fit", [fit_bim, fit_bms, fit_cams, fit_overall],
                         ids=lambda f: f.__name__)
def test_huge_estimates_are_a_clean_domain_error(fit):
    # y'Wy overflows for finite estimates of 1e160 against SEs of 1; the
    # error names that scale instead of surfacing as NaN weights
    est = np.array([[1e160 * k, 0.0] for k in range(1, 5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="y'Wy overflows float64") as info:
            fit(pair_dataset(est, np.ones((4, 2))))
    assert "e+160" in str(info.value)


@pytest.mark.parametrize("contrast, mean, why", [
    # the prior's own y'Wy overflows
    (0.0, 1e160, "y'Wy overflows float64: .* reach 1e\\+160"),
    # the prior's and the studies' y'Wy are finite, their sum is not
    (1e153, 1.3e154, "y'Wy or b'theta overflows float64: .* reach 1.3e\\+154"),
])
def test_huge_location_prior_mean_is_a_clean_domain_error(contrast, mean, why):
    est = np.array([[0.0, contrast * k] for k in range(1, 5)])
    priors = PriorSpec(location_prior=(("gamma", mean, 1.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=why):
            fit_bim(pair_dataset(est, np.ones((4, 2))), priors)


def fuzz_datasets(n=80, seed=2):
    """Valid datasets on wildly mixed scales, some subgroups missing (the
    sentinel SE 100)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        j = int(rng.integers(2, 12))
        scale = 10.0 ** rng.uniform(-4, 3, size=(j, 1))
        se = scale * 10.0 ** rng.uniform(-3, 3, size=(j, 2))
        est = rng.normal(0.0, 10.0 ** rng.uniform(-3, 2), size=(j, 2))
        missing = rng.uniform(size=(j, 2)) < 0.1
        se[missing], est[missing] = 100.0, 0.0
        yield pair_dataset(est, se)


def test_fits_on_fuzzed_scales_succeed_or_fail_cleanly():
    # every fit with J >= 3 returns or raises a CamsmetaError about the data;
    # posterior weights that do not sum to 1 are a defect, not a data error
    for data in fuzz_datasets():
        if len(data.studies) < 3:
            continue  # J = 2 only meets the flat-prior rule for BIM/OVERALL
        for fit in (fit_cams, fit_bim, fit_bms, fit_overall):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CamsmetaWarning)
                try:
                    fit(data)
                except CamsmetaError as exc:
                    assert "weights must sum to 1" not in str(exc), fit.__name__


def quickstart_data(seed, n_studies=8):
    """The benchmark's inputs: quick-start data (J=8, with counts) or the
    fit_j1000 data (J=1000) of one data seed."""
    return simulate(SimScenario(n_studies=n_studies, gamma=0.3, tau=0.1,
                                tau_gamma=0.1,
                                uisd=1.0 if n_studies == 8 else None,
                                seed=seed))


@pytest.mark.parametrize("seed", range(8))
def test_cams_gamma_is_the_bim_posterior_bit_for_bit(seed):
    # the paper's claim as an exact identity: the CAMS contrast factor is
    # the BIM solve, so gamma and the tau_gamma marginal read the same bits
    data = quickstart_data(seed)
    grid = GridSpec.default(PriorSpec(), n_nodes=101)
    cams, bim = fit_cams(data, PriorSpec(), grid), fit_bim(data, PriorSpec(),
                                                          grid)
    assert cams.summaries["gamma"] == bim.summaries["gamma"]
    assert cams.summaries["tau_gamma"] == bim.summaries["tau_gamma"]
    for got, want in zip(cams.grid.scale_axis("tau_gamma"),
                         bim.grid.scale_axis("tau_gamma")):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n_studies", [8, 1000])
def test_product_lattice_matches_the_joint_oracle(n_studies):
    data = quickstart_data(0, n_studies)
    grid = GridSpec.default(PriorSpec(), n_nodes=101)
    fit = fit_cams(data, PriorSpec(), grid)
    assert [f.scale_names for f, _ in fit.grid.factors] == [
        ("tau",), ("tau_gamma",)]
    oracle = cams_oracle(data, data.info_fractions, PriorSpec(), grid)
    assert _grid_distance(fit.grid, oracle) < TOL_EXACT


@pytest.mark.parametrize("location, product", [
    ((("delta", 0.5, 0.3),), False),
    ((("alpha", 0.1, 0.2),), True),
    ((("gamma", 0.3, 0.1),), True),
    ((("alpha", 0.1, 0.2), ("beta", 0.6, 0.4), ("gamma", 0.3, 0.1)), True),
])
def test_a_prior_that_loads_on_both_blocks_keeps_the_joint_solve(location,
                                                                  product):
    # a delta = beta - gamma prior couples the blocks; alpha, beta and gamma
    # priors are one more observation of one block each
    data = make_dataset(seed=3, n=9)
    priors = PriorSpec(location_prior=location)
    grid = GridSpec.default(priors, n_nodes=21)
    fit = fit_cams(data, priors, grid)
    assert bool(fit.grid.factors) == product
    oracle = cams_oracle(data, data.info_fractions, priors, grid)
    assert _grid_distance(fit.grid, oracle) < TOL_EXACT


def test_cams_refusals_and_warnings_keep_their_text():
    grid = GridSpec.default(PriorSpec(), n_nodes=11)
    with pytest.raises(ContractError) as info:
        fit_cams(make_dataset(seed=8, n=2), PriorSpec(), grid)
    assert str(info.value) == (
        "flat location priors need at least 3 studies for 3 fixed effects "
        "(got 2); supply proper location priors or more data")
    # a meta-regression with one prevalence keeps the joint solve, whose
    # warning names the flat direction in (alpha, delta, gamma)
    with pytest.warns(IdentifiabilityWarning) as record:
        fit = fit_cams(rank_deficient_data(), PriorSpec(), grid)
    assert [str(w.message) for w in record] == [
        "design is rank deficient (2 < 3); flat directions: ['+0.371*alpha; "
        "-0.928*delta']; summaries along them are prior-driven only"]
    assert fit.grid.factors == ()
    # a prior too tight for the data fails at a node of the tau axis
    tight = PriorSpec(location_prior=(("alpha", 0.0, 1e-12),))
    with pytest.raises(DomainError, match=(
            r"^the per-node GLS system is numerically singular at tau = \S+, "
            r"tau_gamma = 0: the precision of the data does not match the "
            r"tau_prior and tau_gamma_prior scales; rescale the data or the "
            r"priors, or loosen a location prior that is too tight for the "
            r"data: alpha \(sd 1e-12\)$")):
        fit_cams(make_dataset(seed=2), tight, GridSpec.default(tight, 11))
    data = simulate(SimScenario(n_studies=15, gamma=0.3, tau=10.0,
                                tau_gamma=3.0, seed=1))
    with pytest.warns(GridEdgeWarning) as record:
        fit_cams(data)
    assert [str(w.message) for w in record] == [
        f"the last {name} grid node ({top}) holds {share} % of the posterior "
        f"mass, so the grid truncates the posterior and its upper summaries "
        f"are too low; raise the {name} prior scale"
        for name, top, share in (("tau", 5, 36.5), ("tau_gamma", 2.5, 1.07))]
