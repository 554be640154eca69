import contextlib
import dataclasses
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy import integrate, special, stats

from camsmeta import gaussmix, inference, io_cli, reporting
from camsmeta.errors import (CamsmetaWarning, ContractError, DomainError,
                             ExtrapolationWarning, GridEdgeWarning)
from camsmeta.inference import GridSpec, PriorSpec, fit_bim, fit_bms, fit_cams
from camsmeta.model_core import MetaDataset, StudyRecord, SubgroupObservation
from camsmeta.reporting import (BETA_DRAWS, RISK_GRID, STRATEGY_KINDS,
                                PrevalenceSpec, _bracketed_root, bayes_risk,
                                beta_moments, effects_at,
                                marginalize_prevalence, optimal_if,
                                overall_if, report_effects, report_policies,
                                strategy_prevalence)
from camsmeta.verify import SimScenario, leverage_scenario, simulate


def sim_data(seed=11, n=7, gamma=0.3, tau_gamma=0.12, uisd=1.0):
    return simulate(SimScenario(n_studies=n, alpha=0.2, delta=0.8,
                                gamma=gamma, tau=0.15, tau_gamma=tau_gamma,
                                seed=seed, uisd=uisd))


def refuse_draws(*args, **kwargs):
    """Stands in for ``np.random.default_rng`` where nothing may draw."""
    raise AssertionError("random numbers drawn")


def far_reference(data, cams):
    """A BMS fit whose subgroup-A median lies about 1 above the CAMS
    subgroup-A line's median at either end, pinned there by a tight
    location prior."""
    top = max(effects_at(cams, p).mu_a.median for p in (0.0, 1.0))
    priors = PriorSpec(location_prior=(("mu_a", top + 1.0, 1e-3),))
    with warnings.catch_warnings():
        # a prior that far from the data pushes tau_gamma to the grid edge
        warnings.simplefilter("ignore", GridEdgeWarning)
        return fit_bms(data, priors, GridSpec.default(priors, n_nodes=41))


@pytest.fixture(scope="module")
def fitted():
    data = sim_data()
    priors = PriorSpec()
    grid = GridSpec.default(priors, n_nodes=41)
    cams = fit_cams(data, priors, grid)
    bms = fit_bms(data, priors, grid)
    return data, cams, bms


def test_prevalence_spec_validation():
    assert PrevalenceSpec.point(0.3).mean() == 0.3
    with pytest.raises(DomainError):
        PrevalenceSpec.point(1.2)
    with pytest.raises(ContractError):
        PrevalenceSpec("nonsense")
    with pytest.raises(ContractError):
        PrevalenceSpec("point")  # needs a value
    spec = PrevalenceSpec.beta(2.0, 5.0)
    assert spec.mean() == pytest.approx(2.0 / 7.0)
    for comp in ((math.inf, 2.0, 3.0), (math.nan, 2.0, 3.0), (0.0, 2.0, 3.0),
                 (1.0, 2.0, math.inf), (1.0, math.nan, 3.0)):
        with pytest.raises(DomainError, match="must be positive and finite"):
            PrevalenceSpec("beta", components=(comp,))


def test_effects_at_endpoints(fitted):
    _, cams, _ = fitted
    # at pi = 0 the overall effect is the subgroup A effect
    eff0 = effects_at(cams, 0.0)
    assert eff0.overall == eff0.mu_a
    # at pi = 1 it is the subgroup B effect
    eff1 = effects_at(cams, 1.0)
    assert eff1.overall == eff1.mu_b
    # the interaction summary never depends on the prevalence
    assert eff0.interaction == eff1.interaction == cams.summaries["gamma"]


def test_effects_at_interior(fitted):
    _, cams, _ = fitted
    eff = effects_at(cams, 0.4)
    assert eff.mu_a.median < eff.overall.median < eff.mu_b.median
    assert eff.prevalence_used["value"] == 0.4
    with pytest.raises(DomainError):
        effects_at(cams, 1.4)


def test_effects_require_full_model(fitted):
    data, _, bms = fitted
    with pytest.raises(ContractError):
        effects_at(bms, 0.4)


def test_ratio_scale(fitted):
    _, cams, _ = fitted
    eff = effects_at(cams, 0.3)
    ratio = eff.ratio_scale()
    assert ratio["overall"][0] == pytest.approx(np.exp(eff.overall.median))
    assert ratio["interaction"][1] == pytest.approx(
        np.exp(eff.interaction.lower))


def test_overall_if_identical_fractions():
    # every study at the same information fraction: the precision-weighted
    # target must reproduce it exactly
    rng = np.random.default_rng(4)
    studies = []
    for i in range(5):
        s = rng.uniform(0.1, 0.2)
        sa, sb = np.sqrt(0.37) * s, np.sqrt(0.63) * s
        studies.append(StudyRecord.from_observations(
            f"S{i+1}", SubgroupObservation("A", rng.normal(), sa),
            SubgroupObservation("B", rng.normal(), sb)))
    data = MetaDataset(tuple(studies))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # equal fractions are collinear
        fit = fit_cams(data, PriorSpec(), GridSpec.default(PriorSpec(), 21))
    assert overall_if(fit, data) == pytest.approx(0.37, abs=1e-12)


def test_overall_if_within_range(fitted):
    data, cams, _ = fitted
    pi_star = overall_if(cams, data)
    assert data.info_fractions.min() <= pi_star <= data.info_fractions.max()


def exact_widths(fit, pis) -> np.ndarray:
    """The combined width of the two subgroup 95% intervals at each
    prevalence, from one quantile batch."""
    specs = [{"alpha": 1.0, "delta": float(p), "gamma": g}
             for g in (0.0, 1.0) for p in pis]
    qs = fit.functional_quantiles(specs, (0.025, 0.975))
    span = (qs[:, 1] - qs[:, 0]).reshape(2, len(pis))
    return span[0] + span[1]


SCAN_PI = np.linspace(0.0, 1.0, 41)


def scan_reference(fit):
    """The optimal prevalence and its width found without any locator: the
    exact widths at all 41 scan points, refined by ``_scan_min``."""
    pi, _, _ = reporting._scan_min(lambda pis: exact_widths(fit, pis), 41)
    return pi, float(exact_widths(fit, [pi])[0])


def test_line_rows_of_several_offsets_are_each_line_in_turn(fitted):
    _, cams, _ = fitted
    pis = np.linspace(0.0, 1.0, 5)
    both = reporting.line_rows(cams, pis, (0.0, 1.0))
    assert both.shape == (10, 3)
    assert np.array_equal(both, np.concatenate(
        [reporting.line_rows(cams, pis, g) for g in (0.0, 1.0)]))
    assert reporting.line_rows(cams, [0.3]).shape == (1, 3)


def test_optimal_if_properties(fitted):
    _, cams, _ = fitted
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        opt = optimal_if(cams)
    assert 0.0 <= opt.pi_opt <= 1.0
    assert opt.flat_range is None
    # the refined optimum cannot be worse than any sample of the exact scan
    assert opt.width <= exact_widths(cams, SCAN_PI).min() + 1e-12


def golden_argmin(f, a, b, tol=1e-9):
    """Golden-section minimum of a unimodal scalar f on [a, b], to tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


@contextlib.contextmanager
def recorded_quantile_reads():
    """The prevalences (delta coefficients of the coefficient rows) read by
    each ``FitResult.functional_quantiles`` call, in call order."""
    reads = []
    quantiles = inference.FitResult.functional_quantiles

    def recording(self, specs, levels):
        reads.append((self._coef_matrix(specs)
                       @ self.functionals["delta"]).tolist())
        return quantiles(self, specs, levels)

    with mock.patch.object(inference.FitResult, "functional_quantiles",
                           recording):
        yield reads


@pytest.mark.parametrize("n_studies, uisd, seed, nodes", [
    (8, 1.0, 1, 101),   # the quick-start data, data seed 1
    (8, None, 4, 61),
    (3, None, 4, 61),   # one parabolic step alone is 2.4e-4 off here
])
def test_optimal_if_matches_a_tight_golden_section(n_studies, uisd, seed,
                                                   nodes):
    priors = PriorSpec()
    data = simulate(SimScenario(n_studies=n_studies, gamma=0.3, tau=0.1,
                                tau_gamma=0.1, uisd=uisd, seed=seed))
    cams = fit_cams(data, priors, GridSpec.default(priors, nodes))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        opt = optimal_if(cams)

    def width(p):
        return float(exact_widths(cams, [p])[0])

    # the bracket of the best point of the exact 41-point scan
    best = int(np.argmin(exact_widths(cams, SCAN_PI)))
    want = golden_argmin(width, SCAN_PI[max(best - 1, 0)],
                         SCAN_PI[min(best + 1, 40)])
    assert abs(opt.pi_opt - want) <= 1e-5


@pytest.mark.parametrize("scenario, nodes", [
    *[(SimScenario(n_studies=j, gamma=0.3, tau=0.1, tau_gamma=0.1, seed=seed),
       61) for j in (3, 8, 15) for seed in range(5)],
    *[(leverage_scenario(seed), 61) for seed in range(3)],
], ids=lambda v: (f"J{v.n_studies}-seed{v.seed}"
                  if isinstance(v, SimScenario) else str(v)))
def test_optimal_if_locator_matches_the_full_scan(scenario, nodes):
    # the closed-form locator reads 9 prevalences instead of the scan's 41,
    # and changes neither the optimum nor its width by a bit
    priors = PriorSpec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CamsmetaWarning)
        cams = fit_cams(simulate(scenario), priors,
                        GridSpec.default(priors, nodes))
        with recorded_quantile_reads() as reads:
            opt = optimal_if(cams)
    assert (opt.pi_opt, opt.width) == scan_reference(cams)
    assert sum(map(len, reads)) <= 2 * 9


def test_optimal_if_falls_back_to_the_full_scan_from_a_wrong_start(fitted):
    # a locator that starts at the far end of the scan from the optimum
    # misses it: the smallest of the three widths read there lies at the
    # window's inner edge, so all 41 widths are read and refined instead
    _, cams, _ = fitted
    want = scan_reference(cams)
    far_end = -SCAN_PI if want[0] < 0.5 else SCAN_PI
    with mock.patch.object(reporting, "_line_sd_sum",
                           lambda fit, pis: far_end.copy()), \
            recorded_quantile_reads() as reads:
        opt = optimal_if(cams)
    assert (opt.pi_opt, opt.width) == want
    window = SCAN_PI[-3:] if want[0] < 0.5 else SCAN_PI[:3]
    assert [len(r) for r in reads] == [2 * 3, 2 * 41, 2 * 3, 2 * 1]
    assert reads[0] == 2 * window.tolist()
    assert reads[1] == 2 * SCAN_PI.tolist()
    assert reads[3] == [want[0]] * 2


def quickstart_report(c):
    """Every point-valued policy and a Beta law reported on the quick-start
    data (data seed 1, 61 nodes) with estimates, SEs and both prior scales
    times c."""
    data = simulate(SimScenario(n_studies=8, gamma=0.3, tau=0.1, tau_gamma=0.1,
                                uisd=1.0, seed=1))
    data = MetaDataset(tuple(StudyRecord.from_observations(s.study_id, *(
        dataclasses.replace(o, estimate=c * o.estimate,
                            std_error=c * o.std_error)
        for o in (s.obs_a, s.obs_b))) for s in data.studies))
    priors = PriorSpec(c * PriorSpec().tau_scale, c * PriorSpec().tau_gamma_scale)
    grid = GridSpec.default(priors, n_nodes=61)
    specs = [PrevalenceSpec(kind, value=0.4) for kind in STRATEGY_KINDS]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CamsmetaWarning)
        cams, bms = fit_cams(data, priors, grid), fit_bms(data, priors, grid)
        return report_policies(data, cams, specs + [PrevalenceSpec.beta(2, 3)],
                               bms)


@pytest.fixture(scope="module")
def unscaled_report():
    return quickstart_report(1.0)


@pytest.mark.parametrize("power", [-300, -100, -40, 40, 300])
def test_report_policies_scale_equivariance(unscaled_report, power):
    # every prevalence strategy is scale free, and every effect scales by c
    # to within the quantile tolerance relative to c
    c = 2.0 ** power
    for want, got in zip(unscaled_report, quickstart_report(c)):
        if want.prevalence_used["kind"] != "beta":
            assert abs(got.prevalence_used["value"]
                       - want.prevalence_used["value"]) <= 1e-9, want
        for name in ("mu_a", "mu_b", "overall", "interaction"):
            for part in ("median", "lower", "upper"):
                assert abs(getattr(getattr(got, name), part) / c
                           - getattr(getattr(want, name), part)) \
                    <= 2.0 * gaussmix.QUANTILE_TOL, (want.prevalence_used,
                                                     name, part)


def with_delta(fit, mean, cov):
    """``fit`` with delta's conditional mean set to ``mean`` and its
    conditional variance to ``cov`` at every lattice node, uncorrelated with
    alpha and gamma."""
    grid = fit.grid
    cond_mean, cond_cov = grid.cond_mean.copy(), grid.cond_cov.copy()
    k = grid.param_names.index("delta")
    cond_mean[..., k] = mean
    cond_cov[..., k, :] = cond_cov[..., :, k] = 0.0
    cond_cov[..., k, k] = cov
    return dataclasses.replace(fit, grid=dataclasses.replace(
        grid, cond_mean=cond_mean, cond_cov=cond_cov))


def test_optimal_if_flat_width_reads_one_prevalence(fitted):
    # delta an atom at 0 at every lattice node makes both subgroup lines
    # the same mixture at every prevalence: the sd sum is flat, so the
    # whole range is reported after one width read. (A location prior on
    # delta tight enough for this, sd 1e-8 or less, makes the per-node GLS
    # system numerically singular.)
    _, cams, _ = fitted
    pinned = with_delta(cams, 0.0, 0.0)
    with recorded_quantile_reads() as reads:
        opt = optimal_if(pinned)
    assert opt.flat_range == (0.0, 1.0) and opt.pi_opt == 0.5
    assert opt.width == exact_widths(pinned, [0.2])[0]
    assert reads == [[0.5, 0.5]]


@pytest.mark.parametrize("sd", [1e-12, 1e-8])
def test_singular_node_names_a_tight_location_prior(sd):
    priors = PriorSpec(location_prior=(("delta", 0.5, sd),))
    with pytest.raises(DomainError) as info:
        fit_cams(sim_data(), priors, GridSpec.default(priors, n_nodes=41))
    message = str(info.value)
    assert "numerically singular" in message and "tau_prior" in message
    assert ("location prior that is too tight for the data: "
            f"delta (sd {sd:g})") in message


def test_optimal_if_reads_few_prevalences(fitted):
    # the locator's five scan points, the refining triple and the optimum:
    # 9 prevalences (each two lines) in 3 batches, instead of 45
    _, cams, _ = fitted
    priors = PriorSpec()
    grid = GridSpec.default(priors, n_nodes=101)
    fits = [cams] + [fit_cams(simulate(SimScenario(
        n_studies=8, gamma=0.3, tau=0.1, tau_gamma=0.1, uisd=1.0,
        seed=seed)), priors, grid) for seed in range(8)]
    for fit in fits:
        with warnings.catch_warnings(), recorded_quantile_reads() as reads:
            warnings.simplefilter("ignore", ExtrapolationWarning)
            optimal_if(fit)
        assert len(reads) <= 3
        assert len(set(np.concatenate(reads).tolist())) <= 9


def test_prevalence_searches_read_few_quantile_batches(fitted):
    # the located width window, one refining triple and the optimum's
    # width; the closeness fallback is a 101-point scan and one refining
    # triple
    data, cams, bms = fitted
    with recorded_quantile_reads() as reads:
        optimal_if(cams)
    assert len(reads) <= 3
    reference = far_reference(data, cams)
    with recorded_quantile_reads() as reads:
        strategy_prevalence(data, cams, "closeness_a", reference=reference)
    assert len(reads) <= 2


def falling(fit):
    """``fit`` with delta = -alpha at every lattice node: subgroup line A is
    (1 - pi) alpha, an atom at pi = 1, and both lines' sds fall with pi."""
    grid = fit.grid
    k, a = (grid.param_names.index(n) for n in ("delta", "alpha"))
    cond_mean, cond_cov = grid.cond_mean.copy(), grid.cond_cov.copy()
    cond_mean[..., k] = -cond_mean[..., a]
    cond_cov[..., k, :] = -cond_cov[..., a, :]
    cond_cov[..., :, k] = -cond_cov[..., :, a]
    cond_cov[..., k, k] = cond_cov[..., a, a]
    return dataclasses.replace(fit, grid=dataclasses.replace(
        grid, cond_mean=cond_mean, cond_cov=cond_cov))


@pytest.mark.parametrize("search_range, observed", [((0.9, 1.0), 0.9),
                                                     ((0.0, 0.1), 0.1)])
def test_optimal_if_at_an_end_reads_only_inside_its_range(fitted,
                                                          search_range,
                                                          observed):
    # delta = -alpha makes the widths fall towards pi = 1; delta with a
    # constant mean and its own variance, uncorrelated, makes both lines'
    # sds grow with pi, so the widths rise from pi = 0. The walk stops at
    # that end of the scan, the refinement is clamped to it, and the search
    # reads only prevalences within search_range. An optimum off the one
    # observed fraction is an extrapolation, which must be flagged.
    _, cams, _ = fitted
    k = cams.grid.param_names.index("delta")
    if search_range[1] == 1.0:
        end, fit, first = 1.0, falling(cams), SCAN_PI[-3:]
    else:
        end, first = 0.0, SCAN_PI[:3]
        fit = with_delta(cams, 0.5, cams.grid.cond_cov[..., k, k])
    fit = dataclasses.replace(fit, provenance={
        **fit.provenance, "info_fractions": [observed]})
    named = re.escape(f"[{observed:.4f}, {observed:.4f}]")
    with recorded_quantile_reads() as reads, \
            pytest.warns(ExtrapolationWarning, match=named):
        opt = optimal_if(fit)
    assert opt.pi_opt == end
    assert opt.width == exact_widths(fit, [end])[0]
    assert reads[0] == 2 * first.tolist()
    read = np.concatenate(reads)
    assert search_range[0] <= read.min() and read.max() <= search_range[1]


def test_optimal_if_warns_outside_observed(fitted):
    # observed fractions that all lie above the optimum: it is an
    # extrapolation, which must be flagged
    _, cams, _ = fitted
    with warnings.catch_warnings():
        warnings.simplefilter("error", ExtrapolationWarning)
        pi_opt = optimal_if(cams).pi_opt
    above = dataclasses.replace(cams, provenance={
        **cams.provenance, "info_fractions": [pi_opt + 0.1, pi_opt + 0.2]})
    with pytest.warns(ExtrapolationWarning, match="outside the observed"):
        optimal_if(above)


def test_strategy_average(fitted):
    data, cams, bms = fitted
    assert strategy_prevalence(data, cams, "average") == pytest.approx(
        float(np.mean(data.info_fractions)))


def test_strategy_trial_weighted(fitted):
    data, cams, _ = fitted
    w = np.array([1.0 / (1.0 / s.obs_a.count + 1.0 / s.obs_b.count)
                  for s in data.studies])
    want = float(w @ data.info_fractions / w.sum())
    assert strategy_prevalence(data, cams, "trial_weighted") == pytest.approx(want)


def test_strategy_trial_weighted_needs_counts():
    data = sim_data(uisd=None)
    priors = PriorSpec()
    fit = fit_cams(data, priors, GridSpec.default(priors, 21))
    with pytest.raises(ContractError):
        strategy_prevalence(data, fit, "trial_weighted")
    # a zero count is refused by study, not divided by
    counted = sim_data()
    s = counted.studies[2]
    zero = dataclasses.replace(s, obs_b=dataclasses.replace(s.obs_b, count=0))
    counted = MetaDataset(counted.studies[:2] + (zero,) + counted.studies[3:])
    with pytest.raises(ContractError,
                       match=f"study {s.study_id} has a zero count"):
        strategy_prevalence(counted, fit, "trial_weighted")


def test_strategy_external_passthrough(fitted):
    data, cams, _ = fitted
    assert strategy_prevalence(data, cams, "external", value=0.27) == 0.27
    with pytest.raises(ContractError):
        strategy_prevalence(data, cams, "external")
    with pytest.raises(DomainError):
        strategy_prevalence(data, cams, "external", value=1.3)


def test_strategy_closeness(fitted):
    data, cams, bms = fitted
    # the matched prevalence moves the model's subgroup line onto the
    # reference subgroup median
    for kind, name in (("closeness_a", "mu_a"), ("closeness_b", "mu_b")):
        pi = strategy_prevalence(data, cams, kind, reference=bms)
        got = getattr(effects_at(cams, pi), name).median
        want = bms.summaries[name].median
        assert got == pytest.approx(want, abs=1e-7)
    with pytest.raises(ContractError):
        strategy_prevalence(data, cams, "closeness_a")  # reference required


@pytest.mark.parametrize("f, root", [
    (lambda x: x - 0.3, 0.3),
    (lambda x: (x - 0.3) ** 3, 0.3),
    (lambda x: math.expm1(60.0 * (x - 0.9)), 0.9),   # false position stalls
    (lambda x: math.atan(1e6 * (x - 0.55)), 0.55),   # near a step
])
def test_bracketed_root_is_safeguarded(f, root):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    got = _bracketed_root(counted, 0.0, 1.0, f(0.0), f(1.0))
    assert abs(got - root) <= 1e-10
    # the bracket halves at least every third step: 1 -> 1e-10 in 3 * 34
    assert len(calls) <= 3 * 34


def test_closeness_without_a_crossing_is_the_nearest_approach(fitted):
    # a reference median above the subgroup line at every prevalence has no
    # root; the strategy still returns the prevalence of least distance
    data, cams, _ = fitted
    reference = far_reference(data, cams)
    far = reference.summaries["mu_a"]
    pi = strategy_prevalence(data, cams, "closeness_a", reference=reference)
    dense = np.linspace(0.0, 1.0, 1001)
    medians = cams.functional_quantiles(
        [{"alpha": 1.0, "delta": float(p)} for p in dense], (0.5,))[:, 0]
    assert np.all(medians < far.median)
    assert pi == pytest.approx(dense[np.argmin(far.median - medians)], abs=1e-4)


@contextlib.contextmanager
def counted_cdf_rows():
    """The number of points each ``gaussmix._cdf_pdf`` call evaluates, one
    lattice CDF row per point, in call order."""
    rows = []
    cdf_pdf = gaussmix._cdf_pdf

    def counting(x, *args):
        rows.append(len(x))
        return cdf_pdf(x, *args)

    with mock.patch.object(gaussmix, "_cdf_pdf", counting):
        yield rows


def quickstart_fits(seed, nodes=101):
    """CAMS and BMS fits of the quick-start data (J=8) of one data seed."""
    priors = PriorSpec()
    grid = GridSpec.default(priors, n_nodes=nodes)
    data = simulate(SimScenario(n_studies=8, gamma=0.3, tau=0.1,
                                tau_gamma=0.1, uisd=1.0, seed=seed))
    return data, fit_cams(data, priors, grid), fit_bms(data, priors, grid)


def assert_closeness_reads_few_cdf_rows(data, cams, bms):
    # the search reads CDF values only: the located window of 9 scan points
    # plus a short bracketed refinement, at most 20 rows instead of the
    # 101-point scan's 107
    bms.summaries  # the reference medians: a quantile solve of their own
    for kind in ("closeness_a", "closeness_b"):
        with mock.patch.object(inference, "mixture_quantiles",
                               side_effect=AssertionError("quantile solve")), \
                counted_cdf_rows() as rows:
            strategy_prevalence(data, cams, kind, reference=bms)
        assert 2 * reporting._CLOSE_REACH + 1 < sum(rows) <= 20, kind


def test_closeness_solves_no_quantiles_and_few_cdf_rows(fitted):
    assert_closeness_reads_few_cdf_rows(*fitted)


@pytest.mark.parametrize("seed", range(8))
def test_closeness_reads_few_cdf_rows_on_the_quick_start(seed):
    # J=8, N=101, data seeds 0-7, as the benchmark's report runs it
    assert_closeness_reads_few_cdf_rows(*quickstart_fits(seed))


def closeness_scan_reference(fit, reference, subgroup):
    """The closeness prevalence found without any locator: G at all 101 scan
    points, the crossing with the smallest |G| at an end refined by
    ``_bracketed_root``, else the nearest approach in median."""
    target = reference.summaries[f"mu_{subgroup}"].median
    gamma = 1.0 if subgroup == "b" else 0.0

    def excess(pis):
        return fit.functional_cdf(reporting.line_rows(fit, pis, gamma),
                                  target) - 0.5

    scan = np.linspace(0.0, 1.0, 101)
    g = excess(scan)
    sign = np.sign(g)
    cross = np.flatnonzero(sign[:-1] * sign[1:] <= 0.0)
    if cross.size and g.max() > g.min():
        i = cross[np.argmin(np.minimum(np.abs(g[cross]), np.abs(g[cross + 1])))]
        return _bracketed_root(lambda p: excess([p])[0], float(scan[i]),
                               float(scan[i + 1]), g[i], g[i + 1])
    return reporting._scan_min(lambda pis: np.abs(fit.functional_quantiles(
        reporting.line_rows(fit, pis, gamma), (0.5,))[:, 0] - target), 101)[0]


@pytest.mark.parametrize("scenario, nodes", [
    *[(SimScenario(n_studies=8, gamma=0.3, tau=0.1, tau_gamma=0.1, uisd=1.0,
                   seed=seed), 101) for seed in range(8)],
    *[(SimScenario(n_studies=j, gamma=0.3, tau=0.1, tau_gamma=0.1, seed=seed),
       61) for j in (3, 8, 15) for seed in range(5)],
    *[(leverage_scenario(seed), 61) for seed in range(3)],
    *[(SimScenario(n_studies=j, gamma=0.3, tau=0.1, tau_gamma=0.1, seed=seed),
       61) for j in (30, 100) for seed in range(4)],
], ids=lambda v: (f"J{v.n_studies}-seed{v.seed}"
                  if isinstance(v, SimScenario) else str(v)))
def test_closeness_locator_matches_the_full_scan(scenario, nodes):
    # the closed-form locator reads G in a window of 9 scan points instead
    # of all 101, and changes neither subgroup's prevalence by a bit
    priors = PriorSpec()
    grid = GridSpec.default(priors, nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CamsmetaWarning)
        data = simulate(scenario)
        cams, bms = fit_cams(data, priors, grid), fit_bms(data, priors, grid)
        for subgroup in ("a", "b"):
            assert reporting._closeness(cams, bms, subgroup) \
                == closeness_scan_reference(cams, bms, subgroup), subgroup


@contextlib.contextmanager
def recorded_cdf_reads():
    """The prevalences (delta coefficients of the coefficient rows) read by
    each ``FitResult.functional_cdf`` call, in call order."""
    reads = []
    cdf = inference.FitResult.functional_cdf

    def recording(self, specs, x):
        reads.append((self._coef_matrix(specs)
                       @ self.functionals["delta"]).tolist())
        return cdf(self, specs, x)

    with mock.patch.object(inference.FitResult, "functional_cdf", recording):
        yield reads


@pytest.mark.parametrize("locator", ["far_end", "flat", "nan"])
def test_closeness_falls_back_to_the_full_scan(fitted, locator):
    # a locator that starts at the far end of the scan from the root finds
    # no sign change in its window, so all 101 points are read and the full
    # scan's crossing is refined instead; a line mean that does not move
    # with pi, or is not a number, locates nothing and goes to the scan
    _, cams, bms = fitted
    want = closeness_scan_reference(cams, bms, "a")
    target = bms.summaries["mu_a"].median
    scan = np.linspace(0.0, 1.0, 101)
    # the line's mean meets the target at pi = 1 or at pi = 0
    ends, first = {
        "far_end": ([target - 1.0, target], [scan[-5:]])
        if want < 0.5 else ([target, target + 1.0], [scan[:5]]),
        "flat": ([target + 1.0] * 2, []),
        "nan": ([math.nan] * 2, []),
    }[locator]
    with mock.patch.object(reporting, "_line_moments",
                           lambda fit, rows: (np.array(ends), None)), \
            recorded_cdf_reads() as reads:
        got = reporting._closeness(cams, bms, "a")
    assert got == want
    assert reads[:len(first) + 1] == [p.tolist() for p in first + [scan]]
    assert all(len(r) == 1 for r in reads[len(first) + 1:])


@contextlib.contextmanager
def counted_cdf_rows_by_width():
    """The lattice CDF rows that ``gaussmix._cdf_pdf`` evaluates, summed per
    mixture width (number of components)."""
    rows = {}
    cdf_pdf = gaussmix._cdf_pdf

    def counting(x, mu, *args):
        rows[mu.shape[-1]] = rows.get(mu.shape[-1], 0) + len(x)
        return cdf_pdf(x, mu, *args)

    with mock.patch.object(gaussmix, "_cdf_pdf", counting):
        yield rows


def rows_per_quantile(rows, grid, quantiles):
    """(full-lattice, merged-lattice, 1-D factor) CDF rows per quantile,
    from the per-width counts of ``counted_cdf_rows_by_width``; the factor
    class counts the full and merged grids of every factor of a product
    lattice."""
    full = grid.weight.size
    coarse = grid.merged.weight.size
    factor = {f.weight.size for f, _ in grid.factors} | {
        f.merged.weight.size for f, _ in grid.factors}
    assert not factor & {full, coarse}, (factor, full, coarse)
    assert set(rows) <= {full, coarse} | factor, (rows, full, coarse, factor)
    return (rows.get(full, 0) / quantiles, rows.get(coarse, 0) / quantiles,
            sum(rows.get(w, 0) for w in factor) / quantiles)


def test_optimal_if_scan_needs_few_cdf_rows_per_quantile():
    # work-count guard on the quick-start data (J=8, N=101, data seeds 0-7):
    # started from the merged lattice's quantiles, with the third-order
    # certified exit, the 41-point width scan of optimal_if costs at most
    # 1.25 full-lattice CDF rows per quantile (1.10 measured; about 2.5
    # from the moment-matched start, 3.1 with Newton steps alone, 3.9
    # without the first-order exit either), plus at most 2.5 rows of the
    # 34 x 34 merged lattice (2.00 measured)
    priors = PriorSpec()
    grid = GridSpec.default(priors, n_nodes=101)
    specs = [{"alpha": 1.0, "delta": float(p), "gamma": g}
             for g in (0.0, 1.0) for p in np.linspace(0.0, 1.0, 41)]
    full, coarse = [], []
    for seed in range(8):
        data = simulate(SimScenario(n_studies=8, gamma=0.3, tau=0.1,
                                    tau_gamma=0.1, uisd=1.0, seed=seed))
        cams = fit_cams(data, priors, grid)
        with counted_cdf_rows_by_width() as rows:
            cams.functional_quantiles(specs, (0.025, 0.975))
        f, c, factor = rows_per_quantile(rows, cams.grid, 2 * len(specs))
        full.append(f)
        coarse.append(c)
        # the subgroup lines load on both factors: no 1-D read
        assert factor == 0.0
    assert np.mean(full) <= 1.25, full
    assert np.mean(coarse) <= 2.5, coarse


def test_summaries_at_j1000_need_few_cdf_rows_per_quantile():
    # every estimator's summaries at J=1000, N=101 (as the fit_j1000
    # benchmark reads them), counting the P(> 0) row with the quantiles
    # (1.33 full and 1.0-1.67 merged rows measured). BMS has a block of
    # subnormal weight (5e-324); merged as sum(w mu) / sum(w) it collapsed
    # into an atom, whose rows bisect: 14 merged rows per quantile. CAMS
    # reads alpha and beta off its tau factor and gamma off its tau_gamma
    # factor, and only delta off the lattice (0.33 full, 0.25 merged and
    # 1.92 factor rows measured)
    priors = PriorSpec()
    grid = GridSpec.default(priors, n_nodes=101)
    data = simulate(SimScenario(n_studies=1000, gamma=0.3, tau=0.1,
                                tau_gamma=0.1, seed=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CamsmetaWarning)
        fits = [fit(data, priors, grid)
                for fit in (fit_cams, fit_bim, fit_bms, inference.fit_overall)]
    for fit in fits:
        with counted_cdf_rows_by_width() as rows:
            fit.summaries
        full, coarse, factor = rows_per_quantile(rows, fit.grid,
                                                 3 * len(fit.functionals))
        assert full <= 1.5 and coarse <= 2.0, (fit.estimator, full, coarse)
        assert factor <= 2.5, (fit.estimator, factor)


def test_strategy_unknown(fitted):
    data, cams, _ = fitted
    with pytest.raises(ContractError):
        strategy_prevalence(data, cams, "bogus")


def test_report_effects_point(fitted):
    data, cams, bms = fitted
    eff = report_effects(data, cams, PrevalenceSpec.point(0.4), bms)
    direct = effects_at(cams, 0.4)
    assert eff.overall == direct.overall
    assert eff.prevalence_used["kind"] == "point"


def test_report_effects_strategies_share_interaction(fitted):
    data, cams, bms = fitted
    gamma = cams.summaries["gamma"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        for kind in STRATEGY_KINDS:
            spec = PrevalenceSpec(kind, value=0.3 if kind == "external" else None)
            eff = report_effects(data, cams, spec, bms)
            assert eff.interaction == gamma
            assert eff.prevalence_used["kind"] == kind


def test_marginalize_prevalence(fitted):
    data, cams, _ = fitted
    spec = PrevalenceSpec.beta(2.0, 5.0, seed=0)
    eff = marginalize_prevalence(cams, spec)
    # the interaction is exact, not Monte Carlo
    assert eff.interaction == cams.summaries["gamma"]
    # reproducible under the same seed
    eff2 = marginalize_prevalence(cams, spec)
    assert eff.overall == eff2.overall
    # averaging over prevalence lands between the endpoint effects
    lo = effects_at(cams, 0.0).overall.median
    hi = effects_at(cams, 1.0).overall.median
    assert min(lo, hi) < eff.overall.median < max(lo, hi)


def test_spec_alone_sets_draws_and_seed(fitted):
    data, cams, _ = fitted
    spec = PrevalenceSpec.beta(2.0, 3.0, seed=7)
    eff = marginalize_prevalence(cams, spec)
    assert eff == report_effects(data, cams, spec)
    assert eff.prevalence_used["draws"] == BETA_DRAWS == 20000
    assert eff.prevalence_used["seed"] == spec.seed
    other = marginalize_prevalence(cams, PrevalenceSpec.beta(2.0, 3.0, seed=8))
    assert other.overall != eff.overall


@pytest.mark.parametrize("seed", range(3))
def test_beta_draws_factor_only_the_nodes_they_hit(seed):
    # the Beta report of the quick-start data (N=101) is the one that
    # factors every node's covariance, bit for bit
    data, cams, bms = quickstart_fits(seed)
    spec = PrevalenceSpec.beta(2.0, 3.0, seed=seed)
    rng = np.random.default_rng(spec.seed)
    grid = cams.grid
    w = grid.weight.reshape(-1)
    mean, cov = grid.cond_mean.reshape(-1, 3), grid.cond_cov.reshape(-1, 3, 3)
    vals, vecs = np.linalg.eigh(cov)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) \
        @ vecs.swapaxes(-1, -2)
    idx = rng.choice(w.size, size=BETA_DRAWS, p=w)
    z = rng.standard_normal((BETA_DRAWS, 3))
    theta = mean[idx] + np.einsum("npq,nq->np", root[idx], z)
    pis = rng.beta(2.0, 3.0, size=BETA_DRAWS)
    alpha, delta, gamma = (theta @ cams.functionals[name]
                           for name in ("alpha", "delta", "gamma"))
    want = [reporting._mc_summary(x) for x in (
        alpha + delta * pis, alpha + delta * pis + gamma,
        alpha + (delta + gamma) * pis)]
    for eff in (marginalize_prevalence(cams, spec),
                report_policies(data, cams, [spec], bms)[0]):
        assert [eff.mu_a, eff.mu_b, eff.overall] == want
        assert eff.interaction == cams.summaries["gamma"]


def test_plotdata_reads_no_scan_prevalence_twice(tmp_path):
    # after the batch of the 41 scan prevalences (two lines each), the SVG
    # marker's optimal_if reads only prevalences off the scan: the window
    # and any fallback scan take the widths width_curve.csv holds
    data = simulate(SimScenario(n_studies=8, gamma=0.3, tau=0.1,
                                tau_gamma=0.1, uisd=1.0, seed=1))
    path, out = str(tmp_path / "d.csv"), str(tmp_path / "plots")
    io_cli.save_csv(data, path)
    with warnings.catch_warnings(), recorded_quantile_reads() as reads:
        warnings.simplefilter("ignore", ExtrapolationWarning)
        assert io_cli.main(["plotdata", "--input", path, "--output-dir", out,
                            "--svg", "true"]) == io_cli.EXIT_OK
    assert reads[0] == 2 * SCAN_PI.tolist()
    later = np.concatenate(reads[1:])
    assert later.size and not np.isin(later, SCAN_PI).any()


def test_plotdata_marker_falls_back_without_reading_the_scan(tmp_path):
    # a locator that starts at the wrong end misses the optimum; the full
    # scan it falls back to is the width curve, so the marker reads only
    # the refining triple and lands where optimal_if does
    data = simulate(SimScenario(n_studies=8, gamma=0.3, tau=0.1,
                                tau_gamma=0.1, uisd=1.0, seed=1))
    priors = PriorSpec()
    cams = fit_cams(data, priors, GridSpec.default(priors, 101))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        want = optimal_if(cams)
        far_end = -SCAN_PI if want.pi_opt < 0.5 else SCAN_PI
        with mock.patch.object(reporting, "_line_sd_sum",
                               lambda fit, pis: far_end.copy()), \
                recorded_quantile_reads() as reads:
            got = reporting._optimal_pi(cams, exact_widths(cams, SCAN_PI))
    assert got == (want.pi_opt, False)
    assert len(reads) == 2 and reads[0] == 2 * SCAN_PI.tolist()
    assert not np.isin(np.concatenate(reads[1:]), SCAN_PI).any()


def test_marginalizing_a_point_law_is_exact(fitted, monkeypatch):
    # a point or external law needs no draws: it is effects_at its value,
    # and report_effects gives the same entry
    data, cams, _ = fitted
    exact = effects_at(cams, 0.3)
    monkeypatch.setattr(np.random, "default_rng", refuse_draws)
    for kind in ("point", "external"):
        spec = PrevalenceSpec(kind, value=0.3)
        eff = marginalize_prevalence(cams, spec)
        assert (eff.mu_a, eff.mu_b, eff.overall, eff.interaction) == (
            exact.mu_a, exact.mu_b, exact.overall, exact.interaction)
        assert eff.prevalence_used == {"kind": kind, "value": 0.3}
        assert report_effects(data, cams, spec) == eff


def test_beta_moments_against_scipy():
    for a, b in ((2.0, 2.0), (5.0, 21.0), (2.0, 8.0), (0.7, 3.1)):
        mean, sd = beta_moments(a, b)
        assert mean == pytest.approx(stats.beta.mean(a, b), abs=1e-12)
        assert sd == pytest.approx(stats.beta.std(a, b), abs=1e-12)
    with pytest.raises(DomainError):
        beta_moments(0.0, 1.0)


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (math.inf, 2.0),
                                  (1.0, math.nan), (2.0, math.inf),
                                  (-math.inf, 1.0), (0.0, 1.0)])
def test_beta_moments_refuses_a_non_finite_or_non_positive_law(a, b):
    with pytest.raises(DomainError, match="positive and finite"):
        beta_moments(a, b)


def test_bayes_risk_point_mass(fitted):
    _, cams, _ = fitted
    # under a point prevalence the optimum is that point, for either loss
    for loss in ("squared", "absolute"):
        curve, argmin = bayes_risk(cams, PrevalenceSpec.point(0.3), loss=loss)
        assert curve.shape == (101,)
        assert argmin == pytest.approx(0.3, abs=1e-4)


def test_bayes_risk_of_a_flat_law_is_the_midpoint(fitted):
    # half the mass at each end: E|pi0 - pi| is 1/2 at every pi0, so every
    # reporting prevalence is equally risky
    _, cams, _ = fitted
    spec = PrevalenceSpec("beta", components=((0.5, 1e-12, 1.0),
                                              (0.5, 1.0, 1e-12)))
    curve, argmin = bayes_risk(cams, spec, loss="absolute")
    assert np.ptp(curve) < 1e-10 and argmin == 0.5


def test_bayes_risk_squared_matches_beta_mean(fitted):
    _, cams, _ = fitted
    curve, argmin = bayes_risk(cams, PrevalenceSpec.beta(2.0, 6.0),
                               loss="squared")
    assert argmin == pytest.approx(0.25, abs=1e-4)
    # the curve is a parabola in the reporting prevalence: second
    # differences are constant
    d2 = np.diff(curve, 2)
    assert np.allclose(d2, d2[0], atol=1e-10)


def test_bayes_risk_absolute_matches_beta_median(fitted):
    _, cams, _ = fitted
    curve, argmin = bayes_risk(cams, PrevalenceSpec.beta(2.0, 8.0),
                               loss="absolute")
    want = stats.beta.ppf(0.5, 2.0, 8.0)
    assert argmin == pytest.approx(want, abs=1e-4)
    with pytest.raises(ContractError):
        bayes_risk(cams, PrevalenceSpec.point(0.3), loss="hinge")


def beta_quad(f, a, b, lo, hi):
    """The integral of f times the Beta(a, b) density over [lo, hi] by
    ``integrate.quad``; the density's singular factor at 0 or 1, where that
    is an end of [lo, hi], is quad's algebraic weight."""
    at_0, at_1 = lo == 0.0, hi == 1.0

    def rest(x):
        return (f(x) * (1.0 if at_0 else x ** (a - 1.0))
                * (1.0 if at_1 else (1.0 - x) ** (b - 1.0)))

    wvar = (a - 1.0 if at_0 else 0.0, b - 1.0 if at_1 else 0.0)
    return integrate.quad(rest, lo, hi, weight="alg", wvar=wvar, epsabs=0.0,
                          epsrel=1e-13)[0] / special.beta(a, b)


def scipy_risk(cams, spec, loss):
    """The Bayes-risk curve on RISK_GRID from scipy: E[delta^2] or E|delta|
    from ``stats.foldnorm`` per lattice component (|delta| = s |Z + m/s|),
    times E[(pi0 - pi)^2] or E|pi0 - pi| by ``beta_quad``, split at pi0."""
    m, s = (v[0] for v in inference._functional_moments(
        cams.grid, cams.functionals["delta"][None, :]))
    assert np.all(s > 0.0)
    folded = stats.foldnorm(np.abs(m) / s, scale=s)
    w = cams.grid.weight.ravel()
    scale = w @ (folded.mean() if loss == "absolute"
                 else folded.var() + folded.mean() ** 2)
    power = 2 if loss == "squared" else 1

    def law_risk(p0):
        if spec.kind == "point":
            return abs(p0 - spec.value) ** power
        return sum(c * sum(
            beta_quad(lambda x: abs(p0 - x) ** power, a, b, lo, hi)
            for lo, hi in ((0.0, p0), (p0, 1.0)) if hi > lo)
            for c, a, b in spec.components)

    return scale * np.array([law_risk(p0) for p0 in RISK_GRID.tolist()])


@pytest.mark.parametrize("loss", ["squared", "absolute"])
@pytest.mark.parametrize("spec", [
    PrevalenceSpec.beta(2.0, 8.0), PrevalenceSpec.beta(0.5, 0.5),
    PrevalenceSpec("beta", components=((0.6, 2.0, 8.0), (0.4, 0.5, 0.5))),
    PrevalenceSpec.point(0.3)], ids=["beta28", "arcsine", "mixture", "point"])
def test_bayes_risk_curve_matches_scipy(fitted, spec, loss):
    _, cams, _ = fitted
    curve, _ = bayes_risk(cams, spec, loss=loss)
    np.testing.assert_allclose(curve, scipy_risk(cams, spec, loss),
                               rtol=1e-10, atol=0.0)


def test_bayes_risk_draws_nothing(fitted, monkeypatch):
    _, cams, _ = fitted
    monkeypatch.setattr(np.random, "default_rng", refuse_draws)
    for loss in ("squared", "absolute"):
        for spec in (PrevalenceSpec.beta(2.0, 8.0), PrevalenceSpec.point(0.3)):
            bayes_risk(cams, spec, loss=loss)


def test_bayes_risk_of_atoms_is_their_absolute_mean(fitted):
    # components of zero sd: E[delta^2] = sum w m^2 and E|delta| = sum w |m|
    _, cams, _ = fitted
    atoms = dataclasses.replace(cams.grid,
                                cond_cov=np.zeros_like(cams.grid.cond_cov))
    fit = dataclasses.replace(cams, grid=atoms)
    m = atoms.cond_mean.reshape(-1, 3) @ cams.functionals["delta"]
    w = atoms.weight.ravel()
    spec = PrevalenceSpec.point(0.0)
    for loss, scale in (("squared", w @ (m * m)), ("absolute", w @ np.abs(m))):
        curve, _ = bayes_risk(fit, spec, loss=loss)
        np.testing.assert_allclose(curve[-1], scale, rtol=1e-14, atol=0.0)
