import warnings

import numpy as np
import pytest
from scipy import stats

from camsmeta.errors import (ContractError, DomainError, ExtrapolationWarning,
                             ValidationWarning)
from camsmeta.inference import GridSpec, PriorSpec, fit_bim, fit_bms, fit_cams
from camsmeta.model_core import MetaDataset, StudyRecord, SubgroupObservation
from camsmeta.reporting import (STRATEGY_KINDS, PrevalenceSpec, bayes_risk,
                                beta_moments, effects_at, fit_map_prevalence,
                                marginalize_prevalence, optimal_if,
                                overall_if, report_effects,
                                strategy_prevalence)
from camsmeta.verify import SimScenario, simulate


def sim_data(seed=11, n=7, gamma=0.3, tau_gamma=0.12, uisd=1.0):
    return simulate(SimScenario(n_studies=n, alpha=0.2, delta=0.8,
                                gamma=gamma, tau=0.15, tau_gamma=tau_gamma,
                                seed=seed, uisd=uisd))


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
    with pytest.raises(ContractError):
        PrevalenceSpec.beta(2, 5, draws=10)  # too few draws
    with pytest.raises(ContractError):
        PrevalenceSpec("point", value=0.3, draws=10)
    spec = PrevalenceSpec.beta(2.0, 5.0)
    assert spec.mean() == pytest.approx(2.0 / 7.0)


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


def test_optimal_if_properties(fitted):
    _, cams, _ = fitted
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        opt = optimal_if(cams)
    assert 0.0 <= opt.pi_opt <= 1.0
    assert opt.curve_pi.shape == opt.curve_width.shape == (41,)
    # the refined optimum cannot be worse than any curve sample
    assert opt.width <= opt.curve_width.min() + 1e-12
    with pytest.raises(ContractError):
        optimal_if(cams, search_range=(0.8, 0.2))


def test_optimal_if_warns_outside_observed(fitted):
    # confining the search far above every observed fraction forces an
    # extrapolated optimum, which must be flagged
    _, cams, _ = fitted
    with pytest.warns(ExtrapolationWarning):
        optimal_if(cams, search_range=(0.9, 1.0))


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
        assert got == pytest.approx(want, abs=5e-4)
    with pytest.raises(ContractError):
        strategy_prevalence(data, cams, "closeness_a")  # reference required


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
    spec = PrevalenceSpec.beta(2.0, 5.0, draws=4000, seed=0)
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
    spec = PrevalenceSpec.beta(2.0, 3.0, draws=4000, seed=7)
    eff = marginalize_prevalence(cams, spec)
    assert eff == report_effects(data, cams, spec)
    assert eff.prevalence_used["draws"] == spec.draws
    assert eff.prevalence_used["seed"] == spec.seed
    other = marginalize_prevalence(
        cams, PrevalenceSpec.beta(2.0, 3.0, draws=4000, seed=8))
    assert other.overall != eff.overall


def test_beta_moments_against_scipy():
    for a, b in ((2.0, 2.0), (5.0, 21.0), (2.0, 8.0), (0.7, 3.1)):
        mean, sd = beta_moments(a, b)
        assert mean == pytest.approx(stats.beta.mean(a, b), abs=1e-12)
        assert sd == pytest.approx(stats.beta.std(a, b), abs=1e-12)
    with pytest.raises(DomainError):
        beta_moments(0.0, 1.0)


def test_map_prevalence_moment_match():
    counts = [(12, 80), (25, 150), (9, 60), (31, 210), (14, 95)]
    mp = fit_map_prevalence(counts)
    # the matched Beta reproduces the predictive moments by construction
    mean, sd = beta_moments(mp.a, mp.b)
    assert mean == pytest.approx(mp.predictive_mean, abs=1e-12)
    assert sd == pytest.approx(mp.predictive_sd, abs=1e-12)
    assert mp.n_used == 5
    # prevalences here concentrate near 0.15
    assert 0.10 < mp.predictive_mean < 0.20
    lo, hi = mp.pooled_interval
    plo, phi = mp.predictive_interval
    assert plo < lo < hi < phi


def test_map_prevalence_skips_empty():
    with pytest.warns(ValidationWarning):
        mp = fit_map_prevalence([(10, 90), (0, 0), (20, 80)])
    assert mp.n_used == 2
    with pytest.raises(ContractError), pytest.warns(ValidationWarning):
        fit_map_prevalence([(0, 0)])


def test_map_prevalence_concordant_studies():
    # several large studies at the same proportion: the between-study scale
    # concentrates near zero and the predictive mean sits on the proportion
    mp = fit_map_prevalence([(300, 1000)] * 4)
    assert mp.predictive_mean == pytest.approx(0.3, abs=0.02)
    lo, hi = mp.pooled_interval
    assert lo < 0.3 < hi


def test_bayes_risk_point_mass(fitted):
    _, cams, _ = fitted
    # under a point prevalence the optimum is that point, for either loss
    for loss in ("squared", "absolute"):
        spec = PrevalenceSpec("point", value=0.3, draws=2000, seed=1)
        curve, argmin = bayes_risk(cams, spec, loss=loss)
        assert curve.shape == (101,)
        assert argmin == pytest.approx(0.3, abs=0.01)


def test_bayes_risk_squared_matches_beta_mean(fitted):
    _, cams, _ = fitted
    curve, argmin = bayes_risk(cams, PrevalenceSpec.beta(2.0, 6.0, seed=2),
                               loss="squared")
    assert argmin == pytest.approx(0.25, abs=0.01)
    # the curve is a parabola in the reporting prevalence: second
    # differences are constant
    d2 = np.diff(curve, 2)
    assert np.allclose(d2, d2[0], atol=1e-10)


def test_bayes_risk_absolute_matches_beta_median(fitted):
    _, cams, _ = fitted
    curve, argmin = bayes_risk(cams, PrevalenceSpec.beta(2.0, 8.0, seed=3),
                               loss="absolute")
    want = stats.beta.ppf(0.5, 2.0, 8.0)
    assert argmin == pytest.approx(want, abs=0.01)
    with pytest.raises(ContractError):
        bayes_risk(cams, PrevalenceSpec.point(0.3), loss="hinge")
