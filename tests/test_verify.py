import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from camsmeta import contrasts, inference, reporting, verify
from camsmeta.errors import (ContractError, DomainError, GridEdgeWarning,
                             IdentifiabilityWarning)
from camsmeta.gaussmix import GaussianMixture1D
from camsmeta.inference import (GridSpec, PriorSpec, _block_cross_term,
                                _functional_moments, fit_bim, fit_cams)
from camsmeta.model_core import compute_if
from camsmeta.reporting import _beta_cdf
from camsmeta.verify import (BREAK_MIN, TOL_GRID, SimScenario,
                             _beta_median, _cdf_witness, _mixture_gap_bound,
                             _unbalanced_scenario, cams_oracle,
                             check_bayes_optimum, check_equivalence,
                             check_k_sufficiency, check_kronecker,
                             leverage_scenario, run_battery, simulate)


def test_simulate_deterministic():
    sc = SimScenario(n_studies=5, alpha=0.1, delta=0.4, gamma=0.2,
                     tau=0.1, tau_gamma=0.1, seed=42)
    d1, d2 = simulate(sc), simulate(sc)
    assert repr(d1) == repr(d2)
    d3 = simulate(SimScenario(n_studies=5, alpha=0.1, delta=0.4, gamma=0.2,
                              tau=0.1, tau_gamma=0.1, seed=43))
    assert repr(d1) != repr(d3)


def test_simulate_exact_information_fractions():
    # the standard errors are built so the information fraction equals the
    # drawn prevalence to rounding
    sc = SimScenario(n_studies=20, gamma=0.2, seed=7)
    data = simulate(sc)
    for s in data.studies:
        back = compute_if(s.obs_a.std_error, s.obs_b.std_error)
        assert back == pytest.approx(s.info_fraction, abs=1e-12)


def test_simulate_laws():
    sc = SimScenario(n_studies=6, gamma=0.2, sigma_law=("fixed", 0.2),
                     prevalence_law=("fixed", 0.4), seed=1)
    data = simulate(sc)
    for s in data.studies:
        assert s.info_fraction == pytest.approx(0.4, abs=1e-12)
        assert s.obs_a.std_error == pytest.approx(np.sqrt(0.4) * 0.2)
        assert s.obs_b.std_error == pytest.approx(np.sqrt(0.6) * 0.2)
    with pytest.raises(ContractError):
        simulate(SimScenario(n_studies=3, sigma_law=("weird", 1.0)))


def test_simulate_uisd_counts():
    data = simulate(SimScenario(n_studies=5, gamma=0.2, uisd=1.0, seed=3))
    for s in data.studies:
        assert s.obs_a.count >= 1 and s.obs_b.count >= 1
        # counts follow the unit-information relation n ~ (u / se)^2
        want = max(1, round((1.0 / s.obs_a.std_error) ** 2))
        assert s.obs_a.count == want


def test_simulate_validation():
    with pytest.raises(ContractError):
        SimScenario(n_studies=0)
    with pytest.raises(DomainError):
        SimScenario(n_studies=3, tau=-0.1)


@pytest.mark.parametrize("field", ["tau", "tau_gamma"])
def test_negative_zero_heterogeneity_is_stored_as_zero(field):
    # -0.0 passes 0 <= tau, and numpy refuses it as a normal scale
    scenario = SimScenario(n_studies=3, **{field: -0.0})
    assert math.copysign(1.0, getattr(scenario, field)) == 1.0
    assert simulate(scenario).sha256 == simulate(
        SimScenario(n_studies=3, **{field: 0.0})).sha256


def test_negative_zero_prevalence_is_stored_as_zero():
    # a prevalence of -0.0 made a subgroup SD of -0.0, which numpy refused;
    # as 0 it is a zero standard error, refused by the data model
    scenario = SimScenario(n_studies=3,
                           prevalence_law=("leverage", 0.2, 0.8, -0.0))
    assert math.copysign(1.0, scenario.prevalence_law[3]) == 1.0
    with pytest.raises(DomainError, match="std_error must be positive"):
        simulate(scenario)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["alpha", "delta", "gamma", "tau",
                                   "tau_gamma"])
def test_simulate_refuses_a_non_finite_effect_or_scale(field, value):
    with pytest.raises(DomainError, match=rf"^{field} must be "
                       rf"(nonnegative and )?finite, got {value}$"):
        SimScenario(n_studies=3, **{field: value})


def test_cams_location_posterior_is_calibrated():
    # Cook, Gelman & Rubin (2006): with each replicate's parameters drawn
    # from the prior and its data from the likelihood, u = F(true | data)
    # is Uniform(0, 1). Per location parameter: the KS distance of u from
    # uniform, and z = (12 var(u) - 1) / its null SD, which sees a wrong
    # spread that KS misses. R, J, N, the seed and the thresholds (a 1 %
    # family-wise false-alarm rate, Bonferroni over the 6 statistics) were
    # fixed before the first run.
    reps, alpha_each = 400, 0.01 / 6
    names = ("alpha", "delta", "gamma")
    priors = PriorSpec(tau_scale=0.3, tau_gamma_scale=0.3,
                       location_prior=tuple((n, 0.0, 1.0) for n in names))
    grid = GridSpec.default(priors, n_nodes=41)
    z = np.random.default_rng(20240).standard_normal((reps, 5))
    u = np.empty((reps, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridEdgeWarning)
        for r, (t, tg, *truth) in enumerate(z * [0.3, 0.3, 1.0, 1.0, 1.0]):
            data = simulate(SimScenario(
                n_studies=8, alpha=truth[0], delta=truth[1], gamma=truth[2],
                tau=abs(t), tau_gamma=abs(tg), seed=r))
            u[r] = fit_cams(data, priors, grid).functional_cdf(names, truth)
    null_sd = np.sqrt((1.8 - (reps - 3) / (reps - 1)) / reps)
    ks_max = stats.kstwo.isf(alpha_each, reps)
    z_max = stats.norm.isf(alpha_each / 2)
    failed = {}
    for name, col in zip(names, u.T):
        ks = stats.kstest(col, "uniform").statistic
        disp = (12.0 * np.var(col, ddof=1) - 1.0) / null_sd
        if not (ks <= ks_max and abs(disp) <= z_max):
            failed[name] = (ks, disp)
    assert not failed, (failed, ks_max, z_max)


def test_leverage_scenario_shape():
    data = simulate(leverage_scenario(seed=0))
    pis = data.info_fractions
    # the last trial sits far from the others with an inflated sigma
    assert pis[-1] == pytest.approx(0.48, abs=1e-12)
    assert np.all(pis[:-1] <= 0.25 + 1e-12)
    assert np.all(pis[:-1] >= 0.15 - 1e-12)
    ses = [s.obs_a.std_error / np.sqrt(p)
           for s, p in zip(data.studies, pis)]
    assert ses[-1] == pytest.approx(3 * ses[0], abs=1e-12)


def test_check_equivalence_passes():
    sc = SimScenario(n_studies=7, alpha=0.2, delta=0.8, gamma=0.3,
                     tau=0.15, tau_gamma=0.12, seed=4)
    rep = check_equivalence(sc, n_nodes=41)
    assert rep["pass"]
    assert rep["gamma_distance"] < 1e-10
    assert rep["tau_gamma_distance"] < 1e-10
    assert rep["oracle_distance"] < 1e-10
    assert rep["tier"] == "grid"


FORCED_BREAK = SimScenario(n_studies=8, alpha=0.2, delta=2.0, gamma=0.3,
                           tau=0.0, tau_gamma=0.0, sigma_law=("fixed", 0.12),
                           prevalence_law=("uniform", 0.1, 0.3), seed=5)


def test_check_equivalence_detects_forced_break():
    rep = check_equivalence(FORCED_BREAK, force_half=True, n_nodes=41)
    assert rep["pass"]
    assert rep["gamma_distance"] > 1e-3
    assert rep["oracle_distance"] is None


@pytest.mark.parametrize("k", [2, 3, 5])
def test_check_k_sufficiency(k):
    rep = check_k_sufficiency(k, seed=0)
    assert rep["pass"]
    assert rep["max_orthogonality"] < 1e-12
    assert rep["max_residual"] < 1e-10
    assert rep["max_perturbed_gap"] < 1e-10


def test_check_kronecker():
    rep = check_kronecker(seed=0, n_arms=2, k=3)
    assert rep["pass"]
    assert rep["max_orthogonality"] < 1e-12


def test_algebraic_checks_fail_at_uniform_prevalences(monkeypatch):
    def uniform(cov_diag):
        var = np.asarray(cov_diag, dtype=float)
        return np.full(var.shape, 1.0 / var.shape[-1])

    # check_kronecker reads its prevalences through per_arm_prevalence
    monkeypatch.setattr(verify, "precision_prevalence", uniform)
    monkeypatch.setattr(contrasts, "precision_prevalence", uniform)
    for k in (2, 3, 5):
        rep = check_k_sufficiency(k, seed=0)
        assert not rep["pass"]
        assert rep["max_orthogonality"] > verify.TOL_EXACT
    rep = check_kronecker(seed=0, n_arms=2, k=3)
    assert not rep["pass"]
    assert rep["max_orthogonality"] > verify.TOL_EXACT


def test_perturbed_gap_sees_a_wrong_cross_term(monkeypatch):
    monkeypatch.setattr(verify, "_block_cross_term",
                        lambda *args: -_block_cross_term(*args))
    rep = check_k_sufficiency(3, seed=0)
    assert rep["max_perturbed_gap"] > verify.TOL_EXACT
    assert not rep["pass"]


def test_k_sufficiency_takes_two_condition_numbers(monkeypatch):
    calls = []
    cond = np.linalg.cond

    def counted(*args, **kwargs):
        calls.append(1)
        return cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counted)
    check_k_sufficiency(5, seed=0)
    assert len(calls) == 2


def test_check_bayes_optimum():
    rep = check_bayes_optimum((2.0, 2.0), loss="squared", seed=0)
    assert rep["pass"]
    assert rep["predicted"] == pytest.approx(0.5)
    rep = check_bayes_optimum((2.0, 8.0), loss="absolute", seed=0)
    assert rep["pass"]
    assert rep["tier"] == "grid" and rep["tolerance"] == TOL_GRID
    assert "draws" not in rep
    assert rep["curve_gap"] <= 1e-13 and rep["curve_tolerance"] == verify.TOL_EXACT


@pytest.mark.parametrize("loss", ["squared", "absolute"])
def test_check_bayes_optimum_fails_on_a_wrong_delta_moment(monkeypatch,
                                                           loss):
    # the risk curve is checked against the delta moment of the independent
    # oracle lattice, so a delta posterior read 1e-8 off fails the check
    # while its argmin, which the prevalence factor alone sets, stays put
    moments = reporting._functional_moments

    def shifted(grid, vecs):
        mean, sd = moments(grid, vecs)
        return mean * (1.0 + 1e-8), sd

    monkeypatch.setattr(reporting, "_functional_moments", shifted)
    rep = check_bayes_optimum((2.0, 8.0), loss=loss)
    assert not rep["pass"]
    assert rep["curve_gap"] > verify.TOL_EXACT and rep["gap"] < TOL_GRID


def test_check_bayes_optimum_fails_on_a_wrong_law(monkeypatch):
    # the check minimizes the computed curve, so a wrong ingredient of the
    # curve moves its argmin off the prediction: the CDF of Beta(a, b + 1)
    # in the absolute factor, the mean a / (a + b + 1) in the squared one
    beta_cdf, beta_moments = reporting._beta_cdf, reporting.beta_moments
    monkeypatch.setattr(reporting, "_beta_cdf",
                        lambda x, a, b: beta_cdf(x, a, b + 1.0))
    assert not check_bayes_optimum((2.0, 8.0), loss="absolute")["pass"]
    assert check_bayes_optimum((2.0, 8.0), loss="squared")["pass"]
    monkeypatch.setattr(reporting, "_beta_cdf", beta_cdf)
    monkeypatch.setattr(reporting, "beta_moments", lambda a, b: (
        a / (a + b + 1.0), beta_moments(a, b)[1]))
    assert not check_bayes_optimum((2.0, 2.0), loss="squared")["pass"]


def test_check_bayes_optimum_fails_on_a_wrong_prevalence_factor(monkeypatch):
    # the prevalence factor is recomputed by quadrature, so a closed form
    # doubled and shifted, which keeps its argmin, fails the curve check
    # wherever the check might read that closed form
    risk = reporting._prevalence_risk

    def wrong(spec, loss):
        return lambda pis: 2.0 * risk(spec, loss)(pis) + 0.1

    monkeypatch.setattr(reporting, "_prevalence_risk", wrong)
    monkeypatch.setattr(verify, "_prevalence_risk", wrong, raising=False)
    for dist, loss in (((2.0, 3.0), "squared"), ((2.0, 8.0), "absolute")):
        rep = check_bayes_optimum(dist, loss=loss)
        assert not rep["pass"]
        assert rep["curve_gap"] > verify.TOL_EXACT and rep["gap"] < TOL_GRID


@pytest.mark.parametrize("dist", [(0.5, 0.5), (1.5, 3.7), (2.0, 0.9),
                                  (1.0, 1000.0)])
def test_check_bayes_optimum_refuses_laws_its_quadrature_misses(dist):
    with pytest.raises(ContractError, match="risk quadrature"):
        check_bayes_optimum(dist)


@pytest.mark.parametrize("dist", [(1.0, 1.0), (40.0, 40.0), (1.0, 79.0),
                                  (3.0, 300.0), (1.0, 999.0),
                                  (500.0, 500.0)])
def test_beta_risk_quadrature_matches_the_closed_form(dist):
    # the rule's node count grows with a + b, so it stays exact for laws
    # far past what 40 nodes integrate
    spec = reporting.PrevalenceSpec.beta(*dist)
    for loss in ("squared", "absolute"):
        got = verify._beta_risk_quadrature(*dist, loss)
        want = reporting._prevalence_risk(spec, loss)(reporting.RISK_GRID)
        assert (np.max(np.abs(got - want))
                <= 0.1 * verify.TOL_EXACT * np.max(np.abs(want)))


def test_check_bayes_optimum_draws_nothing_but_its_portfolio(monkeypatch):
    # the synthetic portfolio is the check's only seeded draw; with it
    # simulated up front, no random number is drawn
    data = simulate(SimScenario(n_studies=7, gamma=0.25, tau=0.05,
                                tau_gamma=0.1, seed=3))

    def refuse(*args, **kwargs):
        raise AssertionError("random numbers drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(AssertionError, match="random numbers drawn"):
        simulate(SimScenario(n_studies=7))
    monkeypatch.setattr(verify, "simulate", lambda scenario: data)
    for dist, loss in (((2.0, 2.0), "squared"), ((2.0, 8.0), "absolute")):
        assert check_bayes_optimum(dist, loss=loss)["pass"]


@pytest.mark.parametrize("seed", range(10))
def test_bayes_optima_at_the_grid_tier(seed):
    # the battery's three laws; the gap is that of the scan-and-refine
    # argmin on the closed-form curve
    for dist, loss in (((2.0, 2.0), "squared"), ((5.0, 21.0), "squared"),
                       ((2.0, 8.0), "absolute")):
        rep = check_bayes_optimum(dist, loss=loss, seed=seed)
        assert rep["tier"] == "grid" and rep["gap"] <= 1e-5, rep


def test_check_equivalence_reads_no_summary(monkeypatch):
    calls = []
    summaries = inference._summaries
    monkeypatch.setattr(inference, "_summaries",
                        lambda *args: calls.append(1) or summaries(*args))
    scenario = SimScenario(n_studies=7, alpha=0.2, delta=0.8, gamma=0.3,
                           tau=0.15, tau_gamma=0.12, seed=5)
    assert check_equivalence(scenario, n_nodes=31)["pass"]
    assert check_equivalence(_unbalanced_scenario(5), force_half=True,
                             n_nodes=31)["pass"]
    assert not calls


@pytest.mark.parametrize("a, b", [(2.0, 8.0), (5.0, 21.0), (2.0, 2.0),
                                  (0.5, 0.5), (30.0, 3.0)])
def test_beta_median_against_scipy(a, b):
    assert abs(_beta_median(a, b) - special.betaincinv(a, b, 0.5)) <= 1e-10
    x = np.linspace(0.0, 1.0, 201)
    np.testing.assert_allclose([_beta_cdf(v, a, b) for v in x],
                               special.betainc(a, b, x), rtol=0.0, atol=1e-13)


def test_run_battery_structure():
    out = run_battery(seeds=2, base_seed=100, n_nodes=31)
    # 2 equivalence + 5 forced + 3 sufficiency + 1 kronecker + 3 optima
    assert out["n_checks"] == 14
    assert out["n_checks"] == len(out["checks"])
    assert out["n_pass"] + out["n_fail"] == out["n_checks"]
    assert out["all_pass"] == (out["n_fail"] == 0)
    assert out["all_pass"]
    kinds = {c["check"] for c in out["checks"]}
    assert kinds == {"equivalence", "k_sufficiency", "kronecker",
                     "bayes_optimum"}
    assert {c["tier"] for c in out["checks"]} == {"exact", "grid"}


@pytest.mark.parametrize("seeds", [0, -1])
def test_run_battery_refuses_no_equivalence_seed(seeds):
    with pytest.raises(ContractError, match="at least 1 equivalence seed"):
        run_battery(seeds=seeds)


def test_default_battery_passes_inside_the_grid():
    # the CLI's 50-seed battery: no posterior reaches the grid edge
    with warnings.catch_warnings():
        warnings.simplefilter("error", GridEdgeWarning)
        out = run_battery(seeds=50)
    assert out["all_pass"]
    equivalence = [c for c in out["checks"] if c["check"] == "equivalence"]
    assert len(equivalence) == 55


def dense_gap(mix_a, mix_b):
    """max |F_a - F_b| over 2001 evenly spaced points from the lower 0.001
    to the upper 0.999 quantile of the two mixtures."""
    (lo_a, hi_a), (lo_b, hi_b) = (mix.quantiles((0.001, 0.999))
                                  for mix in (mix_a, mix_b))
    xs = np.linspace(min(lo_a, lo_b), max(hi_a, hi_b), 2001)
    return float(np.max(np.abs(mix_a.cdf(xs) - mix_b.cdf(xs))))


@st.composite
def matched_mixtures(draw):
    """A reference mixture over G nodes and a perturbation of it over a
    (T, G) lattice: each node's weight split over T rows and perturbed, its
    mean and SD perturbed, each perturbation 0 or 10^U(-8, 0) in size."""
    g, t = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = st.one_of(st.just(0.0), st.floats(-8.0, 0.0).map(lambda e: 10 ** e))
    eps_w, eps_mu, eps_sd = draw(size), draw(size), draw(size)
    w_ref = rng.dirichlet(np.ones(g))
    mu_ref = rng.normal(0.0, 1.0, g)
    sd_ref = rng.uniform(0.05, 1.0, g)
    if draw(st.booleans()):
        sd_ref[0] = 0.0  # an atom, matched by atoms
    w = w_ref * rng.dirichlet(np.ones(t), size=g).T
    w *= 1.0 + eps_w * rng.uniform(-1.0, 1.0, (t, g))
    w /= w.sum()
    mu = mu_ref + eps_mu * rng.normal(0.0, 1.0, (t, g))
    sd = sd_ref * np.exp(eps_sd * rng.normal(0.0, 1.0, (t, g)))
    return (w_ref, mu_ref, sd_ref), (w, mu, sd)


@settings(max_examples=250, deadline=None)
@given(pair=matched_mixtures())
def test_gap_bound_and_witness_bracket_the_lattice_max(pair):
    ref, lattice = pair
    mix_ref = GaussianMixture1D(*ref)
    mix = GaussianMixture1D(*(a.ravel() for a in lattice))
    bound = _mixture_gap_bound(*ref, *lattice)
    # the slack covers the CDF sums' own rounding, a few ulps per component
    assert dense_gap(mix_ref, mix) <= bound + 1e-14
    assert _cdf_witness(mix_ref, mix) <= bound + 1e-14


@pytest.mark.parametrize("scenario, n_nodes", [
    *[(_unbalanced_scenario(20240 + 1000 + i), 61) for i in range(5)],
    (FORCED_BREAK, 41),
], ids=[*(f"battery{i}" for i in range(5)), "forced_break"])
def test_force_half_witness_reads_near_the_dense_max(scenario, n_nodes):
    # the battery's five force-half scenarios at its default base seed, and
    # the forced-break test's: a few quantile points find the break that a
    # dense lattice shows, far above the pass threshold
    data = simulate(scenario)
    grid = GridSpec.default(PriorSpec(), n_nodes=n_nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IdentifiabilityWarning)
        forced = cams_oracle(data, 0.5, PriorSpec(), grid)
    bim = fit_bim(data, PriorSpec(), grid).functional_mixture("gamma")
    mean, sd = _functional_moments(forced, np.array([[0.0, 0.0, 1.0]]))
    oracle = GaussianMixture1D(forced.weight.ravel(), mean[0], sd[0])
    witness = _cdf_witness(bim, oracle)
    assert witness >= 0.9 * dense_gap(bim, oracle)
    assert witness > 10 * BREAK_MIN


def move_weight(grid):
    """1e-3 of weight from the heaviest lattice node to its tau_gamma
    neighbour."""
    t, g = np.unravel_index(np.argmax(grid.weight), grid.weight.shape)
    w = grid.weight.copy()
    w[t, g] -= 1e-3
    w[t, g + 1 if g + 1 < w.shape[1] else g - 1] += 1e-3
    return dataclasses.replace(grid, weight=w)


def shift_mean(grid):
    """The gamma conditional mean at the heaviest tau_gamma node, moved by
    1e-3 of its conditional SD at every tau node."""
    g = int(np.argmax(grid.weight.sum(axis=0)))
    assert grid.weight[:, g].sum() > 0.3  # so the move exceeds 3 * TOL_GRID
    mean = grid.cond_mean.copy()
    mean[:, g, 2] += 1e-3 * np.sqrt(grid.cond_cov[:, g, 2, 2])
    return dataclasses.replace(grid, cond_mean=mean)


@pytest.mark.parametrize("breakage", [move_weight, shift_mean])
def test_gamma_bound_fails_a_broken_honest_oracle(monkeypatch, breakage):
    sc = SimScenario(n_studies=7, alpha=0.2, delta=0.8, gamma=0.3,
                     tau=0.15, tau_gamma=0.12, seed=4)
    assert check_equivalence(sc, n_nodes=11)["pass"]
    oracle = verify.cams_oracle
    monkeypatch.setattr(verify, "cams_oracle",
                        lambda *args: breakage(oracle(*args)))
    rep = check_equivalence(sc, n_nodes=11)
    assert not rep["pass"]
    assert rep["gamma_distance"] > TOL_GRID


def test_battery_cdf_cells_stay_few(monkeypatch):
    # CDF points x mixture components: ~0.26 M here; one dense 2001-point
    # force-half check would add 7.6 M
    cells = []
    cdf = GaussianMixture1D.cdf

    def counted(mix, x):
        cells.append(np.size(x) * mix.weights.size)
        return cdf(mix, x)

    monkeypatch.setattr(GaussianMixture1D, "cdf", counted)
    assert run_battery(seeds=6, n_nodes=61)["all_pass"]
    assert sum(cells) < 1_000_000
