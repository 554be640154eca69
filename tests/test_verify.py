import warnings

import numpy as np
import pytest

from camsmeta.errors import ContractError, DomainError, GridEdgeWarning
from camsmeta.model_core import compute_if
from camsmeta.verify import (SimScenario, check_bayes_optimum,
                             check_equivalence, check_k_sufficiency,
                             check_kronecker, leverage_scenario, run_battery,
                             simulate)


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


def test_simulate_multi_subgroup():
    sc = SimScenario(n_studies=4, alpha=0.1, gamma=0.25, tau=0.1,
                     k_subgroups=3, seed=9)
    data = simulate(sc)
    assert data.is_multi
    for s in data.studies:
        assert s.k == 3
        assert sum(s.prevalence) == pytest.approx(1.0, abs=1e-12)


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
    # the honest oracle's gamma posterior is read over tau_gamma alone
    assert rep["oracle_gamma_components"] == 41


def test_check_equivalence_detects_forced_break():
    sc = SimScenario(n_studies=8, alpha=0.2, delta=2.0, gamma=0.3,
                     tau=0.0, tau_gamma=0.0, sigma_law=("fixed", 0.12),
                     prevalence_law=("uniform", 0.1, 0.3), seed=5)
    rep = check_equivalence(sc, force_half=True, n_nodes=41)
    assert rep["pass"]
    assert rep["gamma_distance"] > 1e-3
    assert rep["oracle_distance"] is None
    assert rep["oracle_gamma_components"] == 41 * 41


@pytest.mark.parametrize("k", [2, 3, 5])
def test_check_k_sufficiency(k):
    rep = check_k_sufficiency(k, seed=0, n_draws=30)
    assert rep["pass"]
    assert rep["max_orthogonality"] < 1e-12
    assert rep["max_residual"] < 1e-10
    assert rep["max_perturbed_gap"] < 1e-10


def test_check_kronecker():
    rep = check_kronecker(seed=0, n_arms=2, k=3, n_draws=30)
    assert rep["pass"]
    assert rep["max_orthogonality"] < 1e-12


def test_check_bayes_optimum():
    rep = check_bayes_optimum((2.0, 2.0), loss="squared", seed=0)
    assert rep["pass"]
    assert rep["predicted"] == pytest.approx(0.5)
    rep = check_bayes_optimum((2.0, 8.0), loss="absolute", seed=0)
    assert rep["pass"]


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


def test_default_battery_collapses_honest_checks_inside_the_grid():
    # the CLI's 50-seed battery: no posterior reaches the grid edge, every
    # honest oracle collapses to its 61 tau_gamma components and force-half
    # keeps the full lattice
    with warnings.catch_warnings():
        warnings.simplefilter("error", GridEdgeWarning)
        out = run_battery(seeds=50)
    assert out["all_pass"]
    equivalence = [c for c in out["checks"] if c["check"] == "equivalence"]
    assert len(equivalence) == 55
    for c in equivalence:
        want = 61 * 61 if c["force_half"] else 61
        assert c["oracle_gamma_components"] == want, c["seed"]
