"""Acceptance battery: one check per shipped guarantee, one printed line each.

Every test prints "[criterion NN] name: PASS/FAIL" through the capture
bypass so the lines always show, then asserts. Tolerances are the shipped
ones, not relaxed for speed; random draws use fixed seeds throughout.
"""

import filecmp
import math
import os
import time
import warnings

import numpy as np
import pytest
from scipy import stats

import camsmeta as cm
from camsmeta.model_core import MetaDataset, StudyRecord, SubgroupObservation


@pytest.fixture
def announce(capsys):
    def _line(num, name, ok, detail=""):
        tag = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[criterion {num:02d}] {name}: {tag}{detail}")
        assert ok, f"criterion {num} ({name}) failed{detail}"
    return _line


def test_criterion_01_orthogonality(announce):
    # the contrast/mean covariance vanishes at the information fraction
    rng = np.random.default_rng(20240)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        sa, sb = rng.uniform(0.01, 10.0, size=2)
        pi = cm.compute_if(sa, sb)
        worst = max(worst, abs(cm.cov_gm(pi, sa * sa, sb * sb)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    announce(1, "orthogonality at the information fraction", ok,
             f" (max |cov| {worst:.2e}, {elapsed:.2f}s, 10000 pairs)")


def test_criterion_02_estimator_equivalence(announce):
    # contrast pooling and the adjusted bivariate model agree on the
    # interaction posterior and the heterogeneity marginal
    sizes = (3, 7, 15)
    start = time.perf_counter()
    worst_g = worst_t = 0.0
    for seed in range(50):
        sc = cm.SimScenario(n_studies=sizes[seed % 3], alpha=0.2, delta=0.8,
                            gamma=0.3, tau=0.15, tau_gamma=0.12, seed=seed)
        rep = cm.check_equivalence(sc, n_nodes=61)
        worst_g = max(worst_g, rep["gamma_distance"])
        worst_t = max(worst_t, rep["tau_gamma_distance"])
    elapsed = time.perf_counter() - start
    ok = worst_g < 1e-4 and worst_t < 1e-4 and elapsed < 60.0
    announce(2, "interaction-model equivalence", ok,
             f" (50 scenarios, sup gamma {worst_g:.2e}, "
             f"sup tau_gamma {worst_t:.2e}, {elapsed:.1f}s)")


def test_criterion_03_likelihood_factorization(announce):
    data = cm.simulate(cm.SimScenario(
        n_studies=8, alpha=0.2, delta=0.6, gamma=0.3, tau=0.1,
        tau_gamma=0.15, seed=17))
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        alpha, delta, gamma = rng.normal(0.0, 1.0, size=3)
        het = cm.CovarianceStructure(rng.uniform(0.0, 0.5),
                                     rng.uniform(0.0, 0.5))
        worst = max(worst, abs(cm.factorization_residual(
            data, alpha, delta, gamma, het)))
    # away from the information fraction the cut has the analytic size
    worst_cut = 0.0
    pi = np.full(len(data.studies), 0.5)
    for _ in range(100):
        alpha, delta, gamma = rng.normal(0.0, 1.0, size=3)
        het = cm.CovarianceStructure(rng.uniform(0.0, 0.4),
                                     rng.uniform(0.0, 0.4))
        resid = cm.factorization_residual(data, alpha, delta, gamma, het,
                                          pi=pi)
        analytic = cm.cross_term_correction(data, alpha, delta, gamma, het,
                                            pi=pi)
        worst_cut = max(worst_cut, abs(resid - analytic))
    ok = worst < 1e-10 and worst_cut < 1e-8
    announce(3, "likelihood factorization", ok,
             f" (max residual {worst:.2e}, max cut gap {worst_cut:.2e}, "
             f"100 points each)")


def collapsible_dataset(seed=0, n=14, alpha=0.3, delta=0.5, tau=0.1, c=0.08):
    # no interaction, and every trial's pooled estimate carries the same
    # precision, so subgroup structure is ignorable
    rng = np.random.default_rng(seed)
    studies = []
    for i in range(n):
        pi = rng.beta(5.0, 5.0)
        s = c / math.sqrt(pi * (1.0 - pi))
        sa, sb = math.sqrt(pi) * s, math.sqrt(1.0 - pi) * s
        mean = alpha + delta * pi + rng.normal(0.0, tau)
        studies.append(StudyRecord.from_observations(
            f"S{i+1}",
            SubgroupObservation("A", mean + rng.normal(0.0, sa), sa),
            SubgroupObservation("B", mean + rng.normal(0.0, sb), sb)))
    return MetaDataset(tuple(studies))


def test_criterion_04_overall_collapse(announce):
    data = collapsible_dataset(seed=0)
    priors = cm.PriorSpec()
    grid = cm.GridSpec.default(priors, n_nodes=61)
    cams = cm.fit_cams(data, priors, grid)
    ov = cm.fit_overall(data, priors, grid)
    pi_star = cm.overall_if(cams, data)
    got = cm.effects_at(cams, pi_star).overall.median
    want = ov.summaries["mu"].median
    diff = abs(got - want)
    ok = diff < 1e-3
    announce(4, "overall effect collapse at the pooled fraction", ok,
             f" (|{got:.6f} - {want:.6f}| = {diff:.2e})")


def test_criterion_05_k_subgroup_sufficiency(announce):
    worst_orth = worst_resid = 0.0
    for k in (2, 3, 5):
        rep = cm.check_k_sufficiency(k, seed=k)
        worst_orth = max(worst_orth, rep["max_orthogonality"])
        worst_resid = max(worst_resid, rep["max_residual"],
                          rep["max_perturbed_gap"])
    ok = worst_orth < 1e-12 and worst_resid < 1e-10
    announce(5, "K-subgroup contrast sufficiency", ok,
             f" (K in 2,3,5 x 100 draws; orthogonality {worst_orth:.2e}, "
             f"residual {worst_resid:.2e})")


def test_criterion_06_bayes_risk_optima(announce):
    cases = ((("squared"), (2.0, 2.0)),
             (("squared"), (5.0, 21.0)),
             (("absolute"), (2.0, 8.0)))
    start = time.perf_counter()
    worst = 0.0
    for loss, ab in cases:
        rep = cm.check_bayes_optimum(ab, loss=loss, seed=6)
        worst = max(worst, rep["gap"])
        assert rep["pass"] and rep["gap"] <= 1e-4
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    announce(6, "risk-optimal reporting prevalence", ok,
             f" (max gap {worst:.1e}, closed-form risk, {elapsed:.1f}s)")


def test_criterion_07_beta_moments(announce):
    mean, sd = cm.beta_moments(5.0, 21.0)
    mean_ok = abs(mean - 0.19231) < 1e-5
    # the implied spread figure of 0.07582 is not the Beta(5, 21) standard
    # deviation (which is 0.0758471...); the closed form is held to the
    # independent oracle and to the four-decimal figure instead, see the
    # decisions ledger
    oracle_ok = (abs(mean - stats.beta.mean(5, 21)) < 1e-12
                 and abs(sd - stats.beta.std(5, 21)) < 1e-12)
    sd_ok = round(sd, 4) == 0.0758
    ok = mean_ok and oracle_ok and sd_ok
    announce(7, "beta summary moments", ok,
             f" (mean {mean:.6f}, sd {sd:.6f}; sd checked to oracle and "
             f"4 decimals, stated 0.07582 +/- 1e-5 is unattainable for "
             f"Beta(5,21))")


def test_criterion_08_interaction_invariance(announce):
    data = cm.simulate(cm.SimScenario(
        n_studies=7, alpha=0.2, delta=0.8, gamma=0.3, tau=0.15,
        tau_gamma=0.12, seed=11, uisd=1.0))
    priors = cm.PriorSpec()
    grid = cm.GridSpec.default(priors, n_nodes=61)
    cams = cm.fit_cams(data, priors, grid)
    bms = cm.fit_bms(data, priors, grid)
    summaries = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cm.ExtrapolationWarning)
        for kind in cm.STRATEGY_KINDS:
            value = 0.3 if kind == "external" else None
            spec = cm.PrevalenceSpec(kind, value=value)
            eff = cm.report_effects(data, cams, spec, bms)
            summaries.append(eff.interaction)
    ok = all(s == summaries[0] for s in summaries[1:])
    announce(8, "interaction invariant across prevalence strategies", ok,
             f" ({len(summaries)} strategies, all bit-identical: {ok})")


def test_criterion_09_leverage_protection(announce):
    data = cm.simulate(cm.leverage_scenario(seed=0))
    priors = cm.PriorSpec()
    grid = cm.GridSpec.default(priors, n_nodes=61)
    bim = cm.fit_bim(data, priors, grid)
    cams = cm.fit_cams(data, priors, grid)
    bms = cm.fit_bms(data, priors, grid)
    gap_bms = abs(bms.summaries["gamma"].median - bim.summaries["gamma"].median)
    gap_cams = abs(cams.summaries["gamma"].median
                   - bim.summaries["gamma"].median)
    ok = gap_bms > 0.01 and gap_cams < 1e-4
    announce(9, "high-leverage trial protection", ok,
             f" (|BMS-BIM| {gap_bms:.4f} > 0.01, |CAMS-BIM| {gap_cams:.1e})")


def _pipeline(workdir):
    os.makedirs(workdir, exist_ok=True)
    base = ["--output-dir", workdir, "--grid-nodes", "31", "--seed", "0"]
    assert cm.main(["simulate", *base, "--sim-studies", "6",
                    "--sim-uisd", "1.0"]) == 0
    inp = os.path.join(workdir, "simulated.csv")
    assert cm.main(["fit", *base, "--input", inp]) == 0
    assert cm.main(["report", *base, "--input", inp,
                    "--prevalence-value", "0.3",
                    "--beta-a", "2", "--beta-b", "5"]) == 0
    assert cm.main(["verify", *base, "--verify-seeds", "2"]) == 0
    assert cm.main(["plotdata", *base, "--input", inp, "--svg", "true"]) == 0


def test_criterion_10_run_determinism(announce, tmp_path):
    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    _pipeline(d1)
    _pipeline(d2)
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    ok = not mismatch and not errors and len(match) == len(names)
    announce(10, "byte-identical consecutive runs", ok,
             f" ({len(match)} files compared{', mismatched: ' + str(mismatch) if mismatch else ''})")
