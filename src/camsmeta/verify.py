"""Simulation harness and numerical theorem checks.

The library's central claims are algebraic: the contrast/mean decomposition
is orthogonal exactly at the information fraction, the adjusted bivariate
model reproduces the univariate contrast model's interaction posterior, and
both facts generalize to K subgroups under precision prevalences. This
module generates synthetic portfolios from the assumed normal-normal
hierarchy and asserts those identities numerically, with tolerances tagged
by tier: "exact" (1e-10, pure algebra), "grid" (1e-4, discretization), and
"mc" (3 standard errors, Monte Carlo).

Every check returns a plain dict so batteries serialize straight to JSON.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .contrasts import (helmert_basis, kronecker_contrast, per_arm_prevalence,
                        precision_prevalence)
from .errors import ContractError, DomainError, IdentifiabilityWarning
from .inference import (GridSpec, PosteriorGrid, PriorSpec, _grid_mixture,
                        _gls_stats, _solve_grid, fit_bim, fit_cams)
from .model_core import (MetaDataset, MultiStudyRecord, StudyRecord,
                         SubgroupObservation, cams_covariance,
                         subgroup_arrays)
from .reporting import PrevalenceSpec, bayes_risk

TOL_EXACT = 1e-10
TOL_GRID = 1e-4
BREAK_MIN = 1e-3  # a broken factorization must move the posterior this much


# law kind -> number of parameters
_SIGMA_LAWS = {"fixed": 1, "lognormal": 2, "uniform": 2}
_PREVALENCE_LAWS = {"fixed": 1, "beta": 2, "uniform": 2, "leverage": 3}


def _check_law(name: str, law: tuple, arity: dict) -> tuple:
    kind, *params = law or ("",)
    if kind not in arity:
        raise ContractError(f"unknown {name} kind {kind!r}; have {sorted(arity)}")
    if len(params) != arity[kind]:
        raise ContractError(f"{name} {kind!r} takes {arity[kind]} "
                            f"parameter(s), got {len(params)}")
    if not all(math.isfinite(p) for p in params):
        raise DomainError(f"{name} {law}: parameters must be finite")
    return kind, params


@dataclass(frozen=True)
class SimScenario:
    """Generative settings for a synthetic portfolio.

    ``sigma_law`` draws each study's total sampling SD s_j; the subgroup
    variances are then pi s_j^2 and (1 - pi) s_j^2, which makes the
    information fraction exact by construction. Laws are (kind, *params)
    tuples:

        sigma_law       ("fixed", s) | ("lognormal", mu, sd) | ("uniform", lo, hi)
        prevalence_law  ("fixed", p) | ("beta", a, b) | ("uniform", lo, hi)
                        | ("leverage", lo, hi, outlier)

    Construction checks each law's kind and arity, that every parameter is
    finite, that s, sd, lo, hi of the sigma law and a, b of the beta law are
    positive, and that every other prevalence parameter lies in [0, 1].

    The leverage law draws all but the last study uniformly on [lo, hi] and
    pins the last study at ``outlier`` with a tripled sampling SD: one small
    trial with a very different composition.

    ``uisd`` attaches per-subgroup sample sizes n = (uisd / se)^2, giving
    datasets with count columns.
    """

    n_studies: int
    alpha: float = 0.0
    delta: float = 0.0
    gamma: float = 0.0
    tau: float = 0.0
    tau_gamma: float = 0.0
    k_subgroups: int = 2
    sigma_law: tuple = ("lognormal", -1.6, 0.4)
    prevalence_law: tuple = ("beta", 2.0, 2.0)
    uisd: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_studies < 1:
            raise ContractError("need at least one study")
        if self.k_subgroups < 2:
            raise ContractError("need at least two subgroups")
        if self.tau < 0 or self.tau_gamma < 0:
            raise DomainError("heterogeneities must be nonnegative")
        kind, params = _check_law("sigma_law", self.sigma_law, _SIGMA_LAWS)
        if kind == "lognormal":
            params = params[1:]  # the first is a log-scale location
        if not all(p > 0 for p in params):
            raise DomainError(
                f"sigma_law {self.sigma_law}: SD parameters must be positive")
        kind, params = _check_law("prevalence_law", self.prevalence_law,
                                  _PREVALENCE_LAWS)
        if kind == "beta" and not all(p > 0 for p in params):
            raise DomainError(f"prevalence_law {self.prevalence_law}: beta "
                              f"parameters must be positive")
        if kind != "beta" and not all(0.0 <= p <= 1.0 for p in params):
            raise DomainError(f"prevalence_law {self.prevalence_law}: "
                              f"prevalences must lie in [0, 1]")


def _draw_prevalence(law: tuple, n: int, rng) -> np.ndarray:
    kind = law[0]
    if kind == "fixed":
        return np.full(n, float(law[1]))
    if kind == "beta":
        return rng.beta(law[1], law[2], size=n)
    pi = rng.uniform(law[1], law[2], size=n)
    if kind == "leverage":
        pi[-1] = law[3]
    return pi


def _draw_sigma(law: tuple, n: int, rng) -> np.ndarray:
    kind = law[0]
    if kind == "fixed":
        return np.full(n, float(law[1]))
    if kind == "lognormal":
        return rng.lognormal(law[1], law[2], size=n)
    return rng.uniform(law[1], law[2], size=n)


def simulate(scenario: SimScenario) -> MetaDataset:
    """Draw a synthetic dataset from the normal-normal hierarchy.

    Two-subgroup form: alpha_j ~ N(alpha, tau^2), gamma_j ~ N(gamma,
    tau_gamma^2), and

        y_Aj = alpha_j + delta pi_j - pi_j (gamma_j - gamma)       + eps_Aj
        y_Bj = alpha_j + delta pi_j + gamma + (1 - pi_j)(gamma_j - gamma) + eps_Bj

    so the interaction deviations are centered at the information fraction.
    K-subgroup form: y_j = alpha_j 1 + B gamma_j + eps_j with gamma_j ~
    N(gamma 1, tau^2 I) on the contrast scale and per-arm SDs from
    ``sigma_law``; prevalences are the recomputed precision shares.
    """
    rng = np.random.default_rng(scenario.seed)
    j = scenario.n_studies
    if scenario.k_subgroups > 2:
        return _simulate_multi(scenario, rng)
    pi = _draw_prevalence(scenario.prevalence_law, j, rng)
    s = _draw_sigma(scenario.sigma_law, j, rng)
    if scenario.prevalence_law[0] == "leverage":
        s[-1] *= 3.0
    sd_a = np.sqrt(pi) * s
    sd_b = np.sqrt(1.0 - pi) * s
    alpha_j = rng.normal(scenario.alpha, scenario.tau, size=j)
    gamma_j = rng.normal(scenario.gamma, scenario.tau_gamma, size=j)
    dev = gamma_j - scenario.gamma
    ya = alpha_j + scenario.delta * pi - pi * dev + rng.normal(0.0, sd_a)
    yb = (alpha_j + scenario.delta * pi + scenario.gamma
          + (1.0 - pi) * dev + rng.normal(0.0, sd_b))
    width = len(str(j))
    studies = []
    for i in range(j):
        counts = (None, None)
        if scenario.uisd is not None:
            counts = (max(1, round((scenario.uisd / sd_a[i]) ** 2)),
                      max(1, round((scenario.uisd / sd_b[i]) ** 2)))
        obs_a = SubgroupObservation("A", float(ya[i]), float(sd_a[i]), counts[0])
        obs_b = SubgroupObservation("B", float(yb[i]), float(sd_b[i]), counts[1])
        studies.append(StudyRecord.from_observations(
            f"S{i + 1:0{width}d}", obs_a, obs_b))
    return MetaDataset(tuple(studies))


def _simulate_multi(scenario: SimScenario, rng) -> MetaDataset:
    j, k = scenario.n_studies, scenario.k_subgroups
    basis = helmert_basis(k)
    gvec = np.full(k - 1, scenario.gamma)
    width = len(str(j))
    studies = []
    for i in range(j):
        sds = _draw_sigma(scenario.sigma_law, k, rng)
        alpha_i = rng.normal(scenario.alpha, scenario.tau)
        gamma_i = gvec + rng.normal(0.0, scenario.tau, size=k - 1)
        y = alpha_i + basis.basis_b @ gamma_i + rng.normal(0.0, sds)
        cov = sds ** 2
        studies.append(MultiStudyRecord(
            f"S{i + 1:0{width}d}", y, cov, precision_prevalence(cov)))
    return MetaDataset(tuple(studies))


def leverage_scenario(seed: int = 0, n_studies: int = 8) -> SimScenario:
    """One small trial with an outlying composition among homogeneous ones.

    A strong ecological slope plus a single study whose prevalence sits far
    from the rest: the difference-of-averages estimator absorbs the across-
    study association into its interaction, the contrast-based estimators do
    not."""
    return SimScenario(n_studies=n_studies, alpha=0.1, delta=2.0, gamma=0.3,
                       tau=0.0, tau_gamma=0.0,
                       sigma_law=("fixed", 0.12),
                       prevalence_law=("leverage", 0.15, 0.25, 0.48),
                       seed=seed)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def cams_oracle(data: MetaDataset, pi, priors: PriorSpec, grid: GridSpec,
                parametrization: str = "explicit") -> PosteriorGrid:
    """Reference for ``fit_cams``: the joint 2-D GLS over (y_A, y_B) pairs,
    inverting every study's ``cams_covariance`` at every (tau, tau_gamma)
    node. ``pi`` (scalar or per study, in [0, 1]) sets the slope regressor
    and the interaction loading; at the information fractions the grid
    equals ``fit_cams(...).grid`` to rounding. No summaries are computed.
    """
    ya, yb, va, vb, p = subgroup_arrays(data, pi)
    ones, zeros = np.ones(p.size), np.zeros(p.size)
    if parametrization == "explicit":
        param_names = ("alpha", "delta", "gamma")
        rows = ((ones, p, zeros), (ones, p, ones))
    elif parametrization == "implicit":
        param_names = ("alpha", "beta", "gamma")
        rows = ((ones, p, -p), (ones, p, 1.0 - p))
    else:
        raise ContractError(f"unknown parametrization {parametrization!r}")
    x = np.stack([np.stack(r, axis=1) for r in rows], axis=1)
    taus, tg = grid.tau_nodes, grid.tau_gamma_nodes
    v = cams_covariance(va, vb, p, taus[:, None, None], tg[None, :, None])
    return _solve_grid(_gls_stats(np.stack([ya, yb], axis=1), x, v), x,
                       param_names, priors, taus, tg, ("tau", "tau_gamma"))


def _grid_distance(grid: PosteriorGrid, oracle: PosteriorGrid) -> float:
    """Largest |difference| of node weights and of weight-scaled conditional
    moments. Unweighted moments would not do: at large-tau nodes the
    oracle's explicit 2x2 covariances lose their small eigenvalue to
    rounding, which the solve amplifies, but those nodes carry no weight."""
    w = oracle.weight
    return max(float(np.max(np.abs(grid.weight - w))),
               float(np.max(w[..., None]
                            * np.abs(grid.cond_mean - oracle.cond_mean))),
               float(np.max(w[..., None, None]
                            * np.abs(grid.cond_cov - oracle.cond_cov))))


def _cdf_distance(mix_a, mix_b, points: int = 2001) -> float:
    (lo_a, hi_a), (lo_b, hi_b) = (mix.quantiles((0.001, 0.999))
                                  for mix in (mix_a, mix_b))
    lo, hi = min(lo_a, lo_b), max(hi_a, hi_b)
    xs = np.linspace(lo, hi, points)
    return float(np.max(np.abs(mix_a.cdf(xs) - mix_b.cdf(xs))))


def check_equivalence(scenario: SimScenario, force_half: bool = False,
                      n_nodes: int = 101) -> dict:
    """Fit the contrast model and the adjusted bivariate model on one
    simulated dataset at matched priors and grids, and compare posteriors.

    PASS means the joint ``cams_oracle`` at the information fractions
    agrees with the contrast fit on the gamma CDF and the tau_gamma weights
    within the grid tolerance, and production ``fit_cams`` matches the
    oracle within the exact one (``oracle_distance``). ``force_half`` runs
    the oracle at prevalence 0.5 instead, which on unbalanced data must
    break the agreement by more than ``BREAK_MIN``.
    """
    data = simulate(scenario)
    priors = PriorSpec()
    grid = GridSpec.default(priors, n_nodes=n_nodes)
    bim = fit_bim(data, priors, grid)
    with warnings.catch_warnings():
        if force_half:
            # identical fractions make alpha and delta collinear on purpose;
            # the deficiency warning is expected here
            warnings.simplefilter("ignore", IdentifiabilityWarning)
        oracle = cams_oracle(data, 0.5 if force_half else data.info_fractions,
                             priors, grid)
    d_oracle = (None if force_half else
                _grid_distance(fit_cams(data, priors, grid).grid, oracle))
    d_gamma = _cdf_distance(bim.functional_mixture("gamma"),
                            _grid_mixture(oracle, np.array([0.0, 0.0, 1.0])))
    _, w_bim = bim.grid.scale_axis("tau_gamma")
    _, w_oracle = oracle.scale_axis("tau_gamma")
    d_tg = float(np.max(np.abs(np.cumsum(w_bim) - np.cumsum(w_oracle))))
    # an honest fit must agree; a deliberately broken one must visibly differ
    if force_half:
        passed = d_gamma > BREAK_MIN
    else:
        passed = max(d_gamma, d_tg) < TOL_GRID and d_oracle < TOL_EXACT
    return {
        "check": "equivalence",
        "seed": scenario.seed,
        "n_studies": scenario.n_studies,
        "force_half": force_half,
        "gamma_distance": d_gamma,
        "tau_gamma_distance": d_tg,
        "tolerance": BREAK_MIN if force_half else TOL_GRID,
        "tier": "grid",
        "oracle_distance": d_oracle,
        "oracle_tolerance": TOL_EXACT,
        "pass": bool(passed),
    }


def _mvn_logpdf(y: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    _, logdet = np.linalg.slogdet(cov)
    r = y - mean
    return float(-0.5 * (y.size * math.log(2.0 * math.pi) + logdet
                         + r @ np.linalg.solve(cov, r)))


def _block_cross_term(z2: float, mean2: float, var2: float,
                      z1: np.ndarray, mean1: np.ndarray, cov11: np.ndarray,
                      cross: np.ndarray) -> float:
    """log p(z1, z2) - log p(z1) - log p(z2) for a partitioned Gaussian with
    scalar second block, from the conditional decomposition."""
    w = np.linalg.solve(cov11, cross)
    var_cond = var2 - cross @ w
    mean_cond = mean2 + (z1 - mean1) @ w
    return float(-0.5 * (math.log(var_cond / var2)
                         + (z2 - mean_cond) ** 2 / var_cond
                         - (z2 - mean2) ** 2 / var2))


def check_k_sufficiency(k: int, seed: int = 0, n_draws: int = 100) -> dict:
    """Orthogonality and exact factorization for K subgroup levels.

    Per draw: random diagonal sampling covariance S, precision prevalences
    pi, Helmert contrast rows C. Asserts C S pi = 0, and that the joint
    log-density of y equals the contrast-block plus mean-block log-densities
    (plus the constant Jacobian of the non-orthonormal change of variables).
    A perturbed prevalence must leave a residual equal to the analytic
    cross term of the induced Cov(g, m).
    """
    if k < 2:
        raise ContractError("need at least two subgroups")
    rng = np.random.default_rng(seed)
    basis = helmert_basis(k)
    c = basis.matrix_c
    max_orth = 0.0
    max_resid = 0.0
    max_pert_gap = 0.0
    for _ in range(n_draws):
        variances = rng.uniform(0.05, 2.0, size=k)
        s = np.diag(variances)
        pi = precision_prevalence(variances)
        max_orth = max(max_orth, float(np.max(np.abs(c @ s @ pi))))

        theta = rng.normal(0.0, 1.0, size=k)
        y = theta + rng.normal(0.0, np.sqrt(variances))
        t = np.vstack([c, pi])
        _, logdet_t = np.linalg.slogdet(t)
        joint = _mvn_logpdf(y, theta, s)
        lg = _mvn_logpdf(c @ y, c @ theta, c @ s @ c.T)
        lm = float(-0.5 * (math.log(2.0 * math.pi) + math.log(pi @ s @ pi)
                           + (pi @ y - pi @ theta) ** 2 / (pi @ s @ pi)))
        max_resid = max(max_resid, abs(joint - (lg + lm + logdet_t)))

        # a perturbed prevalence reintroduces exactly the analytic cross term
        pert = pi.copy()
        pert[0] += 0.05
        tp = np.vstack([c, pert])
        _, logdet_tp = np.linalg.slogdet(tp)
        lmp = float(-0.5 * (math.log(2.0 * math.pi) + math.log(pert @ s @ pert)
                            + (pert @ y - pert @ theta) ** 2 / (pert @ s @ pert)))
        resid = joint - (lg + lmp + logdet_tp)
        analytic = _block_cross_term(
            float(pert @ y), float(pert @ theta), float(pert @ s @ pert),
            c @ y, c @ theta, c @ s @ c.T, c @ s @ pert)
        max_pert_gap = max(max_pert_gap, abs(resid - analytic))
    return {
        "check": "k_sufficiency",
        "k": k,
        "seed": seed,
        "n_draws": n_draws,
        "max_orthogonality": max_orth,
        "max_residual": max_resid,
        "max_perturbed_gap": max_pert_gap,
        "tolerance": TOL_EXACT,
        "tier": "exact",
        "pass": bool(max(max_orth, max_resid, max_pert_gap) < TOL_EXACT),
    }


def check_kronecker(seed: int = 0, n_arms: int = 2, k: int = 2,
                    n_draws: int = 100) -> dict:
    """Orthogonality for crossed treatment-by-subgroup layouts.

    With per-arm precision prevalences (each arm's shares divided by the
    number of arms), the Kronecker contrast (C_T (x) C_K) annihilates S pi.
    """
    rng = np.random.default_rng(seed)
    kron = kronecker_contrast(helmert_basis(n_arms), helmert_basis(k))
    max_orth = 0.0
    for _ in range(n_draws):
        variances = rng.uniform(0.05, 2.0, size=n_arms * k)
        pi = per_arm_prevalence(variances.reshape(n_arms, k))
        max_orth = max(max_orth, float(np.max(np.abs(kron @ np.diag(variances) @ pi))))
    return {
        "check": "kronecker",
        "seed": seed,
        "n_arms": n_arms,
        "k": k,
        "n_draws": n_draws,
        "max_orthogonality": max_orth,
        "tolerance": TOL_EXACT,
        "tier": "exact",
        "pass": bool(max_orth < TOL_EXACT),
    }


def check_bayes_optimum(dist, loss: str = "squared", seed: int = 0,
                        draws: int = 20000) -> dict:
    """Empirical reporting-prevalence optimum against the predicted one.

    ``dist`` is the (a, b) pair of a Beta prevalence law. Squared loss
    predicts its mean, absolute loss its median; the empirical argmin comes
    from reporting.bayes_risk on a small synthetic fit whose effect
    parameters are independent of the prevalence draws.
    """
    a, b = float(dist[0]), float(dist[1])
    scenario = SimScenario(n_studies=7, alpha=0.1, delta=0.5, gamma=0.25,
                           tau=0.05, tau_gamma=0.1,
                           sigma_law=("lognormal", -1.6, 0.3),
                           prevalence_law=("beta", 2.0, 2.0), seed=seed)
    fit = fit_cams(simulate(scenario), grid=GridSpec.default(PriorSpec(), 41))
    spec = PrevalenceSpec.beta(a, b, draws=draws, seed=seed)
    _, argmin = bayes_risk(fit, spec, loss=loss)
    predicted = a / (a + b) if loss == "squared" else float(betaincinv(a, b, 0.5))
    gap = abs(argmin - predicted)
    return {
        "check": "bayes_optimum",
        "loss": loss,
        "beta": [a, b],
        "seed": seed,
        "draws": draws,
        "argmin": argmin,
        "predicted": predicted,
        "gap": gap,
        "tolerance": 0.01,
        "tier": "mc",
        "pass": bool(gap < 0.01),
    }


def run_battery(seeds: int = 50, base_seed: int = 20240, n_nodes: int = 61) -> dict:
    """Full verification battery; returns a JSON-ready report.

    Equivalence across ``seeds`` scenarios with study counts cycling through
    3, 7, 15; forced-0.5 breakage on strongly unbalanced portfolios;
    K-subgroup sufficiency for K in {2, 3, 5}; the Kronecker layout; and the
    three Bayes-optimum cases.
    """
    checks = []
    sizes = (3, 7, 15)
    for i in range(seeds):
        scenario = SimScenario(n_studies=sizes[i % 3], alpha=0.2, delta=0.8,
                               gamma=0.3, tau=0.15, tau_gamma=0.12,
                               seed=base_seed + i)
        checks.append(check_equivalence(scenario, n_nodes=n_nodes))
    for i in range(5):
        unbalanced = SimScenario(n_studies=7, alpha=0.2, delta=0.8, gamma=0.3,
                                 tau=0.15, tau_gamma=0.12,
                                 prevalence_law=("uniform", 0.1, 0.25),
                                 seed=base_seed + 1000 + i)
        checks.append(check_equivalence(unbalanced, force_half=True,
                                        n_nodes=n_nodes))
    for k in (2, 3, 5):
        checks.append(check_k_sufficiency(k, seed=base_seed + k))
    checks.append(check_kronecker(seed=base_seed))
    checks.append(check_bayes_optimum((2.0, 2.0), "squared", seed=base_seed))
    checks.append(check_bayes_optimum((5.0, 21.0), "squared", seed=base_seed))
    checks.append(check_bayes_optimum((2.0, 8.0), "absolute", seed=base_seed))
    n_pass = sum(c["pass"] for c in checks)
    return {
        "checks": checks,
        "n_checks": len(checks),
        "n_pass": n_pass,
        "n_fail": len(checks) - n_pass,
        "all_pass": n_pass == len(checks),
    }
