"""Simulation harness and numerical theorem checks.

The library's central claims are algebraic: the contrast/mean decomposition
is orthogonal exactly at the information fraction, the adjusted bivariate
model reproduces the univariate contrast model's interaction posterior, and
both facts generalize to K subgroups under precision prevalences. This
module generates synthetic portfolios from the assumed normal-normal
hierarchy and asserts those identities numerically, with tolerances tagged
by tier: "exact" (1e-10, pure algebra) and "grid" (1e-4, discretization).

Where a check compares two posteriors, its reading can err only toward
failing: an honest check that must show agreement reports an upper bound on
the distance, and a forced break that must show disagreement reports a
distance it attains at a few points.

Every check returns a plain dict so batteries serialize straight to JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .contrasts import (contrast_mean_cov, helmert_basis, kronecker_contrast,
                        per_arm_prevalence, precision_prevalence,
                        transform_matrix)
from .errors import ContractError, DomainError
from .inference import (_CAMS_FUNCTIONALS, GridSpec, PosteriorGrid,
                        PriorSpec, _block_cross_term, _functional_moments,
                        _mvn_logpdf, _normal_logpdf, _pair_blocks,
                        _prior_blocks, _solve_grid, fit_bim, fit_bms,
                        fit_cams)
from .model_core import (MetaDataset, StudyRecord, SubgroupObservation,
                         subgroup_arrays)
from .reporting import RISK_GRID, PrevalenceSpec, _beta_cdf, bayes_risk

TOL_EXACT = 1e-10
TOL_GRID = 1e-4
BREAK_MIN = 1e-3  # a broken factorization must move the posterior this much
N_DRAWS = 100  # random covariances per algebraic (K-subgroup, Kronecker) check
# The force-half gamma_distance is the largest |F_a - F_b| at these quantile
# levels of either mixture (``_cdf_witness``).
WITNESS_LEVELS = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)


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
    if kind in ("uniform", "leverage") and params[0] > params[1]:
        raise DomainError(f"{name} {law}: lo must not exceed hi")
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

    Construction checks that alpha, delta and gamma are finite and that tau
    and tau_gamma lie in [0, inf), and stores a -0.0 of either as +0.0. It
    checks each law's kind and arity, that every parameter is finite, that
    s, sd, lo, hi of the sigma law and a, b of the beta law are positive,
    that every other prevalence parameter lies in [0, 1] (a -0.0 is stored
    as +0.0 there too), and that no law's lo exceeds its hi.

    The leverage law draws all but the last study uniformly on [lo, hi] and
    pins the last study at ``outlier`` with a tripled sampling SD: one small
    trial with a very different composition.

    ``uisd`` attaches per-subgroup sample sizes n = (uisd / se)^2, giving
    datasets with count columns; it must be positive and finite.
    """

    n_studies: int
    alpha: float = 0.0
    delta: float = 0.0
    gamma: float = 0.0
    tau: float = 0.0
    tau_gamma: float = 0.0
    sigma_law: tuple = ("lognormal", -1.6, 0.4)
    prevalence_law: tuple = ("beta", 2.0, 2.0)
    uisd: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_studies < 1:
            raise ContractError("need at least one study")
        for name in ("alpha", "delta", "gamma", "tau", "tau_gamma"):
            value = getattr(self, name)
            if name.startswith("tau"):
                if not 0.0 <= value < math.inf:
                    raise DomainError(
                        f"{name} must be nonnegative and finite, got {value}")
                # -0.0 passes, but numpy refuses it as a scale: keep +0.0
                object.__setattr__(self, name, abs(value))
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.uisd is not None and not 0.0 < self.uisd < math.inf:
            raise DomainError(
                f"uisd must be positive and finite, got {self.uisd}")
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
        if kind != "beta":
            if not all(0.0 <= p <= 1.0 for p in params):
                raise DomainError(f"prevalence_law {self.prevalence_law}: "
                                  f"prevalences must lie in [0, 1]")
            # a prevalence of -0.0 would be a subgroup SD of -0.0
            object.__setattr__(self, "prevalence_law",
                               (kind, *map(abs, params)))


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

    alpha_j ~ N(alpha, tau^2), gamma_j ~ N(gamma, tau_gamma^2), and

        y_Aj = alpha_j + delta pi_j - pi_j (gamma_j - gamma)       + eps_Aj
        y_Bj = alpha_j + delta pi_j + gamma + (1 - pi_j)(gamma_j - gamma) + eps_Bj

    so the interaction deviations are centered at the information fraction.
    """
    rng = np.random.default_rng(scenario.seed)
    j = scenario.n_studies
    pi = _draw_prevalence(scenario.prevalence_law, j, rng)
    s = _draw_sigma(scenario.sigma_law, j, rng)
    if scenario.prevalence_law[0] == "leverage":
        s[-1] *= 3.0
    sd_a = np.sqrt(pi) * s
    sd_b = np.sqrt(1.0 - pi) * s
    ids = [f"S{i + 1:0{len(str(j))}d}" for i in range(j)]
    if np.any(edge := (pi == 0.0) | (pi == 1.0)):
        i = int(np.argmax(edge))
        raise DomainError(
            f"study {ids[i]}: prevalence_law {scenario.prevalence_law} drew "
            f"{pi[i]:g}, so subgroup {'AB'[int(pi[i])]} has sampling SD 0")
    alpha_j = rng.normal(scenario.alpha, scenario.tau, size=j)
    gamma_j = rng.normal(scenario.gamma, scenario.tau_gamma, size=j)
    dev = gamma_j - scenario.gamma
    ya = alpha_j + scenario.delta * pi - pi * dev + rng.normal(0.0, sd_a)
    yb = (alpha_j + scenario.delta * pi + scenario.gamma
          + (1.0 - pi) * dev + rng.normal(0.0, sd_b))
    if scenario.uisd is not None:
        with np.errstate(over="ignore"):
            n_ab = (scenario.uisd / np.stack([sd_a, sd_b], axis=1)) ** 2
    studies = []
    for i in range(j):
        counts = (None, None)
        if scenario.uisd is not None:
            if not np.isfinite(n_ab[i]).all():
                raise DomainError(
                    f"study {ids[i]}: the subgroup count "
                    f"(uisd / se)^2 overflows at uisd {scenario.uisd}")
            counts = tuple(max(1, round(n)) for n in n_ab[i].tolist())
        obs_a = SubgroupObservation("A", float(ya[i]), float(sd_a[i]), counts[0])
        obs_b = SubgroupObservation("B", float(yb[i]), float(sd_b[i]), counts[1])
        studies.append(StudyRecord.from_observations(ids[i], obs_a, obs_b))
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

def cams_oracle(data: MetaDataset, priors: PriorSpec,
                grid: GridSpec) -> PosteriorGrid:
    """Reference for ``fit_cams``: the joint GLS of the (y_A, y_B) pairs on
    the full (tau, tau_gamma) lattice, Cov(g, m) kept: each pair is two
    scalar observations, its contrast and its mean given it (``_pair_blocks``).
    The slope regressor and the interaction loading are the information
    fractions (at a common 0.5 the solve is BMS with intercept
    heterogeneity: ``check_equivalence``), so the design has full rank and
    the grid equals ``fit_cams(...).grid`` to rounding. Production CAMS is
    two 1-D solves whose product is its lattice, so this is the only 2-D
    CAMS solve. It still shares ``_scalar_stats`` and ``_solve_grid`` with
    the fit, but solves with no scale prior and weighs the nodes itself
    (``_oracle_weights``). No summaries are computed.
    """
    ya, yb, va, vb, p = subgroup_arrays(data)
    row_a = np.stack([np.ones(p.size), p, np.zeros(p.size)], axis=1)
    x = np.stack([row_a, row_a + [0.0, 0.0, 1.0]], axis=1)
    taus, tg = grid.tau_nodes, grid.tau_gamma_nodes
    blocks = (_pair_blocks(ya, yb, va, vb, p, x, taus, tg)
              + _prior_blocks(priors, _CAMS_FUNCTIONALS, p.size, 3))
    solved = _solve_grid(blocks, ("alpha", "delta", "gamma"), priors, taus,
                         tg, ())
    return _oracle_weights(solved, priors)


def _oracle_weights(grid: PosteriorGrid, priors: PriorSpec) -> PosteriorGrid:
    """``grid``, whose log weights are log marginal likelihoods, under the
    half-normal priors of ``priors`` on both scale axes: each node's log
    weight gains the log prior density of its tau and tau_gamma and the
    logs of their trapezoid cells (half the distance between the node's
    neighbours, a lone node's cell 1), and the weights are their exp,
    shifted by the largest and normalized to sum 1."""
    def log_prior(nodes: np.ndarray, scale: float) -> np.ndarray:
        z = nodes / scale
        log_pdf = (0.5 * math.log(2.0 / math.pi) - math.log(scale)
                   - 0.5 * z * z)
        if nodes.size == 1:
            return log_pdf
        edges = np.concatenate([nodes[:1], 0.5 * (nodes[:-1] + nodes[1:]),
                                nodes[-1:]])
        return log_pdf + np.log(np.diff(edges))

    log_w = (grid.log_weight
             + log_prior(grid.tau_nodes, priors.tau_scale)[:, None]
             + log_prior(grid.tau_gamma_nodes, priors.tau_gamma_scale))
    w = np.exp(log_w - np.max(log_w))
    return replace(grid, log_weight=log_w, weight=w / np.sum(w),
                   scale_names=("tau", "tau_gamma"))


def _grid_distance(grid: PosteriorGrid, oracle: PosteriorGrid) -> float:
    """Largest |difference| of node weights, of conditional means in the
    oracle's conditional SDs and of conditional covariances in its
    correlation units, over every node. A zero SD (a direction the data and
    priors pin exactly) leaves that difference absolute."""
    sd = np.sqrt(np.diagonal(oracle.cond_cov, axis1=-2, axis2=-1))
    sd = np.where(sd > 0, sd, 1.0)
    return max(float(np.max(np.abs(grid.weight - oracle.weight))),
               float(np.max(np.abs(grid.cond_mean - oracle.cond_mean) / sd)),
               float(np.max(np.abs(grid.cond_cov - oracle.cond_cov)
                            / (sd[..., :, None] * sd[..., None, :]))))


def _cdf_shift(mean, sd, mu_ref, sd_ref) -> np.ndarray:
    """Per-component bound on sup_x |Phi((x - mean) / sd) - Phi((x - mu_ref)
    / sd_ref)|, elementwise: (|dmu| + |dsd|) / sd_ref, since

        sup |Phi((x - mu) / sd_ref) - Phi((x - mu_ref) / sd_ref)|
            <= |dmu| / (sd_ref sqrt(2 pi)),
        sup |Phi((x - mu) / sd) - Phi((x - mu) / sd_ref)|
            <= min(1/2, |dsd| / (min(sd, sd_ref) sqrt(2 pi e))),

    the second by the mean value theorem (sup_z |z| phi(c z) = 1 /
    (c sqrt(2 pi e))) and because two normals of one mean cross at it; it is
    at most |dsd| / sd_ref whether sd is above or below sd_ref. Exact
    equality gives 0; a reference atom (sd_ref = 0) that differs in any way
    gives inf.
    """
    gap = np.abs(mean - mu_ref) + np.abs(sd - sd_ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(gap > 0, gap / sd_ref, 0.0)


def _mixture_gap_bound(w_ref, mu_ref, sd_ref, w, mu, sd) -> float:
    """Upper bound on sup_x |F - F_ref| for F = sum_{t,g} w[t, g] N(mu[t, g],
    sd[t, g]^2) against the node-matched F_ref = sum_g w_ref[g] N(mu_ref[g],
    sd_ref[g]^2), with no CDF evaluated. Pairing each (t, g) with g,

        F - F_ref = sum_{t,g} w[t, g] (Phi_tg - Phi_g)
                    + sum_g (sum_t w[t, g] - w_ref[g]) Phi_g;

    the first sum is at most sum w min(1, ``_cdf_shift``) in sup norm, and
    since 0 <= Phi_g <= 1 the second lies between minus the sum of its
    negative coefficients and the sum of its positive ones (half the sum of
    their absolute values when both weight vectors sum to 1).
    """
    diff = w.sum(axis=0) - w_ref
    mass = max(float(diff[diff > 0].sum()), float(-diff[diff < 0].sum()))
    return mass + float(np.sum(w * np.minimum(
        1.0, _cdf_shift(mu, sd, mu_ref, sd_ref))))


def _gamma_bound(bim: PosteriorGrid, oracle: PosteriorGrid,
                 vec: np.ndarray) -> float:
    """``_mixture_gap_bound`` of the oracle's full-lattice posterior of the
    functional ``vec`` against the BIM gamma posterior, node by node on the
    shared tau_gamma axis."""
    mu_b, sd_b = _functional_moments(bim, np.ones((1, 1)))
    mu_o, sd_o = _functional_moments(oracle, vec[None, :])
    shape = oracle.weight.shape
    return _mixture_gap_bound(bim.weight[0], mu_b[0], sd_b[0], oracle.weight,
                              mu_o.reshape(shape), sd_o.reshape(shape))


def _cdf_witness(mix_a, mix_b) -> float:
    """The largest |F_a - F_b| at the WITNESS_LEVELS quantiles of both
    mixtures: a value the sup distance attains, so it can only read low."""
    xs = np.concatenate([mix_a.quantiles(WITNESS_LEVELS),
                         mix_b.quantiles(WITNESS_LEVELS)])
    return float(np.max(np.abs(mix_a.cdf(xs) - mix_b.cdf(xs))))


def check_equivalence(scenario: SimScenario, force_half: bool = False,
                      n_nodes: int = 101) -> dict:
    """Fit the contrast model and the adjusted bivariate model on one
    simulated dataset at matched priors and grids, and compare posteriors.

    PASS means the joint ``cams_oracle`` at the information fractions
    agrees with the contrast fit on the gamma CDF and the tau_gamma weights
    within the grid tolerance, and the production CAMS lattice (the solve
    ``fit_cams`` makes; no summary is read) matches the oracle within the
    exact one (``oracle_distance``). The honest ``gamma_distance`` is
    ``_gamma_bound``, an upper bound on the sup distance of the two gamma
    CDFs, so a pass is a proof. ``force_half`` weighs every study at 0.5,
    which on unbalanced data must break the agreement by more than
    ``BREAK_MIN``. With alpha and delta collinear, that joint solve is BMS
    with intercept heterogeneity to rounding, so the full-rank ``fit_bms``
    is compared (test_forced_half_oracle_is_bms_with_intercept_heterogeneity
    pins the identity). Its ``gamma_distance`` is ``_cdf_witness``, a
    distance attained at quantile points of the two gamma posteriors, so it
    can only read low and a pass is again certain.
    """
    data = simulate(scenario)
    priors = PriorSpec()
    grid = GridSpec.default(priors, n_nodes=n_nodes)
    bim = fit_bim(data, priors, grid)
    # an honest fit must agree; a deliberately broken one must visibly differ
    if force_half:
        bms = fit_bms(data, priors, grid, alpha_heterogeneity=True)
        other, d_oracle = bms.grid, None
        d_gamma = _cdf_witness(bim.functional_mixture("gamma"),
                               bms.functional_mixture("gamma"))
    else:
        other = cams_oracle(data, priors, grid)
        d_oracle = _grid_distance(fit_cams(data, priors, grid).grid, other)
        d_gamma = _gamma_bound(bim.grid, other, np.array([0.0, 0.0, 1.0]))
    cum = [np.cumsum(g.scale_axis("tau_gamma")[1]) for g in (bim.grid, other)]
    d_tg = float(np.max(np.abs(cum[0] - cum[1])))
    passed = (d_gamma > BREAK_MIN if force_half else
              max(d_gamma, d_tg) < TOL_GRID and d_oracle < TOL_EXACT)
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


def check_k_sufficiency(k: int, seed: int = 0) -> dict:
    """Orthogonality and exact factorization for K subgroup levels.

    Over N_DRAWS random diagonal sampling covariances S, with precision
    prevalences pi and Helmert contrast rows C, in one batched pass: asserts
    C S pi = 0, and that the joint log-density of y equals the
    contrast-block plus mean-block log-densities plus the constant Jacobian
    log|det T| of the non-orthonormal change of variables. Every density
    depends on y only through r = y - theta, so only r is drawn. A perturbed
    prevalence must leave a residual equal to the analytic cross term of the
    induced Cov(g, m).
    """
    if k < 2:
        raise ContractError("need at least two subgroups")
    rng = np.random.default_rng(seed)
    basis = helmert_basis(k)
    c = basis.matrix_c
    var = rng.uniform(0.05, 2.0, size=(N_DRAWS, k))
    r = rng.normal(0.0, np.sqrt(var))
    pi = precision_prevalence(var)
    joint = _normal_logpdf(r, var).sum(axis=1)
    r_g = r @ c.T
    cov_g = np.einsum("ik,nk,jk->nij", c, var, c)
    l_g = _mvn_logpdf(r_g, cov_g)

    def split_residual(p):
        """The joint minus the two blocks and the Jacobian at prevalences p,
        with the mean block's residual and variance."""
        _, logdet = np.linalg.slogdet(transform_matrix(basis, p))
        r_m, var_m = (p * r).sum(axis=1), (p * p * var).sum(axis=1)
        return joint - (l_g + _normal_logpdf(r_m, var_m) + logdet), r_m, var_m

    resid, _, _ = split_residual(pi)
    # a perturbed prevalence reintroduces exactly the analytic cross term
    pert = pi.copy()
    pert[:, 0] += 0.05
    resid_p, r_m, var_m = split_residual(pert)
    analytic = _block_cross_term(r_g, cov_g, r_m, var_m,
                                 contrast_mean_cov(basis, var, pert))
    max_orth = float(np.max(np.abs(contrast_mean_cov(basis, var, pi))))
    max_resid = float(np.max(np.abs(resid)))
    max_pert_gap = float(np.max(np.abs(resid_p - analytic)))
    return {
        "check": "k_sufficiency",
        "k": k,
        "seed": seed,
        "n_draws": N_DRAWS,
        "max_orthogonality": max_orth,
        "max_residual": max_resid,
        "max_perturbed_gap": max_pert_gap,
        "tolerance": TOL_EXACT,
        "tier": "exact",
        "pass": bool(max(max_orth, max_resid, max_pert_gap) < TOL_EXACT),
    }


def check_kronecker(seed: int = 0, n_arms: int = 2, k: int = 2) -> dict:
    """Orthogonality for crossed treatment-by-subgroup layouts.

    With per-arm precision prevalences (each arm's shares divided by the
    number of arms), the Kronecker contrast (C_T (x) C_K) annihilates S pi,
    over N_DRAWS random diagonal S in one batched pass.
    """
    rng = np.random.default_rng(seed)
    kron = kronecker_contrast(helmert_basis(n_arms), helmert_basis(k))
    var = rng.uniform(0.05, 2.0, size=(N_DRAWS, n_arms * k))
    pi = per_arm_prevalence(var.reshape(N_DRAWS, n_arms, k))
    max_orth = float(np.max(np.abs((var * pi) @ kron.T)))
    return {
        "check": "kronecker",
        "seed": seed,
        "n_arms": n_arms,
        "k": k,
        "n_draws": N_DRAWS,
        "max_orthogonality": max_orth,
        "tolerance": TOL_EXACT,
        "tier": "exact",
        "pass": bool(max_orth < TOL_EXACT),
    }


def _beta_median(a: float, b: float) -> float:
    """Median of Beta(a, b): bisection of _beta_cdf down to float spacing."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if _beta_cdf(mid, a, b) < 0.5:
            lo = mid
        else:
            hi = mid


def _delta_risk_scale(grid: PosteriorGrid, loss: str) -> float:
    """E[delta^2] (squared loss) or E|delta| (absolute loss) over the
    lattice components N(m, s^2) of delta: sum w (s^2 + m^2), or sum w
    [s sqrt(2/pi) exp(-m^2 / 2 s^2) + m erf(m / (s sqrt 2))] with
    ``math.erf`` per component (|m| for an atom)."""
    w = grid.weight.ravel()
    (m,), (s,) = _functional_moments(grid,
                                     np.array([_CAMS_FUNCTIONALS["delta"]]))
    if loss == "squared":
        return float(w @ (s * s + m * m))
    return float(w @ np.array([
        sd * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * (mu / sd) ** 2)
        + mu * math.erf(mu / (sd * math.sqrt(2.0))) if sd > 0.0 else abs(mu)
        for mu, sd in zip(m.tolist(), s.tolist())]))


def _beta_risk_quadrature(a: float, b: float, loss: str) -> np.ndarray:
    """E[(pi0 - pi)^2] or E|pi0 - pi| for pi ~ Beta(a, b) at each pi0 of
    RISK_GRID: Gauss-Legendre quadrature, nodes and weights by Golub-Welsch,
    of the loss times the Beta density on [0, pi0] and on [pi0, 1]. For
    integer a, b >= 1 the integrands are polynomials of degree at most
    a + b, which max(40, (a + b) // 2 + 1) nodes integrate exactly. Other
    laws are refused: the rule misses them by far more than the exact tier
    (2.5e-5 at Beta(1.5, 3.7)), and below a, b = 1 the density is
    unbounded. So are laws with a + b > 1000, where the Beta normalizer
    overflows a float near a = b and the rule's dense eigenproblem grows as
    the cube of its node count."""
    if not (a >= 1.0 and b >= 1.0 and a.is_integer() and b.is_integer()
            and a + b <= 1000.0):
        raise ContractError(f"the risk quadrature needs integer a, b >= 1 "
                            f"with a + b <= 1000, got Beta({a}, {b})")
    k = np.arange(1.0, max(40, int(a + b) // 2 + 1))
    t, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    u, w = 0.5 * (t + 1.0), v[0] ** 2
    p = RISK_GRID[:, None]
    x = np.hstack([p * u, p + (1.0 - p) * u])
    dx = np.hstack([p * w, (1.0 - p) * w])
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    density = x ** (a - 1.0) * (1.0 - x) ** (b - 1.0) * math.exp(log_norm)
    power = 2 if loss == "squared" else 1
    return (dx * np.abs(p - x) ** power * density).sum(axis=1)


def check_bayes_optimum(dist, loss: str = "squared", seed: int = 0) -> dict:
    """Reporting-prevalence risk curve and optimum against their
    predictions, on a small synthetic CAMS fit.

    ``dist`` is the (a, b) pair of a Beta prevalence law with integer a,
    b >= 1 and a + b <= 1000. The risk curve of reporting.bayes_risk must
    equal E[delta^2] (squared loss) or E|delta| (absolute loss) times
    E[(pi0 - pi)^2] or E|pi0 - pi| on RISK_GRID to the exact tier, relative
    to its largest value (``curve_gap``). Both factors are recomputed
    independently: the delta moment from the ``cams_oracle`` lattice at the
    information fractions (``_delta_risk_scale``), the prevalence factor by
    quadrature over the Beta density (``_beta_risk_quadrature``). Its argmin
    must lie within the grid tier of the law's mean (squared loss) or
    median (absolute loss, ``_beta_median``).
    """
    a, b = float(dist[0]), float(dist[1])
    factor = _beta_risk_quadrature(a, b, loss)
    scenario = SimScenario(n_studies=7, alpha=0.1, delta=0.5, gamma=0.25,
                           tau=0.05, tau_gamma=0.1,
                           sigma_law=("lognormal", -1.6, 0.3), seed=seed)
    data = simulate(scenario)
    priors = PriorSpec()
    grid = GridSpec.default(priors, 41)
    spec = PrevalenceSpec.beta(a, b)
    curve, argmin = bayes_risk(fit_cams(data, priors, grid), spec, loss=loss)
    oracle = cams_oracle(data, priors, grid)
    expected = _delta_risk_scale(oracle, loss) * factor
    curve_gap = float(np.max(np.abs(curve - expected))
                      / np.max(np.abs(expected)))
    predicted = a / (a + b) if loss == "squared" else _beta_median(a, b)
    gap = abs(argmin - predicted)
    return {
        "check": "bayes_optimum",
        "loss": loss,
        "beta": [a, b],
        "seed": seed,
        "argmin": argmin,
        "predicted": predicted,
        "gap": gap,
        "tolerance": TOL_GRID,
        "tier": "grid",
        "curve_gap": curve_gap,
        "curve_tolerance": TOL_EXACT,
        "pass": bool(gap < TOL_GRID and curve_gap < TOL_EXACT),
    }


def _unbalanced_scenario(seed: int) -> SimScenario:
    """The battery's force-half portfolio: 7 studies whose information
    fractions all lie in [0.1, 0.25], far from 0.5."""
    return SimScenario(n_studies=7, alpha=0.2, delta=0.8, gamma=0.3, tau=0.15,
                       tau_gamma=0.12, prevalence_law=("uniform", 0.1, 0.25),
                       seed=seed)


def run_battery(seeds: int = 50, base_seed: int = 20240, n_nodes: int = 61) -> dict:
    """Full verification battery; returns a JSON-ready report.

    Equivalence across ``seeds`` scenarios with study counts cycling through
    3, 7, 15; forced-0.5 breakage on strongly unbalanced portfolios;
    K-subgroup sufficiency for K in {2, 3, 5}; the Kronecker layout; and the
    three Bayes-optimum cases. Fewer than one seed is refused: the battery
    would then check no equivalence at all.
    """
    if seeds < 1:
        raise ContractError(f"the battery needs at least 1 equivalence seed, "
                            f"got {seeds}")
    checks = []
    sizes = (3, 7, 15)
    for i in range(seeds):
        scenario = SimScenario(n_studies=sizes[i % 3], alpha=0.2, delta=0.8,
                               gamma=0.3, tau=0.15, tau_gamma=0.12,
                               seed=base_seed + i)
        checks.append(check_equivalence(scenario, n_nodes=n_nodes))
    for i in range(5):
        checks.append(check_equivalence(_unbalanced_scenario(base_seed + 1000 + i),
                                        force_half=True, n_nodes=n_nodes))
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
