"""Grid-based Bayesian fitting of the subgroup meta-analysis estimators.

Five estimators share one engine:

* ``BIM``     univariate random-effects pooling of the within-trial contrasts
* ``BMS``     bivariate subgroup model with interactions centered at 0.5
* ``CAMS``    bivariate model with an ecological slope in the information
              fraction and IF-centered interaction terms
* ``OVERALL`` univariate pooling of the prevalence-weighted trial means
* ``BIM_K``   multivariate contrast pooling for K subgroup levels

Instead of MCMC, heterogeneity SDs live on a fixed grid (a zero node plus
geometrically spaced nodes up to five prior scales). At every node the
location parameters are conditionally Gaussian and solved by generalized
least squares, so the joint posterior is a finite mixture of normals with
half-normal-prior-times-likelihood node weights. Everything downstream
(quantiles, tail probabilities, reporting functionals) is CDF arithmetic on
that mixture, accumulated in a fixed node order for bit reproducibility.

Each block of observations contributes GLS statistics on its own node
lattice; statistics of independent blocks add before one shared solve. CAMS
is thus a contrast block on the tau_gamma axis plus a mean-regression block
on the tau axis, which decouple exactly at the information fraction.

Location priors are flat by default; a flat prior requires at least as many
studies as fixed effects. Proper normal priors lift that requirement and are
folded into the per-node GLS.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .contrasts import ContrastBasis
from .errors import ContractError, DomainError, IdentifiabilityWarning
from .gaussmix import (GaussianMixture1D, grid_interval, grid_quantile,
                       grid_tail_prob, mixture_quantiles)
from .model_core import (CovarianceStructure, MetaDataset, MultiStudyRecord,
                         cams_covariance, cov_gm, decompose_arrays,
                         subgroup_arrays)

ESTIMATORS = ("BIM", "BMS", "CAMS", "OVERALL", "BIM_K")

_LOG_2PI = math.log(2.0 * math.pi)


# ----------------------------------------------------------------------
# specification types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PriorSpec:
    """Priors: half-normal scales for the heterogeneity SDs, optional normal
    priors for named location parameters (anything unnamed stays flat).

    ``location_prior`` is a tuple of (parameter_name, mean, sd) triples.
    """

    tau_scale: float = 1.0
    tau_gamma_scale: float = 0.5
    location_prior: tuple = ()

    def __post_init__(self) -> None:
        if not (self.tau_scale > 0) or not (self.tau_gamma_scale > 0):
            raise DomainError("prior scales must be positive")
        entries = tuple((str(n), float(m), float(s)) for n, m, s in self.location_prior)
        for name, _, sd in entries:
            if not (sd > 0):
                raise DomainError(f"location prior sd for {name} must be positive")
        names = [n for n, _, _ in entries]
        if len(set(names)) != len(names):
            raise ContractError(f"duplicate location priors: {names}")
        object.__setattr__(self, "location_prior", entries)

    def location_map(self) -> dict:
        return {name: (mean, sd) for name, mean, sd in self.location_prior}


@dataclass(frozen=True)
class GridSpec:
    """Heterogeneity grids: a zero node plus geometric spacing.

    Defaults put 101 nodes per axis on [0, 5 * prior scale], with the smallest
    positive node at 1e-3 of the upper end. Custom node vectors are accepted
    as long as they start at 0 and increase strictly; a single-node axis [0]
    pins that heterogeneity to zero.
    """

    tau_nodes: np.ndarray
    tau_gamma_nodes: np.ndarray
    quantile_resolution: int = 512

    def __post_init__(self) -> None:
        for label in ("tau_nodes", "tau_gamma_nodes"):
            nodes = np.asarray(getattr(self, label), dtype=float).ravel()
            object.__setattr__(self, label, nodes)
            if nodes.size == 0 or nodes[0] != 0.0:
                raise ContractError(f"{label} must start at 0")
            if np.any(np.diff(nodes) <= 0):
                raise ContractError(f"{label} must be strictly increasing")
        if self.quantile_resolution < 16:
            raise ContractError("quantile_resolution must be at least 16")

    @staticmethod
    def axis(prior_scale: float, n_nodes: int = 101, span: float = 5.0,
             min_frac: float = 1e-3) -> np.ndarray:
        if n_nodes < 1:
            raise ContractError("need at least one node")
        if not (prior_scale > 0) or not (span > 0):
            raise DomainError(
                f"prior scale and span must be positive, got "
                f"({prior_scale}, {span})")
        hi = span * prior_scale
        if n_nodes == 1:
            return np.array([0.0])
        return np.concatenate([[0.0], np.geomspace(hi * min_frac, hi, n_nodes - 1)])

    @classmethod
    def default(cls, priors: PriorSpec, n_nodes: int = 101,
                quantile_resolution: int = 512) -> "GridSpec":
        return cls(cls.axis(priors.tau_scale, n_nodes),
                   cls.axis(priors.tau_gamma_scale, n_nodes),
                   quantile_resolution)


@dataclass(frozen=True)
class PosteriorGrid:
    """Joint posterior over the (tau, tau_gamma) lattice.

    ``log_weight`` is log(marginal likelihood * prior * quadrature cell), up
    to one additive constant; ``weight`` is its normalization. ``cond_mean``
    and ``cond_cov`` give the Gaussian conditional law of the location
    parameters at each node. Axes a fit does not use are singletons at 0.
    """

    tau_nodes: np.ndarray
    tau_gamma_nodes: np.ndarray
    log_weight: np.ndarray
    weight: np.ndarray
    cond_mean: np.ndarray
    cond_cov: np.ndarray
    param_names: tuple
    scale_names: tuple

    def __post_init__(self) -> None:
        t, g = self.tau_nodes.size, self.tau_gamma_nodes.size
        p = len(self.param_names)
        if self.weight.shape != (t, g) or self.log_weight.shape != (t, g):
            raise ContractError("weight lattice shape mismatch")
        if self.cond_mean.shape != (t, g, p) or self.cond_cov.shape != (t, g, p, p):
            raise ContractError("conditional moment shape mismatch")
        if abs(self.weight.sum() - 1.0) > 1e-10:
            raise ContractError(f"weights must sum to 1, got {self.weight.sum()!r}")

    def scale_axis(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Marginal (nodes, weights) for one heterogeneity parameter."""
        if name == "tau":
            return self.tau_nodes, self.weight.sum(axis=1)
        if name == "tau_gamma":
            return self.tau_gamma_nodes, self.weight.sum(axis=0)
        raise ContractError(f"unknown scale parameter {name!r}")


@dataclass(frozen=True)
class ParameterSummary:
    median: float
    lower: float
    upper: float
    p_positive: float

    def __post_init__(self) -> None:
        if not (self.lower <= self.median <= self.upper):
            raise ContractError(
                f"summary out of order: {self.lower}, {self.median}, {self.upper}")
        if not (0.0 <= self.p_positive <= 1.0):
            raise ContractError(f"tail probability out of range: {self.p_positive}")


@dataclass(frozen=True)
class FitResult:
    """Posterior summaries plus the full grid they came from."""

    estimator: str
    summaries: dict
    grid: PosteriorGrid
    provenance: dict
    functionals: dict = field(default_factory=dict)

    def functional_mixture(self, spec) -> GaussianMixture1D:
        """Posterior of a linear functional of the location parameters.

        ``spec`` may be a functional name (e.g. "gamma"), a mapping from
        names to coefficients (e.g. {"alpha": 1, "delta": 0.3}), or a raw
        coefficient vector over the natural parametrization.
        """
        return _grid_mixture(self.grid, self._coef_vector(spec))

    def functional_quantiles(self, specs, levels) -> np.ndarray:
        """Quantiles of several functionals in one batched solve.

        Entry [i, l] is the levels[l]-quantile of the posterior of specs[i];
        each spec is read as in ``functional_mixture``.
        """
        mean, sd = _functional_moments(self.grid, self._coef_matrix(specs))
        return mixture_quantiles(self.grid.weight.reshape(-1), mean, sd, levels)

    def functional_summaries(self, specs) -> list:
        """ParameterSummary (median, 95% interval, P(> 0)) of each spec."""
        return _summaries(self.grid, self._coef_matrix(specs))

    def _coef_matrix(self, specs) -> np.ndarray:
        return np.array([self._coef_vector(s) for s in specs], dtype=float)

    def _coef_vector(self, spec) -> np.ndarray:
        if isinstance(spec, str):
            if spec not in self.functionals:
                raise ContractError(
                    f"unknown parameter {spec!r}; have {sorted(self.functionals)}")
            return self.functionals[spec]
        if isinstance(spec, dict):
            vec = np.zeros(len(self.grid.param_names))
            for name, coef in spec.items():
                if name not in self.functionals:
                    raise ContractError(f"unknown parameter {name!r}")
                vec = vec + float(coef) * self.functionals[name]
            return vec
        vec = np.asarray(spec, dtype=float)
        if vec.shape != (len(self.grid.param_names),):
            raise ContractError(
                f"coefficient vector must have length {len(self.grid.param_names)}")
        return vec


@dataclass(frozen=True)
class TracePoint:
    tau_gamma: float
    median: float
    lower: float
    upper: float


# ----------------------------------------------------------------------
# engine internals
# ----------------------------------------------------------------------

def _functional_moments(grid: PosteriorGrid, vecs: np.ndarray):
    """Component means and sds, shape (m, T*G), of the functionals in the
    rows of ``vecs`` at every lattice node."""
    p = len(grid.param_names)
    mean = vecs @ grid.cond_mean.reshape(-1, p).T
    outer = (vecs[:, :, None] * vecs[:, None, :]).reshape(len(vecs), p * p)
    sd = outer @ grid.cond_cov.reshape(-1, p * p).T
    np.clip(sd, 0.0, None, out=sd)
    return mean, np.sqrt(sd, out=sd)


def _grid_mixture(grid: PosteriorGrid, vec: np.ndarray) -> GaussianMixture1D:
    mean, sd = _functional_moments(grid, vec[None, :])
    return GaussianMixture1D(grid.weight.reshape(-1), mean[0], sd[0])


def _summaries(grid: PosteriorGrid, vecs: np.ndarray) -> list:
    """Median, 95% interval and P(> 0) of each functional row of ``vecs``,
    from one batched quantile solve."""
    w = grid.weight.reshape(-1)
    mean, sd = _functional_moments(grid, vecs)
    qs = mixture_quantiles(w, mean, sd, (0.5, 0.025, 0.975))
    return [ParameterSummary(med, lo, hi,
                             GaussianMixture1D(w, mu, s).tail_prob(0.0))
            for (med, lo, hi), mu, s in zip(qs.tolist(), mean, sd)]


def _halfnormal_logpdf(t: np.ndarray, scale: float) -> np.ndarray:
    return (0.5 * math.log(2.0 / math.pi) - math.log(scale)
            - 0.5 * (t / scale) ** 2)


def _quad_log_weights(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid cell sizes as log weights; a single node gets weight 1."""
    if nodes.size == 1:
        return np.zeros(1)
    w = np.empty(nodes.size)
    w[0] = 0.5 * (nodes[1] - nodes[0])
    w[-1] = 0.5 * (nodes[-1] - nodes[-2])
    w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    return np.log(w)


def _axis_log_prior(nodes: np.ndarray, scale: float, in_use: bool) -> np.ndarray:
    if not in_use:
        return np.zeros(nodes.size)
    return _halfnormal_logpdf(nodes, scale) + _quad_log_weights(nodes)


def _batched_inv_logdet(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and log determinant of stacked SPD blocks (..., b, b)."""
    b = v.shape[-1]
    if b == 1:
        d = v[..., 0, 0]
        return 1.0 / v, np.log(d)
    if b == 2:
        a = v[..., 0, 0]
        off = v[..., 0, 1]
        d = v[..., 1, 1]
        det = a * d - off * off
        inv = np.empty_like(v)
        inv[..., 0, 0] = d / det
        inv[..., 0, 1] = -off / det
        inv[..., 1, 0] = -off / det
        inv[..., 1, 1] = a / det
        return inv, np.log(det)
    sign, logdet = np.linalg.slogdet(v)
    if np.any(sign <= 0):
        raise ContractError("covariance block is not positive definite")
    return np.linalg.inv(v), logdet


def _check_flat_prior_rule(priors: PriorSpec, param_names: tuple,
                           n_studies: int, min_studies: int) -> None:
    proper = set(priors.location_map())
    if any(name not in proper for name in param_names) and n_studies < min_studies:
        raise ContractError(
            f"flat location priors need at least {min_studies} studies for "
            f"{len(param_names)} fixed effects (got {n_studies}); supply "
            f"proper location priors or more data")


def _gls_stats(y: np.ndarray, x: np.ndarray, v: np.ndarray):
    """(X'V^-1 X, X'V^-1 y, y'V^-1 y, sum_j log|V_j|) per node for study
    blocks y (J, b), x (J, b, p) and covariances v (T, G, J, b, b), whose
    lattice axes may be singletons."""
    vinv, logdet = _batched_inv_logdet(v)
    return (np.einsum("jbp,tgjbc,jcq->tgpq", x, vinv, x, optimize=True),
            np.einsum("jbp,tgjbc,jc->tgp", x, vinv, y, optimize=True),
            np.einsum("jb,tgjbc,jc->tg", y, vinv, y, optimize=True),
            logdet.sum(axis=-1))


def _scalar_stats(y: np.ndarray, x: np.ndarray, var: np.ndarray,
                  het2: np.ndarray):
    """``_gls_stats`` of one observation per study: y (J,) with design rows
    x (J, p) and variance var (J,) plus the heterogeneity het2 (T, G)."""
    v = (var + het2[..., None])[..., None, None]
    return _gls_stats(y[:, None], x[:, None, :], v)


def _solve_grid(stats, design: np.ndarray, param_names: tuple,
                priors: PriorSpec, tau_nodes: np.ndarray, tg_nodes: np.ndarray,
                scale_names: tuple) -> PosteriorGrid:
    """Posterior grid from (summed) ``_gls_stats``: per-node GLS with
    optional normal location priors, then half-normal priors on the axes in
    ``scale_names``. ``design`` holds the rows (last axis p) of every
    observation behind the statistics, for the rank and the constant.
    """
    a, bvec, quad, logdet_sum = stats
    p = len(param_names)
    stacked = design.reshape(-1, p)
    loc = priors.location_map()
    prior_prec = np.zeros(p)
    prior_mean = np.zeros(p)
    prior_const = 0.0
    for i, name in enumerate(param_names):
        if name in loc:
            mean, sd = loc[name]
            prior_prec[i] = sd ** -2
            prior_mean[i] = mean
            prior_const += -0.5 * math.log(2.0 * math.pi) - math.log(sd)
    if prior_prec.any():
        a = a + np.diag(prior_prec)
        bvec = bvec + prior_prec * prior_mean
        quad = quad + float(prior_prec @ (prior_mean ** 2))

    # rank of the (prior-augmented) design decides between solve and pinv
    augmented = np.vstack([stacked, np.diag(np.sqrt(prior_prec))])
    svals = np.linalg.svd(augmented, compute_uv=False)
    tol = svals.max() * max(augmented.shape) * np.finfo(float).eps
    rank = int((svals > tol).sum())
    if rank < p:
        _, _, vt = np.linalg.svd(augmented)
        pretty = ["; ".join(
            f"{c:+.3f}*{n}" for c, n in zip(d, param_names) if abs(c) > 1e-9)
            for d in vt[rank:p]]
        warnings.warn(
            f"design is rank deficient ({rank} < {p}); flat directions: "
            f"{pretty}; summaries along them are prior-driven only",
            IdentifiabilityWarning, stacklevel=3)
        cond_cov = np.linalg.pinv(a, hermitian=True)
        theta = np.einsum("tgpq,tgq->tgp", cond_cov, bvec, optimize=True)
        eigs = np.linalg.eigvalsh(a)
        logdet_a = np.log(eigs[..., p - rank:]).sum(axis=-1)
    else:
        theta = np.linalg.solve(a, bvec[..., None])[..., 0]
        cond_cov = np.linalg.inv(a)
        _, logdet_a = np.linalg.slogdet(a)
    fit_quad = np.einsum("tgp,tgp->tg", bvec, theta, optimize=True)
    log_marginal = (-0.5 * (logdet_sum + quad - fit_quad + logdet_a)
                    - 0.5 * (stacked.shape[0] - rank) * _LOG_2PI + prior_const)
    cond_cov = 0.5 * (cond_cov + np.swapaxes(cond_cov, -1, -2))
    log_prior = (_axis_log_prior(tau_nodes, priors.tau_scale,
                                 "tau" in scale_names)[:, None]
                 + _axis_log_prior(tg_nodes, priors.tau_gamma_scale,
                                   "tau_gamma" in scale_names)[None, :])
    log_weight = log_marginal + log_prior
    weight = np.exp(log_weight - logsumexp(log_weight.reshape(-1)))
    return PosteriorGrid(tau_nodes, tg_nodes, log_weight, weight,
                         theta, cond_cov, tuple(param_names), scale_names)


def _dataset_sha(data: MetaDataset) -> str:
    lines = [data.scale_label, str(data.uisd_assumption)]
    for s in data.studies:
        if isinstance(s, MultiStudyRecord):
            parts = [s.study_id]
            parts += [repr(float(v)) for v in s.estimates]
            parts += [repr(float(v)) for v in s.cov_diag]
            parts += [repr(float(v)) for v in s.prevalence]
        else:
            parts = [s.study_id,
                     repr(s.obs_a.estimate), repr(s.obs_a.std_error), repr(s.obs_a.count),
                     repr(s.obs_b.estimate), repr(s.obs_b.std_error), repr(s.obs_b.count)]
        lines.append("|".join(parts))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _axis_descriptor(nodes: np.ndarray) -> dict:
    return {"n": int(nodes.size), "lo": float(nodes[0]), "hi": float(nodes[-1])}


def _provenance(data: MetaDataset, priors: PriorSpec, grid: GridSpec,
                options: dict) -> dict:
    prov = {
        "priors": {
            "tau_scale": priors.tau_scale,
            "tau_gamma_scale": priors.tau_gamma_scale,
            "location": {n: [m, s] for n, m, s in priors.location_prior},
        },
        "grid": {
            "tau": _axis_descriptor(grid.tau_nodes),
            "tau_gamma": _axis_descriptor(grid.tau_gamma_nodes),
            "quantile_resolution": grid.quantile_resolution,
        },
        "dataset_sha256": _dataset_sha(data),
        "n_studies": len(data.studies),
        "scale_label": data.scale_label,
        "seed": None,
        "options": options,
    }
    if not data.is_multi:
        prov["info_fractions"] = [float(s.info_fraction) for s in data.studies]
    return prov


def _assemble(estimator: str, data: MetaDataset, priors: PriorSpec,
              grid_spec: GridSpec, grid: PosteriorGrid, functionals,
              options) -> FitResult:
    summaries = dict(zip(functionals, _summaries(
        grid, np.array(list(functionals.values()), dtype=float))))
    for name in grid.scale_names:
        nodes, w = grid.scale_axis(name)
        lo, hi = grid_interval(nodes, w, 0.95)
        summaries[name] = ParameterSummary(grid_quantile(nodes, w, 0.5), lo, hi,
                                           grid_tail_prob(nodes, w, 0.0))
    return FitResult(estimator, summaries, grid,
                     _provenance(data, priors, grid_spec, options),
                     dict(functionals))


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------

def fit_bim(data: MetaDataset, priors: PriorSpec | None = None,
            grid: GridSpec | None = None) -> FitResult:
    """Univariate random-effects pooling of the contrasts g_j = y_B - y_A.

    Marginally g_j ~ Normal(gamma, sigma_A^2 + sigma_B^2 + tau_gamma^2); the
    posterior runs over a 1-D tau_gamma grid with a conditional normal for
    gamma at each node.
    """
    priors = priors if priors is not None else PriorSpec()
    grid = grid if grid is not None else GridSpec.default(priors)
    g, _, var_g, _ = decompose_arrays(*subgroup_arrays(data))
    param_names = ("gamma",)
    _check_flat_prior_rule(priors, param_names, g.size, 1)
    tg = grid.tau_gamma_nodes
    x = np.ones((g.size, 1))
    posterior = _solve_grid(_scalar_stats(g, x, var_g, (tg ** 2)[None, :]), x,
                            param_names, priors, np.array([0.0]), tg,
                            ("tau_gamma",))
    return _assemble("BIM", data, priors, grid, posterior,
                     {"gamma": np.array([1.0])}, {})


def fit_overall(data: MetaDataset, priors: PriorSpec | None = None,
                grid: GridSpec | None = None) -> FitResult:
    """Univariate random-effects pooling of the weighted means m_j.

    m_j = (1 - pi_j) y_A + pi_j y_B carries sampling variance
    (1 - pi_j)^2 sigma_A^2 + pi_j^2 sigma_B^2 plus tau^2 between trials.
    """
    priors = priors if priors is not None else PriorSpec()
    grid = grid if grid is not None else GridSpec.default(priors)
    _, m, _, var_m = decompose_arrays(*subgroup_arrays(data))
    param_names = ("mu",)
    _check_flat_prior_rule(priors, param_names, m.size, 1)
    taus = grid.tau_nodes
    x = np.ones((m.size, 1))
    posterior = _solve_grid(_scalar_stats(m, x, var_m, (taus ** 2)[:, None]),
                            x, param_names, priors, taus, np.array([0.0]),
                            ("tau",))
    return _assemble("OVERALL", data, priors, grid, posterior,
                     {"mu": np.array([1.0])}, {})


def fit_bms(data: MetaDataset, priors: PriorSpec | None = None,
            grid: GridSpec | None = None,
            alpha_heterogeneity: bool = False) -> FitResult:
    """Bivariate subgroup model with interactions centered at 0.5.

    Per study the mean is (alpha - gamma/2, alpha + gamma/2) and the
    covariance adds +/- tau_gamma^2/4 to the sampling covariance. The model
    carries no intercept heterogeneity by default; ``alpha_heterogeneity``
    adds a tau^2 term on all entries and a second grid axis.
    """
    priors = priors if priors is not None else PriorSpec()
    grid = grid if grid is not None else GridSpec.default(priors)
    ya, yb, va, vb, _ = subgroup_arrays(data)
    j = ya.size
    param_names = ("alpha", "gamma")
    _check_flat_prior_rule(priors, param_names, j, 2)
    tg = grid.tau_gamma_nodes
    taus = grid.tau_nodes if alpha_heterogeneity else np.array([0.0])
    # the CAMS covariance with the interaction centered at 0.5
    v = cams_covariance(va, vb, 0.5, taus[:, None, None], tg[None, :, None])
    x = np.broadcast_to(np.array([[1.0, -0.5], [1.0, 0.5]]), (j, 2, 2)).copy()
    scale_names = ("tau", "tau_gamma") if alpha_heterogeneity else ("tau_gamma",)
    posterior = _solve_grid(_gls_stats(np.stack([ya, yb], axis=1), x, v), x,
                            param_names, priors, taus, tg, scale_names)
    functionals = {
        "alpha": np.array([1.0, 0.0]),
        "gamma": np.array([0.0, 1.0]),
        "mu_a": np.array([1.0, -0.5]),
        "mu_b": np.array([1.0, 0.5]),
    }
    return _assemble("BMS", data, priors, grid, posterior, functionals,
                     {"alpha_heterogeneity": alpha_heterogeneity})


def fit_cams(data: MetaDataset, priors: PriorSpec | None = None,
             grid: GridSpec | None = None,
             parametrization: str = "explicit") -> FitResult:
    """Contribution-adjusted bivariate model on a 2-D heterogeneity grid.

    Explicit parametrization: mean y = alpha + delta * pi + gamma * x with x
    in {0, 1}; implicit: alpha + beta * pi + gamma * (x - pi), related by
    beta = delta + gamma. Both carry the marginal covariance of
    ``model_core.cams_covariance``.

    At the information fraction that covariance decouples the contrast g
    from the mean m, so the fit adds the GLS statistics of two blocks:
    g_j ~ N(gamma, var_g + tau_gamma^2) on the tau_gamma axis and the
    meta-regression m_j ~ N(alpha + (delta + gamma) pi_j, var_m + tau^2) on
    the tau axis. Location priors enter after the sum, so a prior coupling
    the blocks stays exact. ``verify.cams_oracle`` is the joint 2-D solve.
    """
    priors = priors if priors is not None else PriorSpec()
    grid = grid if grid is not None else GridSpec.default(priors)
    if parametrization not in ("explicit", "implicit"):
        raise ContractError(f"unknown parametrization {parametrization!r}")
    ya, yb, va, vb, pi = subgroup_arrays(data)
    g, m, var_g, var_m = decompose_arrays(ya, yb, va, vb, pi)
    j = g.size
    if parametrization == "explicit":
        param_names = ("alpha", "delta", "gamma")
        beta, delta, gamma_in_mean = [0.0, 1.0, 1.0], [0.0, 1.0, 0.0], pi
    else:
        param_names = ("alpha", "beta", "gamma")
        beta, delta, gamma_in_mean = [0.0, 1.0, 0.0], [0.0, 1.0, -1.0], np.zeros(j)
    functionals = {"alpha": np.array([1.0, 0.0, 0.0]), "beta": np.array(beta),
                   "delta": np.array(delta), "gamma": np.array([0.0, 0.0, 1.0])}
    _check_flat_prior_rule(priors, param_names, j, 3)
    x_g = np.tile([0.0, 0.0, 1.0], (j, 1))
    x_m = np.stack([np.ones(j), pi, gamma_in_mean], axis=1)
    taus = grid.tau_nodes
    tg = grid.tau_gamma_nodes
    contrast = _scalar_stats(g, x_g, var_g, (tg ** 2)[None, :])
    mean = _scalar_stats(m, x_m, var_m, (taus ** 2)[:, None])
    stats = tuple(c + mm for c, mm in zip(contrast, mean))
    posterior = _solve_grid(stats, np.stack([x_g, x_m], axis=1), param_names,
                            priors, taus, tg, ("tau", "tau_gamma"))
    return _assemble("CAMS", data, priors, grid, posterior, functionals,
                     {"parametrization": parametrization})


def fit_bim_k(data: MetaDataset, basis: ContrastBasis,
              priors: PriorSpec | None = None,
              grid: GridSpec | None = None) -> FitResult:
    """Multivariate contrast pooling for K subgroup levels.

    Per study the contrast vector g_j = C y_j is Normal(C B gamma,
    C S_j C' + tau^2 (C B)(C B)'). With the pseudo-inverse pairing C B = I
    this is the K-level analogue of the univariate contrast model and reduces
    to it exactly at K = 2.
    """
    priors = priors if priors is not None else PriorSpec()
    grid = grid if grid is not None else GridSpec.default(priors)
    if not data.is_multi:
        raise ContractError("fit_bim_k needs MultiStudyRecord data")
    k = basis.k
    for s in data.studies:
        if s.k != k:
            raise ContractError(
                f"study {s.study_id} has {s.k} subgroups, basis expects {k}")
    q = k - 1
    c = basis.matrix_c
    cb = c @ basis.basis_b
    j = len(data.studies)
    param_names = tuple(f"gamma_{i + 1}" for i in range(q))
    # each study contributes q contrast observations
    _check_flat_prior_rule(priors, param_names, j * q, q)
    g = np.stack([c @ s.estimates for s in data.studies])
    base = np.stack([c @ np.diag(s.cov_diag) @ c.T for s in data.studies])
    het = cb @ cb.T
    taus = grid.tau_nodes
    v = base[None, None] + (taus ** 2)[:, None, None, None, None] * het
    x = np.broadcast_to(cb, (j, q, q)).copy()
    posterior = _solve_grid(_gls_stats(g, x, v), x, param_names, priors,
                            taus, np.array([0.0]), ("tau",))
    functionals = {name: np.eye(q)[i] for i, name in enumerate(param_names)}
    return _assemble("BIM_K", data, priors, grid, posterior, functionals,
                     {"k": k})


# ----------------------------------------------------------------------
# posterior queries
# ----------------------------------------------------------------------

def tail_probability(fit: FitResult, parameter: str, threshold: float) -> float:
    """Posterior P(parameter > threshold)."""
    if parameter in fit.functionals:
        return fit.functional_mixture(parameter).tail_prob(threshold)
    if parameter in fit.grid.scale_names:
        nodes, w = fit.grid.scale_axis(parameter)
        return grid_tail_prob(nodes, w, threshold)
    raise ContractError(
        f"unknown parameter {parameter!r}; have "
        f"{sorted(fit.functionals) + list(fit.grid.scale_names)}")


def ecological_evidence(fit: FitResult) -> float:
    """max(P(delta > 0), P(delta < 0)): evidence for any across-study
    prevalence-outcome association, direction-free."""
    p = tail_probability(fit, "delta", 0.0)
    return max(p, 1.0 - p)


def interaction_trace(fit: FitResult, tau_gamma_values) -> list:
    """Conditional interaction posterior along the tau_gamma axis.

    Each requested value snaps to the nearest grid node (the node actually
    used is returned). The conditional law of gamma given tau_gamma is the
    mixture over the remaining axis; reported with a 50% equal-tailed
    interval.
    """
    if "gamma" not in fit.functionals or "tau_gamma" not in fit.grid.scale_names:
        raise ContractError(
            f"{fit.estimator} fit has no interaction/heterogeneity axis to trace")
    grid = fit.grid
    mean, sd = _functional_moments(grid, fit.functionals["gamma"][None, :])
    t, g = grid.weight.shape
    mean, sd = mean.reshape(t, g).T, sd.reshape(t, g).T
    values = np.atleast_1d(np.asarray(tau_gamma_values, dtype=float))
    idx = np.argmin(np.abs(grid.tau_gamma_nodes[None, :] - values[:, None]),
                    axis=1)
    # conditional weights over tau at each chosen tau_gamma node, from the
    # log weights so that a column of negligible total mass cannot underflow
    log_w = grid.log_weight.T[idx]
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    qs = mixture_quantiles(w, mean[idx], sd[idx], (0.5, 0.25, 0.75))
    return [TracePoint(float(grid.tau_gamma_nodes[i]), med, lo, hi)
            for i, (med, lo, hi) in zip(idx.tolist(), qs.tolist())]


# ----------------------------------------------------------------------
# likelihood identities
# ----------------------------------------------------------------------
# These evaluate the model likelihood at a fixed parameter point, in the raw
# subgroup coordinates and in the decomposed (contrast, mean) coordinates.
# The decomposition has unit Jacobian, so when the weighting prevalence used
# on both sides agrees with the covariance structure, the joint equals the
# sum of the two blocks; any gap is exactly the covariance-induced cross
# term, which vanishes at the information fraction.

def joint_loglikelihood(data: MetaDataset, alpha: float, delta: float,
                        gamma: float, het: CovarianceStructure,
                        pi=None) -> float:
    """Log likelihood of all (y_A, y_B) pairs under the explicit-slope model."""
    ya, yb, va, vb, p = subgroup_arrays(data, pi)
    mean_a = alpha + delta * p
    resid = np.stack([ya - mean_a, yb - mean_a - gamma], axis=1)
    v = cams_covariance(va, vb, p, het.tau, het.tau_gamma)
    vinv, logdet = _batched_inv_logdet(v)
    quad = np.einsum("jb,jbc,jc->j", resid, vinv, resid)
    return float(-0.5 * (2.0 * _LOG_2PI * p.size + logdet.sum() + quad.sum()))


def _block_z(data: MetaDataset, alpha: float, delta: float, gamma: float,
             het: CovarianceStructure, pi):
    """Standardized block residuals, their variances and the study vectors."""
    arrays = subgroup_arrays(data, pi)
    g, m, var_g, var_m = decompose_arrays(*arrays)
    vg = var_g + het.tau_gamma ** 2
    vm = var_m + het.tau ** 2
    zg = (g - gamma) / np.sqrt(vg)
    zm = (m - (alpha + (delta + gamma) * arrays[4])) / np.sqrt(vm)
    return zg, zm, vg, vm, arrays


def factorized_loglikelihood(data: MetaDataset, alpha: float, delta: float,
                             gamma: float, het: CovarianceStructure,
                             pi=None) -> tuple[float, float]:
    """(contrast-block, mean-block) log likelihoods of the decomposed data."""
    zg, zm, vg, vm, _ = _block_z(data, alpha, delta, gamma, het, pi)
    lg = -0.5 * np.sum(_LOG_2PI + np.log(vg) + zg ** 2)
    lm = -0.5 * np.sum(_LOG_2PI + np.log(vm) + zm ** 2)
    return float(lg), float(lm)


def factorization_residual(data: MetaDataset, alpha: float, delta: float,
                           gamma: float, het: CovarianceStructure,
                           pi=None) -> float:
    """Joint log likelihood minus the two-block sum; 0 at the IF."""
    lg, lm = factorized_loglikelihood(data, alpha, delta, gamma, het, pi)
    return joint_loglikelihood(data, alpha, delta, gamma, het, pi) - lg - lm


def cross_term_correction(data: MetaDataset, alpha: float, delta: float,
                          gamma: float, het: CovarianceStructure,
                          pi=None) -> float:
    """Analytic value of the factorization residual for arbitrary prevalence.

    Per study, with c = Cov(g, m) = pi sigma_B^2 - (1 - pi) sigma_A^2 and
    correlation rho = c / sqrt(Var g * Var m), the residual of a bivariate
    normal against the product of its marginals is

        -log(1 - rho^2)/2 - [ (z_g^2 - 2 rho z_g z_m + z_m^2)/(1 - rho^2)
                              - z_g^2 - z_m^2 ] / 2.
    """
    zg, zm, vg, vm, (_, _, va, vb, p) = _block_z(data, alpha, delta, gamma,
                                                  het, pi)
    c = np.array([cov_gm(pj, vaj, vbj) for pj, vaj, vbj in zip(p, va, vb)])
    rho = c / np.sqrt(vg * vm)
    one = 1.0 - rho ** 2
    corr = (-0.5 * np.log(one)
            - 0.5 * ((zg ** 2 - 2.0 * rho * zg * zm + zm ** 2) / one
                     - zg ** 2 - zm ** 2))
    return float(corr.sum())
