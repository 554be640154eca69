"""Reportable effects under explicit prevalence policies.

The contribution-adjusted model separates what the trials identify (the
interaction, the ecological slope) from what the analyst must choose: the
subgroup prevalence at which absolute effects are read off. This module
implements the reading-off: point policies (overall-IF, optimal-IF,
closeness, averages, external values), full distributions (moment-matched
Beta syntheses of external count data, marginalized reports), and the
Bayes-risk view that justifies mean/median reporting prevalences.

Whatever the policy, the interaction summary is computed from the fit's
gamma functional alone, so it is bit-identical across policies.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln, log_expit, logit, logsumexp

from .errors import (ContractError, DomainError, ExtrapolationWarning,
                     ValidationWarning)
from .gaussmix import grid_quantile, mixture_quantiles
from .inference import (FitResult, GridSpec, ParameterSummary,
                        _halfnormal_logpdf, _quad_log_weights)
from .model_core import (MetaDataset, _check_unit_interval, decompose_arrays,
                         subgroup_arrays)

STRATEGY_KINDS = ("average", "trial_weighted", "overall_if", "optimal_if",
                  "closeness_a", "closeness_b", "external")

_SEARCH_TOL = 1e-4
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PrevalenceSpec:
    """A prevalence policy: a point value, a named strategy, or a Beta
    (mixture) distribution to marginalize over.

    ``components`` holds (weight, a, b) triples; weights are normalized.
    """

    kind: str
    value: float | None = None
    components: tuple = ()
    draws: int = 20000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.draws < 1000:
            raise ContractError("distributional reporting needs >= 1000 draws")
        if self.kind in ("point", "external"):
            if self.value is None:
                raise ContractError(f"{self.kind} prevalence needs a value")
            _check_unit_interval(float(self.value), "prevalence")
        elif self.kind == "beta":
            comps = tuple((float(w), float(a), float(b))
                          for w, a, b in self.components)
            if not comps:
                raise ContractError("beta prevalence needs components")
            for w, a, b in comps:
                if w <= 0 or a <= 0 or b <= 0:
                    raise DomainError("beta weights and parameters must be positive")
            total = sum(w for w, _, _ in comps)
            object.__setattr__(self, "components",
                               tuple((w / total, a, b) for w, a, b in comps))
        elif self.kind not in STRATEGY_KINDS:
            raise ContractError(f"unknown prevalence kind {self.kind!r}")

    @classmethod
    def point(cls, value: float) -> "PrevalenceSpec":
        return cls("point", value=value)

    @classmethod
    def beta(cls, a: float, b: float, draws: int = 20000,
             seed: int = 0) -> "PrevalenceSpec":
        return cls("beta", components=((1.0, a, b),), draws=draws, seed=seed)

    def mean(self) -> float:
        if self.kind in ("point", "external"):
            return float(self.value)
        if self.kind == "beta":
            return float(sum(w * a / (a + b) for w, a, b in self.components))
        raise ContractError(f"{self.kind} resolves against data, not in isolation")


@dataclass(frozen=True)
class ReportedEffects:
    """Subgroup, overall, and interaction summaries at one prevalence policy.

    All summaries live on the modelling (log) scale; ``ratio_scale`` maps the
    location summaries through exp, which commutes with the quantiles.
    """

    mu_a: ParameterSummary
    mu_b: ParameterSummary
    overall: ParameterSummary
    interaction: ParameterSummary
    prevalence_used: dict

    def ratio_scale(self) -> dict:
        out = {}
        for name in ("mu_a", "mu_b", "overall", "interaction"):
            s = getattr(self, name)
            values = []
            for field_name in ("median", "lower", "upper"):
                value = getattr(s, field_name)
                try:
                    values.append(math.exp(value))
                except OverflowError:
                    raise DomainError(
                        f"{name}.{field_name} = {value!r} overflows on the "
                        f"ratio scale (exp); are the estimates on the log "
                        f"scale?") from None
            out[name] = tuple(values)
        return out


@dataclass(frozen=True)
class OptimalIF:
    """Argmin of the combined subgroup interval width, with the scanned
    curve. ``flat_range`` is set instead when the width does not depend on
    the prevalence at all."""

    pi_opt: float
    width: float
    curve_pi: np.ndarray
    curve_width: np.ndarray
    flat_range: tuple | None = None


@dataclass(frozen=True)
class MapPrevalence:
    """Moment-matched Beta summary of a predictive prevalence synthesis."""

    a: float
    b: float
    predictive_mean: float
    predictive_sd: float
    pooled_interval: tuple
    predictive_interval: tuple
    n_used: int


def _require_cams(fit: FitResult) -> None:
    if fit.estimator != "CAMS":
        raise ContractError(
            f"prevalence reporting needs a CAMS fit, got {fit.estimator}")


def effects_at(fit: FitResult, pi: float) -> ReportedEffects:
    """Posterior subgroup-A, subgroup-B, and overall effects at prevalence pi.

    mu_A = alpha + delta pi, mu_B = mu_A + gamma, overall = alpha +
    (delta + gamma) pi. The interaction entry is the fit's own gamma summary
    and does not depend on pi.
    """
    _require_cams(fit)
    pi = float(pi)
    _check_unit_interval(pi, "prevalence")
    mu_a, mu_b, overall = fit.functional_summaries(
        [{"alpha": 1.0, "delta": pi},
         {"alpha": 1.0, "delta": pi, "gamma": 1.0},
         {"alpha": 1.0, "delta": pi, "gamma": pi}])
    return ReportedEffects(mu_a, mu_b, overall, fit.summaries["gamma"],
                           {"kind": "point", "value": pi})


def overall_if(fit: FitResult, data: MetaDataset) -> float:
    """Precision-weighted mean of the study information fractions.

    Weights are 1 / (tau^2 + (1 - pi_j)^2 sigma_A^2 + pi_j^2 sigma_B^2), the
    inverse marginal variances of the weighted trial means; tau^2 uncertainty
    is propagated by averaging over the tau grid posterior.
    """
    _require_cams(fit)
    ya, yb, va, vb, pi = subgroup_arrays(data)
    _, _, _, var_m = decompose_arrays(ya, yb, va, vb, pi)
    taus, wt = fit.grid.scale_axis("tau")
    w = 1.0 / ((taus ** 2)[:, None] + var_m[None, :])
    pstar = (w @ pi) / w.sum(axis=1)
    return float(wt @ pstar)


def _scan_min(values, lo: float, hi: float,
              points: int) -> tuple[float | None, np.ndarray, np.ndarray]:
    """Minimize ``values`` (vectorized over prevalences) on [lo, hi].

    Scans ``points`` evenly spaced prevalences, then refines by golden
    section to 1e-4 between the neighbours of the best one. Returns (argmin,
    scan, curve); the argmin is None when the curve varies by less than
    1e-10, since a flat objective has no minimizer to refine.
    """
    scan = np.linspace(lo, hi, points)
    curve = values(scan)
    if curve.max() - curve.min() < 1e-10:
        return None, scan, curve
    best = int(np.argmin(curve))
    lo, hi = float(scan[max(best - 1, 0)]), float(scan[min(best + 1, points - 1)])
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = values([c])[0], values([d])[0]
    while hi - lo > _SEARCH_TOL:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = values([c])[0]
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = values([d])[0]
    return 0.5 * (lo + hi), scan, curve


def optimal_if(fit: FitResult, search_range=(0.0, 1.0),
               curve_points: int = 41) -> OptimalIF:
    """Prevalence minimizing the combined width of the two subgroup 95%
    intervals, with the width curve over the search range.

    Golden-section refinement to 1e-4 around the best curve point. Warns when
    the minimizer lies outside the observed information fractions, since the
    subgroup lines are extrapolated there.
    """
    _require_cams(fit)
    lo, hi = float(search_range[0]), float(search_range[1])
    if lo >= hi:
        raise ContractError(f"empty search range [{lo}, {hi}]")
    _check_unit_interval(lo, "search range low")
    _check_unit_interval(hi, "search range high")

    def widths(pis) -> np.ndarray:
        specs = [{"alpha": 1.0, "delta": float(p), "gamma": g}
                 for g in (0.0, 1.0) for p in pis]
        qs = fit.functional_quantiles(specs, (0.025, 0.975))
        span = (qs[:, 1] - qs[:, 0]).reshape(2, len(pis))
        return span[0] + span[1]

    pi_opt, curve_pi, curve_width = _scan_min(widths, lo, hi, curve_points)
    if pi_opt is None:
        return OptimalIF(0.5 * (lo + hi), float(curve_width[0]),
                         curve_pi, curve_width, flat_range=(lo, hi))
    pifs = fit.provenance.get("info_fractions")
    if pifs and not (min(pifs) <= pi_opt <= max(pifs)):
        warnings.warn(
            f"optimal prevalence {pi_opt:.4f} lies outside the observed "
            f"information fractions [{min(pifs):.4f}, {max(pifs):.4f}]; "
            f"the subgroup lines are extrapolated there",
            ExtrapolationWarning, stacklevel=2)
    return OptimalIF(pi_opt, float(widths([pi_opt])[0]), curve_pi, curve_width)


def _closeness(fit: FitResult, reference: FitResult, subgroup: str) -> float:
    if reference is None or reference.estimator != "BMS":
        raise ContractError("closeness strategies need a reference BMS fit")
    target = reference.summaries["mu_a" if subgroup == "a" else "mu_b"].median
    gamma = 1.0 if subgroup == "b" else 0.0

    def distances(pis) -> np.ndarray:
        specs = [{"alpha": 1.0, "delta": float(p), "gamma": gamma} for p in pis]
        return np.abs(fit.functional_quantiles(specs, (0.5,))[:, 0] - target)

    pi, _, _ = _scan_min(distances, 0.0, 1.0, 101)
    # a subgroup line flat in the prevalence is equally close everywhere
    return 0.5 if pi is None else pi


def strategy_prevalence(data: MetaDataset, fit: FitResult, kind: str,
                        reference: FitResult | None = None,
                        value: float | None = None) -> float:
    """Resolve a named prevalence strategy to a number.

    average          plain mean of the study information fractions
    trial_weighted   mean weighted by 1 / (1/n_A + 1/n_B); needs counts
    overall_if       see overall_if
    optimal_if       see optimal_if
    closeness_a/_b   prevalence at which the subgroup line's posterior median
                     meets the reference subgroup-model median
    external         pass-through of a supplied value
    """
    if kind == "average":
        return float(data.info_fractions.mean())
    if kind == "trial_weighted":
        weights = []
        for s in data.studies:
            if s.obs_a.count is None or s.obs_b.count is None:
                raise ContractError(
                    f"study {s.study_id} has no counts; trial_weighted "
                    f"prevalence needs n_a and n_b")
            weights.append(1.0 / (1.0 / s.obs_a.count + 1.0 / s.obs_b.count))
        w = np.array(weights)
        return float(w @ data.info_fractions / w.sum())
    if kind == "overall_if":
        return overall_if(fit, data)
    if kind == "optimal_if":
        return optimal_if(fit).pi_opt
    if kind == "closeness_a":
        return _closeness(fit, reference, "a")
    if kind == "closeness_b":
        return _closeness(fit, reference, "b")
    if kind == "external":
        if value is None:
            raise ContractError("external prevalence needs a value")
        value = float(value)
        _check_unit_interval(value, "external prevalence")
        return value
    raise ContractError(f"unknown strategy {kind!r}; have {STRATEGY_KINDS}")


def report_effects(data: MetaDataset, fit: FitResult, spec: PrevalenceSpec,
                   reference: FitResult | None = None) -> ReportedEffects:
    """Resolve a prevalence policy and report effects under it."""
    if spec.kind == "beta":
        return marginalize_prevalence(fit, spec)
    if spec.kind == "point":
        pi = float(spec.value)
    else:
        pi = strategy_prevalence(data, fit, spec.kind, reference, spec.value)
    eff = effects_at(fit, pi)
    return dataclasses.replace(
        eff, prevalence_used={"kind": spec.kind, "value": pi})


# ----------------------------------------------------------------------
# distributional prevalences
# ----------------------------------------------------------------------

def _joint_draws(fit: FitResult, spec: PrevalenceSpec):
    """``spec.draws`` joint draws of the location parameters from the grid
    mixture and as many independent prevalences from ``spec``, both from
    one generator seeded with ``spec.seed``."""
    if spec.kind not in ("point", "external", "beta"):
        raise ContractError(f"cannot draw prevalences from kind {spec.kind!r}")
    rng = np.random.default_rng(spec.seed)
    grid = fit.grid
    p = len(grid.param_names)
    w = grid.weight.reshape(-1)
    mean = grid.cond_mean.reshape(-1, p)
    cov = grid.cond_cov.reshape(-1, p, p)
    vals, vecs = np.linalg.eigh(cov)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) \
        @ vecs.swapaxes(-1, -2)
    idx = rng.choice(w.size, size=spec.draws, p=w)
    z = rng.standard_normal((spec.draws, p))
    theta = mean[idx] + np.einsum("npq,nq->np", root[idx], z)
    if spec.kind != "beta":
        return theta, np.full(spec.draws, float(spec.value))
    wts, aa, bb = np.array(spec.components).T
    if wts.size == 1:
        return theta, rng.beta(aa[0], bb[0], size=spec.draws)
    ci = rng.choice(wts.size, size=spec.draws, p=wts)
    return theta, rng.beta(aa[ci], bb[ci])


def _mc_summary(x: np.ndarray) -> ParameterSummary:
    med, lo, hi = np.quantile(x, [0.5, 0.025, 0.975])
    return ParameterSummary(float(med), float(lo), float(hi),
                            float(np.mean(x > 0.0)))


def marginalize_prevalence(fit: FitResult,
                           spec: PrevalenceSpec) -> ReportedEffects:
    """Report effects averaged over a prevalence distribution.

    Joint Monte Carlo over (alpha, delta, gamma) from the posterior mixture
    and pi from ``spec`` (beta, point or external kind), with ``spec.draws``
    draws from ``spec.seed``. mu_B is mu_A + gamma draw for draw; the
    interaction summary itself is the exact grid functional, not a Monte
    Carlo estimate.
    """
    _require_cams(fit)
    theta, pis = _joint_draws(fit, spec)
    alpha = theta @ fit.functionals["alpha"]
    delta = theta @ fit.functionals["delta"]
    gamma = theta @ fit.functionals["gamma"]
    mu_a = alpha + delta * pis
    mu_b = mu_a + gamma
    overall = alpha + (delta + gamma) * pis
    if spec.kind == "beta":
        used = {"kind": "beta",
                "components": [list(c) for c in spec.components],
                "mean": spec.mean()}
    else:
        used = {"kind": spec.kind, "value": float(spec.value)}
    used.update(draws=spec.draws, seed=spec.seed)
    return ReportedEffects(_mc_summary(mu_a), _mc_summary(mu_b),
                           _mc_summary(overall), fit.summaries["gamma"], used)


def beta_moments(a: float, b: float) -> tuple[float, float]:
    """Closed-form (mean, sd) of a Beta(a, b) distribution."""
    if a <= 0 or b <= 0:
        raise DomainError("beta parameters must be positive")
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1.0))
    return mean, math.sqrt(var)


def fit_map_prevalence(counts, sd_scale: float = 0.5, phi_points: int = 201,
                       psi_points: int = 61, gh_points: int = 21) -> MapPrevalence:
    """Predictive synthesis of subgroup prevalence from external count data.

    Per study, the subgroup count is binomial with a logit-normal random
    effect: logit(p_i) ~ Normal(phi, psi^2), flat prior on phi, half-normal
    (sd_scale) on psi. The posterior runs on a 2-D (phi, psi) grid with
    Gauss-Hermite integration of each study's likelihood; the predictive law
    of a new study's prevalence is then moment-matched to a single Beta.

    ``counts`` is a sequence of (n_subgroup, n_total) pairs; zero-total
    entries are skipped with a warning.
    """
    clean = []
    for i, (x, n) in enumerate(counts):
        x, n = int(x), int(n)
        if n == 0:
            warnings.warn(f"count entry {i} has zero total; skipped",
                          ValidationWarning, stacklevel=2)
            continue
        if x < 0 or x > n:
            raise ContractError(f"count entry {i}: need 0 <= {x} <= {n}")
        clean.append((x, n))
    if not clean:
        raise ContractError("no usable count entries")
    if sd_scale <= 0:
        raise DomainError("sd_scale must be positive")
    xs = np.array([c[0] for c in clean], dtype=float)
    ns = np.array([c[1] for c in clean], dtype=float)

    # phi grid centered on the pooled logit, wide enough for the prior tail
    p0 = (xs.sum() + 0.5) / (ns.sum() + 1.0)
    center = logit(p0)
    se0 = math.sqrt(1.0 / (xs.sum() + 0.5) + 1.0 / (ns.sum() - xs.sum() + 0.5))
    span = 6.0 * math.sqrt(se0 ** 2 + (2.0 * sd_scale) ** 2)
    phi = center + np.linspace(-span, span, phi_points)
    psi = GridSpec.axis(sd_scale, psi_points)

    t, wgh = np.polynomial.hermite.hermgauss(gh_points)
    log_wgh = np.log(wgh) - 0.5 * math.log(math.pi)
    eta = (phi[:, None, None] + psi[None, :, None] * math.sqrt(2.0) * t)
    loglik = np.zeros((phi_points, psi_points))
    for x, n in clean:
        terms = x * log_expit(eta) + (n - x) * log_expit(-eta) + log_wgh
        loglik += logsumexp(terms, axis=-1)
        loglik += gammaln(n + 1) - gammaln(x + 1) - gammaln(n - x + 1)
    h = phi[1] - phi[0]
    lp_phi = np.full(phi_points, math.log(h))
    lp_phi[[0, -1]] = math.log(0.5 * h)
    lp_psi = _halfnormal_logpdf(psi, sd_scale) + _quad_log_weights(psi)
    logw = loglik + lp_phi[:, None] + lp_psi[None, :]
    w = np.exp(logw - logsumexp(logw.reshape(-1)))
    w /= w.sum()

    # predictive moments of expit(phi + psi Z) node-wise, then mixed
    gh_norm = wgh / math.sqrt(math.pi)
    e1 = np.einsum("pqh,h->pq", expit(eta), gh_norm)
    e2 = np.einsum("pqh,h->pq", expit(eta) ** 2, gh_norm)
    mean = float((w * e1).sum())
    second = float((w * e2).sum())
    var = max(second - mean ** 2, 0.0)
    if var <= 0.0 or var >= mean * (1.0 - mean):
        raise ContractError(
            f"predictive moments ({mean}, {var}) admit no Beta match")
    common = mean * (1.0 - mean) / var - 1.0
    a = mean * common
    b = (1.0 - mean) * common

    # pooled population prevalence expit(phi): quantiles commute with expit
    w_phi = w.sum(axis=1)
    pooled = (float(expit(grid_quantile(phi, w_phi, 0.025))),
              float(expit(grid_quantile(phi, w_phi, 0.975))))

    # the predictive law is a normal mixture on the logit scale; its
    # quantiles commute with expit
    predictive = tuple(float(expit(x)) for x in mixture_quantiles(
        w.reshape(-1), np.repeat(phi, psi_points)[None, :],
        np.tile(psi, phi_points)[None, :], (0.025, 0.975))[0])
    return MapPrevalence(float(a), float(b), mean, math.sqrt(var),
                         pooled, predictive, len(clean))


# ----------------------------------------------------------------------
# reporting-prevalence risk
# ----------------------------------------------------------------------

def bayes_risk(fit: FitResult, spec: PrevalenceSpec, loss: str = "squared",
               pi_grid=None) -> tuple[np.ndarray, float]:
    """Risk of reporting subgroup effects at a fixed prevalence when the
    next trial's prevalence follows ``spec``.

    The reported-vs-realized gap for subgroup A is delta (pi - pi_j), so the
    squared risk is E[delta^2 (pi - pi_j)^2] and the absolute risk is
    E[|delta| |pi - pi_j|]. Monte Carlo over the joint posterior and
    ``spec`` (assumed independent of the effect parameters), with
    ``spec.draws`` draws from ``spec.seed``. Returns the
    risk on ``pi_grid`` and the empirical argmin: the delta^2-weighted mean
    of pi_j under squared loss, the |delta|-weighted median under absolute.
    """
    _require_cams(fit)
    if loss not in ("squared", "absolute"):
        raise ContractError(f"unknown loss {loss!r}")
    grid = (np.linspace(0.0, 1.0, 101) if pi_grid is None
            else np.asarray(pi_grid, dtype=float))
    theta, pis = _joint_draws(fit, spec)
    delta = theta @ fit.functionals["delta"]
    if loss == "squared":
        d2 = delta ** 2
        s0 = d2.mean()
        s1 = (d2 * pis).mean()
        s2 = (d2 * pis ** 2).mean()
        curve = s0 * grid ** 2 - 2.0 * s1 * grid + s2
        argmin = float(np.clip(s1 / s0, 0.0, 1.0))
    else:
        ad = np.abs(delta)
        curve = np.array([(ad * np.abs(p - pis)).mean() for p in grid])
        order = np.argsort(pis)
        cum = np.cumsum(ad[order])
        argmin = float(pis[order][np.searchsorted(cum, 0.5 * cum[-1])])
    return curve, argmin
