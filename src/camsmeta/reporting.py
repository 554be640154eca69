"""Reportable effects under explicit prevalence policies.

The contribution-adjusted model separates what the trials identify (the
interaction, the ecological slope) from what the analyst must choose: the
subgroup prevalence at which absolute effects are read off. This module
implements the reading-off: point policies (overall-IF, optimal-IF,
closeness, averages, external values), full distributions (marginalized
reports over a Beta mixture), and the Bayes-risk view that justifies
mean/median reporting prevalences.

Whatever the policy, the interaction summary is computed from the fit's
gamma functional alone, so it is bit-identical across policies. Posterior
moments are pooled from the merged lattice (``_line_moments``).
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, ExtrapolationWarning
from .gaussmix import _normal_cdf
from .inference import (FitResult, ParameterSummary, _functional_moments,
                        _mixture_weights)
from .model_core import (MetaDataset, _check_unit_interval, decompose_arrays,
                         subgroup_arrays)

STRATEGY_KINDS = ("average", "trial_weighted", "overall_if", "optimal_if",
                  "closeness_a", "closeness_b", "external")

_ROOT_TOL = 1e-12

# joint Monte Carlo draws of a Beta-marginalized report
BETA_DRAWS = 20000

# the reporting prevalences at which bayes_risk reads the risk
RISK_GRID = np.linspace(0.0, 1.0, 101)

# optimal_if: scan points, exact widths read on each side of the sd sum's
# argmin, and the range of the sd sum, relative to its largest value, below
# which the width is flat in the prevalence
_OPT_POINTS = 41
_WALK_REACH = 2
_FLAT_SD = 1e-8

# closeness: scan points, and the scan points read on each side of the
# prevalence where the line's posterior mean meets the target
_CLOSE_POINTS = 101
_CLOSE_REACH = 4


@dataclass(frozen=True)
class PrevalenceSpec:
    """A prevalence policy: a point value, a named strategy, or a Beta
    (mixture) distribution to marginalize over.

    ``components`` holds (weight, a, b) triples; weights are normalized.
    ``seed`` seeds a beta law's BETA_DRAWS draws; the other kinds ignore it.
    """

    kind: str
    value: float | None = None
    components: tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind in ("point", "external"):
            if self.value is None:
                raise ContractError(f"{self.kind} prevalence needs a value")
            _check_unit_interval(float(self.value), "prevalence")
        elif self.kind == "beta":
            comps = tuple((float(w), float(a), float(b))
                          for w, a, b in self.components)
            if not comps:
                raise ContractError("beta prevalence needs components")
            for comp in comps:
                for name, v in zip(("weight", "a", "b"), comp):
                    if not 0.0 < v < math.inf:
                        raise DomainError(
                            f"beta {name} must be positive and finite, got {v}")
            total = sum(w for w, _, _ in comps)
            object.__setattr__(self, "components",
                               tuple((w / total, a, b) for w, a, b in comps))
        elif self.kind not in STRATEGY_KINDS:
            raise ContractError(f"unknown prevalence kind {self.kind!r}")

    @classmethod
    def point(cls, value: float) -> "PrevalenceSpec":
        return cls("point", value=value)

    @classmethod
    def beta(cls, a: float, b: float, seed: int = 0) -> "PrevalenceSpec":
        return cls("beta", components=((1.0, a, b),), seed=seed)

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
    """Argmin of the combined subgroup interval width and the width there.
    ``flat_range`` is (0, 1) when the width does not depend on the
    prevalence; ``pi_opt`` is then 0.5. The width curve itself is
    ``plotdata``'s to read (width_curve.csv)."""

    pi_opt: float
    width: float
    flat_range: tuple | None = None


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
    return _effects_batch(fit, [pi])[0][0]


def _effects_batch(fit: FitResult, pis) -> tuple[list, ParameterSummary]:
    """``effects_at`` each prevalence in ``pis``, and the interaction (gamma)
    summary they share: every summary is read in one ``functional_summaries``
    batch, gamma as its last row."""
    _require_cams(fit)
    pis = [float(p) for p in pis]
    for pi in pis:
        _check_unit_interval(pi, "prevalence")
    gamma = fit.functionals["gamma"]
    mu_a = line_rows(fit, pis)
    overall = mu_a + np.multiply.outer(pis, gamma)
    *rows, interaction = fit.functional_summaries(np.concatenate([np.stack(
        [mu_a, line_rows(fit, pis, 1.0), overall], axis=1).reshape(
            -1, gamma.size), gamma[None, :]]))
    return [ReportedEffects(*rows[3 * k:3 * k + 3], interaction,
                            {"kind": "point", "value": pi})
            for k, pi in enumerate(pis)], interaction


def line_rows(fit: FitResult, pis, g=0.0) -> np.ndarray:
    """Coefficient rows over ``fit.grid.param_names`` of the line alpha +
    delta pi + g gamma, one per prevalence pi in ``pis``: subgroup A's line
    at g = 0, subgroup B's at g = 1. A sequence of offsets ``g`` gives the
    line of each in turn, as one (len(g) * len(pis), p) array."""
    f = fit.functionals
    rows = (f["alpha"] + np.multiply.outer(np.asarray(pis, dtype=float),
                                           f["delta"])
            + np.multiply.outer(g, f["gamma"])[..., None, :])
    return rows.reshape(-1, rows.shape[-1])


def overall_if(fit: FitResult, data: MetaDataset) -> float:
    """Precision-weighted mean of the study information fractions.

    Weights are 1 / (tau^2 + (1 - pi_j)^2 sigma_A^2 + pi_j^2 sigma_B^2), the
    inverse marginal variances of the weighted trial means; tau^2 uncertainty
    is propagated by averaging over the tau grid posterior.
    """
    _require_cams(fit)
    ya, yb, va, vb, pi = subgroup_arrays(data)
    _, _, _, var_m, _ = decompose_arrays(ya, yb, va, vb, pi)
    taus, wt = fit.grid.scale_axis("tau")
    w = 1.0 / ((taus ** 2)[:, None] + var_m[None, :])
    pstar = (w @ pi) / w.sum(axis=1)
    return float(wt @ pstar)


def _vertex(x: np.ndarray, f: np.ndarray) -> float:
    """Vertex of the parabola through three equally spaced points (x, f), or
    the smallest of them when the parabola does not bend upward."""
    bend = f[0] - 2.0 * f[1] + f[2]
    if not bend > 0.0:
        return float(x[np.argmin(f)])
    return float(x[1] + 0.5 * (x[1] - x[0]) * (f[0] - f[2]) / bend)


def _scan_min(values, points: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Minimize ``values`` (vectorized over prevalences) on [0, 1].

    Scans ``points`` evenly spaced prevalences and refines the best one by
    ``_refine``. Returns (argmin, scan, curve); the argmin is 0.5 for a
    curve whose range is within 1e-10 of its largest magnitude (an all-zero
    curve included), where every prevalence is equally good.
    """
    scan = np.linspace(0.0, 1.0, points)
    curve = values(scan)
    if np.ptp(curve) <= 1e-10 * np.abs(curve).max():
        return 0.5, scan, curve
    return _refine(values, scan, curve, int(np.argmin(curve))), scan, curve


def _refine(values, scan: np.ndarray, curve: np.ndarray, best: int) -> float:
    """Two parabolic steps between the neighbours of the scan point
    ``best``: the vertex through it and its neighbours (at an end, the three
    points next to it), then the vertex through three points an eighth of
    the scan step apart around that. ``curve`` needs the values at those
    three scan points only."""
    points = scan.size
    a, b = float(scan[max(best - 1, 0)]), float(scan[min(best + 1, points - 1)])
    i = min(max(best, 1), points - 2)
    h = 0.125 * (scan[1] - scan[0])
    x = min(max(_vertex(scan[i - 1:i + 2], curve[i - 1:i + 2]), a + h), b - h)
    near = np.clip(x + h * np.array([-1.0, 0.0, 1.0]), a, b)
    return min(max(_vertex(near, values(near)), a), b)


def _line_moments(fit: FitResult, rows: np.ndarray):
    """Posterior mean and sd of the functional in each row of ``rows``
    (coefficients over ``fit.grid.param_names``), in closed form: a row v
    has mean v'm and sd sqrt(v' C v), where m = sum_k w_k mu_k and C =
    sum_k w_k (Sigma_k + (mu_k - m)(mu_k - m)') over the blocks k of
    ``fit.grid.merged`` are, by the law of total variance, the lattice's."""
    merged = fit.grid.merged
    w = _mixture_weights(merged)
    m = w @ merged.cond_mean
    centred = merged.cond_mean - m
    cov = (np.tensordot(w, merged.cond_cov, 1)
           + centred.T @ (w[:, None] * centred))
    return rows @ m, np.sqrt(np.clip(np.einsum("ij,jk,ik->i", rows, cov, rows),
                                     0.0, None))


def _line_sd_sum(fit: FitResult, pis: np.ndarray) -> np.ndarray:
    """sd(mu_A) + sd(mu_B) at each prevalence, in closed form
    (``_line_moments``)."""
    sd = _line_moments(fit, line_rows(fit, pis, (0.0, 1.0)))[1].reshape(2, -1)
    return sd[0] + sd[1]


def _widths(fit: FitResult, pis) -> np.ndarray:
    """The combined width of the two subgroup 95% intervals at each
    prevalence in ``pis``, from one quantile batch."""
    qs = fit.functional_quantiles(line_rows(fit, pis, (0.0, 1.0)),
                                  (0.025, 0.975))
    span = (qs[:, 1] - qs[:, 0]).reshape(2, len(pis))
    return span[0] + span[1]


def optimal_if(fit: FitResult) -> OptimalIF:
    """Prevalence in [0, 1] minimizing the combined width of the two
    subgroup 95% intervals, and that width.

    The argmin is that of the exact widths at _OPT_POINTS evenly spaced
    prevalences, refined by two parabolic steps (``_refine``). The closed-form
    sd sum of the two lines (``_line_sd_sum``) locates it: the exact widths
    are read at the sd sum's argmin and _WALK_REACH neighbours on each side,
    in one batch. When the smallest of them lies at an inner edge of that
    window, the locator has missed, and the full scan (``_scan_min``)
    decides. An sd sum flat to _FLAT_SD of its largest value means a flat
    width (``flat_range``): a line's sd stays put in pi only if delta is an
    atom uncorrelated with alpha, and then every line is a translate of one
    law. Warns when the minimizer lies outside the observed information
    fractions, since the subgroup lines are extrapolated there.
    """
    pi_opt, flat = _optimal_pi(fit)
    return OptimalIF(pi_opt, float(_widths(fit, [pi_opt])[0]),
                     flat_range=(0.0, 1.0) if flat else None)


def _optimal_pi(fit: FitResult,
                known: np.ndarray | None = None) -> tuple[float, bool]:
    """``optimal_if``'s prevalence, and whether the width is flat, without
    the width there, which ``report`` and ``plotdata`` do not use. ``known``
    (when given) holds the widths at the _OPT_POINTS scan prevalences, as
    ``plotdata``'s width curve does: no scan prevalence is then read
    again."""
    _require_cams(fit)
    scan = np.linspace(0.0, 1.0, _OPT_POINTS)

    def widths(pis) -> np.ndarray:
        pis = np.asarray(pis, dtype=float)
        if known is None:
            return _widths(fit, pis)
        at = np.rint(pis * (_OPT_POINTS - 1)).astype(int)
        out = known[at]
        read = scan[at] != pis
        if read.any():
            out[read] = _widths(fit, pis[read])
        return out

    sd_sum = _line_sd_sum(fit, scan)
    if np.ptp(sd_sum) <= _FLAT_SD * sd_sum.max():
        return 0.5, True
    start = int(np.argmin(sd_sum))
    left = max(start - _WALK_REACH, 0)
    right = min(start + _WALK_REACH, _OPT_POINTS - 1)
    curve = np.full(_OPT_POINTS, np.nan)
    curve[left:right + 1] = widths(scan[left:right + 1])
    best = left + int(np.argmin(curve[left:right + 1]))
    if 0 < best == left or best == right < _OPT_POINTS - 1:
        pi_opt = _scan_min(widths, _OPT_POINTS)[0]
    else:
        pi_opt = _refine(widths, scan, curve, best)
    pifs = fit.provenance.get("info_fractions")
    if pifs and not (min(pifs) <= pi_opt <= max(pifs)):
        warnings.warn(
            f"optimal prevalence {pi_opt:.4f} lies outside the observed "
            f"information fractions [{min(pifs):.4f}, {max(pifs):.4f}]; "
            f"the subgroup lines are extrapolated there",
            ExtrapolationWarning, stacklevel=3)
    return pi_opt, False


def _bracketed_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """A root of f in [a, b] to within _ROOT_TOL, where fa = f(a) and
    fb = f(b) differ in sign.

    Illinois false position keeps the root bracketed; a step that leaves
    the bracket, or one taken after two steps that failed to halve it, is a
    bisection instead, so the bracket halves at least every third step. A
    false position that rounds onto an end puts the root within rounding
    of it, so the float next to that end is tried instead: bisection would
    take some 20 steps to close a bracket that this closes at once.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    side = 0
    older = old = math.inf  # the bracket widths one and two steps back
    while b - a > _ROOT_TOL:
        c = b - fb * (b - a) / (fb - fa)
        if c in (a, b):
            c = math.nextafter(c, a + b - c)
        if not (a < c < b) or b - a > 0.5 * older:
            c = 0.5 * (a + b)
        older, old = old, b - a
        fc = f(c)
        if fc == 0.0:
            return c
        if (fc < 0.0) == (fa < 0.0):
            a, fa = c, fc
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = c, fc
            if side == 1:
                fa *= 0.5
            side = 1
    return 0.5 * (a + b)


def _closeness(fit: FitResult, reference: FitResult, subgroup: str) -> float:
    """Prevalence at which the subgroup line's posterior median meets the
    reference median: a root of G(pi) = F_pi(target) - 1/2, F_pi the CDF of
    the line at pi, on a scan of _CLOSE_POINTS prevalences, refined to
    _ROOT_TOL by ``_bracketed_root``.

    The line's posterior mean is linear in pi and closed-form
    (``_line_moments``); the scan point nearest where it meets the target
    locates the search, and G is read there and at _CLOSE_REACH scan points
    on each side, in one batch. When that window holds a crossing, the
    crossing nearest the locator wins: among the window's sign changes, the
    one with the smallest |G| at an end. Otherwise (or when the mean does not
    move with pi) the full scan decides by the same rule, and when G never
    changes sign there, the prevalence nearest in median, from the same scan
    refined by two parabolic steps (see _scan_min)."""
    if reference is None or reference.estimator != "BMS":
        raise ContractError("closeness strategies need a reference BMS fit")
    target = reference.summaries["mu_a" if subgroup == "a" else "mu_b"].median
    gamma = 1.0 if subgroup == "b" else 0.0

    def excess(pis) -> np.ndarray:
        return fit.functional_cdf(line_rows(fit, pis, gamma), target) - 0.5

    def crossing(pis: np.ndarray) -> float | None:
        g = excess(pis)
        sign = np.sign(g)
        cross = np.flatnonzero(sign[:-1] * sign[1:] <= 0.0)
        if not (cross.size and g.max() > g.min()):
            return None
        i = cross[np.argmin(np.minimum(np.abs(g[cross]),
                                       np.abs(g[cross + 1])))]
        return _bracketed_root(lambda p: excess([p])[0], float(pis[i]),
                               float(pis[i + 1]), g[i], g[i + 1])

    scan = np.linspace(0.0, 1.0, _CLOSE_POINTS)
    at0, at1 = _line_moments(
        fit, line_rows(fit, [0.0, 1.0], gamma))[0].tolist()
    slope = at1 - at0
    # Python floats: a zero, nan or overflowing slope warns nowhere
    start = (target - at0) / slope * (_CLOSE_POINTS - 1) if slope else math.nan
    if math.isfinite(start):
        i = min(max(round(start), 0), _CLOSE_POINTS - 1)
        root = crossing(scan[max(i - _CLOSE_REACH, 0):i + _CLOSE_REACH + 1])
        if root is not None:
            return root
    root = crossing(scan)
    if root is not None:
        return root

    def distances(pis) -> np.ndarray:
        return np.abs(fit.functional_quantiles(
            line_rows(fit, pis, gamma), (0.5,))[:, 0] - target)

    return _scan_min(distances, _CLOSE_POINTS)[0]


def strategy_prevalence(data: MetaDataset, fit: FitResult, kind: str,
                        reference: FitResult | None = None,
                        value: float | None = None) -> float:
    """Resolve a named prevalence strategy to a number.

    average          plain mean of the study information fractions
    trial_weighted   mean weighted by 1 / (1/n_A + 1/n_B); needs positive
                     counts
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
            if s.obs_a.count == 0 or s.obs_b.count == 0:
                raise ContractError(
                    f"study {s.study_id} has a zero count; trial_weighted "
                    f"prevalence needs positive n_a and n_b")
            weights.append(1.0 / (1.0 / s.obs_a.count + 1.0 / s.obs_b.count))
        w = np.array(weights)
        return float(w @ data.info_fractions / w.sum())
    if kind == "overall_if":
        return overall_if(fit, data)
    if kind == "optimal_if":
        return _optimal_pi(fit)[0]
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
    """Resolve a prevalence policy and report effects under it: a beta law
    as ``marginalize_prevalence`` describes, a point or external value or a
    named strategy by ``effects_at`` the prevalence it resolves to."""
    return report_policies(data, fit, [spec], reference)[0]


def report_policies(data: MetaDataset, fit: FitResult, specs,
                    reference: FitResult | None = None) -> list:
    """``report_effects`` of each policy in ``specs``. Every point-valued
    policy is resolved first, in order, and all their summaries and the
    interaction summary that every policy shares are then read in one
    batch."""
    _require_cams(fit)
    points = {}
    for i, spec in enumerate(specs):
        if spec.kind in ("point", "external"):
            points[i] = float(spec.value)
        elif spec.kind != "beta":
            points[i] = strategy_prevalence(data, fit, spec.kind, reference)
    effects, interaction = _effects_batch(fit, points.values())
    read = dict(zip(points, effects))
    return [dataclasses.replace(read[i], prevalence_used={
                "kind": spec.kind, "value": points[i]})
            if i in read else _beta_effects(fit, spec, interaction)
            for i, spec in enumerate(specs)]


# ----------------------------------------------------------------------
# distributional prevalences
# ----------------------------------------------------------------------

def _mc_summary(x: np.ndarray) -> ParameterSummary:
    """Median, 95% interval and share of positive draws of a Monte Carlo
    sample. The order statistics are np.quantile's default ("linear")
    rule, its interpolation written out: the virtual index (n - 1) q
    between the order statistics a and b at its floor and ceiling, with
    fraction t, gives a + (b - a) t, or b - (b - a) (1 - t) for t >= 1/2.
    They are read off one np.partition, so that no report imports
    numpy.ma, whose import np.quantile's first call pays."""
    at = (x.size - 1) * np.array([0.5, 0.025, 0.975])
    lo = np.floor(at).astype(int)
    hi = np.minimum(lo + 1, x.size - 1)
    t = at - lo
    part = np.partition(x, sorted({*lo.tolist(), *hi.tolist()}))
    a, b = part[lo], part[hi]
    diff = b - a
    med, low, high = np.where(t >= 0.5, b - diff * (1.0 - t),
                              a + diff * t).tolist()
    return ParameterSummary(med, low, high, float(np.mean(x > 0.0)))


def marginalize_prevalence(fit: FitResult,
                           spec: PrevalenceSpec) -> ReportedEffects:
    """Report effects averaged over a prevalence distribution.

    A point or external law is exact: ``effects_at`` its value. A beta law
    is joint Monte Carlo over (alpha, delta, gamma) from the posterior
    mixture and pi from ``spec``, BETA_DRAWS draws from one generator
    seeded with ``spec.seed``; mu_B is mu_A + gamma draw for draw, and the
    interaction summary is the exact grid functional. Both are read by
    ``report_policies``.
    """
    if spec.kind not in ("point", "external", "beta"):
        raise ContractError(f"cannot draw prevalences from kind {spec.kind!r}")
    return report_policies(None, fit, [spec])[0]


def _beta_effects(fit: FitResult, spec: PrevalenceSpec,
                  interaction: ParameterSummary) -> ReportedEffects:
    """Effects averaged over the beta law ``spec``, with the interaction
    summary already read. Only the lattice nodes that the draws hit have
    their covariance factored: LAPACK factors each matrix on its own, so the
    draws do not depend on which other nodes are factored."""
    rng = np.random.default_rng(spec.seed)
    grid = fit.grid
    p = len(grid.param_names)
    w = grid.weight.reshape(-1)
    idx = rng.choice(w.size, size=BETA_DRAWS, p=w)
    hit, node = np.unique(idx, return_inverse=True)
    vals, vecs = np.linalg.eigh(grid.cond_cov.reshape(-1, p, p)[hit])
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) \
        @ vecs.swapaxes(-1, -2)
    z = rng.standard_normal((BETA_DRAWS, p))
    theta = grid.cond_mean.reshape(-1, p)[idx] + np.einsum(
        "npq,nq->np", root[node], z)
    wts, aa, bb = np.array(spec.components).T
    if wts.size == 1:
        pis = rng.beta(aa[0], bb[0], size=BETA_DRAWS)
    else:
        ci = rng.choice(wts.size, size=BETA_DRAWS, p=wts)
        pis = rng.beta(aa[ci], bb[ci])
    alpha = theta @ fit.functionals["alpha"]
    delta = theta @ fit.functionals["delta"]
    gamma = theta @ fit.functionals["gamma"]
    mu_a = alpha + delta * pis
    mu_b = mu_a + gamma
    overall = alpha + (delta + gamma) * pis
    used = {"kind": "beta", "components": [list(c) for c in spec.components],
            "mean": spec.mean(), "draws": BETA_DRAWS, "seed": spec.seed}
    return ReportedEffects(_mc_summary(mu_a), _mc_summary(mu_b),
                           _mc_summary(overall), interaction, used)


def beta_moments(a: float, b: float) -> tuple[float, float]:
    """Closed-form (mean, sd) of a Beta(a, b) distribution."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise DomainError(f"beta parameters must be positive and finite, "
                          f"got ({a}, {b})")
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1.0))
    return mean, math.sqrt(var)


# ----------------------------------------------------------------------
# reporting-prevalence risk
# ----------------------------------------------------------------------

def _prevalence_risk(spec: PrevalenceSpec, loss: str):
    """pi0 -> E[(pi0 - pi)^2] or E|pi0 - pi| for pi following ``spec``,
    vectorized over an array of reporting prevalences pi0. A Beta(a, b)
    component of mean mu adds (pi0 - mu)^2 plus its variance, or, since
    E[pi; pi <= pi0] = mu I_pi0(a + 1, b), pi0 (2 I_pi0(a, b) - 1) +
    mu (1 - 2 I_pi0(a + 1, b))."""
    if spec.kind in ("point", "external"):
        power = 2 if loss == "squared" else 1
        return lambda pis: np.abs(pis - float(spec.value)) ** power
    if spec.kind != "beta":
        raise ContractError(f"no risk for prevalence kind {spec.kind!r}")
    comps = [(w, a, b) + beta_moments(a, b) for w, a, b in spec.components]
    if loss == "squared":
        return lambda pis: sum(w * ((pis - mu) ** 2 + sd * sd)
                               for w, _, _, mu, sd in comps)
    return lambda pis: np.array([sum(
        w * (p * (2.0 * _beta_cdf(p, a, b) - 1.0)
             + mu * (1.0 - 2.0 * _beta_cdf(p, a + 1.0, b)))
        for w, a, b, mu, _ in comps) for p in pis.tolist()])


def bayes_risk(fit: FitResult, spec: PrevalenceSpec,
               loss: str = "squared") -> tuple[np.ndarray, float]:
    """Risk of reporting subgroup effects at a fixed prevalence pi0 when the
    next trial's prevalence pi follows ``spec``, independent of the effects.

    The subgroup-A gap delta (pi0 - pi) gives the squared risk E[delta^2]
    E[(pi0 - pi)^2] and the absolute risk E|delta| E|pi0 - pi|, in closed
    form: E[delta^2] = sd^2 + mean^2 of delta (``_line_moments``), E|delta|
    = sum w [s sqrt(2/pi) exp(-m^2 / 2 s^2) + m (1 - 2 Phi(-m/s))] over the
    lattice components N(m, s^2) of delta (|m| for an atom), and
    ``_prevalence_risk``. Returns the risk on RISK_GRID and the argmin of
    the prevalence factor by ``_scan_min`` on that grid.
    """
    _require_cams(fit)
    if loss not in ("squared", "absolute"):
        raise ContractError(f"unknown loss {loss!r}")
    factor = _prevalence_risk(spec, loss)
    delta = fit.functionals["delta"][None, :]
    if loss == "squared":
        mean, sd = _line_moments(fit, delta)
        scale = float(sd @ sd + mean @ mean)
    else:
        (m,), (s,) = _functional_moments(fit.grid, delta)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(s > 0.0, -m / s, -np.copysign(np.inf, m))
        lower, dens = _normal_cdf(z)
        scale = float(fit.grid.weight.ravel() @ (
            s * math.sqrt(2.0 / math.pi) * dens + m * (1.0 - 2.0 * lower)))
    argmin, _, curve = _scan_min(factor, RISK_GRID.size)
    return scale * curve, argmin


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    The continued fraction of Numerical Recipes (3rd ed., section 6.4),
    evaluated by the modified Lentz method, converges quickly for x below the
    mean-like point (a + 1) / (a + b + 2); the symmetry I_x(a, b) =
    1 - I_{1-x}(b, a) covers the rest."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    frac = d
    for m in range(1, 10_001):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coef in (even, odd):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coef / c
            c = c if abs(c) > tiny else tiny
            frac *= d * c
        if abs(d * c - 1.0) <= 1e-15:
            log_front = (a * math.log(x) + b * math.log1p(-x) - math.log(a)
                         + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
            return math.exp(log_front) * frac
    raise DomainError(f"incomplete beta fraction did not converge at "
                      f"x={x}, a={a}, b={b}")
