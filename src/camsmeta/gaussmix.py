"""Finite Gaussian mixtures in one dimension, plus discrete-grid quantiles.

The grid posterior of every fit is a weighted mixture of normal conditionals,
so posterior summaries reduce to CDF evaluation and inversion of mixtures.
Components with zero standard deviation are allowed and treated as atoms,
which keeps degenerate fits (fixed heterogeneity, point-mass conditionals)
inside the same code path.

One engine, ``mixture_quantiles``, inverts many mixtures at many levels in a
single call. The q-quantile of a mixture lies in the exact bracket
[min_i(mu_i + sd_i z_q), max_i(mu_i + sd_i z_q)], z_q the standard normal
quantile, because every component CDF is below q left of it and above q right
of it. The first guess is the moment-matched normal quantile clipped into
that bracket. Newton steps on the mixture pdf follow; a step that leaves the
bracket or fails to halve the previous one is replaced by bisection, and
mixtures that contain an atom bisect only. A quantile is done when a Newton
step is below QUANTILE_TOL / 4 or the bracket is narrower than QUANTILE_TOL.

CDF and pdf sums run in blocks of at most BLOCK_CELLS point-by-component
cells, so the temporaries stay a few MB whatever the mixture and point count.
Each row's sum is reduced on its own, so a mixture's result does not depend
on the other rows of its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ContractError, DomainError

# Absolute tolerance of every mixture quantile.
QUANTILE_TOL = 1e-8

# Points x components evaluated at once by the CDF and pdf sums.
BLOCK_CELLS = 2 ** 16

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianMixture1D:
    """Mixture sum_i w_i Normal(mean_i, sd_i^2) with w >= 0 summing to 1."""

    weights: np.ndarray
    means: np.ndarray
    sds: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).ravel()
        mu = np.asarray(self.means, dtype=float).ravel()
        sd = np.asarray(self.sds, dtype=float).ravel()
        if not (w.shape == mu.shape == sd.shape) or w.size == 0:
            raise ContractError(
                f"weights, means, sds must be equal-length nonempty vectors, "
                f"got {w.shape}, {mu.shape}, {sd.shape}")
        if np.any(w < 0) or np.any(sd < 0):
            raise DomainError("weights and sds must be nonnegative")
        total = w.sum()
        if not np.isfinite(total) or abs(total - 1.0) > 1e-8:
            raise ContractError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", w / total)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "sds", sd)

    # ------------------------------------------------------------------
    # distribution functions
    # ------------------------------------------------------------------

    def cdf(self, x):
        """P(X <= x), vectorized over x."""
        xa = np.asarray(x, dtype=float)
        flat = xa.ravel()
        out = np.empty(flat.size)
        mu, inv_sd = self.means[None, :], _inverse(self.sds)[None, :]
        for blk in _blocks(flat.size, self.weights.size):
            out[blk] = _cdf_pdf(flat[blk], mu, inv_sd, self.weights, False)[0]
        return out.reshape(xa.shape) if xa.shape else float(out[0])

    def tail_prob(self, threshold: float) -> float:
        """P(X > threshold), computed from the upper tail for accuracy."""
        smooth = self.sds > 0
        p = 0.0
        if smooth.any():
            z = (self.means[smooth] - threshold) / self.sds[smooth]
            p += float(self.weights[smooth] @ ndtr(z))
        if (~smooth).any():
            p += float(self.weights[~smooth] @ (self.means[~smooth] > threshold))
        return min(max(p, 0.0), 1.0)

    def mean(self) -> float:
        return float(self.weights @ self.means)

    def var(self) -> float:
        second = self.weights @ (self.sds ** 2 + self.means ** 2)
        return float(second - self.mean() ** 2)

    # ------------------------------------------------------------------
    # quantiles
    # ------------------------------------------------------------------

    def quantiles(self, levels) -> np.ndarray:
        """Inverse CDF at each level, to absolute tolerance QUANTILE_TOL."""
        return mixture_quantiles(self.weights, self.means[None, :],
                                 self.sds[None, :], levels)[0]

    def quantile(self, q: float) -> float:
        return float(self.quantiles((q,))[0])

    def median(self) -> float:
        return self.quantile(0.5)

    def interval(self, level: float = 0.95) -> tuple[float, float]:
        """Equal-tailed credible interval."""
        if not (0.0 < level < 1.0):
            raise DomainError(f"interval level must lie in (0, 1), got {level}")
        half = 0.5 * (1.0 - level)
        lo, hi = self.quantiles((half, 1.0 - half))
        return float(lo), float(hi)


# ----------------------------------------------------------------------
# batched quantile engine
# ----------------------------------------------------------------------

def _blocks(rows: int, width: int):
    """Row slices of at most BLOCK_CELLS // width rows."""
    step = max(1, BLOCK_CELLS // max(width, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _cdf_pdf(x, mu, inv_sd, w, want_pdf: bool):
    """Mixture CDF (and pdf) at x[k] for component rows mu[k], 1/sd[k].

    ``mu`` and ``inv_sd`` are (k, n) or a broadcast (1, n) row; ``w`` is a
    shared (n,) weight vector or per-row (k, n) weights. Atoms (1/sd = inf)
    count as steps, so the pdf of a row holding one is not finite. Each row
    is summed on its own (pairwise), so its value does not depend on the
    other rows.
    """
    z = np.subtract(x[:, None], mu)
    with np.errstate(invalid="ignore"):
        z *= inv_sd
    # an atom exactly at x gives 0 * inf; its CDF there is 1
    z[np.isnan(z)] = np.inf
    # without the pdf, z is not needed again and can take the CDF terms
    cdf = ndtr(z, out=None if want_pdf else z)
    cdf *= w
    if not want_pdf:
        return cdf.sum(axis=1), None
    dens = z * z
    dens *= -0.5
    np.exp(dens, out=dens)
    with np.errstate(invalid="ignore"):
        dens *= inv_sd
    dens *= w
    return cdf.sum(axis=1), dens.sum(axis=1) * _INV_SQRT_2PI


def _inverse(sd: np.ndarray) -> np.ndarray:
    """1 / sd, inf for atoms."""
    with np.errstate(divide="ignore"):
        return 1.0 / sd


def mixture_quantiles(weights, means, sds, levels) -> np.ndarray:
    """Quantiles of many Gaussian mixtures at many levels in one call.

    Row r of ``means`` and ``sds`` (both (m, n)) holds the components of
    mixture r; ``weights`` is one (n,) vector shared by all rows or an (m, n)
    array with one weight row per mixture, each summing to 1. Returns the
    (m, L) array whose entry [r, l] is the levels[l]-quantile of mixture r,
    within QUANTILE_TOL (see the module docstring for the method). Each row
    is made nondecreasing in the level, which keeps every entry within the
    tolerance.
    """
    q = np.asarray(levels, dtype=float).ravel()
    if q.size == 0 or not np.all((q > 0.0) & (q < 1.0)):
        raise DomainError(f"quantile levels must lie in (0, 1), got {levels}")
    mu = np.asarray(means, dtype=float)
    sd = np.asarray(sds, dtype=float)
    w = np.asarray(weights, dtype=float)
    if mu.ndim != 2 or sd.shape != mu.shape or mu.size == 0 \
            or w.shape not in (mu.shape, mu.shape[1:]):
        raise ContractError(
            f"means and sds must be equal (m, n) arrays with (n,) or (m, n) "
            f"weights, got {mu.shape}, {sd.shape}, {w.shape}")
    if not (np.isfinite(mu).all() and np.isfinite(sd).all()):
        raise DomainError("component means and sds must be finite")
    if np.any(w < 0) or np.any(sd < 0):
        raise DomainError("weights and sds must be nonnegative")
    if np.any(np.abs(w.sum(axis=-1) - 1.0) > 1e-8):
        raise ContractError("each weight row must sum to 1")
    m, n = mu.shape
    levels_z = ndtri(q)

    # moment-matched starting point and the exact bracket, per (row, level)
    mean = np.empty(m)
    second = np.empty(m)
    lo = np.empty((m, q.size))
    hi = np.empty((m, q.size))
    for blk in _blocks(m, n):
        mu_b, sd_b = mu[blk], sd[blk]
        w_b = w if w.ndim == 1 else w[blk]
        mean[blk] = (mu_b * w_b).sum(axis=1)
        second[blk] = ((sd_b * sd_b + mu_b * mu_b) * w_b).sum(axis=1)
        for j, zq in enumerate(levels_z):
            comp = mu_b + sd_b * zq
            lo[blk, j] = comp.min(axis=1)
            hi[blk, j] = comp.max(axis=1)
    spread = np.sqrt(np.clip(second - mean * mean, 0.0, None))
    lo, hi = lo.ravel(), hi.ravel()
    row = np.repeat(np.arange(m), q.size)
    target = np.tile(q, m)
    x = np.clip(mean[row] + spread[row] * np.tile(levels_z, m), lo, hi)
    newton_row = ~(sd == 0).any(axis=1)[row]
    last_step = hi - lo
    out = 0.5 * (lo + hi)
    active = np.flatnonzero(hi - lo > QUANTILE_TOL)

    while active.size:
        r = row[active]
        xa = x[active]
        cdf = np.empty(active.size)
        pdf = np.empty(active.size)
        for blk in _blocks(active.size, n):
            rb = r[blk]
            cdf[blk], pdf[blk] = _cdf_pdf(
                xa[blk], mu[rb], _inverse(sd[rb]),
                w if w.ndim == 1 else w[rb], True)
        below = cdf < target[active]
        a = np.where(below, xa, lo[active])
        b = np.where(below, hi[active], xa)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = (cdf - target[active]) / pdf
        cand = xa - step
        newton = (newton_row[active] & (cand >= a) & (cand <= b)
                  & (np.abs(step) <= 0.5 * last_step[active]))
        mid = 0.5 * (a + b)
        nxt = np.where(newton, cand, mid)
        # a bracket at the spacing of floats cannot shrink any further
        closed = (b - a <= QUANTILE_TOL) | (mid <= a) | (mid >= b)
        done = closed | (newton & (np.abs(step) <= 0.25 * QUANTILE_TOL))
        out[active] = nxt
        lo[active], hi[active], x[active] = a, b, nxt
        last_step[active] = np.where(newton, np.abs(step), 0.5 * (b - a))
        active = active[~done]

    out = out.reshape(m, q.size)
    order = np.argsort(q, kind="stable")
    out[:, order] = np.maximum.accumulate(out[:, order], axis=1)
    return out


# ----------------------------------------------------------------------
# quantiles of a discrete grid marginal
# ----------------------------------------------------------------------
# Scale parameters live on a fixed grid; their marginal posterior is a set of
# node weights. The first node's weight stays an atom (the grid starts at 0
# and genuine boundary mass belongs there); between later nodes the CDF is
# interpolated linearly.

def grid_quantile(nodes: np.ndarray, weights: np.ndarray, q: float) -> float:
    nodes = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    if nodes.shape != w.shape or nodes.ndim != 1:
        raise ContractError("nodes and weights must be equal-length vectors")
    if not (0.0 < q < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {q}")
    cum = np.cumsum(w / w.sum())
    if q <= cum[0] or nodes.size == 1:
        return float(nodes[0])
    idx = int(np.searchsorted(cum, q))
    if idx >= nodes.size:
        return float(nodes[-1])
    c0, c1 = cum[idx - 1], cum[idx]
    if c1 <= c0:
        return float(nodes[idx])
    frac = (q - c0) / (c1 - c0)
    return float(nodes[idx - 1] + frac * (nodes[idx] - nodes[idx - 1]))


def grid_interval(nodes, weights, level: float = 0.95) -> tuple[float, float]:
    half = 0.5 * (1.0 - level)
    return (grid_quantile(nodes, weights, half),
            grid_quantile(nodes, weights, 1.0 - half))


def grid_tail_prob(nodes, weights, threshold: float) -> float:
    """P(X > threshold) = 1 - F(threshold) for the CDF grid_quantile inverts."""
    nodes = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    cum = np.cumsum(w / w.sum())
    if threshold < nodes[0]:
        return 1.0
    if threshold >= nodes[-1]:
        return 0.0
    idx = int(np.searchsorted(nodes, threshold, side="right"))
    c0 = cum[idx - 1]
    span = nodes[idx] - nodes[idx - 1]
    frac = (threshold - nodes[idx - 1]) / span if span > 0 else 1.0
    f = c0 + frac * (cum[idx] - c0)
    return min(max(1.0 - f, 0.0), 1.0)
