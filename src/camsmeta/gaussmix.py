"""Finite Gaussian mixtures in one dimension: the CDF and quantile engine.

The grid posterior of every fit is a weighted mixture of normal conditionals,
so every location summary reduces to CDF evaluation and inversion of
mixtures; a heterogeneity SD is read off its axis's node weights, in
``FitResult.summaries``. Components with zero standard deviation are allowed
and treated as atoms, which keeps degenerate fits (fixed heterogeneity,
point-mass conditionals) inside the same code path.

One engine, ``mixture_quantiles``, inverts many mixtures at many levels in a
single call. The q-quantile of a mixture lies in the exact bracket
[min_i(mu_i + sd_i z_q), max_i(mu_i + sd_i z_q)], z_q the standard normal
quantile, because every component CDF is below q left of it and above q right
of it. The first guess is a caller's ``start`` (``FitResult`` passes the
quantiles of its merged lattice) or else the moment-matched normal quantile,
clipped into that bracket either way. Halley steps on the mixture pdf f and
its slope f' follow: with the Newton step s = (F(x) - q) / f(x), the move is
h = s / H, H = 1 - s f' / (2 f), when H exceeds 1/2, else s. A quantile is
done once its error bound is proven or its bracket is closed (narrower than
tol = QUANTILE_TOL * min(w0, 1), w0 the width of its exact bracket, which
scales with the data, or at the spacing of floats), never on a small step
alone, so no start can spoil the accuracy. Each evaluation leaves x at an end
of the bracket, and a move that does not land strictly inside it (one that
leaves it, or one that does not move x: F(x) = q exactly, or a step below the
spacing of floats), a Newton step s that fails to halve the previous one, and
every step of a mixture that contains an atom are replaced by bisection. So
every iteration ends the quantile or strictly shrinks its bracket, even
where w / sd^2 overflows and neither certified exit below can fire.
The bracket comes from the sign of F(x) - q alone, and the halving rule and
the certified exits read the Newton step s:

Certified exit, first order. |f'| <= L = phi(1) sum_k w_k / sd_k^2
everywhere, since |d/dx phi(z_k) / sd_k| = |z_k| phi(z_k) / sd_k^2 and
|z| phi(z) peaks at z = 1. At a point x with Newton step s, suppose
4 L |s| <= f(x). Then f >= f(x) / 2 on [x - 2|s|, x + 2|s|], so F - q changes
sign there and the root x* lies in it. Taylor's theorem about x gives
0 = s f(x) + f(x) (x* - x) + f'(xi) (x* - x)^2 / 2, so
|x - s - x*| <= L (2 s)^2 / (2 f(x)) = 2 L s^2 / f(x). When that is at most
tol / 4, x - s, clipped into the bracket, is returned without
another evaluation. A row with an atom has L = inf and never exits this way.

Certified exit, third order. |f''| <= M = phi(0) sum_k w_k / sd_k^3, since
max |(z^2 - 1) phi(z)| = phi(0). Under 4 L |s| <= f(x) as above, write
d = x* - x (|d| <= 2|s|) and g(e) = s f + f e + f' e^2 / 2, the local
quadratic of F - q. By Taylor's theorem with the Lagrange remainder,
|g(d)| <= M (2|s|)^3 / 6. For the Halley move h (|h| <= 2|s|),
g(d) - g(-h) = (d + h)(f + f' (d - h) / 2), and |f' (d - h) / 2| <=
2 |s f'| <= f / 2, so
|x - h - x*| = |d + h| <= (M (2|s|)^3 / 6 + |g(-h)|) / (f - 2 |s f'|),
where g(-h) = f (s - h) + f' h^2 / 2 = s^3 f'^2 / (4 H^2 f). When that is at
most tol / 4, x - h, clipped into the bracket, is returned without another
evaluation: a start within about (tol f / M)^(1/3) of the root costs one
evaluation. Atoms make M infinite too. So does an sd small enough that
sum_k w_k / sd_k^3 overflows while sum_k w_k / sd_k^2 does not (near 1e-103,
a scale that the estimators' scale-equivariance tests reach): there the
first-order exit is the only one that certifies, which is why it stays.

Every component CDF comes from one numpy kernel, ``_normal_cdf``: with
e = exp(-z^2 / 2), Phi(-|z|) = e * P(|z|) / Q(|z|) for the degree-6/7 rational
of Hart (1968, "Computer Approximations", #5666) as printed by West (2005,
"Better approximations to cumulative normal functions", Wilmott Magazine),
and Phi(|z|) = 1 - Phi(-|z|). The pdf needs the same e, so one exp serves
both. Against ``math.erfc`` on [-40, 40] the absolute error is at most
2.3e-16 and Phi(0) = 0.5 exactly; the relative error of the lower tail is
below 2e-14 for |z| <= 3 and grows to 1e-8 at |z| = 8 and 4e-6 at |z| = 38,
where Phi(-|z|) is 6e-16 and 3e-316. |z| is clipped at 40, where e is
already 0, so an atom's infinite z needs no special case.

CDF and pdf sums run in blocks of at most BLOCK_CELLS point-by-component
cells, so the temporaries stay a few MB whatever the mixture and point count.
Each row's sum is reduced on its own, over a C-ordered temporary, and
``mixture_quantiles`` makes its component arrays C-contiguous before its
moment sums, so a mixture's result does not depend on the other rows of its
batch or on the memory layout of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ContractError, DomainError

# Relative tolerance of every mixture quantile (see the module docstring).
QUANTILE_TOL = 1e-8

# Points x components evaluated at once by the CDF and pdf sums. The CDF
# kernel keeps about five block-sized float arrays alive, 1.3 MB at 2^15
# cells. At 2^16 the quick-start `report` ran 15-25 % slower in a fresh
# process: glibc handed the 512 KB temporaries back to the system and faulted
# them in again (raising its mmap and trim thresholds closed the gap).
BLOCK_CELLS = 2 ** 15

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# phi(1), the largest |z| phi(z): with it, sum_k w_k / sd_k^2 bounds |f'|;
# phi(0) = _INV_SQRT_2PI, the largest |z^2 - 1| phi(z), with sum_k w_k /
# sd_k^3 bounds |f''|
_PHI_1 = _INV_SQRT_2PI * math.exp(-0.5)

# Hart #5666: Phi(-a) = exp(-a^2 / 2) * P(a) / Q(a) for a >= 0, coefficients
# from the highest power down
_HART_P = (3.52624965998911e-02, 0.700383064443688, 6.37396220353165,
           33.912866078383, 112.079291497871, 221.213596169931,
           220.206867912376)
_HART_Q = (8.83883476483184e-02, 1.75566716318264, 16.064177579207,
           86.7807322029461, 296.564248779674, 637.333633378831,
           793.826512519948, 440.413735824752)
_HART_MAX = 40.0


@dataclass(frozen=True)
class GaussianMixture1D:
    """Mixture sum_i w_i Normal(mean_i, sd_i^2) with w >= 0 summing to 1.

    The type ``FitResult.functional_mixture`` returns: one functional's
    posterior as a checked, normalized mixture, with its CDF and quantiles
    read by the batched engine below. ``coarse``, when given, is a smaller
    mixture close to this one whose quantiles start this one's solve.
    """

    weights: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    coarse: GaussianMixture1D | None = None

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
        if not (self.coarse is None
                or isinstance(self.coarse, GaussianMixture1D)):
            raise ContractError("coarse must be a GaussianMixture1D or None")

    # ------------------------------------------------------------------
    # distribution functions
    # ------------------------------------------------------------------

    def cdf(self, x):
        """P(X <= x), vectorized over x."""
        xa = np.asarray(x, dtype=float)
        rows = (xa.size, self.weights.size)
        out = mixture_cdf(self.weights, np.broadcast_to(self.means, rows),
                          np.broadcast_to(self.sds, rows), xa.ravel())
        return out.reshape(xa.shape) if xa.shape else float(out[0])

    # ------------------------------------------------------------------
    # quantiles
    # ------------------------------------------------------------------

    def quantiles(self, levels) -> np.ndarray:
        """Inverse CDF at each level, to within QUANTILE_TOL, started from
        the quantiles of ``coarse`` when there is one."""
        start = (None if self.coarse is None
                 else self.coarse.quantiles(levels)[None, :])
        return mixture_quantiles(self.weights, self.means[None, :],
                                 self.sds[None, :], levels, start)[0]

    def quantile(self, q: float) -> float:
        return float(self.quantiles((q,))[0])


# ----------------------------------------------------------------------
# batched quantile engine
# ----------------------------------------------------------------------

def _blocks(rows: int, width: int):
    """Row slices of at most BLOCK_CELLS // width rows."""
    step = max(1, BLOCK_CELLS // max(width, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _cdf_pdf(x, mu, inv_sd, w, want_pdf: bool):
    """Mixture CDF at x[k] for component rows mu[k], 1/sd[k], and with
    ``want_pdf`` its pdf f and slope f' = -sum w phi(z) z / sd^2 (else
    None for both).

    ``mu`` and ``inv_sd`` are (k, n) or a broadcast (1, n) row; ``w`` is a
    shared (n,) weight vector or per-row (k, n) weights. Atoms (1/sd = inf)
    count as steps, so the pdf of a row holding one is not finite. Each row
    is summed on its own (pairwise), so its value does not depend on the
    other rows.
    """
    # C order whatever the layout of mu, so that each row sums alike
    z = np.subtract(x[:, None], mu, order="C")
    with np.errstate(invalid="ignore"):
        z *= inv_sd
    # an atom exactly at x gives 0 * inf; its CDF there is 1
    z[np.isnan(z)] = np.inf
    cdf, dens = _normal_cdf(z)
    cdf *= w
    if not want_pdf:
        return cdf.sum(axis=1), None, None
    # where w / sd^2 overflows, f' sums +inf and -inf: nan, like an atom's
    with np.errstate(over="ignore", invalid="ignore"):
        dens *= inv_sd
        dens *= w
        z *= dens
        z *= inv_sd
        return (cdf.sum(axis=1), dens.sum(axis=1) * _INV_SQRT_2PI,
                z.sum(axis=1) * -_INV_SQRT_2PI)


def _normal_cdf(z: np.ndarray):
    """(Phi(z), exp(-z^2 / 2)) elementwise for a float array z without nan
    (see the module docstring for the kernel and its error)."""
    a = np.abs(z)
    np.minimum(a, _HART_MAX, out=a)
    e = a * a
    e *= -0.5
    np.exp(e, out=e)
    cdf = _horner(a, _HART_P)
    cdf /= _horner(a, _HART_Q)
    cdf *= e
    # u = copysign(Phi(-|z|), -z) has its sign bit set exactly where Phi(z)
    # is 1 - Phi(-|z|) (z = +0 included), so u + signbit(u) is Phi(z) with
    # one rounding and no branch on the sign
    np.copysign(cdf, -z, out=cdf)
    cdf += np.signbit(cdf)
    return cdf, e


def _horner(a: np.ndarray, coefs) -> np.ndarray:
    """The polynomial with ``coefs`` (highest power first) at every a."""
    out = a * coefs[0]
    for c in coefs[1:-1]:
        out += c
        out *= a
    out += coefs[-1]
    return out


def _inverse(sd: np.ndarray) -> np.ndarray:
    """1 / sd, inf for atoms."""
    with np.errstate(divide="ignore"):
        return 1.0 / sd


def mixture_cdf(weights, means, sds, x) -> np.ndarray:
    """CDF of each of many Gaussian mixtures at its own point.

    ``weights``, ``means`` and ``sds`` are laid out as in
    ``mixture_quantiles``; ``x`` is one point or one point per row. Returns
    the (m,) array whose entry r is P(X_r <= x_r) for mixture r.
    """
    mu = np.asarray(means, dtype=float)
    sd = np.asarray(sds, dtype=float)
    w = np.asarray(weights, dtype=float)
    m, n = mu.shape
    x = np.broadcast_to(np.asarray(x, dtype=float), (m,))
    out = np.empty(m)
    for blk in _blocks(m, n):
        out[blk] = _cdf_pdf(x[blk], mu[blk], _inverse(sd[blk]),
                            w if w.ndim == 1 else w[blk], False)[0]
    return out


def mixture_quantiles(weights, means, sds, levels, start=None) -> np.ndarray:
    """Quantiles of many Gaussian mixtures at many levels in one call.

    Row r of ``means`` and ``sds`` (both (m, n)) holds the components of
    mixture r; ``weights`` is one (n,) vector shared by all rows or an (m, n)
    array with one weight row per mixture, each summing to 1. ``start``, an
    optional finite (m, L) array, is the first guess of each quantile in
    place of the moment-matched one. Returns the (m, L) array whose entry
    [r, l] is the levels[l]-quantile of mixture r, within its tolerance
    whatever the start (see the module docstring for the method). Each row
    is made nondecreasing in the level, which keeps every entry within the
    largest tolerance of its row.
    """
    q = np.asarray(levels, dtype=float).ravel()
    if q.size == 0 or not np.all((q > 0.0) & (q < 1.0)):
        raise DomainError(f"quantile levels must lie in (0, 1), got {levels}")
    mu = np.ascontiguousarray(means, dtype=float)
    sd = np.ascontiguousarray(sds, dtype=float)
    w = np.ascontiguousarray(weights, dtype=float)
    if mu.ndim != 2 or sd.shape != mu.shape or mu.size == 0 \
            or w.shape not in (mu.shape, mu.shape[1:]):
        raise ContractError(
            f"means and sds must be equal (m, n) arrays with (n,) or (m, n) "
            f"weights, got {mu.shape}, {sd.shape}, {w.shape}")
    if not (np.isfinite(mu).all() and np.isfinite(sd).all()):
        raise DomainError("component means and sds must be finite")
    # written so that a NaN weight fails: it would start the search at a NaN
    # point whose bracket never closes
    if not np.all(np.abs(w.sum(axis=-1) - 1.0) <= 1e-8):
        raise ContractError("each weight row must sum to 1")
    if not (np.all(w >= 0) and np.all(sd >= 0)):
        raise DomainError("weights and sds must be nonnegative")
    m, n = mu.shape
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (m, q.size) or not np.isfinite(start).all():
            raise ContractError(
                f"start must be a finite ({m}, {q.size}) array, got shape "
                f"{start.shape}")
    levels_z = np.array(list(map(NormalDist().inv_cdf, q.tolist())))

    # the exact bracket per (row, level), and per row the bounds L on |f'|
    # and M on |f''|, and the moments of the moment-matched start
    lo = np.empty((m, q.size))
    hi = np.empty((m, q.size))
    slope = np.empty(m)
    curve = np.empty(m)
    mean = np.empty(m)
    second = np.empty(m)
    for blk in _blocks(m, n):
        mu_b, sd_b = mu[blk], sd[blk]
        w_b = w if w.ndim == 1 else w[blk]
        for j, zq in enumerate(levels_z):
            comp = mu_b + sd_b * zq
            lo[blk, j] = comp.min(axis=1)
            hi[blk, j] = comp.max(axis=1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scaled = w_b / (sd_b * sd_b)
            slope[blk] = scaled.sum(axis=1)
            scaled /= sd_b
            curve[blk] = scaled.sum(axis=1)
        if start is None:
            mean[blk] = (mu_b * w_b).sum(axis=1)
            second[blk] = ((sd_b * sd_b + mu_b * mu_b) * w_b).sum(axis=1)
    if start is None:
        spread = np.sqrt(np.clip(second - mean * mean, 0.0, None))
        start = mean[:, None] + spread[:, None] * levels_z
    lo, hi = lo.ravel(), hi.ravel()
    row = np.repeat(np.arange(m), q.size)
    target = np.tile(q, m)
    x = np.clip(start.ravel(), lo, hi)
    newton_row = ~(sd == 0).any(axis=1)[row]
    # atoms make both bounds infinite
    slope = np.where(newton_row, _PHI_1 * slope[row], np.inf)
    curve = np.where(newton_row, _INV_SQRT_2PI * curve[row], np.inf)
    last_step = hi - lo
    tol = QUANTILE_TOL * np.minimum(hi - lo, 1.0)
    out = 0.5 * (lo + hi)
    active = np.flatnonzero(hi - lo > tol)

    while active.size:
        r = row[active]
        xa = x[active]
        cdf = np.empty(active.size)
        pdf = np.empty(active.size)
        dpdf = np.empty(active.size)
        for blk in _blocks(active.size, n):
            rb = r[blk]
            cdf[blk], pdf[blk], dpdf[blk] = _cdf_pdf(
                xa[blk], mu[rb], _inverse(sd[rb]),
                w if w.ndim == 1 else w[rb], True)
        below = cdf < target[active]
        a = np.where(below, xa, lo[active])
        b = np.where(below, hi[active], xa)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = (cdf - target[active]) / pdf
            # Halley: the Newton step over H = 1 - s f' / (2 f), when H is
            # above 1/2 (so the move stays within 2 |s|)
            halley = 1.0 - step * dpdf / (2.0 * pdf)
            move = np.where(halley > 0.5, step / halley, step)
        cand = xa - move
        size = np.abs(step)
        # x is an end of [a, b]: a move that does not land strictly inside
        # (a step of 0 or below the spacing of floats included) bisects
        newton = (newton_row[active] & (cand > a) & (cand < b)
                  & (size <= 0.5 * last_step[active]))
        mid = 0.5 * (a + b)
        nxt = np.where(newton, cand, mid)
        # the certified exits of the module docstring: within 2 |s| of x,
        # the root is within 2 L s^2 / f of x - s and within
        # (4 M |s|^3 / 3 + |s|^3 f'^2 / (4 H^2 f)) / (f - 2 |s f'|) of x - h
        with np.errstate(over="ignore", invalid="ignore"):
            bound = slope[active] * size
            near = 4.0 * bound <= pdf
            quarter = 0.25 * tol[active]
            first = near & (2.0 * bound * size <= quarter * pdf)
            cube = size * size * size
            third = near & (
                cube * (curve[active] * (4.0 / 3.0)
                        + dpdf * dpdf / (4.0 * halley * halley * pdf))
                <= quarter * (pdf - 2.0 * np.abs(step * dpdf)))
        nxt = np.where(first, np.clip(xa - step, a, b), nxt)
        nxt = np.where(third, np.clip(cand, a, b), nxt)
        # a bracket at the spacing of floats cannot shrink any further
        closed = (b - a <= tol[active]) | (mid <= a) | (mid >= b)
        done = closed | first | third
        out[active] = nxt
        lo[active], hi[active], x[active] = a, b, nxt
        last_step[active] = np.where(newton, size, 0.5 * (b - a))
        active = active[~done]

    out = out.reshape(m, q.size)
    order = np.argsort(q, kind="stable")
    out[:, order] = np.maximum.accumulate(out[:, order], axis=1)
    return out
