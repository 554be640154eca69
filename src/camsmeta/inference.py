"""Grid-based Bayesian fitting of the subgroup meta-analysis estimators.

Four estimators share one engine:

* ``BIM``     univariate random-effects pooling of the within-trial contrasts
* ``BMS``     bivariate subgroup model with interactions centered at 0.5
* ``CAMS``    bivariate model with an ecological slope in the information
              fraction and IF-centered interaction terms
* ``OVERALL`` univariate pooling of the prevalence-weighted trial means

Instead of MCMC, heterogeneity SDs live on a fixed grid (a zero node plus
geometrically spaced nodes up to five prior scales). At every node the
location parameters are conditionally Gaussian and solved by generalized
least squares, so the joint posterior is a finite mixture of normals with
half-normal-prior-times-likelihood node weights. Everything downstream
(quantiles, tail probabilities, reporting functionals) is CDF arithmetic on
that mixture, accumulated in a fixed node order for bit reproducibility.

Every fit is a sum of independent scalar observations, in blocks whose GLS
statistics (``_scalar_stats``) add before one shared solve; no node inverts
a covariance block, and every per-node sum is a product of the node weights
against per-study terms formed once. A (y_A, y_B) pair is its contrast plus
its mean given the contrast (``_pair_blocks``), whose row is affine in a
per-node loading, so the pair needs no rows per node. At the information
fraction the two decouple, so production CAMS is two 1-D solves, the
contrast fit on the tau_gamma axis and the meta-regression on the tau axis,
and its lattice is their product (``_product_grid``); the joint 2-D solve
is left to a prior that couples them and to ``verify.cams_oracle``.

Every summary and the interaction trace read the smallest grid that
carries the functional: on a product lattice, a functional of one factor
alone (alpha, beta, gamma, the overall line) reads that factor's 101
components, and one that spans both (delta, the subgroup lines) reads the
lattice (``_factor_reads``).

Every quantile read (``FitResult.functional_quantiles``, the summaries) is
one ``_lattice_quantiles`` call per grid, which starts the full-lattice
solve from the quantiles of the merged lattice (``_merged_start``): COARSE
x COARSE blocks of nodes, each one normal component with the block's
weight, mean and covariance, which pool to the lattice's posterior moments.
Those quantiles cost a ninth of a full-lattice pass each, and from them
most full-lattice quantiles are certified after one pass (``gaussmix``);
the start moves no quantile by more than its tolerance.

Location priors are flat by default; a flat prior requires at least as many
studies as fixed effects. A proper normal prior on any functional an
estimator reports is one more scalar observation, without heterogeneity
(``_prior_blocks``); priors whose rows span every coordinate lift that
requirement.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (ContractError, DomainError, GridEdgeWarning,
                     IdentifiabilityWarning)
from .gaussmix import (BLOCK_CELLS, GaussianMixture1D, mixture_cdf,
                       mixture_quantiles)
from .model_core import (CovarianceStructure, MetaDataset, cams_covariance,
                         decompose_arrays, subgroup_arrays)

_LOG_2PI = math.log(2.0 * math.pi)

# Posterior mass at the last node of a scale axis above which a fit warns
# that the grid truncates that heterogeneity.
EDGE_MASS_TOL = 1e-3

# GridSpec.axis: top node in prior scales; lowest positive node / top node
GRID_SPAN, GRID_MIN_FRAC = 5.0, 1e-3

# nodes per side of a block of the merged lattice that starts every
# quantile solve: 34 x 34 blocks at 101 x 101 nodes
COARSE = 3


# ----------------------------------------------------------------------
# specification types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PriorSpec:
    """Priors: half-normal scales for the heterogeneity SDs, optional normal
    priors on named functionals of the location parameters (any direction
    they leave unnamed stays flat).

    ``location_prior`` is a tuple of (functional_name, mean, sd) triples; a
    fit refuses a name it does not report.
    """

    tau_scale: float = 1.0
    tau_gamma_scale: float = 0.5
    location_prior: tuple = ()

    def __post_init__(self) -> None:
        scales = (self.tau_scale, self.tau_gamma_scale)
        if not all(0 < s < math.inf for s in scales):
            raise DomainError(f"prior scales must be positive and finite, got {scales}")
        entries = tuple((str(n), float(m), float(s)) for n, m, s in self.location_prior)
        for name, mean, sd in entries:
            # the solve weighs the prior by 1 / sd^2, which must be finite too
            if not (math.isfinite(mean) and sd > 0.0 and 0.0 < sd * sd < math.inf
                    and 1.0 / (sd * sd) < math.inf):
                raise DomainError(
                    f"location prior for {name} needs a finite mean and a "
                    f"positive sd whose square and its inverse are finite and "
                    f"nonzero, got ({mean!r}, {sd!r})")
        names = [n for n, _, _ in entries]
        if len(set(names)) != len(names):
            raise ContractError(f"duplicate location priors: {names}")
        object.__setattr__(self, "location_prior", entries)


@dataclass(frozen=True)
class GridSpec:
    """Heterogeneity grids: a zero node plus geometric spacing.

    Defaults put 101 nodes per axis on [0, GRID_SPAN * prior scale], the
    smallest positive one at GRID_MIN_FRAC of the top. Custom node vectors
    are accepted as long as they start at 0 and increase strictly; a
    single-node axis [0] pins that heterogeneity to zero.
    """

    tau_nodes: np.ndarray
    tau_gamma_nodes: np.ndarray

    def __post_init__(self) -> None:
        for label in ("tau_nodes", "tau_gamma_nodes"):
            nodes = np.asarray(getattr(self, label), dtype=float).ravel()
            object.__setattr__(self, label, nodes)
            if nodes.size == 0 or nodes[0] != 0.0:
                raise ContractError(f"{label} must start at 0")
            if np.any(np.diff(nodes) <= 0):
                raise ContractError(f"{label} must be strictly increasing")
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.isfinite(nodes ** 2).all():
                    raise DomainError(f"{label} must be finite with a finite "
                                      f"square, got {nodes[-1]:g}")

    @staticmethod
    def axis(prior_scale: float, n_nodes: int = 101) -> np.ndarray:
        if n_nodes < 1:
            raise ContractError("need at least one node")
        hi = GRID_SPAN * prior_scale
        # geomspace(a, b, 1) is [a]: a lone positive node goes at the top
        low = hi * GRID_MIN_FRAC if n_nodes > 2 else hi
        # refused before geomspace, which raises or warns on such nodes
        if not 0.0 < low <= hi < math.inf:
            raise DomainError(
                f"grid prior scale {prior_scale!r} must be positive and keep "
                f"the grid nodes in the float range, but they run from "
                f"{low!r} to {hi!r}; rescale the data and the priors")
        # every fit squares the nodes
        if hi * hi == math.inf:
            raise DomainError(
                f"grid prior scale {prior_scale!r} puts the top grid node at "
                f"{hi!r}, whose square overflows float64; rescale the data "
                f"and the priors")
        return np.concatenate([[0.0], np.geomspace(low, hi, n_nodes - 1)])

    @classmethod
    def default(cls, priors: PriorSpec, n_nodes: int = 101) -> "GridSpec":
        return cls(cls.axis(priors.tau_scale, n_nodes),
                   cls.axis(priors.tau_gamma_scale, n_nodes))


@dataclass(frozen=True)
class PosteriorGrid:
    """Joint posterior over the (tau, tau_gamma) lattice.

    ``log_weight`` is log(marginal likelihood * prior * quadrature cell), up
    to one additive constant; ``weight`` is its normalization. ``cond_mean``
    and ``cond_cov`` give the Gaussian conditional law of the location
    parameters at each node. Axes a fit does not use are singletons at 0.

    A lattice that is the product of 1-D posteriors (``_product_grid``)
    keeps them in ``factors``, as (grid, basis) pairs: a functional with
    coefficients v over ``param_names`` has coefficients v @ basis over the
    factor's. Its scale axes and the functionals that load on one factor
    alone (``_factor_reads``) are read off that factor.
    """

    tau_nodes: np.ndarray
    tau_gamma_nodes: np.ndarray
    log_weight: np.ndarray
    weight: np.ndarray
    cond_mean: np.ndarray
    cond_cov: np.ndarray
    param_names: tuple
    scale_names: tuple
    factors: tuple = ()

    def __post_init__(self) -> None:
        t, g = self.tau_nodes.size, self.tau_gamma_nodes.size
        p = len(self.param_names)
        if self.weight.shape != (t, g) or self.log_weight.shape != (t, g):
            raise ContractError("weight lattice shape mismatch")
        if self.cond_mean.shape != (t, g, p) or self.cond_cov.shape != (t, g, p, p):
            raise ContractError("conditional moment shape mismatch")
        if not abs(self.weight.sum() - 1.0) <= 1e-10:
            raise ContractError(f"weights must sum to 1, got {self.weight.sum()!r}")

    @cached_property
    def merged(self) -> _Lattice:
        """The lattice in blocks of COARSE x COARSE nodes (fewer at the far
        edges), each block one component: its weight the sum of its nodes',
        its mean and covariance those of the block's mixture of
        conditionals under its own normalized node weights, the covariance
        taken about the block mean so that no variance cancels. Dividing by
        the block weight first keeps a block of subnormal weight a spread
        component instead of an atom at 0; blocks of no weight are dropped.
        Weight (K,), means (K, p), covariances (K, p, p)."""
        t, g = self.weight.shape

        def merge(values: np.ndarray) -> np.ndarray:
            # block sums over the last two (lattice) axes, by strided slices
            rows = values[..., ::COARSE, :].copy()
            for k in range(1, COARSE):
                part = values[..., k::COARSE, :]
                rows[..., :part.shape[-2], :] += part
            out = rows[..., ::COARSE].copy()
            for k in range(1, COARSE):
                part = rows[..., k::COARSE]
                out[..., :part.shape[-1]] += part
            return out

        def spread(block: np.ndarray) -> np.ndarray:
            # each block's value at each of its nodes
            return block.repeat(COARSE, -2)[..., :t, :].repeat(
                COARSE, -1)[..., :g]

        total = merge(self.weight)
        keep = total > 0.0
        with np.errstate(invalid="ignore"):
            u = self.weight / spread(total)
        u[~spread(keep)] = 0.0
        # parameter axes first: every product below runs over the lattice
        theta = np.moveaxis(self.cond_mean, -1, 0).copy()
        mean = merge(u * theta)
        dev = theta - spread(mean)
        cov = dev[:, None] * dev[None, :]
        cov += self.cond_cov.transpose(2, 3, 0, 1)
        cov *= u
        cov = merge(cov)[:, :, keep]
        return _Lattice(total[keep], np.ascontiguousarray(mean[:, keep].T),
                        np.ascontiguousarray(cov.transpose(2, 0, 1)))

    def scale_axis(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Marginal (nodes, weights) for one heterogeneity parameter."""
        for factor, _ in self.factors:
            if name in factor.scale_names:
                return factor.scale_axis(name)
        if name == "tau":
            return self.tau_nodes, self.weight.sum(axis=1)
        if name == "tau_gamma":
            return self.tau_gamma_nodes, self.weight.sum(axis=0)
        raise ContractError(f"unknown scale parameter {name!r}")


class _Lattice(NamedTuple):
    """Mixture components: weights (K,), means (K, p), covariances (K, p,
    p), as ``PosteriorGrid.merged`` returns them."""

    weight: np.ndarray
    cond_mean: np.ndarray
    cond_cov: np.ndarray


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
    """A posterior grid, the functionals it reports, and provenance."""

    estimator: str
    grid: PosteriorGrid
    provenance: dict
    functionals: dict

    @cached_property
    def summaries(self) -> dict:
        """ParameterSummary of each functional and of each heterogeneity SD
        in use, read off the grid on first access.

        A heterogeneity SD's CDF is an atom at the zero node followed by
        linear interpolation of the cumulative node weights, so its median
        and 95% interval are one ``np.interp`` and its P(> 0) is the mass
        off the zero node."""
        summaries = dict(zip(self.functionals, _summaries(
            self.grid, np.array(list(self.functionals.values()), dtype=float))))
        for name in self.grid.scale_names:
            nodes, w = self.grid.scale_axis(name)
            cum = np.cumsum(w / w.sum())
            med, lo, hi = np.interp((0.5, 0.025, 0.975), cum, nodes).tolist()
            summaries[name] = ParameterSummary(
                med, lo, hi, float(np.clip(1.0 - cum[0], 0.0, 1.0)))
        return summaries

    def functional_mixture(self, spec) -> GaussianMixture1D:
        """Posterior of a linear functional of the location parameters.

        ``spec`` may be a functional name (e.g. "gamma"), a mapping from
        names to coefficients (e.g. {"alpha": 1, "delta": 0.3}), or a raw
        coefficient vector over ``grid.param_names``.

        The mixture has one component per lattice node, the components
        ``functional_quantiles`` and ``functional_cdf`` read, and its
        ``coarse`` mixture, the functional on the merged lattice
        (``_merged_start``), starts their solves too.
        """
        vecs = self._coef_matrix([spec])
        c_w, (c_mean,), (c_sd,) = _merged_start(self.grid, vecs)
        (mean,), (sd,) = _functional_moments(self.grid, vecs)
        return GaussianMixture1D(self.grid.weight.ravel(), mean, sd,
                                 GaussianMixture1D(c_w, c_mean, c_sd))

    def functional_quantiles(self, specs, levels) -> np.ndarray:
        """Quantiles of several functionals in one batched solve.

        Entry [i, l] is the levels[l]-quantile of the posterior of specs[i];
        each spec is read as in ``functional_mixture``.
        """
        return _lattice_quantiles(self.grid, self._coef_matrix(specs),
                                  levels)[0]

    def functional_cdf(self, specs, x) -> np.ndarray:
        """Entry i is the posterior P(specs[i] <= x_i), with ``x`` one point
        or one per spec; each spec is read as in ``functional_mixture``."""
        mean, sd = _functional_moments(self.grid, self._coef_matrix(specs))
        return mixture_cdf(_mixture_weights(self.grid), mean, sd, x)

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

def _functional_moments(grid, vecs: np.ndarray):
    """Component means and sds, shape (m, T*G), of the functionals in the
    rows of ``vecs`` at every lattice node; of ``grid.merged`` too, (m, K),
    given that instead."""
    p = vecs.shape[1]
    mean = vecs @ grid.cond_mean.reshape(-1, p).T
    outer = (vecs[:, :, None] * vecs[:, None, :]).reshape(len(vecs), p * p)
    sd = outer @ grid.cond_cov.reshape(-1, p * p).T
    np.clip(sd, 0.0, None, out=sd)
    return mean, np.sqrt(sd, out=sd)


def _mixture_weights(grid) -> np.ndarray:
    """The lattice weights (or those of ``grid.merged``) normalized as
    ``GaussianMixture1D`` stores them."""
    w = grid.weight.ravel()
    return w / w.sum()


def _merged_start(grid: PosteriorGrid, vecs: np.ndarray):
    """Weights (K,), means and sds (m, K) of the functional rows of ``vecs``
    on ``grid.merged``, whose quantiles start every solve on ``grid``."""
    return (_mixture_weights(grid.merged),
            *_functional_moments(grid.merged, vecs))


def _lattice_quantiles(grid: PosteriorGrid, vecs: np.ndarray, levels):
    """The (m, L) quantiles at ``levels`` of the functional rows of
    ``vecs``, and the lattice weights, means and sds they were read from.
    The merged lattice is solved first, for the start of the full-lattice
    solve, before the full-lattice moments exist, so that the two memory
    peaks do not add."""
    start = mixture_quantiles(*_merged_start(grid, vecs), levels)
    w = _mixture_weights(grid)
    mean, sd = _functional_moments(grid, vecs)
    return mixture_quantiles(w, mean, sd, levels, start), w, mean, sd


def _summaries(grid: PosteriorGrid, vecs: np.ndarray) -> list:
    """Median, 95% interval and P(> 0) of each functional row of ``vecs``,
    from one batched quantile solve and one batched CDF pass per grid that
    ``_factor_reads`` assigns rows to."""
    out = [None] * len(vecs)
    for sub, rows, at in _factor_reads(grid, vecs):
        qs, w, mean, sd = _lattice_quantiles(sub, rows, (0.5, 0.025, 0.975))
        # P(X > 0) is the CDF of -X at 0, sum w Phi(mu / sd): the upper tail
        # is read directly, so a tiny P(> 0) keeps its relative accuracy.
        # That CDF also counts an atom at 0, which is not positive, so such
        # an atom sits at 1 in -X. The clip is for rounding that carries a
        # weight sum past 1.
        neg = np.where((sd == 0) & (mean == 0), 1.0, -mean)
        p_pos = np.clip(mixture_cdf(w, neg, sd, 0.0), 0.0, 1.0)
        for i, (med, lo, hi), p in zip(at.tolist(), qs.tolist(),
                                       p_pos.tolist()):
            out[i] = ParameterSummary(med, lo, hi, p)
    return out


def _factor_reads(grid: PosteriorGrid, vecs: np.ndarray) -> list:
    """(grid, rows, at) triples that cover the functional rows of ``vecs``:
    the rows ``at`` that load on one factor of a product lattice alone, in
    that factor's coordinates, read its 1-D grid; the others read the
    lattice."""
    coefs = [vecs @ basis for _, basis in grid.factors]
    loads = np.array([np.any(c != 0.0, axis=1) for c in coefs]).reshape(
        -1, len(vecs))
    alone = loads.sum(axis=0) == 1
    reads = []
    for (factor, _), coef, own in zip(grid.factors, coefs, loads):
        at = np.flatnonzero(own & alone)
        if at.size:
            reads.append((factor, coef[at], at))
    at = np.flatnonzero(~alone)
    if at.size:
        reads.append((grid, vecs[at], at))
    return reads


def _axis_log_prior(nodes: np.ndarray, scale: float, in_use: bool) -> np.ndarray:
    """Log prior mass of each node: the half-normal log density plus the log
    of its trapezoid cell, a lone node's cell counting as 1; 0 on an axis
    the fit does not use."""
    if not in_use:
        return np.zeros(nodes.size)
    log_pdf = (0.5 * math.log(2.0 / math.pi) - math.log(scale)
               - 0.5 * (nodes / scale) ** 2)
    if nodes.size == 1:
        return log_pdf
    cell = np.empty(nodes.size)
    cell[0] = 0.5 * (nodes[1] - nodes[0])
    cell[-1] = 0.5 * (nodes[-1] - nodes[-2])
    cell[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    return log_pdf + np.log(cell)


def _prior_blocks(priors: PriorSpec, functionals: dict, n_studies: int,
                  min_studies: int) -> list:
    """The location priors as one block of scalar observations: a prior
    N(c'theta; m, s^2) on the functional with coefficients c is the
    observation m with design row c, variance s^2 and no heterogeneity, so
    ``_solve_grid`` takes it like any study; no priors, no block. Fewer
    than ``min_studies`` studies need prior rows of full rank."""
    entries = priors.location_prior
    unknown = [name for name, _, _ in entries if name not in functionals]
    if unknown:
        raise ContractError(
            f"no functional named {unknown} to put a location prior on; "
            f"this estimator reports {sorted(functionals)}")
    rows = np.array([functionals[name] for name, _, _ in entries], dtype=float)
    p = len(next(iter(functionals.values())))
    if n_studies < min_studies and (
            not entries or np.linalg.matrix_rank(rows) < p):
        raise ContractError(
            f"flat location priors need at least {min_studies} studies for "
            f"{p} fixed effects (got {n_studies}); supply proper location "
            f"priors or more data")
    if not entries:
        return []
    _, mean, sd = map(np.array, zip(*entries))
    return [(mean, rows, sd * sd, np.zeros((1, 1)), None)]


def _scalar_stats(y: np.ndarray, x: np.ndarray, var: np.ndarray,
                  het2: np.ndarray, k, theta0: np.ndarray):
    """(X'WX, X'Wr, r'Wr, sum log V - log V0) of one block of independent
    scalar observations at every node, node axes last: shapes (p, p, T, G),
    (p, T, G), (T, G) and (T, G), for the residuals r = y - x theta0 from a
    centre theta0 (p,), V0 being V at the first node. The rows [x | y] are
    node-free, y (n,) and x (n, p), when ``k`` is None; otherwise y (2, n)
    and x (2, n, p) hold rows a and b, and the rows at tau_gamma node g are
    a - k[g] b for the loading k (G, n) (``_pair_blocks``). The sampling
    variance var, (n,) or (G, n), plus the heterogeneity het2, (T, 1), (1,
    G) or (1, 1), is V, and W = 1/V. Every statistic is a matmul of W
    against per-study outer products formed once: r r' for node-free rows;
    for affine rows, whose r r' is a a' - k (a b' + b a') + k^2 b b', those
    three against W, W k and W k^2. Only a W that varies along both axes
    (affine rows under tau heterogeneity) is formed over as many tau_gamma
    nodes at a time as keep their outer products within BLOCK_CELLS, and it
    takes one product per node with them. A DomainError when W or log V is
    not finite; a statistic that overflows is left for the caller to
    refuse."""
    # rows is this function's own copy, centred in place
    rows = np.concatenate([x, y[..., None]], axis=-1)
    n, q = rows.shape[-2:]
    with np.errstate(over="ignore", invalid="ignore"):
        rows[..., -1] -= rows[..., :-1] @ theta0
        if k is None:
            terms = [_outer(rows)]
        else:
            a, b = rows
            cross = a[:, :, None] * b[:, None, :]
            cross += cross.transpose(0, 2, 1)
            terms = [_outer(a), -cross.reshape(n, -1), _outer(b)]
    t, g = np.broadcast_shapes(het2.shape, var.shape[:-1])
    lattice = min(t, g) > 1
    var = np.broadcast_to(var, (g, n))
    het2 = np.broadcast_to(het2, (t, g))
    # log V is summed as log V - log V0, V0 each study's variance at the
    # first node: terms near 0 keep the sum accurate to the rounding of the
    # terms, where terms near log V0 lose some 1e-13 over 1000 studies (and
    # log(V / V0) is six times slower, log being slow near 1)
    log_v0 = np.log(var[0] + het2[0, 0])
    stats = np.empty((q * q, t, g))
    logdet = np.empty((t, g))
    step = max(1, BLOCK_CELLS // (n * q * q)) if lattice else g
    for s in range(0, g, step):
        blk = slice(s, s + step)
        v = var[None, blk] + het2[:, blk, None]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            w, log_v = 1.0 / v, np.log(v)
            log_v -= log_v0
        if not (np.isfinite(w).all() and np.isfinite(log_v).all()):
            raise DomainError(
                "a study covariance overflows or underflows float64 when "
                "inverted; are the standard errors on an extreme scale?")
        # a matvec sums a few studies faster than sum(axis=-1)
        logdet[:, blk] = log_v @ np.ones(n)
        with np.errstate(over="ignore", invalid="ignore"):
            if lattice:
                kb = k[blk, :, None]
                outer = terms[0] + kb * (terms[1] + kb * terms[2])
                stats[:, :, blk] = (np.swapaxes(w, 0, 1)
                                    @ outer).transpose(2, 1, 0)
                continue
            # W on the left: this product sums the studies about ten times
            # more accurately than its transpose
            w = w.reshape(-1, n)
            out = w @ terms[0]
            for term in terms[1:]:
                w *= k
                out += w @ term
        stats[:, :, blk] = out.T.reshape(q * q, t, -1)
    stats = stats.reshape((q, q, t, g))
    return stats[:-1, :-1], stats[:-1, -1], stats[-1, -1], logdet


def _overflow_error(statistic: str, blocks) -> DomainError:
    """The error for a GLS statistic that overflows float64, with the size
    of the blocks' responses and the smallest of their variances."""
    big = max(float(np.abs(y).max()) for y, *_ in blocks)
    small = min(float(np.min(v)) for _, _, v, *_ in blocks)
    return DomainError(
        f"{statistic} overflows float64: estimates or location-prior means "
        f"reach {big:.3g} against sampling variances down to {small:.3g}; "
        f"rescale the data or the priors")


def _outer(rows: np.ndarray) -> np.ndarray:
    """Each row's outer product with itself, flattened: (..., q) -> (..., q*q)."""
    return (rows[..., :, None] * rows[..., None, :]).reshape(
        rows.shape[:-1] + (-1,))


def _pair_blocks(ya, yb, va, vb, pi, x, taus, tg) -> list:
    """Two scalar blocks from one (y_A, y_B) pair per study with design rows
    x (J, 2, p) and covariance ``model_core.cams_covariance`` at weighting
    pi, on the (taus, tg) lattice. In (g, m) coordinates (unit Jacobian)
    tau_gamma loads on g, tau on m, and only c = Cov(g, m) couples them: a
    pair is its contrast (variance v_g = var_g + tau_gamma^2) plus its mean
    given g, whose row [x_m | m] - k [x_g | g] is affine in k = c / v_g and
    whose variance tau^2 + (var_a var_b + var_m tau_gamma^2) / v_g cannot
    cancel or overflow. The mean block keeps the two rows per study and the
    (G, J) loading k (``_scalar_stats``), not its rows at every node."""
    g, m, var_g, var_m, c = decompose_arrays(ya, yb, va, vb, pi)
    x_g = x[:, 1] - x[:, 0]
    tg2 = (tg ** 2)[:, None]
    v_g = var_g + tg2
    return [(g, x_g, var_g, tg2.T, None),
            (np.stack([m, g]), np.stack([x[:, 0] + pi[:, None] * x_g, x_g]),
             va * (vb / v_g) + var_m * (tg2 / v_g), (taus ** 2)[:, None],
             c / v_g)]


def _first_node(y, x, var, het2, k):
    """A block's responses, design rows and variances V at the first
    lattice node."""
    if k is not None:
        y, x = y[0] - k[0] * y[1], x[0] - k[0][:, None] * x[1]
    return y, x, var[(0,) * (var.ndim - 1)] + het2[0, 0]


def _solve_grid(blocks, param_names: tuple, priors: PriorSpec,
                tau_nodes: np.ndarray, tg_nodes: np.ndarray,
                scale_names: tuple) -> PosteriorGrid:
    """Posterior grid from blocks (y, x, var, het2) of scalar observations
    (``_scalar_stats``), location priors among them (``_prior_blocks``):
    summed statistics, per-node GLS, then half-normal priors on the axes in
    ``scale_names``. Design rows vary across nodes at most by an invertible
    row operation (``_pair_blocks``), so those at the first node give the
    rank. One thin SVD of them gives the identified directions V_r, of any
    rank; every node's system is projected onto them by one (r^2, p^2) x
    (p^2, nodes) product and Cholesky-factored once (``_cholesky_rows``),
    which yields the conditional mean, the conditional covariance (zero
    along flat directions) and the log determinant. Every response is
    first centred on a pilot solution (``_pilot``), so that y'Wy and
    b'theta are residual-sized and their difference in the log marginal
    does not cancel. The per-node algebra runs node-last: every entry of
    the small systems is one contiguous vector over the lattice, and only
    the conditional moments are written node-first.
    """
    p = len(param_names)
    stacked = np.concatenate([_first_node(*block)[1] for block in blocks])

    # the design's leading right singular vectors span every identified
    # direction; the per-node system is solved on those alone
    _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    tol = svals.max() * max(stacked.shape) * np.finfo(float).eps
    rank = int((svals > tol).sum())
    identified = vt[:rank]

    theta0 = _pilot(blocks, p)
    # an overflow is refused with the scale of the raw responses: of the
    # centred statistics here, of the uncentred y'Wy below
    with np.errstate(over="ignore", invalid="ignore"):
        a, bvec, quad, logdet_sum = map(sum, zip(*(
            _scalar_stats(*block, theta0) for block in blocks)))
    if not all(np.isfinite(v).all() for v in (a, bvec, quad)):
        raise _overflow_error("y'Wy", blocks)
    if rank < p:
        pretty = ["; ".join(
            f"{c:+.3f}*{n}" for c, n in zip(d, param_names) if abs(c) > 1e-9)
            for d in vt[rank:]]
        warnings.warn(
            f"design is rank deficient ({rank} < {p}); flat directions: "
            f"{pretty}; summaries along them are prior-driven only",
            IdentifiabilityWarning, stacklevel=3)
    nodes = quad.shape
    system = (np.kron(identified, identified) @ a.reshape(p * p, -1)).reshape(
        (rank, rank) + nodes)
    try:
        diag, root_t = _cholesky_rows(system, identified, tau_nodes, tg_nodes)
    except DomainError as exc:
        if not priors.location_prior:
            raise
        named = ", ".join(f"{name} (sd {sd:g})"
                          for name, _, sd in priors.location_prior)
        raise DomainError(f"{exc}, or loosen a location prior that is too "
                          f"tight for the data: {named}") from None
    # cond_cov = root_t' root_t is the inverse of a on the identified
    # directions, and u'u = b'theta
    with np.errstate(over="ignore", invalid="ignore"):
        u = [sum(root_t[i, k] * bvec[k] for k in range(p))
             for i in range(rank)]
        fitted = sum(ui * ui for ui in u)
        # the fit needs only the centred sums, but data whose own y'Wy,
        # y_c'Wy_c + theta0'(2 b_c + A theta0), overflows are refused too
        a_theta0 = (theta0 @ a.reshape(p, -1)).reshape(bvec.shape)
        raw_quad = quad.ravel() + theta0 @ (2.0 * bvec
                                            + a_theta0).reshape(p, -1)
    if not all(np.isfinite(v).all() for v in (fitted, raw_quad)):
        raise _overflow_error("y'Wy or b'theta", blocks)
    theta = np.empty(nodes + (p,))
    cond_cov = np.empty(nodes + (p, p))
    for k in range(p):
        theta[..., k] = theta0[k] + sum(u[i] * root_t[i, k]
                                        for i in range(rank))
        for m in range(k + 1):
            cond_cov[..., k, m] = cond_cov[..., m, k] = sum(
                root_t[i, k] * root_t[i, m] for i in range(rank))
    logdet_a = 2.0 * np.log(diag).sum(axis=0)
    log_marginal = (-0.5 * (logdet_sum + quad - fitted + logdet_a)
                    - 0.5 * (stacked.shape[0] - rank) * _LOG_2PI)
    log_prior = (_axis_log_prior(tau_nodes, priors.tau_scale,
                                 "tau" in scale_names)[:, None]
                 + _axis_log_prior(tg_nodes, priors.tau_gamma_scale,
                                   "tau_gamma" in scale_names)[None, :])
    log_weight = log_marginal + log_prior
    weight = _normalize_log_weights(log_weight)
    posterior = PosteriorGrid(tau_nodes, tg_nodes, log_weight, weight,
                              theta, cond_cov, tuple(param_names), scale_names)
    _warn_grid_edge(posterior)
    return posterior


def _pilot(blocks, p: int) -> np.ndarray:
    """The GLS solution at the first lattice node (tau = tau_gamma = 0), by
    the pseudo-inverse of its X'WX, whose range is the design's row space,
    so that centring on it leaves the flat directions at 0; 0 where that
    fails. Only its closeness to the solution matters, not its accuracy:
    any theta0 leaves the log marginal unchanged."""
    a0, b0 = np.zeros((p, p)), np.zeros(p)
    with np.errstate(all="ignore"):
        for block in blocks:
            y0, x0, v0 = _first_node(*block)
            w0 = 1.0 / v0
            a0 += x0.T @ (w0[:, None] * x0)
            b0 += x0.T @ (w0 * y0)
        try:
            theta0 = np.linalg.pinv(a0) @ b0
        except np.linalg.LinAlgError:
            return np.zeros(p)
    return theta0 if np.isfinite(theta0).all() else np.zeros(p)


def _cholesky_rows(system: np.ndarray, rows: np.ndarray,
                   tau_nodes: np.ndarray, tg_nodes: np.ndarray):
    """Cholesky factor L of the (r, r) matrix at every node of the (r, r, T,
    G) stack ``system``, node axes last, and the forward substitution L^-1
    ``rows`` of an (r, p) matrix: returns diag(L) (r, T, G) and L^-1 rows
    (r, p, T, G). One step per column of L, each a few products of
    contiguous (T, G) vectors. A DomainError naming the first node, on the
    (``tau_nodes``, ``tg_nodes``) lattice, whose pivot is not positive and
    finite."""
    r, p = rows.shape
    lower = [[None] * r for _ in range(r)]
    solved = np.empty((r, p) + system.shape[2:])
    for j in range(r):
        pivot = system[j, j] - sum(lower[j][k] ** 2 for k in range(j))
        ok = (pivot > 0.0) & (pivot < np.inf)
        if not ok.all():
            t, g = np.unravel_index(np.argmin(ok), ok.shape)
            raise DomainError(
                f"the per-node GLS system is numerically singular at tau = "
                f"{tau_nodes[t]:.3g}, tau_gamma = {tg_nodes[g]:.3g}: the "
                f"precision of the data does not match the tau_prior and "
                f"tau_gamma_prior scales; rescale the data or the priors")
        d = np.sqrt(pivot)
        lower[j][j] = d
        for i in range(j + 1, r):
            lower[i][j] = (system[i, j] - sum(
                lower[i][k] * lower[j][k] for k in range(j))) / d
        for c in range(p):
            solved[j, c] = (rows[j, c] - sum(
                lower[j][k] * solved[k, c] for k in range(j))) / d
    return np.array([lower[j][j] for j in range(r)]), solved


def _normalize_log_weights(log_w: np.ndarray, axis=None) -> np.ndarray:
    """exp(log_w) summing to 1 over ``axis`` (default: all entries); unlike
    exp(log_w - logsumexp), it cannot drift from 1 by eps * |log_w|."""
    w = np.exp(log_w - log_w.max(axis=axis, keepdims=True))
    return w / w.sum(axis=axis, keepdims=True)


def _warn_grid_edge(grid: PosteriorGrid) -> None:
    """GridEdgeWarning for each scale axis in use whose last node holds more
    than EDGE_MASS_TOL of the posterior: the grid truncates it there."""
    for name in grid.scale_names:
        nodes, w = grid.scale_axis(name)
        if nodes.size > 1 and w[-1] > EDGE_MASS_TOL:
            warnings.warn(
                f"the last {name} grid node ({nodes[-1]:g}) holds "
                f"{100 * w[-1]:.3g} % of the posterior mass, so the grid "
                f"truncates the posterior and its upper summaries are too "
                f"low; raise the {name} prior scale",
                GridEdgeWarning, stacklevel=4)


def _axis_descriptor(nodes: np.ndarray) -> dict:
    return {"n": int(nodes.size), "lo": float(nodes[0]), "hi": float(nodes[-1])}


def _provenance(data: MetaDataset, priors: PriorSpec, grid: GridSpec,
                options: dict) -> dict:
    return {
        "priors": {
            "tau_scale": priors.tau_scale,
            "tau_gamma_scale": priors.tau_gamma_scale,
            "location": {n: [m, s] for n, m, s in priors.location_prior},
        },
        "grid": {
            "tau": _axis_descriptor(grid.tau_nodes),
            "tau_gamma": _axis_descriptor(grid.tau_gamma_nodes),
            # literal kept until a benchmark change regenerates bench/golden/
            "quantile_resolution": 512,
        },
        "dataset_sha256": data.sha256,
        "n_studies": len(data.studies),
        "scale_label": data.scale_label,
        "seed": None,
        "options": options,
        "info_fractions": [float(s.info_fraction) for s in data.studies],
    }


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
    g, _, var_g, *_ = decompose_arrays(*subgroup_arrays(data))
    functionals = {"gamma": np.array([1.0])}
    tg = grid.tau_gamma_nodes
    blocks = [(g, np.ones((g.size, 1)), var_g, (tg ** 2)[None, :], None)]
    posterior = _solve_grid(
        blocks + _prior_blocks(priors, functionals, g.size, 1), ("gamma",),
        priors, np.array([0.0]), tg, ("tau_gamma",))
    return FitResult("BIM", posterior, _provenance(data, priors, grid, {}),
                     functionals)


def fit_overall(data: MetaDataset, priors: PriorSpec | None = None,
                grid: GridSpec | None = None) -> FitResult:
    """Univariate random-effects pooling of the weighted means m_j.

    m_j = (1 - pi_j) y_A + pi_j y_B carries sampling variance
    (1 - pi_j)^2 sigma_A^2 + pi_j^2 sigma_B^2 plus tau^2 between trials.
    """
    priors = priors if priors is not None else PriorSpec()
    grid = grid if grid is not None else GridSpec.default(priors)
    _, m, _, var_m, _ = decompose_arrays(*subgroup_arrays(data))
    functionals = {"mu": np.array([1.0])}
    taus = grid.tau_nodes
    blocks = [(m, np.ones((m.size, 1)), var_m, (taus ** 2)[:, None], None)]
    posterior = _solve_grid(
        blocks + _prior_blocks(priors, functionals, m.size, 1), ("mu",),
        priors, taus, np.array([0.0]), ("tau",))
    return FitResult("OVERALL", posterior, _provenance(data, priors, grid, {}),
                     functionals)


def fit_bms(data: MetaDataset, priors: PriorSpec | None = None,
            grid: GridSpec | None = None,
            alpha_heterogeneity: bool = False) -> FitResult:
    """Bivariate subgroup model with interactions centered at 0.5.

    Per study the mean is (alpha - gamma/2, alpha + gamma/2) and the
    covariance adds +/- tau_gamma^2/4 to the sampling covariance. The model
    carries no intercept heterogeneity by default; ``alpha_heterogeneity``
    adds a tau^2 term on all entries and a second grid axis. Each pair is
    two scalar observations, its contrast and its mean given the contrast
    (``_pair_blocks`` at pi = 0.5)."""
    priors = priors if priors is not None else PriorSpec()
    grid = grid if grid is not None else GridSpec.default(priors)
    arrays = subgroup_arrays(data, 0.5)
    j = arrays[0].size
    functionals = {
        "alpha": np.array([1.0, 0.0]),
        "gamma": np.array([0.0, 1.0]),
        "mu_a": np.array([1.0, -0.5]),
        "mu_b": np.array([1.0, 0.5]),
    }
    tg = grid.tau_gamma_nodes
    taus = grid.tau_nodes if alpha_heterogeneity else np.array([0.0])
    x = np.broadcast_to(np.array([[1.0, -0.5], [1.0, 0.5]]), (j, 2, 2))
    scale_names = ("tau", "tau_gamma") if alpha_heterogeneity else ("tau_gamma",)
    blocks = (_pair_blocks(*arrays, x, taus, tg)
              + _prior_blocks(priors, functionals, j, 2))
    posterior = _solve_grid(blocks, ("alpha", "gamma"), priors, taus, tg,
                            scale_names)
    return FitResult("BMS", posterior, _provenance(
        data, priors, grid, {"alpha_heterogeneity": alpha_heterogeneity}),
        functionals)


# the functionals CAMS reports, over its (alpha, delta, gamma) coordinates
_CAMS_FUNCTIONALS = {"alpha": (1.0, 0.0, 0.0), "beta": (0.0, 1.0, 1.0),
                    "delta": (0.0, 1.0, 0.0), "gamma": (0.0, 0.0, 1.0)}


def fit_cams(data: MetaDataset, priors: PriorSpec | None = None,
             grid: GridSpec | None = None) -> FitResult:
    """Contribution-adjusted bivariate model on a 2-D heterogeneity grid.

    The mean is y = alpha + delta * pi + gamma * x with x in {0, 1}, under
    the marginal covariance of ``model_core.cams_covariance``; the fit also
    reports the slope beta = delta + gamma of the equivalent form alpha +
    beta * pi + gamma * (x - pi).

    At the information fraction that covariance decouples the contrast g
    from the mean m, and the likelihood is the product of two blocks:
    g_j ~ N(gamma, var_g + tau_gamma^2) on the tau_gamma axis and the
    meta-regression m_j ~ N(alpha + beta pi_j, var_m + tau^2) on the tau
    axis. So the fit is two 1-D solves, the contrast fit of ``fit_bim`` and
    the meta-regression on (alpha, beta), and the lattice is their product
    (``_product_grid``). A location prior is one more observation of the
    block it loads on. A prior that loads on both (one on delta = beta -
    gamma), or a meta-regression that leaves a direction flat, keeps the
    joint solve of the two blocks on the lattice. ``verify.cams_oracle``,
    the joint solve of the (y_A, y_B) pairs, is the only other 2-D CAMS
    solve.
    """
    priors = priors if priors is not None else PriorSpec()
    grid = grid if grid is not None else GridSpec.default(priors)
    ya, yb, va, vb, pi = subgroup_arrays(data)
    g, m, var_g, var_m, _ = decompose_arrays(ya, yb, va, vb, pi)
    j = g.size
    functionals = {name: np.array(c) for name, c in _CAMS_FUNCTIONALS.items()}
    taus, tg = grid.tau_nodes, grid.tau_gamma_nodes
    blocks = [(g, np.tile([0.0, 0.0, 1.0], (j, 1)), var_g, (tg ** 2)[None, :],
               None),
              (m, np.stack([np.ones(j), pi, pi], axis=1), var_m,
               (taus ** 2)[:, None], None)]
    blocks += _prior_blocks(priors, functionals, j, 3)
    names = ("alpha", "delta", "gamma")
    # (alpha, delta, gamma) = basis @ (alpha, beta, gamma)
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
    factors = _factor_blocks(blocks, basis, (2, 1))
    if factors is None:
        posterior = _solve_grid(blocks, names, priors, taus, tg,
                                ("tau", "tau_gamma"))
    else:
        zero = np.array([0.0])
        posterior = _product_grid(
            _solve_grid(factors[0], ("alpha", "beta"), priors, taus, zero,
                        ("tau",)),
            _solve_grid(factors[1], ("gamma",), priors, zero, tg,
                        ("tau_gamma",)),
            basis, names)
    # literal kept until a benchmark change regenerates bench/golden/
    return FitResult("CAMS", posterior, _provenance(
        data, priors, grid, {"parametrization": "explicit"}), functionals)


def _factor_blocks(blocks, basis: np.ndarray, sizes: tuple):
    """Node-free ``blocks`` over theta = basis phi split among the factors
    that take ``sizes`` consecutive coordinates of phi each: per factor, the
    rows that load on it alone, in its coordinates. None when a row loads
    on two factors, or when a factor's rows leave one of its directions
    flat (the joint solve then names the flat directions in theta)."""
    edges = np.cumsum((0,) + sizes)
    parts = [[] for _ in sizes]
    for y, x, var, het2, _ in blocks:
        coef = x @ basis
        loads = np.array([np.any(coef[:, lo:hi] != 0.0, axis=1)
                          for lo, hi in zip(edges[:-1], edges[1:])])
        if np.any(loads.sum(axis=0) > 1):
            return None
        for part, rows, lo, hi in zip(parts, loads, edges[:-1], edges[1:]):
            if rows.any():
                part.append((y[rows], coef[rows, lo:hi], var[rows], het2,
                             None))
    ranks = [np.linalg.matrix_rank(np.concatenate([x for _, x, *_ in part]))
             if part else 0 for part in parts]
    return parts if ranks == list(sizes) else None


def _product_grid(mean: PosteriorGrid, contrast: PosteriorGrid,
                  basis: np.ndarray, param_names: tuple) -> PosteriorGrid:
    """The lattice of the product of a (T, 1) posterior on the tau axis and
    a (1, G) one on the tau_gamma axis, over theta = basis phi for phi their
    coordinates in turn: log weights add and weights multiply, and the
    conditional means and covariances that each factor gives theta through
    its columns of ``basis`` add. The lattice keeps both factors, each with
    those columns."""
    split = len(mean.param_names)
    factors = ((mean, basis[:, :split]), (contrast, basis[:, split:]))
    return PosteriorGrid(
        mean.tau_nodes, contrast.tau_gamma_nodes,
        mean.log_weight + contrast.log_weight, mean.weight * contrast.weight,
        sum(f.cond_mean @ cols.T for f, cols in factors),
        sum(cols @ f.cond_cov @ cols.T for f, cols in factors),
        param_names, mean.scale_names + contrast.scale_names, factors)


# ----------------------------------------------------------------------
# posterior queries
# ----------------------------------------------------------------------

def interaction_trace(fit: FitResult, tau_gamma_values) -> list:
    """Conditional interaction posterior along the tau_gamma axis.

    Each requested value snaps to the nearest grid node (the node actually
    used is returned). The conditional law of gamma given tau_gamma is the
    mixture over the remaining axis; reported with a 50% equal-tailed
    interval. Gamma is read off the grid ``_factor_reads`` gives it: on a
    CAMS product lattice the contrast factor, BIM's posterior.
    """
    if "gamma" not in fit.functionals or "tau_gamma" not in fit.grid.scale_names:
        raise ContractError(
            f"{fit.estimator} fit has no interaction/heterogeneity axis to trace")
    [(grid, vec, _)] = _factor_reads(fit.grid,
                                     fit.functionals["gamma"][None, :])
    mean, sd = _functional_moments(grid, vec)
    t, g = grid.weight.shape
    mean, sd = mean.reshape(t, g).T, sd.reshape(t, g).T
    values = np.atleast_1d(np.asarray(tau_gamma_values, dtype=float))
    idx = np.argmin(np.abs(grid.tau_gamma_nodes[None, :] - values[:, None]),
                    axis=1)
    # conditional weights over tau at each chosen tau_gamma node, from the
    # log weights so that a column of negligible total mass cannot underflow;
    # per-row weights have no merged lattice, so the start is moment-matched
    w = _normalize_log_weights(grid.log_weight.T[idx], axis=1)
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
# term, which vanishes at the information fraction. The three density
# helpers work elementwise over leading axes and take residuals (value minus
# mean); ``verify``'s K-subgroup checks use them too.

def _normal_logpdf(r, var):
    """log N(r; 0, var), elementwise."""
    return -0.5 * (_LOG_2PI + np.log(var) + r * r / var)


def _mvn_logpdf(r: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """log N(r; 0, cov) for residual rows r (..., q) and covariances
    (..., q, q); NaN throughout if any determinant is not positive."""
    sign, logdet = np.linalg.slogdet(cov)
    if not np.all(sign > 0):  # solve would raise on a singular block
        return np.full(sign.shape, math.nan)
    z = np.linalg.solve(cov, r[..., None])[..., 0]
    return -0.5 * (r.shape[-1] * _LOG_2PI + logdet + np.sum(r * z, axis=-1))


def _block_cross_term(r1: np.ndarray, cov11: np.ndarray, r2, var2,
                      cross: np.ndarray) -> np.ndarray:
    """log p(r1, r2) - log p(r1) - log p(r2) of a zero-mean Gaussian with
    blocks r1 (..., q) and scalar r2, Cov(r1) = cov11, Var(r2) = var2 and
    Cov(r1, r2) = cross (..., q), from the law of r2 given r1: mean r1' w,
    variance var2 - cross' w, w = cov11^-1 cross."""
    w = np.linalg.solve(cov11, cross[..., None])[..., 0]
    var_cond = var2 - np.sum(cross * w, axis=-1)
    mean_cond = np.sum(r1 * w, axis=-1)
    return -0.5 * (np.log(var_cond / var2) + (r2 - mean_cond) ** 2 / var_cond
                   - r2 * r2 / var2)


def joint_loglikelihood(data: MetaDataset, alpha: float, delta: float,
                        gamma: float, het: CovarianceStructure,
                        pi=None) -> float:
    """Log likelihood of all (y_A, y_B) pairs under the explicit-slope model."""
    ya, yb, va, vb, p = subgroup_arrays(data, pi)
    mean_a = alpha + delta * p
    resid = np.stack([ya - mean_a, yb - mean_a - gamma], axis=1)
    v = cams_covariance(va, vb, p, het.tau, het.tau_gamma)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        total = float(_mvn_logpdf(resid, v).sum())
    if not math.isfinite(total):
        raise DomainError("the joint log likelihood is not finite in float64; "
                          "are the standard errors on an extreme scale?")
    return total


def _block_residuals(data: MetaDataset, alpha: float, delta: float,
                     gamma: float, het: CovarianceStructure, pi):
    """Contrast and mean residuals, their variances and Cov(g, m)."""
    arrays = subgroup_arrays(data, pi)
    g, m, var_g, var_m, c = decompose_arrays(*arrays)
    return (g - gamma, m - (alpha + (delta + gamma) * arrays[4]),
            var_g + het.tau_gamma ** 2, var_m + het.tau ** 2, c)


def factorized_loglikelihood(data: MetaDataset, alpha: float, delta: float,
                             gamma: float, het: CovarianceStructure,
                             pi=None) -> tuple[float, float]:
    """(contrast-block, mean-block) log likelihoods of the decomposed data."""
    rg, rm, vg, vm, _ = _block_residuals(data, alpha, delta, gamma, het, pi)
    return (float(np.sum(_normal_logpdf(rg, vg))),
            float(np.sum(_normal_logpdf(rm, vm))))


def factorization_residual(data: MetaDataset, alpha: float, delta: float,
                           gamma: float, het: CovarianceStructure,
                           pi=None) -> float:
    """Joint log likelihood minus the two-block sum; 0 at the IF."""
    lg, lm = factorized_loglikelihood(data, alpha, delta, gamma, het, pi)
    return joint_loglikelihood(data, alpha, delta, gamma, het, pi) - lg - lm


def cross_term_correction(data: MetaDataset, alpha: float, delta: float,
                          gamma: float, het: CovarianceStructure,
                          pi=None) -> float:
    """Analytic value of the factorization residual for arbitrary prevalence:
    the sum over studies of ``_block_cross_term`` of (g, m), whose
    covariance c = Cov(g, m) = pi sigma_B^2 - (1 - pi) sigma_A^2 vanishes at
    the information fraction."""
    rg, rm, vg, vm, c = _block_residuals(data, alpha, delta, gamma, het, pi)
    return float(np.sum(_block_cross_term(rg[:, None], vg[:, None, None], rm,
                                          vm, c[:, None])))
