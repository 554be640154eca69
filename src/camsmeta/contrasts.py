"""Contrast matrices and prevalence algebra for K subgroups.

A contrast basis is a pair (C, B): C is a full-row-rank (K-1) x K matrix whose
rows sum to zero, and B is a K x (K-1) matrix spanning the same contrast space
with 1'B = 0. Stacking C over a prevalence row pi' gives the invertible
transform T that splits a study's estimate vector into contrasts g = C y and
the prevalence-weighted mean m = pi' y. With precision-proportional
prevalences, S pi is a multiple of the ones vector, so C S pi = 0 and the two
blocks decouple.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, IdentifiabilityWarning

# A 1-norm condition number above this triggers a warning.
CONDITION_WARN_THRESHOLD = 1e8

_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class ContrastBasis:
    """Contrast rows C and a spanning basis B for K subgroup levels."""

    matrix_c: np.ndarray
    basis_b: np.ndarray
    k: int

    def __post_init__(self) -> None:
        c = np.atleast_2d(np.asarray(self.matrix_c, dtype=float))
        b = np.atleast_2d(np.asarray(self.basis_b, dtype=float))
        object.__setattr__(self, "matrix_c", c)
        object.__setattr__(self, "basis_b", b)
        k = self.k
        if c.shape != (k - 1, k):
            raise ContractError(f"C must be (K-1)xK = {(k - 1, k)}, got {c.shape}")
        if b.shape != (k, k - 1):
            raise ContractError(f"B must be Kx(K-1) = {(k, k - 1)}, got {b.shape}")
        scale = max(np.abs(c).max(), 1.0)
        if np.abs(c.sum(axis=1)).max() > _ZERO_TOL * scale:
            raise ContractError("contrast rows must sum to zero")
        if np.linalg.matrix_rank(c) != k - 1:
            raise ContractError("contrast rows must be linearly independent")
        bscale = max(np.abs(b).max(), 1.0)
        if np.abs(b.sum(axis=0)).max() > _ZERO_TOL * bscale:
            raise ContractError("basis columns must sum to zero")
        cb = c @ b
        if abs(np.linalg.det(cb)) < 1e-12:
            raise ContractError("C @ B must be nonsingular")


def helmert_basis(k: int) -> ContrastBasis:
    """Unnormalized Helmert contrasts for k levels.

    Row i compares level i+1 against the mean of levels 1..i, scaled to
    integer entries: (-1, ..., -1, i, 0, ..., 0). The companion basis is the
    right pseudo-inverse B = C' (C C')^{-1}, so C @ B is the identity; that
    normalization makes the K=2 case reduce to the plain contrast y_2 - y_1
    with unit coefficient.
    """
    if k < 2:
        raise DomainError(f"need at least 2 levels, got {k}")
    c = np.zeros((k - 1, k))
    for i in range(1, k):
        c[i - 1, :i] = -1.0
        c[i - 1, i] = float(i)
    b = c.T @ np.linalg.inv(c @ c.T)
    return ContrastBasis(c, b, k)


def precision_prevalence(cov_diag: np.ndarray) -> np.ndarray:
    """Prevalences proportional to the subgroup precisions.

    Returns pi with pi_s = (1/var_s) / sum_t (1/var_t) (along the last axis
    of a stack). The defining property is S pi = kappa 1 with kappa = 1 /
    sum_t (1/var_t): every subgroup then contributes the same amount of
    information-weighted mass, and contrasts of S pi vanish.
    """
    var = np.asarray(cov_diag, dtype=float)
    if var.ndim == 0 or var.shape[-1] == 0:
        raise ContractError(f"cov_diag must be a nonempty vector, got shape {var.shape}")
    if not np.all(var > 0):
        raise DomainError("all variances must be positive")
    prec = 1.0 / var
    return prec / prec.sum(axis=-1, keepdims=True)


def contrast_mean_cov(basis: ContrastBasis, cov_diag: np.ndarray,
                      pi: np.ndarray) -> np.ndarray:
    """Covariance vector Cov(C y, pi' y) = C S pi for diagonal S (per row
    of equal-shape stacks)."""
    var = np.asarray(cov_diag, dtype=float)
    pvec = np.asarray(pi, dtype=float)
    if var.shape[-1:] != (basis.k,) or pvec.shape != var.shape:
        raise ContractError(
            f"cov_diag and pi must have length K={basis.k}, "
            f"got {var.shape} and {pvec.shape}")
    return (var * pvec) @ basis.matrix_c.T


def transform_matrix(basis: ContrastBasis, pi: np.ndarray) -> np.ndarray:
    """The K x K transform stacking C over pi' (one per row of a stack),
    certified invertible.

    Nonsingularity is certified by the exact 1-norm condition number,
    infinite at an exactly zero LU pivot, in one call for a whole stack;
    above 1e8 in any row it emits one warning since the split into (g, m)
    then amplifies noise.
    """
    pvec = np.asarray(pi, dtype=float)
    if pvec.shape[-1:] != (basis.k,):
        raise ContractError(f"pi must have length K={basis.k}, got {pvec.shape}")
    c = np.broadcast_to(basis.matrix_c, pvec.shape[:-1] + basis.matrix_c.shape)
    rows = np.concatenate([c, pvec[..., None, :]], axis=-2)
    cond = np.max(np.linalg.cond(rows, 1))
    if not np.isfinite(cond):
        raise ContractError("transform is singular for this prevalence vector")
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"transform condition number {cond:.3g} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e}; (g, m) split is ill-conditioned",
            IdentifiabilityWarning, stacklevel=2)
    return rows


def kronecker_contrast(treat_basis: ContrastBasis,
                       subgroup_basis: ContrastBasis) -> np.ndarray:
    """Treatment-by-subgroup contrast rows C_T (x) C_K.

    Acts on an estimate vector ordered treatment-major (all K subgroups of arm
    1, then arm 2, ...). Each row annihilates the ones vector of length T*K
    because both factors do.
    """
    return np.kron(treat_basis.matrix_c, subgroup_basis.matrix_c)


def per_arm_prevalence(arm_cov_diags: np.ndarray) -> np.ndarray:
    """Stack per-arm precision prevalences for a T x K variance table (or for
    each table of a stack).

    Within each treatment arm the prevalences are precision-proportional; the
    arms are then weighted uniformly so the stacked vector sums to 1. Any
    positive arm weighting preserves the Kronecker orthogonality identity
    because each arm block is annihilated separately; how arms *should* be
    weighted when their sizes differ is left open here.
    """
    table = np.atleast_2d(np.asarray(arm_cov_diags, dtype=float))
    t, k = table.shape[-2:]
    return (precision_prevalence(table) / t).reshape(table.shape[:-2] + (t * k,))
