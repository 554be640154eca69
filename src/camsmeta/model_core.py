"""Data model and within-trial contrast algebra.

Every trial contributes estimates for two subgroups, A and B, on a log effect
scale (log-RR, log-OR, log-HR). The information fraction (IF) of subgroup B,

    pi = sigma_A^2 / (sigma_A^2 + sigma_B^2),

is the share of the trial's statistical information carried by subgroup B. The
pair (y_A, y_B) maps linearly to the contrast g = y_B - y_A and the
prevalence-weighted mean m = (1 - pi) y_A + pi y_B; when pi is the IF, g and m
are uncorrelated within the trial, which is the identity that the rest of the
package exploits.

All effects stay on the log scale here; exponentiation is an output-formatting
concern.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractError, DomainError, ValidationWarning

# Reported info fractions are validated against the recomputed value at this
# tolerance; the recomputed value always wins.
IFRAC_MATCH_TOL = 1e-6


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SubgroupObservation:
    """One subgroup's estimate within a trial."""

    subgroup_label: str
    estimate: float
    std_error: float
    count: int | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.estimate):
            raise DomainError(f"estimate must be finite, got {self.estimate}")
        if not (self.std_error > 0) or not math.isfinite(self.std_error):
            raise DomainError(f"std_error must be positive, got {self.std_error}")
        if self.count is not None and self.count < 0:
            raise DomainError(f"count must be nonnegative, got {self.count}")


@dataclass(frozen=True)
class StudyRecord:
    """A two-subgroup trial with the IF implied by its standard errors."""

    study_id: str
    obs_a: SubgroupObservation
    obs_b: SubgroupObservation
    info_fraction: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "info_fraction",
                           _record_if(self.study_id, self.obs_a, self.obs_b))

    @classmethod
    def from_observations(cls, study_id: str,
                          obs_a: SubgroupObservation,
                          obs_b: SubgroupObservation,
                          reported_ifrac: float | None = None) -> "StudyRecord":
        """Build a record, always recomputing the IF from standard errors.

        A reported info fraction, when given, is only validated (tolerance
        1e-6, warning on mismatch), never adopted: the recomputed IF is what
        carries the orthogonality guarantee.
        """
        record = cls(study_id, obs_a, obs_b)
        pi = record.info_fraction
        if reported_ifrac is not None and abs(reported_ifrac - pi) > IFRAC_MATCH_TOL:
            warnings.warn(
                f"study {study_id}: reported ifrac {reported_ifrac} differs from "
                f"the value {pi} recomputed from standard errors; using the "
                f"recomputed value",
                ValidationWarning, stacklevel=2)
        return record


def _record_if(study_id: str, obs_a: SubgroupObservation,
               obs_b: SubgroupObservation) -> float:
    """``compute_if`` after checking that both variances are positive finite
    floats; a subnormal variance passes, the fits refuse it later."""
    for obs in (obs_a, obs_b):
        var = obs.std_error * obs.std_error
        if not 0.0 < var < math.inf:
            raise DomainError(
                f"study {study_id}: subgroup {obs.subgroup_label} standard "
                f"error {obs.std_error!r} squares to {var!r}, outside float64 "
                f"range; rescale the estimates and standard errors")
    return compute_if(obs_a.std_error, obs_b.std_error)


@dataclass(frozen=True)
class MetaDataset:
    """An ordered collection of studies sharing one effect scale."""

    studies: tuple
    scale_label: str = "log-RR"

    def __post_init__(self) -> None:
        object.__setattr__(self, "studies", tuple(self.studies))
        if len(self.studies) == 0:
            raise ContractError("dataset must contain at least one study")
        for i, s in enumerate(self.studies):
            if not isinstance(s, StudyRecord):
                raise ContractError(f"studies[{i}] is a {type(s).__name__}, "
                                    f"not a StudyRecord")
        ids = [s.study_id for s in self.studies]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ContractError(f"duplicate study ids: {dupes}")

    @property
    def info_fractions(self) -> np.ndarray:
        return np.array([s.info_fraction for s in self.studies])

    @cached_property
    def sha256(self) -> str:
        """Hex digest of the scale label and every study's values, computed
        once per dataset; fits record it as provenance. The second line is
        always "True", so digests match those of earlier releases."""
        lines = [self.scale_label, "True"]
        for s in self.studies:
            lines.append("|".join([
                s.study_id, repr(s.obs_a.estimate), repr(s.obs_a.std_error),
                repr(s.obs_a.count), repr(s.obs_b.estimate),
                repr(s.obs_b.std_error), repr(s.obs_b.count)]))
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass(frozen=True)
class CovarianceStructure:
    """Between-study heterogeneity SDs for overall effect and interaction."""

    tau: float = 0.0
    tau_gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.tau < 0 or self.tau_gamma < 0:
            raise DomainError(
                f"heterogeneities must be nonnegative, got tau={self.tau}, "
                f"tau_gamma={self.tau_gamma}")


# ----------------------------------------------------------------------
# information-fraction arithmetic
# ----------------------------------------------------------------------

def compute_if(sigma_a: float, sigma_b: float) -> float:
    """Information fraction of subgroup B from the two standard errors.

    Parameters
    ----------
    sigma_a, sigma_b : float
        Positive standard errors of the subgroup A and B estimates.

    Returns
    -------
    float
        sigma_a**2 / (sigma_a**2 + sigma_b**2), algebraically equal to the
        precision form sigma_b**-2 / (sigma_a**-2 + sigma_b**-2).
    """
    if not (sigma_a > 0) or not (sigma_b > 0):
        raise DomainError(
            f"standard errors must be positive, got ({sigma_a}, {sigma_b})")
    va = sigma_a * sigma_a
    vb = sigma_b * sigma_b
    return va / (va + vb)


# ----------------------------------------------------------------------
# contrast / mean decomposition
# ----------------------------------------------------------------------

def decompose(study: StudyRecord, pi: float) -> tuple[float, float]:
    """Map a study's subgroup estimates to (contrast, weighted mean).

    Parameters
    ----------
    study : StudyRecord
    pi : float in [0, 1]
        Weight of subgroup B in the mean; pass ``study.info_fraction`` for the
        orthogonal decomposition.

    Returns
    -------
    (g, m) : tuple of float
        g = y_B - y_A and m = (1 - pi) y_A + pi y_B. The map is linear and
        invertible for every pi (its determinant is -1), see :func:`compose`.
    """
    _check_unit_interval(pi, "pi")
    y_a = study.obs_a.estimate
    y_b = study.obs_b.estimate
    return y_b - y_a, (1.0 - pi) * y_a + pi * y_b


def compose(g: float, m: float, pi: float) -> tuple[float, float]:
    """Inverse of :func:`decompose`: recover (y_A, y_B) from (g, m)."""
    _check_unit_interval(pi, "pi")
    y_a = m - pi * g
    return y_a, y_a + g


def cov_gm(pi: float, var_a: float, var_b: float) -> float:
    """Within-trial covariance of the contrast g and the weighted mean m.

    For a diagonal sampling covariance diag(var_a, var_b),

        Cov(g, m) = pi * var_b - (1 - pi) * var_a,

    which is affine in pi and vanishes exactly at the information fraction
    pi = var_a / (var_a + var_b). At pi = 0.5 this is (var_b - var_a) / 2.
    """
    _check_unit_interval(pi, "pi")
    if not (var_a > 0) or not (var_b > 0):
        raise DomainError(f"variances must be positive, got ({var_a}, {var_b})")
    return decompose_arrays(0.0, 0.0, var_a, var_b, pi)[4]


def cams_covariance(var_a, var_b, pi, tau, tau_gamma) -> np.ndarray:
    """Marginal covariance of (y_A, y_B) under the hierarchical model.

    The shared trial effect contributes tau^2 on every entry; the interaction
    random effect loads on (x - pi) with x in {0, 1}, contributing

        [[pi^2, -pi (1 - pi)], [-pi (1 - pi), (1 - pi)^2]] * tau_gamma^2

    on top of the sampling covariance diag(sigma_A^2, sigma_B^2). At pi = 0.5
    with tau = 0 this reduces to the familiar +/- tau_gamma^2 / 4 pattern.
    The arguments broadcast against each other; the result has shape
    (..., 2, 2).
    """
    t2 = np.square(tau)
    tg2 = np.square(tau_gamma)
    off = t2 - pi * (1.0 - pi) * tg2
    a, off, d = np.broadcast_arrays(var_a + t2 + pi * pi * tg2, off,
                                    var_b + t2 + (1.0 - pi) * (1.0 - pi) * tg2)
    return np.stack([np.stack([a, off], axis=-1),
                     np.stack([off, d], axis=-1)], axis=-2)


def subgroup_arrays(data: MetaDataset, pi=None):
    """Study vectors (y_A, y_B, sigma_A^2, sigma_B^2, pi); ``pi`` defaults
    to the information fractions, an override must lie in [0, 1]."""
    ya = np.array([s.obs_a.estimate for s in data.studies])
    yb = np.array([s.obs_b.estimate for s in data.studies])
    va = np.array([s.obs_a.std_error ** 2 for s in data.studies])
    vb = np.array([s.obs_b.std_error ** 2 for s in data.studies])
    if pi is None:
        return ya, yb, va, vb, data.info_fractions
    pi = np.broadcast_to(np.asarray(pi, dtype=float), ya.shape).copy()
    if not np.all((pi >= 0.0) & (pi <= 1.0)):
        raise DomainError("prevalence values must lie in [0, 1]")
    return ya, yb, va, vb, pi


def decompose_arrays(ya, yb, va, vb, pi):
    """Vectorized :func:`decompose` plus the sampling moments: (g, m, var_g,
    var_m, c), where c = Cov(g, m) vanishes at the IF (:func:`cov_gm`)."""
    return (yb - ya, (1.0 - pi) * ya + pi * yb, va + vb,
            (1.0 - pi) ** 2 * va + pi ** 2 * vb, pi * vb - (1.0 - pi) * va)


def _check_unit_interval(x: float, name: str) -> None:
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"{name} must lie in [0, 1], got {x}")
