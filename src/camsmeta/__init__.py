"""Contribution-adjusted Bayesian meta-analysis of subgroup effects.

Two-subgroup trials report per-subgroup estimates whose precisions define an
information fraction; this package fits the contribution-adjusted model on a
deterministic heterogeneity grid, alongside the interaction-only and
subgroup-specific reference estimators, and provides prevalence-based
reporting plus a numerical verification battery for the identities the
method rests on.
"""

from .errors import (CamsmetaError, CamsmetaWarning, ContractError,
                     DomainError, ExtrapolationWarning, GridEdgeWarning,
                     IdentifiabilityWarning, ValidationWarning)
from .model_core import (CovarianceStructure, MetaDataset, StudyRecord,
                         SubgroupObservation, compose, compute_if, cov_gm,
                         decompose)
from .contrasts import (ContrastBasis, contrast_mean_cov, helmert_basis,
                        kronecker_contrast, per_arm_prevalence,
                        precision_prevalence, transform_matrix)
from .gaussmix import GaussianMixture1D
from .inference import (FitResult, GridSpec, ParameterSummary, PosteriorGrid,
                        PriorSpec, TracePoint, cross_term_correction,
                        factorization_residual, factorized_loglikelihood,
                        fit_bim, fit_bms, fit_cams, fit_overall,
                        interaction_trace, joint_loglikelihood)
from .reporting import (STRATEGY_KINDS, OptimalIF, PrevalenceSpec,
                        ReportedEffects, bayes_risk, beta_moments, effects_at,
                        marginalize_prevalence, optimal_if, overall_if,
                        report_effects, strategy_prevalence)
from .verify import (SimScenario, check_bayes_optimum, check_equivalence,
                     check_k_sufficiency, check_kronecker, leverage_scenario,
                     run_battery, simulate)
from .io_cli import RunConfig, load_csv, main, run, save_csv

__version__ = "0.1.0"

__all__ = [
    "CamsmetaError", "CamsmetaWarning", "ContractError", "DomainError",
    "ExtrapolationWarning", "GridEdgeWarning", "IdentifiabilityWarning",
    "ValidationWarning",
    "CovarianceStructure", "MetaDataset", "StudyRecord",
    "SubgroupObservation", "compose", "compute_if", "cov_gm", "decompose",
    "ContrastBasis", "contrast_mean_cov", "helmert_basis",
    "kronecker_contrast", "per_arm_prevalence", "precision_prevalence",
    "transform_matrix",
    "GaussianMixture1D",
    "FitResult", "GridSpec", "ParameterSummary", "PosteriorGrid", "PriorSpec",
    "TracePoint", "cross_term_correction", "factorization_residual",
    "factorized_loglikelihood", "fit_bim", "fit_bms", "fit_cams",
    "fit_overall", "interaction_trace", "joint_loglikelihood",
    "STRATEGY_KINDS", "OptimalIF", "PrevalenceSpec", "ReportedEffects",
    "bayes_risk", "beta_moments", "effects_at", "marginalize_prevalence",
    "optimal_if", "overall_if", "report_effects", "strategy_prevalence",
    "SimScenario", "check_bayes_optimum", "check_equivalence",
    "check_k_sufficiency", "check_kronecker", "leverage_scenario",
    "run_battery", "simulate",
    "RunConfig", "load_csv", "main", "run", "save_csv",
    "__version__",
]
