"""Contraction certificates and mean-square noise bounds for discrete,
continuous, and hybrid resetting systems, with seeded Monte Carlo machinery
to verify the bounds empirically."""

from .statespace import (ContinuousSDESystem, DimensionMismatch, DiscreteMapSystem,
                         GaussianNoiseSpec, HybridSystem, MetricSpec,
                         NotPositiveDefinite, factor_metric)
from .geometry import SingularFactor, numerical_jacobian
from .certify import (ContractionCertificate, SamplingRegion, SupEstimate,
                      certify_continuous, certify_discrete, estimate_continuous_rate,
                      estimate_discrete_rate, noise_bound_continuous,
                      noise_bound_discrete)
from .bounds import (BetaOutOfRange, BoundReport, CRITICAL_REL_TOL,
                     NEAR_CRITICAL_REL_TOL, ParameterRange, certified_bound,
                     classify_regime, continuous_bound_at, discrete_distance_bound,
                     discrete_ms_bound, hybrid_bound)
from .simulate import (BoundCheck, EnsembleConfig, EnsembleStats, InitialBox,
                       InitialPointPair, NonFiniteState, SamplePath, check_bound_respect,
                       derive_stream, run_pair_ensemble, sample_path)
from .cpg import (CPGExperimentResult, CPGParams, DeltaBoundSummary, GLOBAL_FLOW_RATE,
                  LockingComparison, ROTATION_THIRD, STRONG_COUPLING, WEAK_COUPLING,
                  build_cpg_system, coupling_contraction_factor,
                  coupling_matrix, locking_condition, phase_aligned_components,
                  phase_locking_delta, reduced_constants, ring_drift, ring_jacobian,
                  run_cpg_experiment, run_locking_comparison, theoretical_delta_bound)
from .systems import (BUILTIN_SYSTEMS, SystemNotFound, SystemRecipe, UnknownParameter,
                      get_recipe, resolve_params)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_SYSTEMS", "BetaOutOfRange", "BoundCheck", "BoundReport",
    "CRITICAL_REL_TOL", "NEAR_CRITICAL_REL_TOL", "CPGExperimentResult", "CPGParams",
    "ContinuousSDESystem", "ContractionCertificate", "DeltaBoundSummary",
    "DimensionMismatch", "DiscreteMapSystem", "EnsembleConfig", "EnsembleStats",
    "GLOBAL_FLOW_RATE", "GaussianNoiseSpec", "HybridSystem", "InitialBox",
    "InitialPointPair", "LockingComparison", "MetricSpec", "NonFiniteState",
    "NotPositiveDefinite", "ParameterRange", "ROTATION_THIRD",
    "SamplePath", "SamplingRegion", "SingularFactor", "STRONG_COUPLING", "SupEstimate",
    "SystemNotFound", "SystemRecipe", "WEAK_COUPLING", "build_cpg_system",
    "certified_bound", "certify_continuous", "certify_discrete",
    "check_bound_respect", "classify_regime", "continuous_bound_at",
    "coupling_contraction_factor", "coupling_matrix", "derive_stream",
    "discrete_distance_bound", "discrete_ms_bound", "estimate_continuous_rate",
    "estimate_discrete_rate", "factor_metric", "get_recipe",
    "hybrid_bound", "locking_condition", "noise_bound_continuous",
    "noise_bound_discrete", "numerical_jacobian", "phase_aligned_components",
    "phase_locking_delta", "reduced_constants", "resolve_params", "ring_drift",
    "ring_jacobian", "run_cpg_experiment", "run_locking_comparison",
    "run_pair_ensemble", "sample_path", "theoretical_delta_bound",
]
