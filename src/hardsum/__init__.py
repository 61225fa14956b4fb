"""hardsum: hard finite-sum instances, oracle accounting, and
variance-reduced cubic regularization.

The package builds worst-case smooth non-convex finite sums (an adaptive
adversary for deterministic algorithms and a randomized static family),
meters algorithms through an incremental component oracle, runs SVRC and
full-information baselines against them, and ships a verification battery
for every numerically checkable property.
"""
from .chains import (Derivatives, chain_eval, clamp_radius, hat_f_eval, phi,
                     psi, soft_clamp)
from .cubic import CubicModel, CubicSolution, model_value, solve
from .instances import (HardInstanceSpec, InstanceTooSmallError,
                        NotFinalizedError, RandomizedHardInstance,
                        ResistingCertificate, ResistingOracle,
                        deterministic_params, ell_p, lemma_d_requirement,
                        load_b_matrix, randomized_params,
                        sample_randomized_instance, save_b_matrix)
from .linalg import (TallOrthogonal, eig_sym, finite_diff_gradient,
                     finite_diff_jacobian, sample_orthonormal_columns)
from .optim import (SvrcParams, TrajectoryRecord, baseline_full_cubic,
                    baseline_full_gd, mu, svrc_default_params,
                    svrc_gradient_estimator, svrc_hessian_estimator, svrc_run)
from .oracle import (CallableFiniteSum, FiniteSumFunction, OracleLedger,
                     quadratic_cosine_sum, query, record_iterate)
from .verify import (SmoothnessReport, check_derivatives, check_zero_chain,
                     default_ell_hat, estimate_smoothness, run_battery,
                     verify_estimator_bounds, verify_large_gradient,
                     verify_suboptimality)

__version__ = "0.1.0"

__all__ = [
    "Derivatives", "chain_eval", "clamp_radius", "hat_f_eval", "phi", "psi",
    "soft_clamp",
    "CubicModel", "CubicSolution", "model_value", "solve",
    "HardInstanceSpec", "InstanceTooSmallError", "NotFinalizedError",
    "RandomizedHardInstance",
    "ResistingCertificate", "ResistingOracle", "deterministic_params",
    "ell_p", "lemma_d_requirement", "load_b_matrix", "randomized_params",
    "sample_randomized_instance", "save_b_matrix",
    "TallOrthogonal", "eig_sym", "finite_diff_gradient",
    "finite_diff_jacobian", "sample_orthonormal_columns",
    "SvrcParams", "TrajectoryRecord", "baseline_full_cubic",
    "baseline_full_gd", "mu", "svrc_default_params",
    "svrc_gradient_estimator", "svrc_hessian_estimator", "svrc_run",
    "CallableFiniteSum", "FiniteSumFunction", "OracleLedger",
    "quadratic_cosine_sum", "query", "record_iterate",
    "SmoothnessReport", "check_derivatives", "check_zero_chain",
    "default_ell_hat", "estimate_smoothness", "run_battery",
    "verify_estimator_bounds", "verify_large_gradient",
    "verify_suboptimality",
    "__version__",
]
