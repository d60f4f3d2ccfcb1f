"""Certified error bounds for tensor complementarity problems with P-tensors.

The tensor complementarity problem TCP(q, A) asks for ``z >= 0`` with
``w = A z^{m-1} + q >= 0`` and ``z . w = 0``.  This package solves desk-scale
instances, certifies the P-property quantitatively through the coefficient
``alpha``, and computes two-sided bounds on how far any test point ``u`` is
from a verified solution, including a sharpened sandwich that is provably
never looser than the classical residual bound on the upper side.
"""

from .bounds import (
    FLAG_CLAMPED_DISCRIMINANT,
    FLAG_DEGENERATE_Q,
    FLAG_DEGENERATE_Z,
    FLAG_EXACT_SOLUTION,
    FLAG_EXACT_SOLUTION_INCONSISTENT,
    FLAG_NEGATIVE_ARGMAX,
    FLAG_UNCERTIFIED_ALPHA,
    BoundReport,
    ResidualData,
    build_report,
    compare_upper_bounds,
    diagonal_bounds,
    error_bounds_new,
    error_bounds_zheng,
    relative_error_bounds,
    residual,
    solution_norm_bounds,
)
from .errors import (
    DegenerateQError,
    DegenerateZError,
    DimensionLimitError,
    DimensionMismatchError,
    ExactSolutionInconsistentError,
    InvariantViolationError,
    NotPositiveDiagonalError,
    NotPTensorError,
    ProblemFormatError,
    SolutionVerificationError,
    TcpBoundsError,
)
from .io import ProblemFile, emit_problem, parse_problem
from .operators import (
    ALPHA_F,
    ALPHA_T,
    CLOSED_FORM_DIAGONAL,
    GRID_REFINED,
    LIKELY_P,
    NOT_P,
    AlphaEstimate,
    GridSpec,
    PTensorCheck,
    alpha_F_diagonal,
    alpha_for,
    apply_F,
    apply_T,
    check_p_tensor_sampled,
    diagonal_alpha_estimate,
    estimate_alpha,
)
from .solve import (
    SolutionCertificate,
    SolveOptions,
    TcpInstance,
    solve_diagonal,
    solve_enumerate,
    verify_solution,
)
from .tensor import (
    DenseTensor,
    contract_full,
    contract_m1,
    contract_m1_batch,
    jacobian_m1_batch,
    positive_part,
    signed_root,
    tensor_inf_norm,
    vec_norms,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # tensors
    "DenseTensor",
    "contract_m1",
    "contract_m1_batch",
    "jacobian_m1_batch",
    "contract_full",
    "tensor_inf_norm",
    "vec_norms",
    "signed_root",
    "positive_part",
    # operators and alpha
    "ALPHA_T",
    "ALPHA_F",
    "CLOSED_FORM_DIAGONAL",
    "GRID_REFINED",
    "LIKELY_P",
    "NOT_P",
    "GridSpec",
    "AlphaEstimate",
    "PTensorCheck",
    "apply_T",
    "apply_F",
    "estimate_alpha",
    "alpha_for",
    "alpha_F_diagonal",
    "diagonal_alpha_estimate",
    "check_p_tensor_sampled",
    # solving
    "TcpInstance",
    "SolveOptions",
    "SolutionCertificate",
    "solve_enumerate",
    "solve_diagonal",
    "verify_solution",
    # bounds
    "ResidualData",
    "BoundReport",
    "residual",
    "solution_norm_bounds",
    "error_bounds_new",
    "error_bounds_zheng",
    "relative_error_bounds",
    "build_report",
    "diagonal_bounds",
    "compare_upper_bounds",
    "FLAG_EXACT_SOLUTION",
    "FLAG_EXACT_SOLUTION_INCONSISTENT",
    "FLAG_NEGATIVE_ARGMAX",
    "FLAG_UNCERTIFIED_ALPHA",
    "FLAG_DEGENERATE_Q",
    "FLAG_DEGENERATE_Z",
    "FLAG_CLAMPED_DISCRIMINANT",
    # files
    "ProblemFile",
    "parse_problem",
    "emit_problem",
    # errors
    "TcpBoundsError",
    "DimensionMismatchError",
    "DimensionLimitError",
    "NotPositiveDiagonalError",
    "NotPTensorError",
    "DegenerateQError",
    "DegenerateZError",
    "SolutionVerificationError",
    "ExactSolutionInconsistentError",
    "InvariantViolationError",
    "ProblemFormatError",
]
