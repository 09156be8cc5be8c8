"""Sampling and reconstruction of bandlimited graph signals from cluster averages.

A signal on a finite weighted graph is bandlimited when it lies in the span
of low-eigenvalue Laplacian eigenvectors. This package samples such signals
by per-cluster averages over a disjoint vertex cover, certifies when those
averages form a frame, and reconstructs the signal either through the frame
(iteratively or via the canonical dual) or through variational splines that
interpolate the averages.
"""
from .errors import InputError, NumericalError
from .graph import (
    ValidationReport,
    WeightedGraph,
    as_signal,
    gradient_norm_sq,
    is_connected,
    validate,
)
from .spectral import (
    PWSpace,
    SpectralDecomposition,
    apply_power,
    build_laplacian,
    eigendecompose,
    lambda1,
    pw_project,
    pw_space,
    quadratic_form,
)
from .partitions import (
    ClusterPartition,
    FrameSystem,
    PoincareCheck,
    analyze,
    bfs_partition,
    blocks_partition,
    build_frame_system,
    global_poincare_check,
    optimal_alpha,
    pairs_partition,
    validate_partition,
)
from .reconstruct import (
    FrameIterationConfig,
    ReconstructionResult,
    dual_frame_reconstruct,
    frame_algorithm,
)
from .splines import (
    ConvergenceRow,
    OrthogonalityResult,
    SplineSolution,
    interpolate,
    orthogonality_check,
    solve_spline,
    spline_convergence_experiment,
    zero_average_signal,
)
from .generators import GENERATOR_NAME, generate_graph, generate_pw_signal
from .harness import demo_path, stable_json

__version__ = "0.1.0"

__all__ = [
    "InputError",
    "NumericalError",
    "WeightedGraph",
    "ValidationReport",
    "validate",
    "as_signal",
    "is_connected",
    "gradient_norm_sq",
    "build_laplacian",
    "SpectralDecomposition",
    "eigendecompose",
    "lambda1",
    "PWSpace",
    "pw_space",
    "pw_project",
    "apply_power",
    "quadratic_form",
    "ClusterPartition",
    "validate_partition",
    "analyze",
    "FrameSystem",
    "build_frame_system",
    "PoincareCheck",
    "global_poincare_check",
    "optimal_alpha",
    "pairs_partition",
    "blocks_partition",
    "bfs_partition",
    "FrameIterationConfig",
    "ReconstructionResult",
    "frame_algorithm",
    "dual_frame_reconstruct",
    "SplineSolution",
    "solve_spline",
    "interpolate",
    "OrthogonalityResult",
    "orthogonality_check",
    "zero_average_signal",
    "ConvergenceRow",
    "spline_convergence_experiment",
    "GENERATOR_NAME",
    "generate_graph",
    "generate_pw_signal",
    "demo_path",
    "stable_json",
]
