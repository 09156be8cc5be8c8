"""End-to-end experiment on a path graph with pair clusters, and stable reports.

Reports are plain dicts serialized with sorted keys and shortest-roundtrip
float repr, so an identical spec (including seeds) produces byte-identical
output. Nothing time- or host-dependent is recorded.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import InputError
from .generators import GENERATOR_NAME, generate_pw_signal, path_graph
from .partitions import _integer, analyze, build_frame_system, optimal_alpha, pairs_partition, validate_partition
from .reconstruct import ReconstructionResult, dual_frame_reconstruct, frame_algorithm
from .spectral import build_laplacian, eigendecompose, pw_project
from .splines import ConvergenceRow, spline_convergence_experiment

SCHEMA_VERSION = 1

DEFAULT_SPLINE_ORDERS = (1, 2, 4, 8)


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if not math.isfinite(value):
            return repr(value)
        return value
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def stable_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, compact separators, trailing newline."""
    return json.dumps(_plain(payload), sort_keys=True, separators=(",", ":")) + "\n"


def spline_rows(rows: tuple[ConvergenceRow, ...]) -> list[dict]:
    """The report entry of each spline sweep row: its order, error, bound and flags."""
    return [{"k": row.order, "rel_error": row.rel_error, "bound_2gamma_k": row.bound,
             "within_bound": row.within_bound, "proved": row.proved} for row in rows]


def alpha_star_entries(omega: float, lambda_xi: float) -> dict:
    """``alpha_star`` and ``lower_bound_at_alpha_star`` from :func:`optimal_alpha`
    when some alpha makes gamma < 1 (omega < Lambda), else no entries."""
    if not omega < lambda_xi:
        return {}
    alpha_star, bound = optimal_alpha(omega, lambda_xi)
    return {"alpha_star": alpha_star, "lower_bound_at_alpha_star": bound}


def recovery_entries(result: ReconstructionResult, truth: np.ndarray, truth_norm: float) -> dict:
    """The report entries of a recovery: its steps, residual, convergence, eta and error relative to the truth."""
    return {"iterations": result.iterations, "residual": result.residual, "converged": result.converged,
            "eta": result.eta, "rel_error": float(np.linalg.norm(truth - result.signal)) / truth_norm}


def demo_path(n: int, omega: float, alpha: float, seed: int = 0, trials: int = 3) -> dict:
    """Full pipeline on a path graph with consecutive-pair clusters.

    Builds the spectrum, verifies the pair-cluster partition constant, forms
    the frame system once, and per seeded trial recovers a band signal's
    projection through that frame by both methods and runs the spline sweep
    over ``DEFAULT_SPLINE_ORDERS``. Returns a report dict ready for
    :func:`stable_json`. When gamma >= 1 the run still completes, recording
    empirical bounds and the structured failures instead of guarantees.
    Raises InputError unless n is an even integer >= 4, trials a positive
    integer and seed a nonnegative integer.
    """
    n, trials, seed = _integer(n, "n"), _integer(trials, "trials"), _integer(seed, "seed", least=0)
    if n < 4 or n % 2 != 0:
        raise InputError(f"demo needs an even n >= 4, got {n}")

    graph = path_graph(n)
    decomp = eigendecompose(build_laplacian(graph))
    partition = validate_partition(graph, pairs_partition(n))

    analytic = 2.0 - 2.0 * np.cos(np.arange(n) * np.pi / n)
    spectrum_err = float(np.max(np.abs(decomp.eigenvalues - analytic)))
    in_band = bool(
        decomp.eigenvalues[0] >= -1e-10 and decomp.eigenvalues[-1] <= 4.0 + 1e-10
    )

    frame = build_frame_system(decomp, partition, omega, alpha)
    report: dict = {
        "schema": SCHEMA_VERSION,
        "generator": GENERATOR_NAME,
        "spec": {"kind": "demo-path", "n": n, "omega": float(omega), "alpha": float(alpha),
                 "seed": seed, "trials": trials, "k_list": list(DEFAULT_SPLINE_ORDERS)},
        "lambda_xi": partition.lambda_xi,
        "lambda_xi_matches_pair_value": bool(abs(partition.lambda_xi - 2.0) <= 1e-12),
        "gamma": frame.gamma,
        "guarantee_active": frame.guarantee_active,
        "spectrum": {
            "eigenvalues": decomp.eigenvalues,
            "max_err_vs_cos_formula": spectrum_err,
            "within_0_4": in_band,
        },
        "frame": {
            "a": frame.lower,
            "b": frame.upper,
            "is_frame": frame.is_frame,
            "band_dim": frame.dim,
            "num_clusters": frame.num_clusters,
        },
    }
    report.update(alpha_star_entries(omega, partition.lambda_xi))

    trial_records = []
    iter_errors, dual_errors, spline_ok_flags = [], [], []
    for trial in range(trials):
        trial_seed = seed + trial
        signal = generate_pw_signal(decomp, omega, trial_seed)
        record: dict = {"trial": trial, "seed": trial_seed}
        if frame.is_frame:
            # The band projection is sampled and is the target both methods recover.
            projected = pw_project(decomp, omega, signal)
            target_norm = float(np.linalg.norm(projected))
            samples = analyze(partition, projected)
            iterative = frame_algorithm(frame, samples)
            direct = dual_frame_reconstruct(frame, samples)
            record["frame_iter"] = recovery_entries(iterative, projected, target_norm)
            record["dual"] = {
                "residual": direct.residual,
                "rel_error": float(np.linalg.norm(projected - direct.signal)) / target_norm,
            }
            iter_errors.append(record["frame_iter"]["rel_error"])
            dual_errors.append(record["dual"]["rel_error"])
        else:
            record["reconstruction_failure"] = (
                f"analysis map has a kernel (band dimension {frame.dim} vs "
                f"{frame.num_clusters} clusters, lower bound {frame.lower:.3e}); "
                "averages do not determine the band content"
            )
        if frame.guarantee_active:
            rows = spline_convergence_experiment(
                decomp, partition, omega, alpha, signal, DEFAULT_SPLINE_ORDERS
            )
            record["splines"] = spline_rows(rows)
            spline_ok_flags.append(all(row.within_bound for row in rows))
        else:
            record["splines_skipped"] = f"gamma={frame.gamma} >= 1"
        trial_records.append(record)

    report["trials"] = trial_records
    report["aggregate"] = {
        "max_frame_iter_rel_error": max(iter_errors) if iter_errors else None,
        "max_dual_rel_error": max(dual_errors) if dual_errors else None,
        "mean_dual_rel_error": (sum(dual_errors) / len(dual_errors)) if dual_errors else None,
        "all_spline_bounds_hold": all(spline_ok_flags) if spline_ok_flags else None,
    }
    return report
