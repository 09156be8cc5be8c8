"""Seeded graph and signal generators for experiments and tests.

Randomness comes from numpy's PCG64 generator, so a (kind, params, seed)
triple reproduces the same graph bit for bit; the generator name is embedded
in experiment reports.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericalError
from .graph import WeightedGraph, is_connected
from .partitions import _integer
from .spectral import SpectralDecomposition, pw_space

GENERATOR_NAME = "numpy-PCG64"

GRAPH_KINDS = ("path", "cycle", "grid2d", "random-geometric", "erdos-renyi-weighted")

#: How many fresh draws a random generator may take before giving up on
#: producing a connected graph.
RETRY_BUDGET = 50


def _rng(seed: int) -> np.random.Generator:
    """PCG64 stream of a seed; InputError unless the seed is a nonnegative integer."""
    return np.random.Generator(np.random.PCG64(_integer(seed, "seed", least=0)))


def path_graph(n: int) -> WeightedGraph:
    if n < 1:
        raise InputError(f"path needs n >= 1, got {n}")
    return WeightedGraph.from_edges(n, np.column_stack([np.arange(n - 1), np.arange(1, n), np.ones(n - 1)]))


def cycle_graph(n: int) -> WeightedGraph:
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    return WeightedGraph.from_edges(n, np.column_stack([np.arange(n), (np.arange(n) + 1) % n, np.ones(n)]))


def grid2d_graph(n: int) -> WeightedGraph:
    side = math.isqrt(n) if n >= 1 else 0  # isqrt refuses negative n
    if side < 1 or side * side != n:
        raise InputError(f"grid2d needs a perfect-square vertex count, got {n}")
    v = np.arange(n).reshape(side, side)
    right = np.column_stack([v[:, :-1].ravel(), v[:, 1:].ravel(), np.ones(side * (side - 1))])
    down = np.column_stack([v[:-1, :].ravel(), v[1:, :].ravel(), np.ones(side * (side - 1))])
    return WeightedGraph.from_edges(n, np.concatenate([right, down]))


def erdos_renyi_weighted(n: int, p: float, seed: int) -> WeightedGraph:
    """G(n, p) with edge weights uniform in [0.5, 1.5]; redrawn until connected."""
    if n < 2:
        raise InputError(f"random graph needs n >= 2, got {n}")
    if not (0.0 < p <= 1.0):
        raise InputError(f"edge probability must be in (0, 1], got {p}")
    rng = _rng(seed)
    for _ in range(RETRY_BUDGET):
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append((u, v, float(rng.uniform(0.5, 1.5))))
        graph = WeightedGraph.from_edges(n, edges)
        if is_connected(graph):
            return graph
    raise NumericalError(
        f"no connected graph in {RETRY_BUDGET} draws for n={n}, p={p}, seed={seed}"
    )


def random_geometric(n: int, radius: float | None, seed: int) -> WeightedGraph:
    """Unit-weight edges between uniform points in the unit square within radius."""
    from scipy.spatial import cKDTree  # imported here, its one user, to keep it out of the package import

    if n < 2:
        raise InputError(f"random graph needs n >= 2, got {n}")
    if radius is None:
        radius = 1.5 * math.sqrt(math.log(max(n, 2)) / (math.pi * n))
    if not radius > 0:  # NaN included
        raise InputError(f"radius must be positive, got {radius}")
    rng = _rng(seed)
    for _ in range(RETRY_BUDGET):
        points = rng.random((n, 2))
        # The tree's slightly widened radius only proposes candidates; the
        # np.hypot test decides, so the edge set does not depend on how the
        # tree rounds its distances.
        pairs = cKDTree(points).query_pairs(radius * (1.0 + 1e-9), output_type="ndarray")
        # Sorted here, from_edges' stable one-key sort is a near-linear pass.
        pairs = pairs[np.argsort(pairs[:, 0] * n + pairs[:, 1])]  # ids < n, pairs unique
        delta = points[pairs[:, 0]] - points[pairs[:, 1]]
        pairs = pairs[np.hypot(delta[:, 0], delta[:, 1]) <= radius]
        graph = WeightedGraph.from_edges(n, np.column_stack([pairs, np.ones(len(pairs))]))
        if is_connected(graph):
            return graph
    raise NumericalError(
        f"no connected graph in {RETRY_BUDGET} draws for n={n}, radius={radius}, seed={seed}"
    )


def generate_graph(kind: str, n: int, seed: int = 0, p: float = 0.3,
                   radius: float | None = None) -> WeightedGraph:
    """Dispatch on kind; all kinds produce a connected graph or raise.

    Only erdos-renyi-weighted reads ``p`` and only random-geometric ``radius``.
    """
    if kind == "path":
        return path_graph(n)
    if kind == "cycle":
        return cycle_graph(n)
    if kind == "grid2d":
        return grid2d_graph(n)
    if kind == "erdos-renyi-weighted":
        return erdos_renyi_weighted(n, p, seed)
    if kind == "random-geometric":
        return random_geometric(n, radius, seed)
    raise InputError(f"unknown graph kind {kind!r}; choices: {', '.join(GRAPH_KINDS)}")


def generate_pw_signal(decomp: SpectralDecomposition, omega: float, seed: int) -> np.ndarray:
    """Unit-norm signal with standard-normal coefficients on the band basis."""
    space = pw_space(decomp, omega)
    if space.dim < 1:
        raise InputError(f"band subspace is empty for omega={omega}")
    coeffs = _rng(seed).standard_normal(space.dim)
    signal = space.basis @ coeffs
    norm = float(np.linalg.norm(signal))
    if norm == 0.0:
        raise NumericalError(f"degenerate zero draw for seed={seed}")
    return signal / norm
