"""Finite weighted graphs, their validation, and the weighted gradient seminorm.

Vertices are dense integer indices 0..n-1. Edges carry positive symmetric
weights; a pair with weight zero is a non-edge. Signals on a graph are plain
1-D numpy arrays of length n.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import coo_matrix, csgraph

from .errors import InputError


class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1.

    The weight mapping is stored exactly as given, so that :func:`validate`
    can report asymmetric or otherwise malformed input. All derived views
    (degrees, dense matrix, adjacency) assume the graph is valid and read
    each unordered pair through its canonical (min, max) orientation first.

    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, n: int, weights: Mapping[tuple[int, int], float]):
        if n < 1:
            raise InputError(f"graph needs at least one vertex, got n={n}")
        self.n = int(n)
        self._weights = {(int(u), int(v)): float(w) for (u, v), w in weights.items()}
        for (u, v) in self._weights:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"weight entry ({u},{v}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]]) -> "WeightedGraph":
        """Build a graph from undirected edges, storing both orientations.

        Rejects loops, negative weights and repeated pairs. Zero-weight
        entries are dropped (a zero weight means "no edge").
        """
        weights: dict[tuple[int, int], float] = {}
        seen: set[tuple[int, int]] = set()
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise InputError(f"loop edge ({u},{v}) is not allowed")
            if w < 0:
                raise InputError(f"negative weight {w} on edge ({u},{v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge ({u},{v})")
            seen.add(key)
            if w != 0.0:
                weights[(u, v)] = w
                weights[(v, u)] = w
        return cls(n, weights)

    def weight(self, u: int, v: int) -> float:
        """Weight of the pair (u, v); 0.0 when no edge is present."""
        got = self._weights.get((u, v))
        if got is None:
            got = self._weights.get((v, u), 0.0)
        return got

    def raw_weights(self) -> dict[tuple[int, int], float]:
        """The weight entries exactly as supplied (for validation)."""
        return dict(self._weights)

    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        keys = np.array(list(self._weights), dtype=np.intp).reshape(-1, 2)
        values = np.fromiter(self._weights.values(), dtype=float, count=len(self._weights))
        us, vs = keys[:, 0], keys[:, 1]
        lo, hi, flipped = np.minimum(us, vs), np.maximum(us, vs), us > vs
        # One entry per unordered pair, the (min, max) orientation first when present.
        order = np.lexsort((flipped, hi, lo))
        lo, hi, values = lo[order], hi[order], values[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        keep = first & (lo != hi) & (values != 0.0)
        out = (lo[keep], hi[keep], values[keep])
        for arr in out:
            arr.flags.writeable = False
        return out

    def edges(self) -> list[tuple[int, int, float]]:
        """Edges as (u, v, w) with u < v, sorted."""
        us, vs, ws = self._edge_arrays
        return [(int(u), int(v), float(w)) for u, v, w in zip(us, vs, ws)]

    @property
    def num_edges(self) -> int:
        return len(self._edge_arrays[0])

    @cached_property
    def _adjacency(self) -> list[list[int]]:
        us, vs, _ = self._edge_arrays
        heads, tails = np.concatenate([us, vs]), np.concatenate([vs, us])
        flat = tails[np.argsort(heads * self.n + tails)].tolist()
        bounds = np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=self.n))]).tolist()
        return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def neighbors(self, v: int) -> list[int]:
        return list(self._adjacency[v])

    def degree(self, v: int) -> float:
        """Weighted degree: the sum of edge weights incident on v."""
        return float(sum(self.weight(v, u) for u in self._adjacency[v]))

    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric n-by-n weight matrix."""
        W = np.zeros((self.n, self.n))
        us, vs, ws = self._edge_arrays
        W[us, vs] = ws
        W[vs, us] = ws
        return W


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    u: int
    v: int
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def validate(graph: WeightedGraph) -> ValidationReport:
    """Check the structural invariants of a weighted graph.

    Reports, without raising: asymmetric weight pairs, negative weights,
    nonzero diagonal entries (loops), and non-finite values. Entries are
    checked in sorted (u, v) order; a pair is checked for symmetry from its
    u < v entry, a missing reverse entry counting as 0.0.
    """
    raw = graph._weights
    if not raw:
        return ValidationReport(())
    keys = np.fromiter(chain.from_iterable(raw), dtype=np.int64, count=2 * len(raw)).reshape(-1, 2)
    values = np.fromiter(raw.values(), dtype=float, count=len(raw))
    codes = keys[:, 0] * graph.n + keys[:, 1]
    order = np.argsort(codes)
    codes, us, vs, values = codes[order], keys[order, 0], keys[order, 1], values[order]
    reverse = vs * graph.n + us
    by_reverse = np.argsort(reverse)  # searchsorted runs faster on sorted queries
    slot = np.empty_like(by_reverse)
    slot[by_reverse] = np.minimum(np.searchsorted(codes, reverse[by_reverse]), len(codes) - 1)
    other = np.where(codes[slot] == reverse, values[slot], 0.0)

    flags = {
        "non-finite": ~np.isfinite(values),
        "negative": values < 0,
        "loop": (us == vs) & (values != 0.0),
        "asymmetric": (us < vs) & (other != values),
    }
    issues: list[ValidationIssue] = []
    for i in np.flatnonzero(np.logical_or.reduce(list(flags.values()))):
        u, v, w, o = int(us[i]), int(vs[i]), float(values[i]), float(other[i])
        details = {
            "non-finite": f"w({u},{v})={w}",
            "negative": f"w({u},{v})={w}",
            "loop": f"w({u},{u})={w} must be 0",
            "asymmetric": f"w({u},{v})={w} but w({v},{u})={o}",
        }
        issues.extend(ValidationIssue(kind, u, v, details[kind])
                      for kind, flagged in flags.items() if flagged[i])
    return ValidationReport(tuple(issues))


def as_signal(graph: WeightedGraph, values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce values to a float vector and check it is a signal on the graph."""
    f = np.asarray(values, dtype=float)
    if f.ndim != 1 or f.shape[0] != graph.n:
        raise InputError(f"signal length {f.shape} does not match n={graph.n}")
    if not np.all(np.isfinite(f)):
        raise InputError("signal contains non-finite entries")
    return f


def induced_subgraph(graph: WeightedGraph, cluster: Sequence[int]) -> WeightedGraph:
    """Subgraph induced by a vertex set, reindexed to 0..|cluster|-1.

    Vertices keep their relative order: position i of the sorted cluster
    becomes vertex i. Edge weights inside the cluster are copied unchanged.
    """
    verts = sorted(set(int(v) for v in cluster))
    if not verts:
        raise InputError("cluster is empty")
    if verts[0] < 0 or verts[-1] >= graph.n:
        raise InputError(f"cluster indices {verts[0]}..{verts[-1]} out of range for n={graph.n}")
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    for u, v, w in graph.edges():
        if u in index and v in index:
            edges.append((index[u], index[v], w))
    return WeightedGraph.from_edges(len(verts), edges)


def restrict_signal(f: np.ndarray, cluster: Sequence[int]) -> np.ndarray:
    """Restrict a signal to a cluster, in the same order induced_subgraph uses."""
    verts = sorted(set(int(v) for v in cluster))
    return np.asarray(f, dtype=float)[verts]


def is_connected(graph: WeightedGraph) -> bool:
    """True iff the nonzero-weight edge relation has a single component."""
    return len(connected_components(graph)) == 1


def connected_components(graph: WeightedGraph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum vertex."""
    us, vs, _ = graph._edge_arrays
    count, labels = csgraph.connected_components(
        coo_matrix((np.ones(len(us)), (us, vs)), shape=(graph.n, graph.n)), directed=False)
    order = np.argsort(labels, kind="stable")
    comps = np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])
    return sorted((comp.tolist() for comp in comps), key=lambda comp: comp[0])


def gradient_norm_sq(graph: WeightedGraph, f: np.ndarray) -> float:
    """Squared weighted gradient seminorm of a signal.

    Every unordered pair (u, v) contributes w(u,v) * (f(u) - f(v))**2 once,
    which equals the double sum over ordered pairs with a 1/2 factor. Equals
    the Laplacian quadratic form f^T L f and vanishes exactly on signals that
    are constant on each connected component.
    """
    f = as_signal(graph, f)
    us, vs, ws = graph._edge_arrays
    if len(ws) == 0:
        return 0.0
    diffs = f[us] - f[vs]
    return float(np.sum(ws * diffs * diffs))
