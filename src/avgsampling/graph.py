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

    The weight entries are stored exactly as given, as a read-only K x 2
    array of (u, v) keys and a K-vector of values, so that :func:`validate`
    can report asymmetric or otherwise malformed input. All derived views
    (degrees, dense matrix, adjacency) assume the graph is valid and read
    each unordered pair through its canonical (min, max) orientation first.

    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, n: int, weights: Mapping[tuple[int, int], float]):
        count = len(weights)
        keys = np.fromiter(chain.from_iterable(weights), dtype=np.intp, count=2 * count)
        self._store(n, keys.reshape(count, 2), np.fromiter(weights.values(), dtype=float, count=count))

    def _store(self, n: int, keys: np.ndarray, values: np.ndarray) -> None:
        if n < 1:
            raise InputError(f"graph needs at least one vertex, got n={n}")
        self.n = int(n)
        outside = ((keys < 0) | (keys >= self.n)).any(axis=1)
        if outside.any():
            u, v = keys[outside.argmax()].tolist()
            raise InputError(f"weight entry ({u},{v}) out of range for n={self.n}")
        keys.flags.writeable = values.flags.writeable = False
        self._keys, self._values = keys, values

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]] | np.ndarray) -> "WeightedGraph":
        """Build a graph from undirected edges, storing both orientations.

        ``edges`` is an iterable of (u, v, w) triples or an (E, 3) array.
        Rejects loops, negative weights and repeated pairs, naming the first
        offending edge. Zero-weight entries are dropped (a zero weight means
        "no edge").
        """
        if isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.shape[1] == 3:
            us, vs, ws = edges.T
        else:
            us, vs, ws = list(zip(*edges)) or ((), (), ())
        us, vs, ws = np.asarray(us, dtype=np.intp), np.asarray(vs, dtype=np.intp), np.asarray(ws, dtype=float)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        order = np.lexsort((hi, lo))  # stable: a repeat sorts after the entry it repeats
        repeated = np.zeros(len(us), dtype=bool)
        repeated[order[1:]] = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
        bad = (us == vs) | (ws < 0) | repeated
        if bad.any():
            i = int(bad.argmax())
            u, v, w = int(us[i]), int(vs[i]), float(ws[i])
            if u == v:
                raise InputError(f"loop edge ({u},{v}) is not allowed")
            if w < 0:
                raise InputError(f"negative weight {w} on edge ({u},{v})")
            raise InputError(f"duplicate edge ({u},{v})")
        keep = ws != 0.0
        graph = cls.__new__(cls)
        graph._store(n, np.stack([us, vs, vs, us], axis=1)[keep].reshape(-1, 2), np.repeat(ws[keep], 2))
        return graph

    @cached_property
    def _codes(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw entries' codes u * n + v, sorted, and the order that sorts them."""
        codes = self._keys[:, 0] * self.n + self._keys[:, 1]
        order = np.argsort(codes)
        codes = codes[order]
        codes.flags.writeable = order.flags.writeable = False
        return codes, order

    def weight(self, u: int, v: int) -> float:
        """Weight of the pair (u, v); 0.0 when no edge is present."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return 0.0
        codes, order = self._codes
        for code in (u * self.n + v, v * self.n + u):
            i = np.searchsorted(codes, code)
            if i < len(codes) and codes[i] == code:
                return float(self._values[order[i]])
        return 0.0

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One entry per unordered pair u < v with a nonzero weight, sorted:
        u, v, the weight read as (u, v) first and as (v, u) first."""
        us, vs = self._keys.T
        pair = np.minimum(us, vs) * self.n + np.maximum(us, vs)
        order = np.argsort(pair * 2 + (us > vs), kind="stable")
        pair, values = pair[order], self._values[order]
        starts = np.flatnonzero(np.diff(pair, prepend=-1))
        ends = np.append(starts[1:], len(order)) - 1  # a pair's (v, u) entry sorts last
        lo, hi = np.divmod(pair[starts], self.n)
        keep = (lo != hi) & (values[starts] != 0.0)
        out = (lo[keep], hi[keep], values[starts[keep]], values[ends[keep]])
        for arr in out:
            arr.flags.writeable = False
        return out

    @property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._pairs[:3]

    def edges(self) -> list[tuple[int, int, float]]:
        """Edges as (u, v, w) with u < v, sorted."""
        us, vs, ws = self._edge_arrays
        return list(zip(us.tolist(), vs.tolist(), ws.tolist()))

    @property
    def num_edges(self) -> int:
        return len(self._pairs[0])

    @cached_property
    def _adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``indptr`` and ``indices`` (neighbours ascending) and the weighted degrees."""
        us, vs, forward, backward = self._pairs
        heads, tails = np.concatenate([us, vs]), np.concatenate([vs, us])
        order = np.argsort(heads * self.n + tails)
        heads, tails = heads[order], tails[order]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=self.n))])
        # bincount sums each vertex's weights in neighbour order, w(v, u) read first.
        degrees = np.bincount(heads, np.concatenate([forward, backward])[order], minlength=self.n)
        for arr in (indptr, tails, degrees):
            arr.flags.writeable = False
        return indptr, tails, degrees

    def neighbors(self, v: int) -> list[int]:
        indptr, indices, _ = self._adjacency
        return indices[indptr[v]:indptr[v + 1]].tolist()

    def degree(self, v: int) -> float:
        """Weighted degree: the sum of edge weights incident on v."""
        return float(self._adjacency[2][v])

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
    keys, values = graph._keys, graph._values
    if not len(values):
        return ValidationReport(())
    codes, order = graph._codes
    us, vs, values = keys[order, 0], keys[order, 1], values[order]
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
