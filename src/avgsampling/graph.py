"""Finite weighted graphs and their connected components.

Vertices are dense integer indices 0..n-1. Edges carry positive finite
symmetric weights; a pair with weight zero is a non-edge. Signals on a graph
are plain 1-D numpy arrays of length n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .errors import InputError


class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1, valid by construction.

    Build one with :meth:`from_edges`, which checks every edge. Each edge is
    stored once, in ``_edge_arrays``: read-only arrays ``us < vs``, sorted by
    (u, v), and their positive finite weights ``ws``.

    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("build a WeightedGraph with WeightedGraph.from_edges")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]] | np.ndarray) -> "WeightedGraph":
        """Build a graph from undirected edges.

        ``edges`` is an iterable of (u, v, w) triples or an (E, 3) array.
        Rejects a fractional n, n < 1 or n > 2**31 - 1, non-integer
        (fractional, NaN or infinite) ids, out-of-range ids, loops, negative
        or non-finite weights and pairs repeated in either orientation,
        naming the first offending edge. Zero-weight edges are dropped (a zero weight means
        "no edge"). One stable sort of the int64 key
        ``(lo + 1) * (n + 2) + (hi + 1)`` of each pair's ends ``lo <= hi``,
        clipped to [-1, n], orders the edges by (lo, hi), a repeat after the
        entry it repeats; the bound on n keeps the key below 2**63.
        """
        if not n >= 1:  # NaN included
            raise InputError(f"graph needs at least one vertex, got n={n}")
        if n > 2**31 - 1:
            raise InputError(f"graph has at most 2**31 - 1 vertices, got n={n}")
        if n != int(n):
            raise InputError(f"vertex count must be a whole number, got n={n}")
        if isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.shape[1] == 3:
            us, vs, ws = edges.T
        else:
            us, vs, ws = list(zip(*edges)) or ((), (), ())
        raw_us, raw_vs, ws = np.asarray(us), np.asarray(vs), np.asarray(ws, dtype=float)
        whole = np.ones(len(ws), dtype=bool)
        for ids in (raw_us, raw_vs):
            if ids.dtype.kind == "f":
                whole &= np.isfinite(ids) & (ids == np.floor(ids))
        # Clipping keeps an out-of-range id out of range and the cast exact.
        us, vs = (np.where(whole, np.clip(ids, -1, n), 0).astype(np.intp) for ids in (raw_us, raw_vs))
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        key = (lo.astype(np.int64) + 1) * (int(n) + 2) + (hi + 1)
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        repeated = np.zeros(len(us), dtype=bool)
        repeated[order[1:]] = sorted_key[1:] == sorted_key[:-1]
        bad = ~whole | (lo < 0) | (hi >= n) | (us == vs) | ~np.isfinite(ws) | (ws < 0) | repeated
        if bad.any():
            i = int(bad.argmax())
            if not whole[i]:
                raise InputError(f"edge ({float(raw_us[i])},{float(raw_vs[i])}) has a non-integer vertex id")
            u, v, w = int(raw_us[i]), int(raw_vs[i]), float(ws[i])
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"loop edge ({u},{v}) is not allowed")
            if not math.isfinite(w):
                raise InputError(f"non-finite weight {w} on edge ({u},{v})")
            if w < 0:
                raise InputError(f"negative weight {w} on edge ({u},{v})")
            raise InputError(f"duplicate edge ({u},{v})")
        keep = order[ws[order] != 0.0]
        graph = cls.__new__(cls)
        graph.n = int(n)
        graph._edge_arrays = lo[keep], hi[keep], ws[keep]
        for arr in graph._edge_arrays:
            arr.flags.writeable = False
        return graph

    def edges(self) -> list[tuple[int, int, float]]:
        """Edges as (u, v, w) with u < v, sorted."""
        us, vs, ws = self._edge_arrays
        return list(zip(us.tolist(), vs.tolist(), ws.tolist()))

    @property
    def num_edges(self) -> int:
        return len(self._edge_arrays[0])

    @cached_property
    def _adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``indptr`` and ``indices``, each vertex's neighbours ascending."""
        us, vs, _ = self._edge_arrays
        heads, tails = np.concatenate([us, vs]), np.concatenate([vs, us])
        tails = tails[np.argsort(heads * self.n + tails)]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=self.n))])
        indptr.flags.writeable = tails.flags.writeable = False
        return indptr, tails


@dataclass(frozen=True)
class ValidationReport:
    """What :func:`validate` found; always nothing, see there."""

    issues: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.issues


def validate(graph: WeightedGraph) -> ValidationReport:
    """An empty report: :meth:`WeightedGraph.from_edges` refuses every malformed
    edge, so no graph can hold one. Kept for callers that read ``.ok``."""
    return ValidationReport()


def is_connected(graph: WeightedGraph) -> bool:
    """True iff the nonzero-weight edge relation has a single component."""
    return _components(graph.n, *graph._edge_arrays[:2])[0] == 1


def _components(n: int, us: np.ndarray, vs: np.ndarray) -> tuple[int, np.ndarray]:
    """Number of connected components of the edges (us, vs) on n vertices, and each vertex's component index.

    The edges must be sorted by ``us``; each enters once, as a row entry of
    a triangular CSR matrix, which ``directed=False`` makes enough.
    """
    indptr = np.concatenate([[0], np.cumsum(np.bincount(us, minlength=n))])
    return csgraph.connected_components(
        csr_matrix((np.ones(len(vs)), vs, indptr), shape=(n, n)), directed=False)
