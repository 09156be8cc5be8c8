"""Independent checks of the package's outputs.

Nothing here imports avgsampling. Eigenpairs come from ``scipy.linalg``,
cluster averages from ``numpy.bincount``, connectivity from
``scipy.sparse.csgraph`` and the optimal alpha from its closed form, so a
defect in the package cannot hide behind the same defect in its checker.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

#: Relative tolerance for eigenvalues, eigen residuals and per-cluster gaps.
#: Jacobi and LAPACK agree to ~1e-15 on these sizes; the margin lets a
#: solver swap pass while any real error (1e-6 and up) still fails.
EIG_TOL = 1e-9


class Checks:
    """Collects the misses of one operation; an empty list means it passed."""

    def __init__(self):
        self.misses: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.misses.append(message)


def edge_arrays(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    array = np.asarray(edges, dtype=float).reshape(-1, 3)
    return array[:, 0].astype(np.intp), array[:, 1].astype(np.intp), array[:, 2]


def laplacian(n: int, edges) -> np.ndarray:
    u, v, w = edge_arrays(edges)
    L = np.zeros((n, n))
    np.add.at(L, (u, v), -w)
    np.add.at(L, (v, u), -w)
    L[np.diag_indices(n)] = -L.sum(axis=1)
    return L


def is_connected(n: int, edges) -> bool:
    u, v, w = edge_arrays(edges)
    adjacency = coo_matrix((w, (u, v)), shape=(n, n))
    count, _ = connected_components(adjacency, directed=False)
    return count == 1


def cluster_labels(n: int, clusters, checks: Checks) -> np.ndarray:
    """Label of each vertex; a miss for overlap or an uncovered vertex."""
    labels = np.full(n, -1, dtype=np.intp)
    for j, cluster in enumerate(clusters):
        members = np.asarray(cluster, dtype=np.intp)
        checks.expect(bool(np.all(labels[members] == -1)), f"cluster {j} overlaps another")
        labels[members] = j
    checks.expect(bool(np.all(labels >= 0)), "clusters do not cover every vertex")
    return labels


def averages(labels: np.ndarray, sizes: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Scaled cluster averages sum(f over cluster) / sqrt(size)."""
    return np.bincount(labels, weights=f, minlength=sizes.size) / np.sqrt(sizes)


def cluster_gaps(n: int, edges, clusters) -> np.ndarray:
    """Second-smallest eigenvalue of each induced cluster Laplacian (inf for singletons).

    A disconnected cluster shows up as a gap of (numerically) zero.
    """
    u, v, w = edge_arrays(edges)
    labels = np.full(n, -1, dtype=np.intp)
    local = np.zeros(n, dtype=np.intp)
    for j, cluster in enumerate(clusters):
        members = np.asarray(cluster, dtype=np.intp)
        labels[members] = j
        local[members] = np.arange(members.size)
    inside = labels[u] == labels[v]
    by_cluster: dict[int, list[int]] = {}
    for e in np.flatnonzero(inside):
        by_cluster.setdefault(int(labels[u[e]]), []).append(int(e))
    gaps = np.full(len(clusters), math.inf)
    for j, cluster in enumerate(clusters):
        size = len(cluster)
        if size == 1:
            continue
        idx = np.asarray(by_cluster.get(j, []), dtype=np.intp)
        sub = laplacian(size, np.column_stack([local[u[idx]], local[v[idx]], w[idx]]))
        gaps[j] = sla.eigvalsh(sub)[1]
    return gaps


def check_gaps(n: int, edges, clusters, lambda1s, lambda_xi: float, checks: Checks) -> float:
    """Compare per-cluster gaps and the partition constant; return the reference constant."""
    ref = cluster_gaps(n, edges, clusters)
    got = np.asarray(lambda1s, dtype=float)
    checks.expect(got.shape == ref.shape, f"{got.size} cluster gaps for {ref.size} clusters")
    if got.shape == ref.shape:
        finite = np.isfinite(ref)
        checks.expect(bool(np.all(np.isfinite(got) == finite)), "singleton gaps are not inf")
        err = np.abs(got[finite] - ref[finite]) / np.maximum(1.0, np.abs(ref[finite]))
        worst = float(err.max()) if err.size else 0.0
        checks.expect(worst <= EIG_TOL, f"cluster gap error {worst:.2e}")
        checks.expect(bool(np.all(ref[finite] > EIG_TOL)), "a cluster is disconnected")
    ref_xi = float(ref[np.isfinite(ref)].min()) if np.isfinite(ref).any() else math.inf
    checks.expect(
        abs(lambda_xi - ref_xi) <= EIG_TOL * max(1.0, ref_xi),
        f"Lambda {lambda_xi!r} vs reference {ref_xi!r}",
    )
    return ref_xi


def rel_error(truth: np.ndarray, got: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(got) - truth) / np.linalg.norm(truth))


def optimal_alpha(omega: float, lambda_xi: float) -> tuple[float, float]:
    """Closed-form maximiser of (1 - gamma)/(1 + alpha), gamma = (1+alpha)/alpha * omega/Lambda.

    With r = omega/Lambda the bound is 1/(1+alpha) - r/alpha, maximal at
    alpha = sqrt(r)/(1 - sqrt(r)), where it equals (1 - sqrt(r))**2.
    """
    root = math.sqrt(omega / lambda_xi)
    return root / (1.0 - root), (1.0 - root) ** 2


def check_certificate(omega, lambda_xi, got: tuple[float, float], checks: Checks) -> None:
    alpha, bound = optimal_alpha(omega, lambda_xi)
    checks.expect(abs(got[0] - alpha) <= 1e-6 * (1.0 + alpha),
                  f"optimal alpha {got[0]!r} vs closed form {alpha!r} at omega={omega}")
    checks.expect(abs(got[1] - bound) <= 1e-9,
                  f"certified bound {got[1]!r} vs closed form {bound!r} at omega={omega}")


@dataclass(frozen=True)
class BandReference:
    """Reference spectrum, band basis and frame bounds of a graph, partition and bandwidth."""

    laplacian: np.ndarray
    eigenvalues: np.ndarray
    band: np.ndarray  # n x m orthonormal basis of the band
    labels: np.ndarray
    sizes: np.ndarray
    lower: float
    upper: float

    @classmethod
    def build(cls, n: int, edges, clusters, omega: float) -> "BandReference":
        L = laplacian(n, edges)
        values, vectors = sla.eigh(L)
        band = vectors[:, values <= omega]
        checks = Checks()
        labels = cluster_labels(n, clusters, checks)
        if checks.misses:
            raise ValueError("; ".join(checks.misses))
        sizes = np.bincount(labels).astype(float)
        analysis = (np.eye(sizes.size)[labels] / np.sqrt(sizes[labels])[:, None]).T @ band
        singular = sla.svdvals(analysis)
        return cls(L, values, band, labels, sizes, float(singular[-1] ** 2), float(singular[0] ** 2))

    @property
    def dim(self) -> int:
        return self.band.shape[1]

    @property
    def norm(self) -> float:
        return float(max(abs(self.eigenvalues[0]), abs(self.eigenvalues[-1])))

    def signal(self, rng: np.random.Generator) -> np.ndarray:
        """Unit-norm signal with standard-normal coefficients on the reference band."""
        f = self.band @ rng.standard_normal(self.dim)
        return f / np.linalg.norm(f)

    def averages(self, f: np.ndarray) -> np.ndarray:
        return averages(self.labels, self.sizes, f)

    def check_decomposition(self, eigenvalues, eigenvectors, checks: Checks) -> tuple[float, float]:
        """Eigenvalues against LAPACK; return (max|LV - V diag(w)|/||L||, max|V'V - I|)."""
        w = np.asarray(eigenvalues, dtype=float)
        V = np.asarray(eigenvectors, dtype=float)
        scale = max(1.0, self.norm)
        value_err = float(np.max(np.abs(w - self.eigenvalues))) / scale
        residual = float(np.max(np.abs(self.laplacian @ V - V * w))) / scale
        orth = float(np.max(np.abs(V.T @ V - np.eye(V.shape[1]))))
        checks.expect(value_err <= EIG_TOL, f"eigenvalue error {value_err:.2e}")
        checks.expect(residual <= EIG_TOL, f"eigen residual {residual:.2e}")
        checks.expect(orth <= EIG_TOL, f"eigenvector orthogonality error {orth:.2e}")
        return residual, orth

    def check_frame(self, dim: int, lower: float, upper: float, checks: Checks) -> None:
        checks.expect(dim == self.dim, f"band dimension {dim} vs reference {self.dim}")
        checks.expect(abs(lower - self.lower) <= 1e-8 * self.upper,
                      f"lower frame bound {lower!r} vs reference {self.lower!r}")
        checks.expect(abs(upper - self.upper) <= 1e-8 * self.upper,
                      f"upper frame bound {upper!r} vs reference {self.upper!r}")

    def frame_iter_bound(self, tol: float) -> float:
        """Relative error the frame-iteration stopping rule guarantees.

        Stopping at ||A'(s - Ac)|| <= tol ||A's|| with a <= A'A <= b on the
        band gives ||c - c*|| <= tol * (b/a) ||c*||. The small additive term
        covers roundoff in forming the residual.
        """
        return tol * self.upper / self.lower + 1e-12
