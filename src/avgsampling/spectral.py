"""Graph Laplacian assembly, dense LAPACK eigendecomposition, and band filters.

Every band subspace, frame, dual and spline is built from one full
eigendecomposition of the Laplacian, computed by LAPACK's divide-and-conquer
driver ``syevd``.

The Laplacian acts as (L f)(v) = sum_u (f(v) - f(u)) w(v,u); as a matrix it is
diag(degrees) minus the weight matrix, symmetric positive semidefinite, with
constants on each connected component spanning its kernel.

Bandwidth convention: a signal has bandwidth omega when it lies in the span of
eigenvectors whose *Laplacian eigenvalue* is at most omega. Under this
convention the operator powers satisfy ``norm(L^{s/2} f) <= omega**(s/2) *
norm(f)`` for every signal of bandwidth omega.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InputError
from .graph import WeightedGraph

#: Eigenvalues within this slack of a bandwidth, relative to lambda_max, still
#: count as in-band, so a band never excludes an analytically-equal eigenvalue
#: computed with roundoff, whatever the scale of the weights.
BAND_SLACK = 1e-12


def build_laplacian(graph: WeightedGraph) -> np.ndarray:
    """The dense read-only Laplacian matrix: degrees on the diagonal, -w(u,v) off it.

    Scattered from the edge arrays into one n x n array, whose row sums are
    then negated onto its diagonal; ``0.0 - sum`` keeps an isolated vertex's
    degree +0.0, as ``np.diag(W.sum(axis=1)) - W`` has it.
    """
    us, vs, ws = graph._edge_arrays
    L = np.zeros((graph.n, graph.n))
    L[us, vs] = L[vs, us] = -ws
    np.fill_diagonal(L, 0.0 - L.sum(axis=1))
    L.flags.writeable = False
    return L


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors of a Laplacian; equal only to itself."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def default_zero_tol(self) -> float:
        """Threshold below which an eigenvalue counts as zero, relative to lambda_max.

        Relative at every scale, so that scaling the weights scales the
        threshold with the spectrum.
        """
        return 1e-9 * abs(self.lambda_max)


def eigendecompose(matrix: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK divide and conquer.

    ``scipy.linalg.eigh`` with ``driver="evd"`` (LAPACK ``syevd``): faster
    than the default MRRR driver ``syevr`` at every size this package runs,
    with eigenvectors orthonormal to a few ulps, at the price of about
    ``2 n**2`` doubles of workspace. Inside a repeated eigenvalue the basis
    is whatever orthonormal one the driver returns; frames, projections,
    duals and splines do not depend on that choice beyond roundoff, but a
    seeded ``generate_pw_signal`` draw does.

    Eigenvalues come in ascending order. Each eigenvector is signed so that
    its first entry above ``1e-12`` of its largest magnitude is positive, so
    identical input on one platform and BLAS build gives identical output.
    Raises InputError for a non-square, non-finite or non-symmetric matrix.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise InputError("matrix contains non-finite entries")
    if matrix.size and np.max(np.abs(matrix - matrix.T)) > 1e-10 * max(1.0, float(np.max(np.abs(matrix)))):
        raise InputError("matrix is not symmetric")
    values, vectors = sla.eigh(matrix, driver="evd", check_finite=False)
    if vectors.size:
        magnitude = np.abs(vectors)
        lead = np.argmax(magnitude > 1e-12 * magnitude.max(axis=0), axis=0)
        vectors *= np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    values.flags.writeable = False
    vectors.flags.writeable = False
    return SpectralDecomposition(eigenvalues=values, eigenvectors=vectors)


@dataclass(frozen=True)
class PWSpace:
    """Span of the eigenvectors with eigenvalue at most the bandwidth.

    The eigenvalues ascend, so the band is a prefix of them: ``basis`` is
    the leading m eigenvector columns, a view of the decomposition's
    read-only, column-major eigenvector matrix rather than a copy.
    """

    omega: float
    basis: np.ndarray  # n x m eigenvector columns

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def pw_space(decomp: SpectralDecomposition, omega: float) -> PWSpace:
    """Bandlimited subspace for a given bandwidth."""
    if not omega >= 0:  # NaN included
        raise InputError(f"bandwidth must be nonnegative, got {omega}")
    edge = omega + BAND_SLACK * abs(decomp.lambda_max)
    m = int(np.searchsorted(decomp.eigenvalues, edge, side="right"))
    return PWSpace(omega=float(omega), basis=decomp.eigenvectors[:, :m])


def pw_project(decomp: SpectralDecomposition, omega: float, f: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the bandwidth-omega subspace."""
    space = pw_space(decomp, omega)
    f = np.asarray(f, dtype=float)
    if f.shape != (decomp.n,):
        raise InputError(f"signal shape {f.shape} does not match n={decomp.n}")
    return space.basis @ (space.basis.T @ f)


def _power_weights(decomp: SpectralDecomposition, s: float) -> np.ndarray:
    """lambda**(s/2) per eigenvalue, each at or below ``default_zero_tol`` (roundoff kernel) pinned to 0."""
    lam = decomp.eigenvalues
    return np.where(lam > decomp.default_zero_tol, lam, 0.0) ** (s / 2.0)
