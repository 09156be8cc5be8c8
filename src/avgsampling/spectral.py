"""Graph Laplacian assembly, dense LAPACK eigendecomposition, and band filters.

Every band subspace, frame and dual is built from one full eigendecomposition
of the Laplacian, computed by LAPACK's divide-and-conquer driver ``syevd``;
splines read the Laplacian that the decomposition keeps.

The Laplacian acts as (L f)(v) = sum_u (f(v) - f(u)) w(v,u); as a matrix it is
diag(degrees) minus the weight matrix, symmetric positive semidefinite, with
constants on each connected component spanning its kernel.

Bandwidth convention: a signal has bandwidth omega when it lies in the span of
eigenvectors whose *Laplacian eigenvalue* is at most omega. Under this
convention the operator powers satisfy ``norm(L^{s/2} f) <= omega**(s/2) *
norm(f)`` for every signal of bandwidth omega.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import InputError, NumericalError, _vector
from .graph import WeightedGraph

#: Eigenvalues within this slack of a bandwidth, relative to lambda_max, still
#: count as in-band, so a band never excludes an analytically-equal eigenvalue
#: computed with roundoff, whatever the scale of the weights.
BAND_SLACK = 1e-12


def build_laplacian(graph: WeightedGraph) -> np.ndarray:
    """The dense read-only Laplacian matrix: degrees on the diagonal, -w(u,v) off it.

    Scattered from the edge arrays into one n x n array, whose row sums are
    then negated onto its diagonal; ``0.0 - sum`` keeps an isolated vertex's
    degree +0.0, as ``np.diag(W.sum(axis=1)) - W`` has it. Every weight is
    finite, but a degree can still overflow: raises NumericalError naming the
    first such vertex, without numpy's overflow warning.
    """
    us, vs, ws = graph._edge_arrays
    L = np.zeros((graph.n, graph.n))
    L[us, vs] = L[vs, us] = -ws
    with np.errstate(over="ignore"):
        degrees = 0.0 - L.sum(axis=1)
    finite = np.isfinite(degrees)
    if not finite.all():
        v = int(finite.argmin())
        raise NumericalError(f"vertex {v} has a non-finite weighted degree {degrees[v]}: its weights overflow")
    np.fill_diagonal(L, degrees)
    L.flags.writeable = False
    return L


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors of a Laplacian, and that matrix; equal only to itself."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    matrix: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def eigendecompose(matrix: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK divide and conquer.

    Calls LAPACK ``dsyevd`` directly through ``scipy.linalg.lapack``, on the
    lower triangle with the wrapper's default workspace of
    ``1 + 6 n + 2 n**2`` doubles. ``scipy.linalg.eigh(..., driver="evd")``
    makes the same call after a workspace query, which asks for that size
    too except at small n, where LAPACK runs unblocked code whatever the
    workspace; so the bits are eigh's, without its Python set-up. Divide and
    conquer is faster than the MRRR driver ``syevr`` at every size this
    package runs, with eigenvectors orthonormal to a few ulps, at the price
    of that workspace. Inside a repeated eigenvalue the basis
    is whatever orthonormal one the driver returns; frames, projections,
    duals do not depend on that choice beyond roundoff, splines not at all, but a
    seeded ``generate_pw_signal`` draw does.

    The decomposition keeps a read-only view of the matrix it decomposed, not
    a copy; splines read the operator from it, not from the eigenvectors.

    Eigenvalues come in ascending order. Each eigenvector is signed so that
    its first entry above ``1e-12`` of its largest magnitude is positive, so
    identical input on one platform and BLAS build gives identical output.
    Raises InputError for a non-square or non-finite matrix, or one whose
    asymmetry exceeds ``1e-10`` of its largest entry, at any scale; and
    NumericalError when LAPACK reports a failure or an eigenvalue overflows
    (finite entries near the largest double can have an infinite eigenvalue).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise InputError("matrix contains non-finite entries")
    with np.errstate(over="ignore"):  # an overflowing difference is infinite, so still refused
        if matrix.size and np.max(np.abs(matrix - matrix.T)) > 1e-10 * np.max(np.abs(matrix)):
            raise InputError("matrix is not symmetric")
    values, vectors, info = lapack.dsyevd(matrix, compute_v=1, lower=1)
    if info != 0:
        raise NumericalError(f"LAPACK dsyevd failed (info {info})")
    finite = np.isfinite(values)
    if not finite.all():
        i = int(finite.argmin())
        raise NumericalError(f"eigenvalue {i} is {values[i]}: the spectrum overflows")
    if vectors.size:
        magnitude = np.abs(vectors)
        lead = np.argmax(magnitude > 1e-12 * magnitude.max(axis=0), axis=0)
        vectors *= np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    matrix = matrix.view()
    values.flags.writeable = vectors.flags.writeable = matrix.flags.writeable = False
    return SpectralDecomposition(eigenvalues=values, eigenvectors=vectors, matrix=matrix)


@dataclass(frozen=True, eq=False)
class PWSpace:
    """Span of the eigenvectors with eigenvalue at most the bandwidth; equal only to itself.

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
    """Bandlimited subspace for a given bandwidth; InputError when it is negative, NaN or holds no eigenvalue."""
    if not omega >= 0:  # NaN included
        raise InputError(f"bandwidth must be nonnegative, got {omega}")
    edge = omega + BAND_SLACK * abs(decomp.lambda_max)
    m = int(decomp.eigenvalues.searchsorted(edge, side="right"))
    if m == 0:
        raise InputError(f"band subspace is empty for omega={omega}")
    space = object.__new__(PWSpace)
    vars(space).update(omega=float(omega), basis=decomp.eigenvectors[:, :m])
    return space


def pw_project(decomp: SpectralDecomposition, omega: float, f: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the bandwidth-omega subspace; InputError unless f is n finite values."""
    space = pw_space(decomp, omega)
    f = _vector(f, decomp.n, "signal")
    return space.basis.dot(space.basis.T.dot(f))
