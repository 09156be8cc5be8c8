"""Graph Laplacian assembly, dense LAPACK eigendecomposition, and band filters.

The Laplacian acts as (L f)(v) = sum_u (f(v) - f(u)) w(v,u); as a matrix it is
diag(degrees) minus the weight matrix, symmetric positive semidefinite, with
constants on each connected component spanning its kernel.

Bandwidth convention: a signal has bandwidth omega when it lies in the span of
eigenvectors whose *Laplacian eigenvalue* is at most omega. Under this
convention the smoothing operator powers satisfy
``norm(apply_power(s, f)) <= omega**(s/2) * norm(f)`` for every signal of
bandwidth omega.
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
    """The dense read-only Laplacian matrix: degrees on the diagonal, -w(u,v) off it."""
    W = graph.weight_matrix()
    L = np.diag(W.sum(axis=1)) - W
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
        """Scale-aware threshold below which an eigenvalue counts as zero."""
        return 1e-9 * max(1.0, self.lambda_max)


def eigendecompose(matrix: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

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
    values, vectors = sla.eigh(matrix, check_finite=False)
    if vectors.size:
        magnitude = np.abs(vectors)
        lead = np.argmax(magnitude > 1e-12 * magnitude.max(axis=0), axis=0)
        vectors *= np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    values.flags.writeable = False
    vectors.flags.writeable = False
    return SpectralDecomposition(eigenvalues=values, eigenvectors=vectors)


def lambda1(decomp: SpectralDecomposition, zero_tol: float | None = None) -> float:
    """First nonzero eigenvalue (the spectral gap of a connected graph).

    Requires exactly one eigenvalue below ``zero_tol``: more means the
    underlying graph is disconnected, none below would mean a non-Laplacian
    input, and all below means a single-vertex graph. Either case raises.
    """
    if zero_tol is None:
        zero_tol = decomp.default_zero_tol
    values = decomp.eigenvalues
    kernel = int(np.sum(values <= zero_tol))
    if kernel == 0:
        raise InputError("no kernel eigenvalue found; input is not a graph Laplacian")
    if kernel >= decomp.n:
        raise InputError("all eigenvalues are zero (single-vertex or edgeless graph)")
    if kernel > 1:
        raise InputError(f"graph is disconnected ({kernel} near-zero eigenvalues)")
    return float(values[1])


@dataclass(frozen=True)
class PWSpace:
    """Span of the eigenvectors with eigenvalue at most the bandwidth."""

    omega: float
    basis: np.ndarray  # n x m eigenvector columns
    eigenvalues: np.ndarray  # the m in-band eigenvalues

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def pw_space(decomp: SpectralDecomposition, omega: float) -> PWSpace:
    """Bandlimited subspace for a given bandwidth."""
    if omega < 0:
        raise InputError(f"bandwidth must be nonnegative, got {omega}")
    mask = decomp.eigenvalues <= omega + BAND_SLACK * abs(decomp.lambda_max)
    basis = decomp.eigenvectors[:, mask]
    values = decomp.eigenvalues[mask]
    return PWSpace(omega=float(omega), basis=basis, eigenvalues=values)


def pw_project(decomp: SpectralDecomposition, omega: float, f: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the bandwidth-omega subspace."""
    space = pw_space(decomp, omega)
    f = np.asarray(f, dtype=float)
    if f.shape != (decomp.n,):
        raise InputError(f"signal shape {f.shape} does not match n={decomp.n}")
    return space.basis @ (space.basis.T @ f)


def apply_power(decomp: SpectralDecomposition, s: float, f: np.ndarray) -> np.ndarray:
    """Apply the s/2-th power of the Laplacian through its eigenvalues.

    Each eigen-coefficient is multiplied by lambda**(s/2); s=0 is the
    identity, s=2 is the Laplacian itself, s=1 is its square root. Kernel
    eigenvalues contribute a factor 0 for s > 0 (tiny negative roundoff
    eigenvalues are clamped to 0 first).
    """
    if s < 0:
        raise InputError(f"power must be nonnegative, got s={s}")
    f = np.asarray(f, dtype=float)
    if f.shape != (decomp.n,):
        raise InputError(f"signal shape {f.shape} does not match n={decomp.n}")
    if s == 0:
        return f.copy()
    lam = np.maximum(decomp.eigenvalues, 0.0)
    coeffs = decomp.eigenvectors.T @ f
    return decomp.eigenvectors @ (lam ** (s / 2.0) * coeffs)


def quadratic_form(L: np.ndarray, f: np.ndarray) -> float:
    """The form f^T L f of a Laplacian matrix; equals the squared weighted gradient seminorm."""
    f = np.asarray(f, dtype=float)
    if f.shape != (L.shape[0],):
        raise InputError(f"signal shape {f.shape} does not match n={L.shape[0]}")
    if not np.all(np.isfinite(f)):
        raise InputError("signal contains non-finite entries")
    return float(f @ (L @ f))
