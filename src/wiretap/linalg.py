"""Complex Hermitian linear-algebra kernel shared by every solver module.

All operations are pure functions on immutable ndarrays and are safe to call
concurrently. Matrices are dense ``complex128``; nothing here is tuned for
sizes beyond a few dozen antennas.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Relative tolerance under which a slightly negative covariance eigenvalue is
# treated as rounding noise and clamped to zero.
DEFAULT_PSD_TOL = 1e-9

# How asymmetric an input may be before we refuse to call it Hermitian.
HERMITIAN_RTOL = 1e-12


class LinalgError(ValueError):
    """Input outside an operation's domain (shape, symmetry, definiteness)."""


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # unitary; column i pairs with eigenvalues[i]


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise LinalgError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise LinalgError("matrix contains NaN or Inf entries")
    return m


def as_vector(a) -> np.ndarray:
    """Coerce to a 1-D complex128 array, rejecting non-finite entries."""
    v = np.asarray(a, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise LinalgError("vector contains NaN or Inf entries")
    return v


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*) / 2. Applied on ingestion so downstream code may assume exact symmetry."""
    a = as_matrix(a)
    return (a + a.conj().T) / 2.0


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def hermitian_eig(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is symmetrized by (A + A*)/2 before factoring; anything more
    asymmetric than HERMITIAN_RTOL relative to its Frobenius norm is rejected.
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise LinalgError(f"matrix is {n}x{m}, not square")
    scale = frob(a)
    if frob(a - a.conj().T) > HERMITIAN_RTOL * max(1.0, scale):
        raise LinalgError("matrix is not Hermitian within tolerance")
    try:
        vals, vecs = np.linalg.eigh(hermitian_part(a))
    except np.linalg.LinAlgError as exc:  # iteration budget exhausted
        raise LinalgError(f"eigendecomposition did not converge: {exc}") from exc
    return EigenDecomposition(vals, vecs)


def psd_project_factor(a, tol: float = DEFAULT_PSD_TOL) -> np.ndarray:
    """Hermitian square root B of a PSD matrix A, with B B* = A.

    Eigenvalues in [-tol * max(1, lambda_max), 0) are clamped to zero; anything
    below that signals a genuinely indefinite covariance and is rejected.
    """
    vals, vecs = hermitian_eig(a)
    lam_max = float(vals[-1]) if vals.size else 0.0
    floor = -tol * max(1.0, lam_max)
    if vals.size and float(vals[0]) < floor:
        raise LinalgError(
            f"matrix is not PSD: min eigenvalue {vals[0]:.3e} below {floor:.3e}"
        )
    clamped = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(clamped)) @ vecs.conj().T


def trace_inner(a, b) -> float:
    """Re Tr(A B) for Hermitian A, B; symmetric in its arguments."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise LinalgError(f"dimension mismatch: {a.shape} vs {b.shape}")
    # For Hermitian A, B: Tr(AB) = sum_ij conj(A_ij) B_ij.
    return float(np.real(np.vdot(a, b)))


def numerical_rank(a, rel_tol: float = 1e-6) -> int:
    """Number of eigenvalues above rel_tol * lambda_max; 0 for the zero matrix."""
    vals, _ = hermitian_eig(a)
    if vals.size == 0:
        return 0
    lam_max = float(vals[-1])
    if lam_max <= 0.0:
        return 0
    return int(np.count_nonzero(vals > rel_tol * lam_max))
