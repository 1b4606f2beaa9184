"""Dense complex-matrix helpers for small fixed sizes (m = 2r+b <= ~12).

Matrices are plain numpy ``complex128`` arrays throughout the package; this
module wraps the handful of primitives the rest of the code relies on
(determinant, definiteness test, exponential, phase-fixed QR) behind stable
contracts and package-specific error types. The heavy lifting is delegated to
numpy/scipy LAPACK routines, which at these sizes are effectively exact.
"""

import numpy as np
import scipy.linalg

from .errors import MembershipError

__all__ = [
    "det",
    "is_strictly_positive",
    "expm",
    "qr_unitary",
    "cond",
]


def det(A) -> complex:
    """Determinant of a square complex matrix via LU with partial pivoting."""
    A = np.asarray(A, dtype=np.complex128)
    if A.shape[-1] != A.shape[-2]:
        raise ValueError("det requires a square matrix")
    return complex(np.linalg.det(A))


def is_strictly_positive(H) -> bool:
    """True iff the Hermitian matrix H is strictly positive definite.

    Uses an explicit Cholesky sweep and requires every pivot to exceed
    1e-13. Non-Hermitian input (beyond 1e-12 relative to the largest entry)
    is rejected; non-finite input is not positive definite. A stack
    (..., n, n) is positive only when every matrix in it is.
    """
    H = np.asarray(H, dtype=np.complex128)
    if not np.all(np.isfinite(H)):
        return False
    absmax = lambda X: np.max(np.abs(X), axis=(-2, -1), initial=0.0)
    scale = np.maximum(1.0, absmax(H))
    if np.any(absmax(H - np.swapaxes(H, -1, -2).conj()) > 1e-12 * scale):
        raise MembershipError("is_strictly_positive expects a Hermitian matrix")
    n = H.shape[-1]
    L = np.zeros_like(H)
    for j in range(n):
        d = H[..., j, j].real - np.sum(np.abs(L[..., j, :j]) ** 2, axis=-1)
        if not np.all(d > 1e-13):  # a NaN pivot fails too
            return False
        L[..., j, j] = np.sqrt(d)
        for i in range(j + 1, n):
            dot = np.sum(L[..., i, :j] * L[..., j, :j].conj(), axis=-1)
            L[..., i, j] = (H[..., i, j] - dot) / L[..., j, j]
    return True


def expm(X):
    """Matrix exponential (scaling and squaring with Pade approximants)."""
    return scipy.linalg.expm(np.asarray(X, dtype=np.complex128))


def qr_unitary(A):
    """Reduced QR factorization with the diagonal of R made real and positive.

    The phase fix makes the unitary factor a deterministic function of A,
    which is what both Haar sampling and the boundary-coset construction need.
    """
    A = np.asarray(A, dtype=np.complex128)
    Q, R = np.linalg.qr(A)
    d = np.diagonal(R, axis1=-2, axis2=-1).copy()
    ph = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    Q *= ph[..., None, :]
    R *= ph.conj()[..., :, None]
    return Q, R


def cond(A):
    """2-norm condition number; for a stack, one per matrix."""
    return np.linalg.cond(np.asarray(A, dtype=np.complex128))
