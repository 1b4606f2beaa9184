"""Dense complex-matrix helpers for small fixed sizes (m = 2r+b <= ~12).

Matrices are plain numpy ``complex128`` arrays throughout the package; this
module wraps the handful of primitives the rest of the code relies on
(determinant, definiteness test, exponential, phase-fixed QR) behind stable
contracts and package-specific error types. The determinant, condition number
and exponential are numpy/scipy LAPACK calls, which at these sizes are
effectively exact. The QR is a two-pass Gram-Schmidt vectorised across a stack
of matrices, since the stacks it factors (10^6 Haar samples) hold matrices too
small for one LAPACK call each to pay off.
"""

import numpy as np
import scipy.linalg

from .errors import DegeneracyError, MembershipError

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


def _sum_rows(x):
    """Sum of x (n, M) over its rows, added in row order whatever the layout."""
    out = x[0].copy()
    for row in x[1:]:
        out += row
    return out


def qr_unitary(A):
    """Reduced QR of A (..., n, k), k <= n, with the diagonal of R real and positive.

    Returns Q (..., n, k) with orthonormal columns and R (..., k, k) upper
    triangular with Q R = A. The phase fix makes both factors a deterministic
    function of A, which is what both Haar sampling and the boundary-coset
    construction need.

    The factorisation is two-pass classical Gram-Schmidt: each column is
    projected off the columns before it twice, which keeps Q orthonormal to
    roundoff for any numerically full-rank A (Giraud, Langou & Rozloznik 2005,
    "twice is enough"). It loops over the k columns only, and every step is one
    vector operation across the whole stack. Column j of Q and R depends only on
    the first j + 1 columns of A, bit for bit. A non-finite entry, or a column
    whose residual after the projections is zero, raises DegeneracyError.
    Squared column norms are not rescaled, so entries must stay well inside
    1e-150 < |a| < 1e150.
    """
    A = np.asarray(A, dtype=np.complex128)
    *stack, n, k = A.shape
    if k > n:
        raise ValueError("qr_unitary needs k <= n columns, got shape %s" % (A.shape,))
    if not np.all(np.isfinite(A)):
        raise DegeneracyError("qr_unitary needs finite entries")
    # column j of every matrix in the stack is the contiguous (n, M) block Q[j]
    Q = A.reshape(-1, n, k).transpose(2, 1, 0).copy()
    R = np.zeros((k, k, Q.shape[-1]), dtype=np.complex128)
    for j in range(k):
        v = Q[j]
        for _ in range(2):
            c = [_sum_rows(Q[i].conj() * v) for i in range(j)]
            for i in range(j):
                v -= Q[i] * c[i]
                R[i, j] += c[i]
        norm = np.sqrt(_sum_rows(v.real ** 2 + v.imag ** 2))
        if not np.all((norm > 0) & np.isfinite(norm)):
            raise DegeneracyError("qr_unitary: column %d is zero after projection "
                                  "(rank-deficient matrix)" % j)
        v /= norm
        R[j, j] = norm
    return Q.transpose(2, 1, 0).reshape(A.shape), R.transpose(2, 0, 1).reshape(*stack, k, k)


def cond(A):
    """2-norm condition number; for a stack, one per matrix."""
    return np.linalg.cond(np.asarray(A, dtype=np.complex128))
