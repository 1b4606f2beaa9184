import numpy as np
import pytest

from matrixball import linalg
from matrixball.errors import MembershipError


def test_det_matches_product_of_eigenvalues(rng):
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    ev = np.linalg.eigvals(A)
    assert linalg.det(A) == pytest.approx(np.prod(ev), rel=1e-10)


def test_det_rejects_rectangular():
    with pytest.raises(ValueError):
        linalg.det(np.zeros((2, 3)))


def test_is_strictly_positive_cases(rng):
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = A @ A.conj().T + 1e-3 * np.eye(4)
    assert linalg.is_strictly_positive(H)
    assert not linalg.is_strictly_positive(H - 2 * np.eye(4) * np.max(np.abs(H)))
    # rank-deficient matrix fails the strict test
    v = rng.normal(size=4)
    assert not linalg.is_strictly_positive(np.outer(v, v))
    with pytest.raises(MembershipError):
        linalg.is_strictly_positive(A)


def test_is_strictly_positive_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        H = np.eye(3, dtype=complex)
        H[1, 1] = bad
        assert not linalg.is_strictly_positive(H)
    assert not linalg.is_strictly_positive(np.full((2, 2), np.nan))


def test_is_strictly_positive_stacks(rng):
    # a stack is positive only when every matrix in it is, and agrees per matrix
    A = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    H = A @ np.swapaxes(A, -1, -2).conj() + 1e-3 * np.eye(3)
    assert linalg.is_strictly_positive(H)
    assert linalg.is_strictly_positive(H[:0])
    for k in range(5):
        bad = H.copy()
        bad[k] -= 2 * np.eye(3) * np.max(np.abs(H[k]))
        assert not linalg.is_strictly_positive(bad)
        assert [linalg.is_strictly_positive(M) for M in bad] == [j != k for j in range(5)]
    bad = H.copy()
    bad[2, 1, 1] = np.nan
    assert not linalg.is_strictly_positive(bad)
    bad = H.copy()
    bad[4] = A[4]
    with pytest.raises(MembershipError):
        linalg.is_strictly_positive(bad)


def test_expm_inverse_of_negative(rng):
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    X = (X - X.conj().T) / 2
    E = linalg.expm(X) @ linalg.expm(-X)
    assert np.max(np.abs(E - np.eye(4))) < 1e-12


def test_qr_unitary_is_unitary(rng):
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    Q, R = linalg.qr_unitary(A)
    assert np.max(np.abs(Q.conj().T @ Q - np.eye(6))) < 1e-12
    assert np.max(np.abs(Q @ R - A)) < 1e-12
    d = np.diagonal(R)
    assert np.max(np.abs(d.imag)) < 1e-12 and np.min(d.real) > 0  # phase fix


def test_cond_of_identity():
    assert linalg.cond(np.eye(3)) == pytest.approx(1.0)
