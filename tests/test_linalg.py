import numpy as np
import pytest
import scipy.linalg

from matrixball import group, linalg, suite
from matrixball.errors import DegeneracyError, MembershipError
from matrixball.structure import structure_data


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


# Largest error against scipy.linalg.expm, relative to the largest entry, over
# 64 su(r, q) elements per domain at each 1-norm below: 5.0e-15 at norms up to
# theta_13 ~ 5.37 and 3.9e-14 above it, where both are condition-limited (the
# mpmath exponential puts either one ahead on some matrices). Bounds: 4x those.
EXPM_NORMS = {1e-3: 2e-14, 0.5: 2e-14, 5.0: 2e-14, 6.0: 1.6e-13, 40.0: 1.6e-13}


@pytest.mark.parametrize("rb", suite.DOMAINS)
def test_expm_matches_scipy(rb):
    sd = structure_data(*rb)
    rng = np.random.default_rng(27)
    X = np.stack([group.random_algebra_element(rng, 1.0, sd) for _ in range(64)])
    X /= np.abs(X).sum(axis=-2).max(axis=-1)[:, None, None]
    for norm, tol in EXPM_NORMS.items():
        E, want = linalg.expm(norm * X), scipy.linalg.expm(norm * X)
        err = np.abs(E - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))
        assert err.max() <= tol, (norm, err.max())


@pytest.mark.parametrize("rb", suite.DOMAINS)
def test_expm_of_each_matrix_ignores_its_stack(rb):
    # every matrix scales and squares on its own: alone or stacked among
    # others of any norm, bit for bit, and exp(0) is exactly I
    sd = structure_data(*rb)
    rng = np.random.default_rng(28)
    X = np.stack([group.random_algebra_element(rng, scale, sd)
                  for scale in (0.0, 1e-3, 0.45, 3.0, 20.0, 0.0)])
    E = linalg.expm(X)
    for k in range(len(X)):
        assert np.array_equal(E[k], linalg.expm(X[k]))
    assert np.array_equal(E[[0, -1]], np.broadcast_to(np.eye(sd.m), (2, sd.m, sd.m)))
    assert np.array_equal(linalg.expm(X.reshape(2, 3, sd.m, sd.m)), E.reshape(2, 3, sd.m, sd.m))


def test_qr_unitary_is_unitary(rng):
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    Q, R = linalg.qr_unitary(A)
    assert np.max(np.abs(Q.conj().T @ Q - np.eye(6))) < 1e-12
    assert np.max(np.abs(Q @ R - A)) < 1e-12
    d = np.diagonal(R)
    assert np.max(np.abs(d.imag)) < 1e-12 and np.min(d.real) > 0  # phase fix


def _haar(rng, m, d):
    """m Haar unitaries of size d x d (phase-fixed LAPACK QR of complex Gaussians)."""
    Z = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (diag / np.abs(diag))[:, None, :]


@pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8, 1e12])
@pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (4, 2), (4, 3), (6, 6)])
def test_qr_unitary_matches_phase_fixed_lapack(n, k, kappa):
    # a stack of 500 matrices with 2-norm 1 and condition number kappa,
    # U diag(logspace(0, -log10 kappa)) V^H, against np.linalg.qr with the
    # diagonal of R made real and positive. Measured over 5 seeds at kappa up
    # to 1e14: orthogonality <= 8.9e-16, |QR - A| <= 4.5e-16, and
    # |Q - Q_lapack| <= 3.7 kappa eps; the bounds below keep a margin >= 4x.
    rng = np.random.default_rng(1000 * n + k)
    sv = np.logspace(0.0, -np.log10(kappa), k)
    A = (_haar(rng, 500, n)[:, :, :k] * sv) @ _haar(rng, 500, k)
    Q, R = linalg.qr_unitary(A)
    assert Q.shape == (500, n, k) and R.shape == (500, k, k)
    assert np.max(np.abs(np.swapaxes(Q, -1, -2).conj() @ Q - np.eye(k))) <= 4e-15
    assert np.max(np.abs(Q @ R - A)) <= 2e-15
    d = np.diagonal(R, axis1=-2, axis2=-1)
    assert np.all(d.imag == 0) and np.all(d.real > 0)
    assert np.all(np.tril(R, -1) == 0)
    Q0, R0 = np.linalg.qr(A)
    ph = np.diagonal(R0, axis1=-2, axis2=-1)
    ph = ph / np.abs(ph)
    assert np.max(np.abs(Q - Q0 * ph[:, None, :])) <= 20 * kappa * np.finfo(float).eps
    # one matrix alone factors like its slice of the stack
    Q1, R1 = linalg.qr_unitary(A[7])
    assert np.max(np.abs(Q1 - Q[7])) <= 4e-15 and np.max(np.abs(R1 - R[7])) <= 4e-15


@pytest.mark.parametrize("column", [0, 1])
def test_qr_unitary_rejects_a_zero_column(rng, column):
    # a zero residual used to come back as a finite Q from LAPACK, and as NaN
    # with a RuntimeWarning from an unguarded Gram-Schmidt
    A = rng.normal(size=(4, 3, 2)) + 1j * rng.normal(size=(4, 3, 2))
    A[2, :, column] = 0.0
    with pytest.raises(DegeneracyError):
        linalg.qr_unitary(A)
    with pytest.raises(DegeneracyError):
        linalg.qr_unitary(A[2])


def test_qr_unitary_rejects_non_finite_entries_and_wide_matrices(rng):
    for bad in (np.nan, np.inf):
        A = rng.normal(size=(3, 2)) + 0j
        A[1, 1] = bad
        with pytest.raises(DegeneracyError):
            linalg.qr_unitary(A)
    with pytest.raises(ValueError):
        linalg.qr_unitary(np.ones((2, 3)))


def test_cond_of_identity():
    assert linalg.cond(np.eye(3)) == pytest.approx(1.0)
