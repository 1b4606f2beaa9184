"""Each batch kernel against its twin: an independent dense or scipy oracle.

The oracles evaluate the same quantity element by element through
np.linalg.det, group.mobius or scipy.special, never through _kernels. The
radial weight is also checked against the determinant of the materialised
matrix: bit for bit at r = 1, where the expression is the same, and in
extended precision at r >= 2, where it comes from the coefficients of
det(I + tau V1).
"""

import numpy as np
import pytest
from scipy.special import eval_jacobi

from matrixball import _kernels, group
from matrixball.structure import structure_data

# (r, q) shapes; r = 4 exercises the slogdet fallback past the closed forms
SHAPES = [(1, 2), (2, 3), (3, 4), (4, 5)]


def _random_domain_batch(rng, n, r, q):
    Z = rng.normal(size=(n, r, q)) + 1j * rng.normal(size=(n, r, q))
    Z *= 0.5 / np.maximum(1.0, np.linalg.norm(Z, axis=(1, 2)))[:, None, None]
    return Z


def _random_shilov_batch(rng, n, r, q):
    A = rng.normal(size=(n, q, q)) + 1j * rng.normal(size=(n, q, q))
    Q = np.linalg.qr(A)[0]
    return Q[:, :r, :]


@pytest.fixture(scope="module")
def batches(rng):
    out = {}
    for r, q in SHAPES:
        Z = _random_domain_batch(rng, 40, r, q)
        U = _random_shilov_batch(rng, 40, r, q)
        out[(r, q)] = (Z, U)
    return out


def _logabsdet_dense(T):
    return np.log(np.abs(np.linalg.det(T)))


def test_backend_reports_a_known_value():
    assert _kernels.backend() == "numpy"


@pytest.mark.parametrize("r,q", SHAPES)
def test_logdet_ipzz_twins(batches, r, q):
    Z, _ = batches[(r, q)]
    got = _kernels.logdet_ipzz(Z)
    direct = np.log(np.linalg.det(np.eye(r) - Z @ np.swapaxes(Z, -1, -2).conj()).real)
    assert np.max(np.abs(got - direct)) < 1e-10


@pytest.mark.parametrize("r,q", SHAPES)
def test_logabsdet_izuh_twins(batches, r, q):
    Z, U = batches[(r, q)]
    got = _kernels.logabsdet_izuh(Z, U)
    direct = _logabsdet_dense(np.eye(r) - Z @ np.swapaxes(U, -1, -2).conj())
    assert np.max(np.abs(got - direct)) < 1e-10


@pytest.mark.parametrize("r,q", SHAPES)
def test_logabsdet_izu0_twins(batches, r, q):
    Z, _ = batches[(r, q)]
    got = _kernels.logabsdet_izu0(Z)
    direct = _logabsdet_dense(np.eye(r) - Z[:, :, :r])
    assert np.max(np.abs(got - direct)) < 1e-10


@pytest.mark.parametrize("r,q", SHAPES)
def test_cross_logabsdet_twins(batches, r, q):
    Z, U = batches[(r, q)]
    got = _kernels.cross_logabsdet(Z, U)
    assert got.shape == (len(Z), len(U))
    # all-pairs dense oracle on a corner of the batch
    direct = np.array([
        [_logabsdet_dense(np.eye(r) - Z[i] @ U[j].conj().T) for j in range(8)]
        for i in range(8)])
    assert np.max(np.abs(got[:8, :8] - direct)) < 1e-10


@pytest.mark.parametrize("r,q", SHAPES)
def test_h1_batch_twins(r, q):
    # h1(g) = -(1/2r) log[det(I - Z Z^H) / |det(I - Z U0^H)|^2], Z = (g^-1).0
    sd = structure_data(r, q - r)
    G = np.stack([group.random_group_element(s, 0.7, sd) for s in range(30)])
    got = _kernels.h1_batch(G, r)
    Z0 = np.zeros((r, q), dtype=np.complex128)
    U0 = group.base_point(sd)
    want = []
    for g in G:
        Z = group.mobius(group.group_inverse(g, sd), Z0)
        num = np.linalg.det(np.eye(r) - Z @ Z.conj().T).real
        den = np.abs(np.linalg.det(np.eye(r) - Z @ U0.conj().T)) ** 2
        want.append(-np.log(num / den) / (2.0 * r))
    # h1_batch takes one q x q determinant of g's lower block row (measured 4.8e-14)
    assert np.max(np.abs(got - np.array(want))) < 1e-12


@pytest.mark.parametrize("r,q", SHAPES)
def test_h1_batch_of_the_radial_flow_is_t(r, q):
    # det(D + C U0) of a_t is e^(rt); the lower block row alone gives the same heights
    sd = structure_data(r, q - r)
    ts = np.array([0.0, 0.5, 3.0, 10.0, 30.0])
    A = group.radial(ts, sd)
    got = _kernels.h1_batch(A, r)
    assert np.max(np.abs(got - ts) / np.maximum(ts, 1.0)) <= 1e-14
    assert np.array_equal(_kernels.h1_batch(A[:, r:], r), got)


@pytest.mark.parametrize("r,q", SHAPES)
def test_mobius_batch_twins(batches, r, q):
    sd = structure_data(r, q - r)
    g = group.random_group_element(17, 0.7, sd)
    Z, _ = batches[(r, q)]
    got = _kernels.mobius_batch(g, Z, r)
    for i in (0, 7, 39):
        assert np.max(np.abs(got[i] - group.mobius(g, Z[i]))) < 1e-12


def test_radial_logweight_twins(batches):
    # V1 is the leading square r x r block of a Shilov node
    for r, q in SHAPES:
        _, U = batches[(r, q)]
        V1 = U[..., :, :r]
        for t in (0.5, 2.0):
            got = _kernels.radial_logweight(V1, t)
            direct = _logabsdet_dense(np.cosh(t) * np.eye(r) + np.sinh(t) * V1)
            assert np.max(np.abs(got - direct)) < 1e-10


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_radial_logweight_matches_materialised_matrix(r):
    # on the strided leading-block view that the radial pushforward passes: at
    # r = 1 the weight is the formed matrix's log|det| bit for bit; at r >= 2
    # the coefficient form agrees with that determinant taken in extended
    # precision (measured: <= 1.8e-14 at r = 2, 3 and 3.9e-14 at r = 4, against
    # <= 1.2e-14 for the formed matrix's own float64 determinant)
    U = _random_shilov_batch(np.random.default_rng(31 + r), 1001, r, r + 1)
    V1 = U[..., :, :r]
    assert not V1.flags.c_contiguous
    for t in np.arange(0.0, 8.01, 0.5):
        got = _kernels.radial_logweight(V1, t)
        if r == 1:
            T = np.sinh(t) * V1
            T[..., np.arange(r), np.arange(r)] += np.cosh(t)
            assert np.array_equal(got, _kernels._logabsdet_small(T))
            continue
        T = np.sinh(np.longdouble(t)) * V1.astype(np.clongdouble)
        T[..., np.arange(r), np.arange(r)] += np.cosh(np.longdouble(t))
        want = np.log(np.abs(_det_clongdouble(T)))
        assert np.max(np.abs(got - want)) < 1e-13


def _det_clongdouble(T):
    # Laplace expansion along the first row, in the stack's own precision
    r = T.shape[-1]
    if r == 1:
        return T[..., 0, 0]
    total = 0
    for j in range(r):
        minor = np.delete(np.delete(T, 0, axis=-2), j, axis=-1)
        total = total + (-1) ** j * T[..., 0, j] * _det_clongdouble(minor)
    return total


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_kernel_log_determinants_match_extended_precision(r):
    # logdet_ipzz and logabsdet_izuh take their determinant through the one rank
    # ladder, _logabsdet_small; the oracle forms the same matrices and their
    # determinants in extended precision. Measured at most 5.6e-16; the bound is 3.5x that
    rng = np.random.default_rng(61 + r)
    Z = _random_domain_batch(rng, 400, r, r + 1)
    U = _random_shilov_batch(rng, 400, r, r + 1)
    Zl = Z.astype(np.clongdouble)
    for got, X in ((_kernels.logdet_ipzz(Z), Z), (_kernels.logabsdet_izuh(Z, U), U)):
        H = np.eye(r) - Zl @ np.swapaxes(X.astype(np.clongdouble), -1, -2).conj()
        assert np.max(np.abs(got - np.log(np.abs(_det_clongdouble(H))))) <= 2e-15


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_radial_coefficients_reused_across_t(r):
    # coefficients built once give, at every t, the weights of a fresh call on V1 bit for bit
    U = _random_shilov_batch(np.random.default_rng(53 + r), 1001, r, r + 1)
    V1 = U[..., :, :r]
    coefs = _kernels.radial_coefficients(V1)
    assert len(coefs) == r and all(c.shape == (1001,) and c.flags.c_contiguous for c in coefs)
    for t in np.arange(0.0, 8.01, 0.5):
        assert np.array_equal(_kernels.radial_logweight(coefs, t), _kernels.radial_logweight(V1, t))


def test_jacobi_batch_twins():
    x = np.linspace(-1.0, 1.0, 101)
    for k, al, be in ((0, 0.0, 1.0), (3, 1.0, 2.0), (7, 2.5, 0.5)):
        got = _kernels.jacobi_batch(k, al, be, x)
        assert np.max(np.abs(got - eval_jacobi(k, al, be, x))) < 1e-11


def test_jacobi_against_scipy():
    x = np.linspace(-1.0, 1.0, 50)
    got = _kernels.jacobi_batch(4, 1.0, 3.0, x)
    assert np.max(np.abs(got - eval_jacobi(4, 1.0, 3.0, x))) < 1e-11
