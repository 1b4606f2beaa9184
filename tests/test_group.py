import numpy as np
import pytest

from matrixball import group
from matrixball.errors import DegeneracyError, MembershipError
from matrixball.structure import structure_data


def test_jmatrix_signature(sd21):
    J = group.jmatrix(sd21)
    assert np.allclose(np.diag(J), [1, 1, -1, -1, -1])


def test_base_point_shape_and_membership(sd11, sd21):
    for sd in (sd11, sd21):
        U0 = group.base_point(sd)
        assert U0.shape == (sd.r, sd.q)
        assert group.is_shilov_point(U0)


def test_random_group_element_membership(sd11, sd21):
    for sd in (sd11, sd21):
        for seed in range(5):
            g = group.random_group_element(seed, 0.8, sd)
            assert group.membership_residual(g, sd) < 1e-12


def test_group_inverse(sd21):
    g = group.random_group_element(3, 0.7, sd21)
    gi = group.group_inverse(g, sd21)
    assert np.max(np.abs(g @ gi - np.eye(sd21.m))) < 1e-12


def test_mobius_composition(sd11, sd21):
    # mobius(gh, Z) = mobius(g, mobius(h, Z))
    for sd in (sd11, sd21):
        g = group.random_group_element(11, 0.6, sd)
        h = group.random_group_element(12, 0.6, sd)
        Z = group.mobius(h, np.zeros((sd.r, sd.q)))
        lhs = group.mobius(g @ h, np.zeros((sd.r, sd.q)))
        rhs = group.mobius(g, Z)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_mobius_identity(sd21):
    Z = group.mobius(group.random_group_element(4, 0.5, sd21), np.zeros((2, 3)))
    assert np.max(np.abs(group.mobius(np.eye(sd21.m), Z) - Z)) < 1e-15
    assert group.is_domain_point(Z)


def test_mobius_singular_denominator_raises(sd11):
    # a_t sends Z = (-coth t, 0), outside the closed ball, to infinity:
    # CZ + D has the zero row (sinh t * z1 + cosh t, sinh t * z2)
    t = 0.8
    Z = np.array([[-np.cosh(t) / np.sinh(t), 0.0]])
    with pytest.raises(DegeneracyError, match="CZ \\+ D"):
        group.mobius(group.radial(t, sd11), Z)


def test_radial_height_orientation(sd11, sd21):
    # frozen orientation: h1(a_t) = t
    for sd in (sd11, sd21):
        for t in (0.3, 1.0, 2.5):
            assert group.h1_scalar(group.radial(t, sd), sd) == pytest.approx(t, abs=1e-10)
            assert group.h1_scalar(group.radial(-t, sd), sd) == pytest.approx(-t, abs=1e-10)


def test_h1_at_identity_and_in_K(sd11):
    assert group.h1_scalar(np.eye(sd11.m), sd11) == pytest.approx(0.0, abs=1e-14)


def test_cocycle_identity(sd11, sd21, sd12):
    # h1(x kappa(y)) = h1(x y) - h1(y) for random group pairs
    for sd in (sd11, sd21, sd12):
        for seed in range(10):
            x = group.random_group_element(100 + 2 * seed, 0.7, sd)
            y = group.random_group_element(101 + 2 * seed, 0.7, sd)
            ky = group.kappa_factor(y, sd)
            lhs = group.h1_scalar(x @ ky, sd)
            rhs = group.h1_scalar(x @ y, sd) - group.h1_scalar(y, sd)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_kappa_factor_properties(sd21):
    # kappa(g) is block diagonal, lies in the group, and fixes g's boundary image
    g = group.random_group_element(7, 0.6, sd21)
    k = group.kappa_factor(g, sd21)
    assert np.max(np.abs(k[: sd21.r, sd21.r :])) < 1e-12
    assert np.max(np.abs(k[sd21.r :, : sd21.r])) < 1e-12
    assert group.membership_residual(k, sd21) < 1e-10
    U0 = group.base_point(sd21)
    assert np.max(np.abs(group.mobius(k, U0) - group.mobius(g, U0))) < 1e-10


def test_kappa_right_factors_unitary(rng):
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0][:1]
    M = group.kappa_right_factors(U[None])[0]
    assert np.max(np.abs(M.conj().T @ M - np.eye(3))) < 1e-12
    assert abs(np.linalg.det(M) - 1.0) < 1e-12
    assert np.max(np.abs(M[:1] - U)) < 1e-12  # first r rows are U itself
    # the block element diag(I_r, M^H) carries the base point to U
    sd = structure_data(1, 2)
    k = np.zeros((4, 4), dtype=np.complex128)
    k[0, 0] = 1.0
    k[1:, 1:] = M.conj().T
    assert np.max(np.abs(group.mobius(k, group.base_point(sd)) - U)) < 1e-12


def test_membership_rejects_non_group(sd11):
    with pytest.raises(MembershipError):
        group.require_group(2.0 * np.eye(sd11.m), sd11)


def test_contraction_inequality_samples(sd11):
    # conjugating nbar toward the identity cannot increase the height
    E = group.nbar_basis(sd11)
    rng = np.random.default_rng(5)
    for _ in range(50):
        y = rng.normal(scale=1.5, size=len(E))
        A = np.tensordot(y, E, axes=(0, 0))
        nbar = np.eye(sd11.m) + A + 0.5 * (A @ A)
        t = rng.uniform(0.1, 4.0)
        h0 = group.h1_scalar(nbar, sd11)
        hc = group.h1_scalar(group.radial(t, sd11) @ nbar @ group.radial(-t, sd11), sd11)
        assert hc <= h0 + 1e-10


def test_is_domain_point_boundary(sd11):
    assert group.is_domain_point(np.array([[0.3, 0.1j]]))
    assert not group.is_domain_point(np.array([[1.0, 0.0]]))


def test_random_algebra_element_in_algebra(sd21, rng):
    X = group.random_algebra_element(rng, 0.5, sd21)
    J = group.jmatrix(sd21)
    assert np.max(np.abs(X.conj().T @ J + J @ X)) < 1e-12
    assert abs(np.trace(X)) < 1e-12
