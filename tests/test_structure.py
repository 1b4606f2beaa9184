import numpy as np
import pytest

from matrixball.errors import DomainError
from matrixball.structure import (
    lambda_coefficients,
    restricted_roots,
    root_decomposition,
    spectral_param,
    structure_data,
    su_basis,
)

DOMAINS = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]


@pytest.mark.parametrize("r,b", DOMAINS)
def test_derived_integers(r, b):
    sd = structure_data(r, b)
    assert sd.n == r * (r + b)
    assert sd.m == 2 * r + b
    assert sd.q == r + b
    assert sd.a == 2
    assert sd.harmonic_s == pytest.approx(r + b)
    assert sd.admissibility_threshold == pytest.approx(r - 1)


def test_tube_case_rejected():
    with pytest.raises(DomainError):
        structure_data(1, 0)
    with pytest.raises(DomainError):
        structure_data(0, 1)


@pytest.mark.parametrize("r,b", DOMAINS)
def test_root_multiplicities(r, b):
    sd = structure_data(r, b)
    roots = restricted_roots(sd)
    # long roots beta_j have multiplicity 1, half roots 2b, mixed roots a = 2
    for j in range(1, r + 1):
        assert roots["beta_%d" % j] == 1
        assert roots["beta_%d/2" % j] == 2 * b
    for j in range(1, r + 1):
        for k in range(j + 1, r + 1):
            assert roots["(beta_%d-beta_%d)/2" % (j, k)] == 2
            assert roots["(beta_%d+beta_%d)/2" % (j, k)] == 2
    expected_count = 2 * r + 2 * (r * (r - 1) // 2)
    assert len(roots) == expected_count


def test_su_basis_spans_su(sd21):
    from matrixball.group import jmatrix

    basis = su_basis(sd21)
    m = sd21.m
    J = jmatrix(sd21)
    assert len(basis) == m * m - 1
    for X in basis:
        # algebra condition X^H J + J X = 0, tracelessness, and unit norm
        assert np.max(np.abs(X.conj().T @ J + J @ X)) < 1e-13
        assert abs(np.trace(X)) < 1e-13
        assert np.sum(np.abs(X) ** 2) == pytest.approx(1.0)


def test_root_decomposition_dimension(sd11):
    total = sum(len(mats) for _, mats in root_decomposition(sd11))
    assert total == sd11.m ** 2 - 1


def test_spectral_param_derived_values(sd11):
    sp = spectral_param(3.0 + 1.0j, sd11)
    assert sp.sigma == pytest.approx(0.5 * (3.0 + 1.0j + 2.0))
    assert sp.growth == pytest.approx((3.0 + 1.0j) - 2.0)
    assert sp.hua_eigenvalue == pytest.approx(0.25 * ((3.0 + 1.0j) ** 2 - 4.0))
    assert sp.admissible


def test_admissibility_boundary():
    sd = structure_data(2, 1)  # threshold Re s > 1
    assert not spectral_param(1.0, sd).admissible
    assert not spectral_param(0.5 + 5.0j, sd).admissible
    assert spectral_param(1.2, sd).admissible


def test_harmonic_point_eigenvalue_is_zero(sd11, sd21):
    for sd in (sd11, sd21):
        sp = spectral_param(float(sd.r + sd.b), sd)
        assert abs(sp.hua_eigenvalue) < 1e-14


def test_lambda_coefficients_weyl_symmetry(sd21):
    co = lambda_coefficients(2.5, sd21)
    assert np.allclose(co, [3.5, 1.5])  # s + r + 1 - 2j
    # at s = 0 the string is antisymmetric, so the long Weyl element (the order
    # reversal eps_j -> eps_(r+1-j)) negates it
    co0 = lambda_coefficients(0.0, sd21)
    assert np.allclose(co0[::-1], -co0)
