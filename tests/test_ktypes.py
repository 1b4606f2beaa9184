"""Disk polynomials, K-type projections, and Schur diagonality."""

import numpy as np
import pytest

from matrixball import boundary, group, ktypes, poisson
from matrixball.errors import DomainError
from matrixball.structure import spectral_param, structure_data


def test_zonal_value_at_one():
    for b in (1, 2):
        for p, q in ((0, 0), (1, 0), (2, 1), (2, 2), (3, 3)):
            val = ktypes.zonal(ktypes.KTypeIndex(p, q), np.array([1.0 + 0j]), b)
            assert abs(val[0] - 1.0) < 1e-12


def test_zonal_gram_orthogonality(sd11):
    rule = boundary.disk_rule(sd11, level=24)
    deltas = ktypes.ktype_range(2, 2)
    vals = np.stack([ktypes.zonal(d, rule.nodes, 1) for d in deltas])
    gram = (vals * rule.weights) @ vals.conj().T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-12


@pytest.mark.parametrize("b", [1, 2, 3])
def test_zonal_norm_matches_disk_quadrature(b):
    # the closed form 1/sqrt(dim V_(p,q)) against the L^2 norm of R_(p,q) on the
    # level-24 disk rule, exact for these degrees
    rule = boundary.disk_rule(structure_data(1, b), level=24)
    for p in range(5):
        for q in range(5):
            d = ktypes.KTypeIndex(p, q)
            quad = np.sqrt(np.dot(rule.weights, np.abs(ktypes.zonal(d, rule.nodes, b)) ** 2))
            assert abs(ktypes.zonal_norm(d, b) - quad) <= 1e-13 * quad


def test_projection_recovers_coefficients(sd11, sphere8):
    coeffs = {
        ktypes.KTypeIndex(0, 0): 0.5 + 0.1j,
        ktypes.KTypeIndex(1, 0): -0.3,
        ktypes.KTypeIndex(1, 1): 0.25j,
        ktypes.KTypeIndex(2, 2): 1.0,
    }
    f = ktypes.band_limited(coeffs, sd11)
    got, _ = ktypes.ktype_spectrum(f, 3, 2, sphere8)
    for d, a in coeffs.items():
        assert abs(got[d] - a) < 1e-7
    # and an absent K-type projects to zero
    assert abs(got[ktypes.KTypeIndex(3, 0)]) < 1e-7


def test_band_limited_matches_zonal_sum(sd11, sphere8):
    # the evaluator contracts one monomial expansion of all K-types; values equal
    # the plain sum of zonals up to rounding
    rng = np.random.default_rng(4)
    deltas = ktypes.ktype_range(2, 2)
    coeffs = {d: complex(rng.normal(), rng.normal()) for d in deltas}
    u = sphere8.nodes[:, 0, 0]
    want = np.zeros(u.shape, dtype=np.complex128)
    for d, a in coeffs.items():
        want = want + a / ktypes.zonal_norm(d, 1) * ktypes.zonal(d, u, 1)
    got = ktypes.band_limited(coeffs, sd11)(sphere8.nodes)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_band_limited_parseval(sd11, sphere8):
    rng = np.random.default_rng(4)
    coeffs = {d: complex(rng.normal(), rng.normal()) for d in ktypes.ktype_range(2, 2)}
    f = ktypes.band_limited(coeffs, sd11)
    total = float(np.real(np.dot(sphere8.weights, np.abs(f(sphere8.nodes)) ** 2)))
    want = sum(abs(a) ** 2 for a in coeffs.values())
    assert abs(total - want) < 1e-12 * want
    got, defect = ktypes.ktype_spectrum(f, 2, 2, sphere8)
    assert defect < 1e-12
    assert max(abs(got[d] - a) for d, a in coeffs.items()) < 1e-12


def test_spectrum_warns_on_missing_mass(sd11, sphere8):
    f = ktypes.random_band_limited(sd11, seed=4, max_p=2, max_q=2, translates=1)
    with pytest.warns(UserWarning, match="misses"):
        ktypes.ktype_spectrum(f, 2, 2, sphere8)


def test_phi_delta_trivial_is_radial_phi(sd11, sphere6):
    sp = spectral_param(2.5, sd11)
    prof = ktypes.spherical_profile(sp, ktypes.KTypeIndex(0, 0), (0.5, 1.5), sphere6)
    for t, got in zip(prof.t_grid, prof.values):
        assert abs(got - poisson.phi_s(sp, float(t), sphere6)) < 1e-10


@pytest.mark.parametrize("delta", [(0, 0), (1, 0), (2, 1)])
def test_spherical_profile_is_the_transform_at_the_base_point(sd11, sphere6, delta):
    sp = spectral_param(2.5, sd11)
    t_grid = np.linspace(0.0, 5.0, 6)
    delta = ktypes.KTypeIndex(*delta)
    want = poisson.transform_radial(sp, ktypes.zonal_function(delta, sd11),
                                    group.base_point(sd11)[None], t_grid, sphere6)[0]
    assert np.array_equal(ktypes.spherical_profile(sp, delta, t_grid, sphere6).values, want)


def test_schur_diagonality(sd11, sphere6):
    sp = spectral_param(2.5, sd11)
    rep = ktypes.schur_diagonality(sp, ktypes.KTypeIndex(1, 1), 1.0,
                                   sphere6.nodes[:200], sphere6, seed=13)
    assert rep.cv < 1e-3
    assert rep.ratio_matches_phi
    assert rep.n_used > 50


def test_ktype_index_guards():
    with pytest.raises(DomainError):
        ktypes.KTypeIndex(-1, 0)
    order = [(d.p + d.q, d.p) for d in ktypes.ktype_range(2, 2)]
    assert order == sorted(order)


def test_rank_one_only(sd21):
    with pytest.raises(DomainError):
        ktypes.zonal_function(ktypes.KTypeIndex(1, 1), sd21)
    with pytest.raises(DomainError):
        ktypes.band_limited({ktypes.KTypeIndex(0, 0): 1.0}, sd21)
