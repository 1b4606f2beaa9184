"""Poisson kernel, transform, radial profiles, and the constant c_s."""

import math

import numpy as np
import pytest

from matrixball import boundary, group, poisson
from matrixball.errors import AdmissibilityError, DegeneracyError, MembershipError
from matrixball.structure import spectral_param, structure_data

# phi_s(a_t) at (r, b) = (1, 1), frozen from an independent 30-digit
# evaluation of the hypergeometric radial formula
PHI_ORACLE = {
    (2.5, 0.5): 1.06913422741139440005,
    (2.5, 1.0): 1.26618536502514234274,
    (2.5, 2.0): 2.00285245805708921058,
    (3.0, 0.5): 1.15800619827253767413,
    (3.0, 1.0): 1.65802799179096559101,
    (3.0, 2.0): 4.22062438187896163749,
}

# c_s by the closed Gamma-product formula, frozen at 30 digits
CS_ORACLE = {
    (1, 1, 1.5): 1.48378105186501899783365285831,
    (1, 1, 2.0): 1.0,
    (1, 1, 2.5): 0.732249372961740660539832941725,
    (1, 1, 3 + 0.5j): 0.540274973854780496075450697419 - 0.129245584787398815666131274693j,
    (1, 2, 2.0): 2.26353696841806699760190241241,
    (1, 3, 2.0): 6.0,
    (2, 1, 4.0): 0.307415976443715193951207615783,
    (2, 1, 5.0): 0.125,
    (2, 1, 2.5): 2.15667547089664868300025422611,
    (2, 1, 4 + 1j): 0.148186437530660970527911879347 - 0.225887728170853892467233245064j,
}


def test_kernel_at_origin(sd11, sd21):
    for sd in (sd11, sd21):
        sp = spectral_param(2.5 if sd.r == 1 else 4.0, sd)
        rule = (
            boundary.sphere_rule(sd, 4)
            if sd.r == 1
            else boundary.stiefel_rule(sd, 50, seed=3)
        )
        Z = np.zeros((sd.r, sd.q))
        vals = poisson.kernel(sp, Z, rule.nodes)
        assert np.max(np.abs(vals - 1.0)) < 1e-13


@pytest.mark.parametrize("r,b,s", [(1, 1, 2.5), (2, 1, 4.0)])
def test_kernel_radial_closed_form(r, b, s):
    # Z = tanh(t) U0 against U0 itself: K_s = exp(t (r s + n))
    sd = structure_data(r, b)
    sp = spectral_param(s, sd)
    U0 = group.base_point(sd)
    for t in (0.3, 1.0, 2.0):
        Z = math.tanh(t) * U0
        got = poisson.kernel(sp, Z, U0)
        want = math.exp(t * (r * s + sd.n))
        assert abs(got - want) / want < 1e-12


def test_kernel_membership_guards(sd11, sp2):
    U0 = group.base_point(sd11)
    with pytest.raises(MembershipError):
        poisson.kernel(sp2, 1.5 * U0, U0)
    with pytest.raises(MembershipError):
        poisson.kernel(sp2, 0.5 * U0, 0.5 * U0)
    with pytest.raises(DegeneracyError):
        poisson.kernel(sp2, math.tanh(8.0) * U0, U0)


def test_nan_point_is_outside_the_ball(sd11, sp2, sphere6):
    Z = np.array([[np.nan, 0.0]])
    assert not group.is_domain_point(Z)
    with pytest.raises(MembershipError):
        poisson.kernel(sp2, Z, group.base_point(sd11))
    with pytest.raises(MembershipError):
        poisson.transform(sp2, lambda U: U[..., 0, 0], Z, sphere6)


def test_phi_harmonic_is_one(sd11, sp2):
    rule = boundary.sphere_rule(sd11, 6)
    for t in (0.0, 1.0, 3.0):
        assert abs(poisson.phi_s(sp2, t, rule) - 1.0) < 1e-13


def test_phi_frozen_oracle(sd11):
    rule = boundary.disk_rule(sd11, level=24, panels=4, phases=512)
    for (s, t), want in PHI_ORACLE.items():
        got = poisson.phi_s(spectral_param(s, sd11), t, rule)
        assert abs(got - want) / abs(want) < 1e-12


def test_phi_disk_sphere_agree(sd11):
    spA = spectral_param(2.5, sd11)
    dsk = boundary.disk_rule(sd11, level=24, panels=4, phases=512)
    sph = boundary.sphere_rule(sd11, level=12, panels=4)
    for t in (0.5, 1.5):
        a = poisson.phi_s(spA, t, dsk)
        b = poisson.phi_s(spA, t, sph)
        assert abs(a - b) / abs(a) < 1e-3


def test_cs_gk_frozen_oracle():
    for (r, b, s), want in CS_ORACLE.items():
        sp = spectral_param(s, structure_data(r, b))
        got = poisson.c_s(sp, method="gk")
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_cs_all_routes_consistent(sd11):
    rep = poisson.c_s(spectral_param(2.0, sd11), method="all")
    assert rep.cs_direct is not None
    assert rep.max_pairwise_rel_err < 1e-3
    assert abs(rep.cs_gk - 1.0) < 1e-12


def test_cs_all_reuses_a_given_chart(sd11, monkeypatch):
    sp = spectral_param(2.5, sd11)
    chart = boundary.heisenberg_chart(sd11, grid=2)
    want = poisson.c_s(sp, method="all", grid=2)

    def no_chart(*args, **kwargs):
        raise AssertionError("c_s built a chart although one was given")

    monkeypatch.setattr(boundary, "heisenberg_chart", no_chart)
    got = poisson.c_s(sp, method="all", chart=chart)
    assert got.cs_direct == want.cs_direct


def test_cs_requires_admissible(sd21):
    sp = spectral_param(0.5, sd21)  # below the Re s > r - 1 gate
    assert not sp.admissible
    with pytest.raises(AdmissibilityError):
        poisson.c_s(sp, method="gk")


def test_transform_linearity(sd11, sphere6, rng):
    sp = spectral_param(2.5, sd11)
    f = lambda U: U[..., 0, 0] ** 2 * np.conj(U[..., 0, 1])
    g = lambda U: np.abs(U[..., 0, 0]) ** 2
    Z = 0.4 * group.base_point(sd11)
    pf = poisson.transform(sp, f, Z, sphere6)
    pg = poisson.transform(sp, g, Z, sphere6)
    combo = poisson.transform(sp, lambda U: 2.0 * f(U) - 1j * g(U), Z, sphere6)
    assert abs(combo - (2.0 * pf - 1j * pg)) < 1e-13


def test_transform_at_origin_is_mean(sd11, sphere6):
    sp = spectral_param(3.0, sd11)
    f = lambda U: U[..., 0, 0] * np.conj(U[..., 0, 0])
    got = poisson.transform(sp, f, np.zeros((1, 2)), sphere6)
    want = np.dot(sphere6.weights, f(sphere6.nodes))
    assert abs(got - want) < 1e-13


def test_kernel_conjugate_symmetry(sd11):
    s = 2.5 + 0.7j
    U0 = group.base_point(sd11)
    rng = np.random.default_rng(9)
    Z = 0.3 * (rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2)))
    sp = spectral_param(s, sd11)
    spc = spectral_param(np.conj(s), sd11)
    a = poisson.kernel(sp, Z, U0)
    b = poisson.kernel(spc, Z, U0)
    assert abs(a - np.conj(b)) < 1e-13


def test_transform_radial_matches_direct(sd11):
    # pushforward evaluation along the radial line vs direct quadrature;
    # the direct route develops a boundary layer as t grows, so the gap is
    # pure quadrature error and must shrink as the rule is refined
    sp = spectral_param(2.5, sd11)
    f = lambda U: 1.0 + 0.5 * U[..., 0, 0] * np.conj(U[..., 0, 1])
    U0 = group.base_point(sd11)

    def gap(level, panels, t):
        rule = boundary.sphere_rule(sd11, level=level, panels=panels)
        via_radial = poisson.transform_radial(sp, f, U0[None], t, rule)[0]
        direct = poisson.transform(sp, f, math.tanh(t) * U0, rule)
        return abs(via_radial - direct) / abs(direct)

    assert gap(14, 4, 0.5) < 1e-8
    gaps = [gap(level, panels, 1.0) for level, panels in ((14, 4), (20, 6), (24, 8))]
    assert gaps[0] < 5e-3
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1e-4


def test_gamma_estimate_harmonic(sd11, sp2, sphere6):
    # at s = n/r the growth vanishes and the renormalized L1 mass is 1
    t_grid = np.linspace(0.0, 3.0, 7)
    got = poisson.gamma_estimate(sp2, t_grid, sphere6)
    assert abs(got - 1.0) < 1e-10


def test_hardy_norm_constant_function(sd11, sp2, sphere6):
    F = poisson.poisson_lift(sp2, poisson.BoundaryFunction.constant(1.0), sphere6)
    val = poisson.hardy_norm(F, sp2, 2.0, np.linspace(0.0, 2.0, 5), sphere6)
    assert abs(val - 1.0) < 1e-10
