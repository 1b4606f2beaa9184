"""Poisson kernel, transform, radial profiles, and the constant c_s."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

from matrixball import _kernels, boundary, fatou, group, ktypes, poisson, suite
from matrixball.errors import (
    AdmissibilityError, ConvergenceError, DegeneracyError, DomainError, MembershipError,
)
from matrixball.structure import lambda_coefficients, spectral_param, structure_data
from test_kernels import _det_clongdouble

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


@pytest.mark.parametrize("rb", [(1, 1), (1, 2), (2, 1), (3, 1)])
def test_kernel_paired_stack_matches_per_pair_calls(rb):
    sd = structure_data(*rb)
    sp = spectral_param(3.0 + 0.5j, sd)
    g = group.random_group_element(range(6), 0.6, sd)
    Z = group.mobius(g, np.zeros((sd.r, sd.q)))
    U = boundary.stiefel_rule(sd, 6, seed=5).nodes
    got = poisson.kernel(sp, Z, U)
    assert got.shape == (6,)
    assert np.array_equal(got, [poisson.kernel(sp, z, u) for z, u in zip(Z, U)])


def test_kernel_covariance():
    # K_s(g.Z, g.U) = K_s(Z, U) |det(CU + D)|^(2 sigma) on every domain, at
    # s = 2 + 0.5i; the measured relative error is at most 5e-14, so the
    # 1e-12 bound leaves a margin of 20
    for rb in suite.DOMAINS:
        sd = structure_data(*rb)
        sp = spectral_param(2.0 + 0.5j, sd)
        g = group.random_group_element(11, 0.6, sd)
        C, D = g[sd.r:, :sd.r], g[sd.r:, sd.r:]
        Z = group.mobius(group.random_group_element(13, 0.6, sd), np.zeros((sd.r, sd.q)))
        U = boundary.stiefel_rule(sd, 8, seed=5).nodes
        got = poisson.kernel(sp, group.mobius(g, Z), group.mobius(g, U))
        want = poisson.kernel(sp, Z, U) * np.abs(np.linalg.det(C @ U + D)) ** (2.0 * sp.sigma)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12, rb


def test_kernel_paired_stack_checks_every_pair(sd21):
    sp = spectral_param(4.0, sd21)
    U0 = group.base_point(sd21)
    U = np.stack([U0] * 4)
    Z = 0.5 * U.copy()
    assert np.all(np.isfinite(poisson.kernel(sp, Z, U)))
    bad = Z.copy()
    bad[1] *= 2.5  # outside the ball
    with pytest.raises(MembershipError):
        poisson.kernel(sp, bad, U)
    off = U.copy()
    off[3] *= 0.5  # not a Shilov point
    with pytest.raises(MembershipError):
        poisson.kernel(sp, Z, off)
    near = Z.copy()
    near[2] = math.tanh(8.0) * U0  # det(I - Z U^H) underflows against U0
    with pytest.raises(DegeneracyError):
        poisson.kernel(sp, near, U)
    for other in (U[:3], U[None], U0):
        with pytest.raises(MembershipError):
            poisson.kernel(sp, Z, other)


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
    rule = boundary.disk_rule(sd11, level=24, panels=4)
    for (s, t), want in PHI_ORACLE.items():
        got = poisson.phi_s(spectral_param(s, sd11), t, rule)
        assert abs(got - want) / abs(want) < 1e-12


def test_phi_disk_sphere_agree(sd11):
    spA = spectral_param(2.5, sd11)
    dsk = boundary.disk_rule(sd11, level=24, panels=4)
    sph = boundary.sphere_rule(sd11, level=12, panels=4)
    for t in (0.5, 1.5):
        a = poisson.phi_s(spA, t, dsk)
        b = poisson.phi_s(spA, t, sph)
        assert abs(a - b) / abs(a) < 1e-3


def test_phi_grid_call_matches_per_t_calls(sd11, sphere6):
    # an array of radii gives an array of the same shape, each entry equal to
    # the call at that t alone bit for bit; a scalar t gives a complex
    t_grid = np.arange(0.0, 4.01, 0.5)
    for s in (2.5, 3.0 + 0.5j):
        sp = spectral_param(s, sd11)
        grid = poisson.phi_s(sp, t_grid, sphere6)
        assert grid.shape == t_grid.shape and grid.dtype == np.complex128
        singles = [poisson.phi_s(sp, float(t), sphere6) for t in t_grid]
        assert all(isinstance(v, complex) for v in singles)
        assert np.array_equal(grid, np.array(singles))
        assert np.array_equal(poisson.phi_s(sp, t_grid.reshape(3, 3), sphere6), grid.reshape(3, 3))


@pytest.mark.parametrize("r,b", [(1, 1), (2, 1)])
def test_real_s_profile_matches_complex_reference(r, b):
    # for real s the profile runs in float64; the complex128 sum of the same
    # weights is the reference
    sd = structure_data(r, b)
    if r == 1:
        rule = boundary.disk_rule(sd, level=18, panels=8)
        V1 = rule.nodes[:, None, None]
    else:
        rule = boundary.stiefel_rule(sd, samples=20000, seed=17)
        V1 = rule.nodes[..., :, :r]
    t_grid = np.arange(0.0, 8.01, 0.5)
    for s in ((1.5, 2.5, 5.0) if r == 1 else (2.5, 4.0)):
        sp = spectral_param(s, sd)
        vals = poisson._phi_profile(sp, t_grid, rule)
        assert vals.dtype == np.complex128 and np.all(vals.imag == 0)
        sigma = complex(s - sd.harmonic_s)
        for i, t in enumerate(t_grid):
            ref = np.dot(rule.weights, np.exp(sigma * _kernels.radial_logweight(V1, t)))
            assert abs(vals[i] - ref) <= 1e-13 * abs(ref), (s, t)


@pytest.mark.parametrize("s", [2.5, 4.0, 3.0 + 0.5j])
def test_rank_two_fatou_cs_converges_on_small_stiefel_rule(sd21, s):
    # the sampling noise of a 2,000-node rule does not reach the
    # extrapolation: the last two extrapolants agree far inside FATOU_REL_TOL
    # (measured <= 1.1e-13 relative at seeds 1, 5 and 21), so the fixed
    # tolerance decides convergence without any noise allowance
    sp = spectral_param(s, sd21)
    rule = boundary.stiefel_rule(sd21, samples=2000, seed=5)
    grid = np.arange(0.0, 8.01, 0.5)
    cs = poisson._cs_fatou(sp, rule=rule, t_grid=grid)
    y = np.exp(-sp.growth * grid) * poisson.phi_s(sp, grid, rule)
    previous, last = poisson._richardson_limit(y, 0.5, poisson._correction_exponents(sp))
    assert cs == last
    assert abs(previous - last) <= 1e-12 * abs(last)
    # the estimate itself carries the rule's sampling error (measured <= 0.94%)
    gk = poisson.c_s(sp)
    assert abs(cs - gk) <= 0.1 * abs(gk)


@pytest.fixture(scope="module")
def misfit_rules(sd11):
    """Rules that do not fit (r, b) = (1, 1), each with its name."""
    return {
        "chart": boundary.heisenberg_chart(sd11),
        "sphere (1,2)": boundary.sphere_rule(structure_data(1, 2), level=3),
        "stiefel (2,1)": boundary.stiefel_rule(structure_data(2, 1), samples=500, seed=3),
        "disk (1,2)": boundary.disk_rule(structure_data(1, 2), level=4),
    }


@pytest.mark.parametrize("name", ["chart", "sphere (1,2)", "stiefel (2,1)", "disk (1,2)"])
def test_radial_routes_reject_a_rule_that_does_not_fit(sd11, misfit_rules, name):
    # each of these used to return a wrong number (the chart gave phi_s = 7.1e7
    # against 1.27) or fail on a bare broadcast error
    rule = misfit_rules[name]
    sp = spectral_param(2.5, sd11)
    with pytest.raises(DomainError):
        poisson.phi_s(sp, 1.0, rule)
    with pytest.raises(DomainError):
        poisson._cs_fatou(sp, rule=rule)
    with pytest.raises(DomainError):
        poisson.gamma_estimate(sp, np.arange(0.0, 4.01, 0.5), rule)
    with pytest.raises(DomainError):
        poisson.transform_radial(sp, 1.0, group.base_point(sd11)[None], 1.0, rule)
    with pytest.raises(DomainError):
        poisson.transform(sp, 1.0, 0.3 * group.base_point(sd11), rule)


def test_transform_rejects_a_misshaped_point(sd11, sphere6):
    # a 2 x 2 Z at (r, q) = (1, 2) used to return 1 silently
    sp = spectral_param(2.5, sd11)
    with pytest.raises(MembershipError, match="r x q"):
        poisson.transform(sp, 1.0, np.zeros((2, 2)), sphere6)
    with pytest.raises(MembershipError, match="r x q"):
        poisson.transform(sp, 1.0, np.zeros((3, 1, 2)), sphere6)


def test_disk_rule_fits_rank_one_profiles_only(sd11, sd21):
    # the disk rule carries U_1 alone: enough for phi_s, not for a transform
    rule = boundary.disk_rule(sd11, level=6)
    sp = spectral_param(2.5, sd11)
    assert abs(poisson.phi_s(sp, 1.0, rule) - PHI_ORACLE[(2.5, 1.0)]) < 1e-3
    with pytest.raises(DomainError):
        poisson.transform_radial(sp, 1.0, group.base_point(sd11)[None], 1.0, rule)
    with pytest.raises(DomainError):
        poisson.phi_s(spectral_param(4.0, sd21), 1.0, rule)


def test_transform_pushes_once_per_t_and_phi_builds_coefficients_once(monkeypatch, sd11, sd21,
                                                                       sphere6):
    # transform_radial weighs each pushed node by the det T of its own push: one
    # push per t on either route and no coefficients. _phi_profile weighs without
    # pushing: it builds the coefficients once for the whole grid and weighs every
    # node once per t through the one radial_logweight kernel
    calls = {"radial_coefficients": 0, "pushes": []}
    weighed = {}
    coefficients, logweight = _kernels.radial_coefficients, _kernels.radial_logweight
    push = poisson._radial_pushforward

    def counted_coefficients(V1):
        calls["radial_coefficients"] += 1
        return coefficients(V1)

    def counted_logweight(coefs, t):
        weighed[t] = weighed.get(t, 0) + len(coefs[0])
        return logweight(coefs, t)

    def counted_push(sp, t, rule):
        calls["pushes"].append(t)
        return push(sp, t, rule)

    monkeypatch.setattr(_kernels, "radial_coefficients", counted_coefficients)
    monkeypatch.setattr(_kernels, "radial_logweight", counted_logweight)
    monkeypatch.setattr(poisson, "_radial_pushforward", counted_push)
    t_grid = np.arange(0.0, 8.01, 0.5)
    rule2 = boundary.stiefel_rule(sd21, samples=2000, seed=4)
    sp2 = spectral_param(4.0, sd21)
    f = suite.trace_affine(sd21, 6)
    for g in (f, lambda U: f(U)):
        calls.update(radial_coefficients=0, pushes=[])
        poisson.transform_radial(sp2, g, rule2.nodes[:5], t_grid, rule2)
        assert calls == {"radial_coefficients": 0, "pushes": list(t_grid)} and weighed == {}
    for sp, rule in ((sp2, rule2), (spectral_param(3.0 + 0.5j, sd11), sphere6)):
        calls.update(radial_coefficients=0, pushes=[])
        weighed.clear()
        poisson._phi_profile(sp, t_grid, rule)
        assert calls == {"radial_coefficients": 1, "pushes": []}
        assert list(weighed) == list(t_grid) and set(weighed.values()) == {len(rule)}


@pytest.mark.parametrize("rb", [(1, 1), (2, 1), (3, 1)])
def test_radial_pushforward_weighs_by_the_det_of_its_own_T(rb):
    # the weights w |det T|^(s - n/r) come from the T the push inverts; the oracle
    # takes det T in extended precision. Measured at most 1.6e-13 relative
    # (r = 3, t = 8, complex s); the bound is 3x that
    sd = structure_data(*rb)
    rule = (boundary.sphere_rule(sd, level=5) if sd.r == 1
            else boundary.stiefel_rule(sd, samples=2000, seed=3))
    V1 = rule.nodes[..., : sd.r].astype(np.clongdouble)
    for s in (sd.harmonic_s + 1.0, sd.harmonic_s + 1.5 + 0.5j):
        sp = spectral_param(s, sd)
        for t in np.arange(0.0, 8.01, 0.5):
            T = np.sinh(np.longdouble(t)) * V1
            T[..., np.arange(sd.r), np.arange(sd.r)] += np.cosh(np.longdouble(t))
            lw = np.log(np.abs(_det_clongdouble(T)))
            want = rule.weights * np.exp((sp.s - sd.harmonic_s) * lw)
            _, cw = poisson._radial_pushforward(sp, float(t), rule)
            assert np.max(np.abs(cw - want) / np.abs(want)) <= 5e-13, (s, t)


def test_loggamma_matches_scipy_modulo_2pi_i():
    # at every Gamma argument of c_s for the oracle's s and the harmonic s; the
    # largest measured error is 7.1e-15, the bound is 3x that
    for r, b, s in CS_ORACLE:
        sd = structure_data(r, b)
        for lam in (lambda_coefficients(s, sd), lambda_coefficients(sd.harmonic_s, sd)):
            for z in (*lam, *(0.5 * (lam + sd.b + 1))):
                d = poisson._loggamma(z) - complex(scipy.special.loggamma(z))
                d -= 2j * math.pi * round(d.imag / (2 * math.pi))
                assert abs(d) <= 2e-14, (r, b, s, z, d)


def test_cs_gk_frozen_oracle():
    for (r, b, s), want in CS_ORACLE.items():
        sp = spectral_param(s, structure_data(r, b))
        got = poisson.c_s(sp)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("b", [1, 2])
def test_cs_fatou_resolves_the_cusp(b):
    # the radial weight peaks in a cusp of width ~ 2 e^(-2t) at U_1 = -1; the
    # default disk rule grades its phases toward it, so criterion 6's Fatou
    # limits meet the Gamma product to <= 3.7e-9 (640 uniform phases: 7.2e-4)
    sps = [spectral_param(s, structure_data(1, b)) for s in (1.5, 2.0, 2.5, 3.0 + 0.5j)]
    for sp, fat in zip(sps, poisson._cs_fatou(sps)):
        gk = poisson.c_s(sp)
        assert abs(fat - gk) <= 1e-7 * abs(gk), sp.s


def test_cs_all_routes_consistent(sd11):
    # rank one: check_cs compares the Gamma product, the Fatou limit and the
    # chart integral per s, and the worst pairwise spread is within 1e-3
    worst, ok, details = suite.check_cs(sd11, (2.0,), 1000, 7)
    d = details["s_2.0"]
    assert ok and worst < 1e-3
    assert set(d) == {"gk", "fatou", "direct", "max_pairwise_rel_err"}
    assert d["gk"] == poisson.c_s(spectral_param(2.0, sd11))
    assert abs(d["gk"] - 1.0) < 1e-12
    vals = [d["gk"], d["fatou"], d["direct"]]
    spread = max(abs(u - v) for u in vals for v in vals) / max(abs(v) for v in vals)
    assert d["max_pairwise_rel_err"] == spread == worst


def test_cs_all_reuses_a_given_chart(sd11, monkeypatch):
    # check_cs builds one chart for every s, and the chart route on a given
    # chart builds none of its own
    charts = []
    chart_fn = boundary.heisenberg_chart

    def counted(*args, **kwargs):
        charts.append(chart_fn(*args, **kwargs))
        return charts[-1]

    monkeypatch.setattr(boundary, "heisenberg_chart", counted)
    s_values = (2.0, 2.5)
    _, ok, details = suite.check_cs(sd11, s_values, 1000, 7)
    assert ok and len(charts) == 1

    def no_chart(*args, **kwargs):
        raise AssertionError("the chart route built a chart although one was given")

    monkeypatch.setattr(boundary, "heisenberg_chart", no_chart)
    for s in s_values:
        assert details["s_%s" % s]["direct"] == poisson._cs_direct(spectral_param(s, sd11), charts[0])


def test_cs_requires_admissible(sd21):
    sp = spectral_param(0.5, sd21)  # below the Re s > r - 1 gate
    assert not sp.admissible
    with pytest.raises(AdmissibilityError):
        poisson.c_s(sp)


@pytest.mark.parametrize("t_grid", [
    np.arange(8.0, -0.01, -0.5),  # decreasing and uniform
    np.array([0.0, 0.5, np.nan, 1.5, 2.0]),
    np.array([0.0, 0.5, 1.0, 1.5, np.inf]),
    np.array([0.0, 0.5, 1.0, 2.0, 2.5]),  # not uniform
    np.array([0.0, 0.5, 1.0]),  # fewer than 4 points
    np.arange(0.0, 2.01, 0.5) + 0j,  # complex
], ids=["decreasing", "nan", "inf", "non-uniform", "short", "complex"])
def test_cs_fatou_rejects_bad_t_grids(sd11, monkeypatch, t_grid):
    # a bad grid is a usage error (exit 2), found before any rule is built
    def no_rule(*args, **kwargs):
        raise AssertionError("a rule was built for a bad t grid")

    monkeypatch.setattr(poisson, "_default_radial_rule", no_rule)
    with pytest.raises(DomainError):
        poisson._cs_fatou(spectral_param(2.0, sd11), t_grid=t_grid)


def _cs_fatou_per_s(sp, t_grid, rule):
    """The one-s Fatou route the s axis replaced: its own coefficients and log-weights."""
    coefs = poisson._radial_coefficients(sp.sd, rule)
    sigma = sp.s - sp.sd.harmonic_s
    if sigma.imag == 0:
        sigma = sigma.real
    phi = np.empty(len(t_grid), dtype=type(sigma))
    for i, t in enumerate(t_grid):
        phi[i] = np.dot(rule.weights, np.exp(sigma * _kernels.radial_logweight(coefs, float(t))))
    y = np.exp(-sp.growth * t_grid) * phi.astype(np.complex128, copy=False)
    return complex(poisson._richardson_limit(y, 0.5, poisson._correction_exponents(sp))[1])


CS_AXIS = {(1, 1): (1.5, 2.0, 2.5, 3 + 0.5j), (2, 1): (2.5, 4.0, 4 + 1j)}


@pytest.mark.parametrize("rb", [(1, 1), (2, 1)])
def test_cs_fatou_s_axis_matches_per_s_loop(rb):
    # one radial pass for every s gives the per-s route's values bit for bit,
    # on the default disk rule at rank one and on a Stiefel rule at rank two
    sd = structure_data(*rb)
    t_grid = np.arange(0.0, 8.01, 0.5)
    rule = (poisson._default_radial_rule(sd, 8.0) if sd.r == 1
            else boundary.stiefel_rule(sd, samples=2000, seed=9))
    sps = [spectral_param(s, sd) for s in CS_AXIS[rb]]
    want = [_cs_fatou_per_s(sp, t_grid, rule) for sp in sps]
    assert poisson._cs_fatou(sps, rule=rule) == want
    assert [poisson._cs_fatou(sp, rule=rule) for sp in sps] == want
    assert poisson._phi_profile(sps, t_grid, rule).shape == (len(sps), len(t_grid))


def test_check_cs_weighs_each_t_once_for_all_s(sd11, monkeypatch):
    # criterion 6 at rank one: one Fatou pass over its four s values weighs
    # each node once per t (17 passes over the rule, not 68), in blocks, and
    # its details equal the per-s route
    weighed = {}
    logweight = _kernels.radial_logweight

    def counted(coefs, t):
        weighed[t] = weighed.get(t, 0) + len(coefs[0])
        return logweight(coefs, t)

    monkeypatch.setattr(_kernels, "radial_logweight", counted)
    s_values = CS_AXIS[(1, 1)]
    worst, ok, details = suite.check_cs(sd11, s_values, 1000, 7)
    t_grid = np.arange(0.0, 8.01, 0.5)
    rule = poisson._default_radial_rule(sd11, 8.0)
    assert ok and list(weighed) == list(t_grid)
    assert set(weighed.values()) == {len(rule.weights)}
    for s in s_values:
        assert details["s_%s" % s]["fatou"] == _cs_fatou_per_s(spectral_param(s, sd11), t_grid, rule)


def test_cs_fatou_s_axis_names_the_s_that_fails(sd11):
    # on t = 0..2 the profiles at s = 2 and 2.5 converge and the one at s = 5
    # does not (its last extrapolants differ by 4.3e-3 against FATOU_REL_TOL = 1e-3)
    t_grid = np.arange(5) * 0.5
    sps = [spectral_param(s, sd11) for s in (2.0, 2.5, 5.0)]
    assert len(poisson._cs_fatou(sps[:2], t_grid=t_grid)) == 2
    with pytest.raises(ConvergenceError, match="Re s = 5"):
        poisson._cs_fatou(sps, t_grid=t_grid)
    with pytest.raises(DomainError):
        poisson._cs_fatou([sps[0], spectral_param(4.0, structure_data(2, 1))], t_grid=t_grid)


def test_cs_fatou_and_boundary_limit_fail_with_one_message(sd11):
    # both take the one Fatou limit, so a tail that has not converged by t = 2
    # at s = 5 is reported in the same words by either route
    sp = spectral_param(5.0, sd11)
    t_grid = np.arange(5) * 0.5
    with pytest.raises(ConvergenceError) as via_cs:
        poisson._cs_fatou(sp, t_grid=t_grid)
    with pytest.raises(ConvergenceError) as via_limit:
        fatou.boundary_limit(sp, fatou.zonal_profile(sp, t_grid))
    assert str(via_cs.value) == str(via_limit.value)
    assert "1 of 1 nodes" in str(via_cs.value)


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
    val = poisson.hardy_norm(sp2, 1.0, 2.0, np.linspace(0.0, 2.0, 5), sphere6)
    assert isinstance(val, float)
    assert abs(val - 1.0) < 1e-10


def _hardy_profile_per_t(sp, f, p_list, t_grid, rule):
    """Oracle: the per-t lift loop, one transform per radius and one L^p node sum per (p, t)."""
    g = float(np.real(sp.growth))
    out = np.empty((len(p_list), len(t_grid)))
    for j, t in enumerate(t_grid):
        vals = poisson.transform_radial(sp, f, rule.nodes, float(t), rule)
        for i, p in enumerate(p_list):
            out[i, j] = math.exp(-g * t) * float(np.dot(rule.weights, np.abs(vals) ** p)) ** (1.0 / p)
    return out


@pytest.mark.parametrize("s", [2.5, 3.0 + 0.5j])
def test_hardy_profile_matches_per_t_lifts(sd11, monkeypatch, s):
    sp = spectral_param(s, sd11)
    rule = boundary.sphere_rule(sd11, level=4)
    t_grid = np.linspace(0.0, 5.0, 6)
    form_f = ktypes.random_band_limited(sd11, seed=1000, max_p=2, max_q=2, translates=1)
    plain_f = lambda U: U[..., 0, 0] ** 2 * np.conj(U[..., 0, 1]) + 0.5  # pointwise route
    p_list = (1.5, 2.0, 4.0)
    calls = []
    transform = poisson.transform_radial
    monkeypatch.setattr(poisson, "transform_radial",
                        lambda *args: calls.append(args[3]) or transform(*args))
    for f in (form_f, plain_f):
        calls.clear()
        rows = poisson.hardy_profile(sp, f, p_list, t_grid, rule)
        assert len(calls) == 1 and np.array_equal(calls[0], t_grid)  # one call over the grid
        assert rows.shape == (len(p_list), len(t_grid))
        assert np.array_equal(poisson.hardy_norm(sp, f, p_list, t_grid, rule), np.max(rows, axis=1))
        for i, p in enumerate(p_list):
            # a p list shares the lift and changes no value
            assert np.array_equal(poisson.hardy_profile(sp, f, p, t_grid, rule), rows[i])
        want = _hardy_profile_per_t(sp, f, p_list, t_grid, rule)
        assert np.max(np.abs(rows - want) / want) <= 1e-14


@pytest.mark.parametrize("p", [1.0, 0.5, np.inf, np.nan, (2.0, np.inf)],
                         ids=["one", "half", "inf", "nan", "list-with-inf"])
def test_hardy_profile_rejects_p_not_finite_above_one(sd11, sp2, sphere6, p):
    with pytest.raises(DomainError, match="finite p > 1"):
        poisson.hardy_profile(sp2, 1.0, p, np.linspace(0.0, 2.0, 5), sphere6)


@pytest.mark.parametrize("t_grid", [[], [np.nan, 1.0], [1.0, np.inf], [[0.0, 1.0]], 1.0],
                         ids=["empty", "nan", "inf", "2-D", "scalar"])
def test_hardy_profile_rejects_bad_t_grids(sd11, sphere6, t_grid):
    # each used to fail inside numpy or return nan; the sandwich goes through the same check
    sp = spectral_param(2.5, sd11)
    with pytest.raises(DomainError, match="t grid"):
        poisson.hardy_profile(sp, 1.0, 2.0, t_grid, sphere6)
    with pytest.raises(DomainError, match="t grid"):
        fatou.norm_sandwich(sp, 2.0, [1.0], t_grid, sphere6)


# each entry point of the radial machinery with a t it cannot use; each used to
# return nan, a value for a grid it silently extended, or a numpy error
BAD_T_CALLS = {
    "gamma_estimate nan": lambda sp, rule: poisson.gamma_estimate(sp, [np.nan, 1.0], rule),
    "gamma_estimate empty": lambda sp, rule: poisson.gamma_estimate(sp, [], rule),
    "gamma_estimate 2-D": lambda sp, rule: poisson.gamma_estimate(sp, [[0.0, 1.0]], rule),
    "phi_s nan": lambda sp, rule: poisson.phi_s(sp, np.nan, rule),
    "phi_s inf": lambda sp, rule: poisson.phi_s(sp, np.inf, rule),
    "transform_radial nan": lambda sp, rule: poisson.transform_radial(
        sp, 1.0, rule.nodes, np.nan, rule),
    "transform_radial complex": lambda sp, rule: poisson.transform_radial(
        sp, 1.0, rule.nodes, 1 + 1j, rule),
    "transform_radial complex grid": lambda sp, rule: poisson.transform_radial(
        sp, 1.0, group.base_point(sp.sd)[None], np.array([0.5, 1 + 1j]), rule),
    "phi_s complex": lambda sp, rule: poisson.phi_s(sp, 1 + 1j, rule),
    "invert_l2 nan": lambda sp, rule: fatou.invert_l2(sp, np.ones(len(rule)), np.nan, rule),
    "invert_l2 complex": lambda sp, rule: fatou.invert_l2(sp, np.ones(len(rule)), 1 + 1j, rule),
    "invert_l2 string": lambda sp, rule: fatou.invert_l2(sp, np.ones(len(rule)), "3", rule),
    "spherical_profile nan": lambda sp, rule: ktypes.spherical_profile(
        sp, ktypes.KTypeIndex(1, 0), [np.nan], rule),
    "spherical_profile complex": lambda sp, rule: ktypes.spherical_profile(
        sp, ktypes.KTypeIndex(1, 0), [1 + 1j], rule),
    "norm_sandwich complex": lambda sp, rule: fatou.norm_sandwich(sp, 2.0, [1.0], [1 + 1j], rule),
    "schur_diagonality nan": lambda sp, rule: ktypes.schur_diagonality(
        sp, ktypes.KTypeIndex(1, 0), np.nan, rule.nodes, rule),
    "domination_check nan": lambda sp, rule: fatou.domination_check(
        sp, [np.nan], boundary.heisenberg_chart(sp.sd)),
}


@pytest.mark.parametrize("call", BAD_T_CALLS.values(), ids=BAD_T_CALLS.keys())
def test_radial_entry_points_reject_t_not_finite_or_empty(sd11, call):
    with pytest.raises(DomainError, match="finite"):
        call(spectral_param(2.5, sd11), boundary.sphere_rule(sd11, level=4))


def test_hardy_profile_takes_a_single_t(sd11, sp2, sphere6):
    # fatou sandwich --t-stop 0 reads the norm on the one-point grid [0]
    assert abs(poisson.hardy_norm(sp2, 1.0, 2.0, [0.0], sphere6) - 1.0) < 1e-10


# criteria 7 (0 to 6 by 0.5 at s = 2.5), 9 (0 to 5 at s = 2 and 2.5), 10 (t = 1 and
# 0 to 5 at s = 2.5) and 11 (t = 3, 4, 5 at s = 2); rank two: criterion 7 (0 to 4, s = 4)
RANK_ONE_GRIDS = [(2.0, np.arange(0.0, 6.01, 0.5)), (2.5, np.arange(0.0, 6.01, 0.5))]
RANK_TWO_GRIDS = [(4.0, np.arange(0.0, 4.01, 0.5))]
GATE_CASES = ("band-limited b=1", "band-limited b=2", "interpolant q=2 degree 6",
              "interpolant q=3 degree 4", "trace-affine r=2")


@pytest.fixture(scope="module")
def gate_cases():
    """name -> (structure, polynomial boundary function, centers, rule, (s, t grid) list)."""
    cases = {}
    for b, level, degree in ((1, 5, 6), (2, 2, 4)):
        sd = structure_data(1, b)
        rule = boundary.sphere_rule(sd, level=level)
        centers = rule.nodes[:: max(1, len(rule) // 60)]
        f = ktypes.random_band_limited(sd, seed=90 + b, max_p=2, max_q=2, translates=2)
        cases["band-limited b=%d" % b] = (sd, f, centers, rule, RANK_ONE_GRIDS)
        rng = np.random.default_rng(b)
        values = rng.normal(size=len(rule)) + 1j * rng.normal(size=len(rule))
        ev, _ = fatou._band_limited_interpolant(rule, values, degree)
        cases["interpolant q=%d degree %d" % (sd.q, degree)] = (
            sd, ev, centers, rule, RANK_ONE_GRIDS)
    sd2 = structure_data(2, 1)
    rule2 = boundary.stiefel_rule(sd2, samples=4000, seed=91)
    cases["trace-affine r=2"] = (sd2, suite.trace_affine(sd2, 92), rule2.nodes[:40], rule2,
                                 RANK_TWO_GRIDS)
    return cases


@pytest.mark.parametrize("name", GATE_CASES)
def test_moment_route_matches_pointwise(gate_cases, name):
    # a polynomial form takes the moment route; a plain callable computing the
    # same values takes the pointwise route, which is the oracle
    sd, f, centers, rule, grids = gate_cases[name]
    assert isinstance(f.polynomial_form, poisson.PolynomialForm)
    pointwise = lambda U: f(U)
    for s, t_grid in grids:
        sp = spectral_param(s, sd)
        for t in t_grid:
            for where in (centers, group.base_point(sd)[None]):
                got = poisson.transform_radial(sp, f, where, float(t), rule)
                want = poisson.transform_radial(sp, pointwise, where, float(t), rule)
                err = np.max(np.abs(np.subtract(got, want)))
                assert err <= 1e-13 * np.max(np.abs(want)), (s, t, len(where), err)


def _contract(form, mu, M, r):
    """The per-t contraction the moment route used to run: sum_V cw(V) f(W_V M_k) for
    each right factor M_k, given the moments mu, rebuilding S_k and S_k G at every t."""
    Q = M[:, None] @ form.P
    K, terms, q, k = Q.shape
    L = np.zeros((K, terms, r * k, r * q), dtype=np.complex128)
    for i in range(r):
        L[:, :, i * k : (i + 1) * k, i * q : (i + 1) * q] = np.swapaxes(Q, -1, -2)
    S = poisson._symmetric_power(L.reshape(K * terms, r * k, r * q), max(form.degrees))
    S = S.reshape(K, terms, *S.shape[1:])
    n_p, n_q = form._prefixes(r * k)
    m_p, m_q = mu.shape
    B = S[..., :m_p, :n_p] @ form.G
    A = mu @ S[..., :m_q, :n_q].conj()
    return np.einsum("ktab,ktab->k", B, A)


@pytest.mark.parametrize("name", GATE_CASES)
def test_center_matrices_match_per_t_contraction(gate_cases, name):
    # the center matrices are built once per call and contracted with each t's
    # moments; the per-t contraction that rebuilt them at every t is the oracle
    sd, f, centers, rule, grids = gate_cases[name]
    form = f.polynomial_form
    M = group.kappa_right_factors(centers)
    H = form.center_matrices(M, sd.r)
    for s, t_grid in grids:
        sp = spectral_param(s, sd)
        lift = poisson.transform_radial(sp, f, centers, t_grid, rule)
        for j, t in enumerate(t_grid):
            mu = form.moments(*poisson._radial_pushforward(sp, float(t), rule))
            want = _contract(form, mu, M, sd.r)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(np.einsum("kab,ab->k", H, mu) - want)) <= 1e-13 * scale, (s, t)
            assert np.max(np.abs(lift[:, j] - want)) <= 1e-13 * scale, (s, t)


@pytest.mark.parametrize("rb", [(1, 1), (2, 1), (3, 1)])
def test_radial_pushforward_matches_the_moebius_action(rb):
    # the closed-form push T^-1 [cosh t V_1 + sinh t I | V_2] against the
    # fractional-linear action of a_t; the oracle's own q x q inverse loses
    # digits as t grows. Measured at most 2.1e-15 e^t (r = 3, t = 8); bound ~5x that
    sd = structure_data(*rb)
    sp = spectral_param(sd.harmonic_s + 1.0, sd)
    rule = (boundary.sphere_rule(sd, level=5) if sd.r == 1
            else boundary.stiefel_rule(sd, samples=2000, seed=3))
    for t in (0.0, 0.5, 2.0, 4.0, 8.0):
        W, cw = poisson._radial_pushforward(sp, t, rule)
        assert W.shape == rule.nodes.shape
        want = group.mobius(group.radial(t, sd), rule.nodes)
        assert np.max(np.abs(W - want)) <= 1e-14 * math.exp(t), t


@pytest.mark.parametrize("route", ["moment", "pointwise"])
def test_deep_radii_keep_the_renormalized_transform(sd11, sd21, sphere6, route):
    # the renormalized transform has converged by t = 20; a push that solved a
    # q x q system lost digits as e^(2t) and was off by a factor 1.4e5 at t = 40.
    # Measured: 4e-15 at rank one (t = 40) and 4.6e-12 at rank two (t = 25, where
    # the 4000-node rule's renormalized transform still moves as e^(-t))
    cases = [(spectral_param(2.5, sd11),
              ktypes.random_band_limited(sd11, seed=97, max_p=2, max_q=2, translates=1),
              sphere6, 40.0, 1e-12)]
    rule2 = boundary.stiefel_rule(sd21, samples=4000, seed=91)
    cases.append((spectral_param(4.0, sd21), suite.trace_affine(sd21, 92), rule2, 25.0, 1e-10))
    for sp, f, rule, t_deep, tol in cases:
        g = f if route == "moment" else (lambda U, f=f: f(U))
        centers = rule.nodes[:: len(rule) // 16]
        lift = poisson.transform_radial(sp, g, centers, [20.0, t_deep], rule)
        renorm = np.exp(-sp.growth.real * np.array([20.0, t_deep])) * lift
        assert np.all(np.isfinite(renorm))
        assert np.max(np.abs(renorm[:, 1] - renorm[:, 0])) <= tol, (sp.sd, t_deep)


@pytest.mark.parametrize("name", GATE_CASES)
def test_traced_evaluator_takes_the_moment_route(gate_cases, name):
    # a functools.wraps wrapper of the builder's callable (as a span tracer hands
    # it over) copies polynomial_form, so it is never called and the values match
    sd, f, centers, rule, grids = gate_cases[name]
    calls = []

    @functools.wraps(f)
    def traced(U):
        calls.append(U.shape)
        return f(U)

    sp = spectral_param(grids[-1][0], sd)
    for t in (0.0, 3.0):
        want = poisson.transform_radial(sp, f, centers, t, rule)
        assert np.array_equal(poisson.transform_radial(sp, traced, centers, t, rule), want)
    assert calls == []


@pytest.mark.parametrize("bad", ["nan", "inf", "scaled"])
@pytest.mark.parametrize("route", ["moment", "pointwise"])
def test_transform_radial_rejects_bad_centers(sd11, sphere6, bad, route):
    f = ktypes.random_band_limited(sd11, seed=3, max_p=1, max_q=1)
    if route == "pointwise":
        f = lambda U, g=f: g(U)
    centers = sphere6.nodes[:4].copy()
    centers[2, 0, 0] = {"nan": np.nan, "inf": np.inf, "scaled": 2.0 * centers[2, 0, 0]}[bad]
    with pytest.raises(MembershipError):
        poisson.transform_radial(spectral_param(2.5, sd11), f, centers, 1.0, sphere6)


@pytest.mark.parametrize("centers", ["none", "one point", "wrong q", "flat"])
def test_transform_radial_requires_a_stack_of_centers(sd11, sphere6, centers):
    # centers are required: None (the removed single-point mode) and anything but an
    # (N, r, q) stack are membership errors; a bad shape used to be reshaped into one
    # silently ("flat") or to leak numpy's ValueError
    U = sphere6.nodes[:4]
    centers = {"none": None, "one point": U[0], "wrong q": U[..., :1],
               "flat": U.reshape(4, -1)}[centers]
    with pytest.raises(MembershipError, match=r"\(N, 1, 2\) stack"):
        poisson.transform_radial(spectral_param(2.5, sd11), 1.0, centers, 1.0, sphere6)


def test_transform_radial_matches_direct_rank_two(sd21):
    # at r = 2 both routes are equal-weight sums over the same Haar nodes of
    # two integrands with the same mean, so their gap is a mean of per-node
    # differences d and must lie within 4 standard errors of zero (measured:
    # 0.19 and 0.62; a radial weight exponent off by one gives 8.8 and 6.6). By
    # t = 1 the direct kernel's dynamic range leaves no usable estimate.
    sp = spectral_param(4.0, sd21)
    rule = boundary.stiefel_rule(sd21, samples=20000, seed=5)
    f = suite.trace_affine(sd21, 6)
    U = rule.nodes[7]
    M = group.kappa_right_factors(U[None])
    for t in (0.25, 0.5):
        Z = math.tanh(t) * U
        via_radial = poisson.transform_radial(sp, f, U[None], t, rule)[0]
        direct = poisson.transform(sp, f, Z, rule)
        W, cw = poisson._radial_pushforward(sp, t, rule)
        d = cw / rule.weights * f(W @ M[0]) - poisson.kernel(sp, Z, rule.nodes) * f(rule.nodes)
        se = math.sqrt(np.sum(rule.weights**2 * np.abs(d - np.mean(d)) ** 2))
        assert abs(via_radial - direct) <= 4.0 * se
        assert se <= 0.1 * abs(direct)


@pytest.mark.parametrize("name", ["band-limited b=1", "trace-affine r=2"])
def test_transform_radial_grid_matches_per_t_calls(gate_cases, name):
    # one call over a t grid checks the centers and builds their right factors
    # once; every column must equal the call at that t alone, on both routes
    sd, f, centers, rule, grids = gate_cases[name]
    s, t_grid = grids[0]
    sp = spectral_param(s, sd)
    for g in (f, lambda U: f(U)):
        grid = poisson.transform_radial(sp, g, centers, t_grid, rule)
        assert grid.shape == (len(centers), len(t_grid))
        for j, t in enumerate(t_grid):
            single = poisson.transform_radial(sp, g, centers, float(t), rule)
            assert single.shape == (len(centers),)
            assert np.array_equal(grid[:, j], single)
        base = group.base_point(sd)[None]
        at_base = poisson.transform_radial(sp, g, base, t_grid, rule)[0]
        assert at_base.shape == (len(t_grid),)
        assert all(at_base[j] == poisson.transform_radial(sp, g, base, float(t), rule)[0]
                   for j, t in enumerate(t_grid))


def _pointwise_rank_two_case():
    # criterion 7's rank-two recovery shape at one radius: 160 centers x 10^4 nodes,
    # with a plain callable, which takes the pointwise route
    sd = structure_data(2, 1)
    rule = boundary.stiefel_rule(sd, samples=10**4, seed=98)
    rng = np.random.default_rng(99)
    C = rng.normal(size=(sd.q, sd.r)) + 1j * rng.normal(size=(sd.q, sd.r))

    def f(U):
        tr = np.einsum("...ij,ji->...", U, C)
        return 1.0 + tr + 0.25 * np.conj(tr)

    return spectral_param(4.0, sd), f, rule.nodes[:160], rule


def test_pointwise_route_blocks_by_pushed_points():
    sp, f, centers, rule = _pointwise_rank_two_case()
    tracemalloc.start()
    try:
        poisson.transform_radial(sp, f, centers, 2.0, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 49.6 MB (blocks of 26 centers), bound 1.5x that; one block of all 160 peaked at 220.8 MB
    assert peak < 75 * 2**20


def test_pointwise_blocks_match_one_block(monkeypatch):
    sp, f, centers, rule = _pointwise_rank_two_case()
    t = np.array([0.5, 2.0])
    blocked = poisson.transform_radial(sp, f, centers, t, rule)
    monkeypatch.setattr(poisson, "POINTWISE_POINTS", len(centers) * len(rule))
    assert np.array_equal(blocked, poisson.transform_radial(sp, f, centers, t, rule))
