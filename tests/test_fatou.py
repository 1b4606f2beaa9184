"""Boundary limits, inversion, domination, and the norm sandwich."""

import math
import warnings

import numpy as np
import pytest

from matrixball import boundary, fatou, ktypes, poisson
from matrixball.errors import AdmissibilityError, ConvergenceError, DomainError
from matrixball.structure import spectral_param, structure_data

PHI_ORACLE = {
    (2.5, 0.5): 1.06913422741139440005,
    (2.5, 1.0): 1.26618536502514234274,
    (2.5, 2.0): 2.00285245805708921058,
    (3.0, 0.5): 1.15800619827253767413,
    (3.0, 1.0): 1.65802799179096559101,
    (3.0, 2.0): 4.22062438187896163749,
}


def test_radial_profile_harmonic_constant(sd11, sp2, sphere6):
    # at s = n/r the kernel has unit boundary mass at every interior point
    t_grid = np.linspace(0.0, 3.0, 7)
    prof = fatou.radial_profile(sp2, 1.0, sphere6.nodes[:40], t_grid, sphere6)
    assert prof.values.shape == (40, 7)
    assert np.max(np.abs(prof.values - 1.0)) < 1e-10
    assert np.max(np.abs(prof.renormalized - 1.0)) < 1e-10
    assert prof.tail_variation() < 1e-10


def test_zonal_profile_matches_frozen_oracle(sd11):
    t_grid = np.array([0.5, 1.0, 2.0])
    for s in (2.5, 3.0):
        prof = fatou.zonal_profile(spectral_param(s, sd11), t_grid)
        for j, t in enumerate(t_grid):
            want = PHI_ORACLE[(s, float(t))]
            assert abs(prof.values[0, j] - want) / want < 1e-12


def test_boundary_limit_recovers_band_limited(sd11):
    sp = spectral_param(2.5, sd11)
    rule = boundary.sphere_rule(sd11, level=5)
    f = ktypes.random_band_limited(sd11, seed=97, max_p=2, max_q=2, translates=1)
    t_grid = np.linspace(0.0, 5.0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        prof = fatou.radial_profile(sp, f, rule.nodes, t_grid, rule)
        rep = fatou.boundary_limit(sp, prof, reference=f, rule=rule)
    assert rep.sup_err is not None and rep.sup_err < 1e-2
    assert rep.lp_err < rep.sup_err + 1e-12
    assert np.all(rep.converged)
    # the estimate callable reproduces the node values
    est = rep.f_estimate(rule.nodes[:5])
    assert np.max(np.abs(est - rep.limits[:5] / rep.cs)) < 1e-12


def test_boundary_limit_negative_control(sd11):
    # below the admissibility gate the renormalized tail diverges
    sp = spectral_param(-0.5, sd11)
    t_grid = np.linspace(0.0, 8.0, 17)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        prof = fatou.zonal_profile(sp, t_grid)
        with pytest.raises(ConvergenceError):
            fatou.boundary_limit(sp, prof)


def test_radial_profile_warns_inadmissible(sd11, sphere6):
    sp = spectral_param(0.0, sd11)
    with pytest.warns(RuntimeWarning, match="admissibility"):
        fatou.radial_profile(sp, 1.0, sphere6.nodes[:3], np.array([0.0, 1.0]), sphere6)


def test_fatou_recovery_emits_no_runtime_warning():
    # criterion 7 runs its profiles past t = 3.4, where the level-5 rule's phase
    # grid was once assumed to alias; the recovery is accurate and must not warn
    from matrixball import suite

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = suite.run_criterion(7, seed=7, profile="quick")
    assert res.passed
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_tail_fit_falls_back_on_overflowing_seed():
    # a tiny geometric ratio at large t overflows the seed amplitude A0, so the
    # least-squares refinement is refused and the seed (L0, kappa0) comes back
    tg = np.arange(0.0, 41.0, 1.0)
    y = np.zeros(len(tg), dtype=complex)
    y[-4:] = [1.0, 1e-10, 1e-20, 1e-30]
    d = np.diff(y[-4:])
    rho = np.mean([d[1] / d[0], d[2] / d[1]])
    with np.errstate(over="ignore", invalid="ignore"):
        L, kappa, ok = fatou._tail_fit(tg, y, atol=1e-33)
    assert ok
    assert kappa == -math.log(abs(rho)) / (tg[-1] - tg[-2])
    assert L == y[-1] + d[2] * rho / (1.0 - rho)


def test_invert_l2_roundtrip(sd11):
    sp = spectral_param(2.5, sd11)
    rule = boundary.sphere_rule(sd11, level=5)
    f = ktypes.random_band_limited(sd11, seed=31, max_p=2, max_q=2, translates=1)
    F = poisson.poisson_lift(sp, f, rule)
    ref = f(rule.nodes)
    scale = float(np.dot(rule.weights, np.abs(ref) ** 2)) ** 0.5
    errs = []
    for t in (3.0, 4.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            g = fatou.invert_l2(sp, F, t, rule)
        diff = np.abs(g(rule.nodes) - ref)
        errs.append(float(np.dot(rule.weights, diff**2)) ** 0.5 / scale)
    assert errs[1] < errs[0]
    assert errs[1] < 2e-2


def test_invert_l2_guards(sd11, sd21):
    rule = boundary.sphere_rule(sd11, level=3)
    F = lambda U, t: np.ones(U.shape[0])
    with pytest.raises(AdmissibilityError):
        fatou.invert_l2(spectral_param(-1.0, sd11), F, 3.0, rule)
    with pytest.warns(RuntimeWarning, match="small t"):
        fatou.invert_l2(spectral_param(2.5, sd11), F, 0.5, rule)
    srule = boundary.stiefel_rule(sd21, 64, seed=1)
    with pytest.raises(DomainError):
        fatou.invert_l2(spectral_param(4.0, sd21), F, 3.0, srule)


@pytest.mark.parametrize("s", [1.5, 3.0])
def test_domination_check(sd11, s):
    chart = boundary.heisenberg_chart(sd11, grid=2)
    rep = fatou.domination_check(spectral_param(s, sd11), (0.5, 1.0, 2.0), chart)
    assert rep.ok
    assert rep.max_excess <= 1e-10
    assert np.isfinite(rep.phi_integral) and rep.phi_integral > 0
    assert rep.n_nodes == len(chart)


def test_norm_sandwich_shared_lifts(sd11):
    sp = spectral_param(2.0, sd11)
    rule = boundary.sphere_rule(sd11, level=5)
    fs = [
        ktypes.random_band_limited(sd11, seed=11, max_p=2, max_q=2),
        ktypes.random_band_limited(sd11, seed=12, max_p=2, max_q=2),
    ]
    t_grid = np.linspace(0.0, 4.0, 5)
    reports = fatou.norm_sandwich(sp, (1.5, 2.0), fs, t_grid, rule)
    assert len(reports) == 2
    for rep in reports:
        assert rep.all_ok
        assert rep.cs_abs <= rep.gamma + 1e-12
    single = fatou.norm_sandwich(sp, 2.0, fs, t_grid, rule)
    assert np.allclose(single.hardy_norms, reports[1].hardy_norms)
    with pytest.raises(DomainError):
        fatou.norm_sandwich(sp, 1.0, fs, t_grid, rule)
