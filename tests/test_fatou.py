"""Boundary limits, inversion, domination, and the norm sandwich."""

import itertools
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from matrixball import boundary, fatou, ktypes, poisson, suite
from matrixball.errors import AdmissibilityError, ConvergenceError, DomainError, MembershipError
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
    prof = fatou.radial_profile(sp, f, rule.nodes, t_grid, rule)
    rep = fatou.boundary_limit(sp, prof, reference=f, rule=rule)
    assert rep.sup_err is not None and rep.sup_err < 1e-2
    assert rep.lp_err < rep.sup_err + 1e-12
    assert np.all(rep.converged)
    # the estimate of f at the nodes is limits / cs, and sup_err is its error there
    assert np.max(np.abs(rep.limits / rep.cs - f(rule.nodes))) == rep.sup_err


def test_boundary_limit_negative_control(sd11):
    # below the admissibility gate the renormalized tail diverges
    sp = spectral_param(-0.5, sd11)
    t_grid = np.linspace(0.0, 8.0, 17)
    with pytest.warns(RuntimeWarning, match="admissibility"):
        prof = fatou.zonal_profile(sp, t_grid)
    with pytest.raises(ConvergenceError):
        fatou.boundary_limit(sp, prof)


@pytest.mark.parametrize("t_grid", [[], 3.0, [1.0], [0.0, np.nan, 1.0], [1.0, 0.5]],
                         ids=["empty", "scalar", "one-point", "nan", "decreasing"])
def test_profiles_reject_bad_t_grids(sd11, sphere6, t_grid):
    # both profiles share one check; no rule is built or evaluated for a bad grid
    sp = spectral_param(2.5, sd11)
    with pytest.raises(DomainError, match="t_grid"):
        fatou.zonal_profile(sp, t_grid)
    with pytest.raises(DomainError, match="t_grid"):
        fatou.radial_profile(sp, 1.0, sphere6.nodes[:3], t_grid, sphere6)


@pytest.mark.parametrize("p", [0.0, 0.5, -1.0, np.inf, np.nan])
def test_boundary_limit_rejects_p_below_one_or_not_finite(sd11, sphere6, p):
    sp = spectral_param(2.5, sd11)
    prof = fatou.radial_profile(sp, 1.0, sphere6.nodes[:3], np.linspace(0.0, 5.0, 11), sphere6)
    with pytest.raises(DomainError, match="p >= 1"):
        fatou.boundary_limit(sp, prof, reference=1.0, p=p, rule=sphere6)


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


def test_invert_l2_roundtrip(sd11):
    sp = spectral_param(2.5, sd11)
    rule = boundary.sphere_rule(sd11, level=5)
    f = ktypes.random_band_limited(sd11, seed=31, max_p=2, max_q=2, translates=1)
    lift = poisson.transform_radial(sp, f, rule.nodes, (3.0, 4.0), rule)
    ref = f(rule.nodes)
    scale = float(np.dot(rule.weights, np.abs(ref) ** 2)) ** 0.5
    errs = []
    for j, t in enumerate((3.0, 4.0)):
        g = fatou.invert_l2(sp, lift[:, [j]], [t], rule)[0][:, 0]
        assert g.shape == (len(rule),)
        diff = np.abs(g - ref)
        errs.append(float(np.dot(rule.weights, diff**2)) ** 0.5 / scale)
    assert errs[1] < errs[0]
    assert errs[1] < 2e-2


@pytest.fixture(scope="module")
def inversion_stack(sd11):
    """Criterion 11's full sizes: five f's slices at t = 3, 4, 5 on the level-6 sphere, stacked."""
    sp = spectral_param(2.0, sd11)
    rule = boundary.sphere_rule(sd11, level=6)
    t_list = (3.0, 4.0, 5.0)
    lifts = [poisson.transform_radial(
        sp, ktypes.random_band_limited(sd11, seed=307 + k, max_p=2, max_q=2, translates=1),
        rule.nodes, t_list, rule) for k in range(5)]
    return sp, rule, np.concatenate(lifts, axis=1), np.tile(t_list, 5)


def test_invert_l2_stack_matches_one_slice_calls(inversion_stack):
    # one factorisation for every column moves each column by roundoff only
    # (measured 1.3e-15 relative)
    sp, rule, values, t = inversion_stack
    g, fit = fatou.invert_l2(sp, values, t, rule)
    assert g.shape == values.shape and fit.shape == t.shape
    for j, tj in enumerate(t):
        want = fatou.invert_l2(sp, values[:, [j]], [tj], rule)[0][:, 0]
        assert np.max(np.abs(g[:, j] - want)) <= 1e-13 * np.max(np.abs(want)), j


def test_stacked_fit_residuals_match_per_column_fits(inversion_stack):
    # band-limited slices fit to roundoff; random columns leave an O(1) residual,
    # which the shared factorisation must report as each column's own fit does
    _, rule, values, _ = inversion_stack
    rng = np.random.default_rng(12)
    noise = rng.normal(size=(len(rule), 3)) + 1j * rng.normal(size=(len(rule), 3))
    for stack, tol in ((values, 1e-13), (noise, 1e-12)):
        evs, fit = fatou._band_limited_interpolant(rule, stack, fatou.INVERSION_DEGREE)
        assert len(evs) == stack.shape[1]
        for j in range(stack.shape[1]):
            _, (want,) = fatou._band_limited_interpolant(rule, stack[:, [j]], fatou.INVERSION_DEGREE)
            assert abs(fit[j] - want) <= tol * max(want, 1.0), j
    assert np.max(fit) > 0.1


def test_invert_l2_stack_checks_its_grid(inversion_stack):
    sp, rule, values, t = inversion_stack
    with pytest.raises(DomainError, match="one value per rule node"):
        fatou.invert_l2(sp, values, t[:-1], rule)
    with pytest.raises(DomainError, match="finite"):
        fatou.invert_l2(sp, values, np.tile(t, (2, 1)), rule)
    with pytest.warns(RuntimeWarning, match="small t"):
        fatou.invert_l2(sp, values[:, :2], [0.5, 3.0], rule)


def test_check_inversion_memory_and_fit_residuals(sd11):
    # the degree-6 interpolant's centre blocks hold ~MOMENT_BLOCK complex entries of
    # S and H (23 centres); with 512-centre blocks the peak was 31.0 MiB, now 14.3 MiB
    tracemalloc.start()
    try:
        worst, ok, details = suite.check_inversion(sd11, 2.0, 5, 6, (3.0, 4.0, 5.0), 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok and peak <= 20 * 2 ** 20
    # each f's slices are band-limited within the fit's degree
    assert all(details["f_%d" % k]["fit_residual"] <= 1e-12 for k in range(5))


def _monomial_design(U: np.ndarray, degree: int):
    """Oracle design matrix: every u^a conj(u)^c of total degree <= degree, u = the q
    entries of each rank-one node, built from powers independently of the library.

    Returns (matrix of shape (N, n_mono), list of exponents (a, c)).
    """
    q = U.shape[-1]
    Uf = U.reshape(U.shape[0], q)
    cols, expo = [], []
    for total in range(degree + 1):
        for ex in itertools.product(range(total + 1), repeat=2 * q):
            if sum(ex) != total:
                continue
            col = np.ones(len(Uf), dtype=np.complex128)
            for j in range(q):
                col = col * Uf[:, j] ** ex[j] * np.conj(Uf[:, j]) ** ex[q + j]
            cols.append(col)
            expo.append(ex)
    return np.stack(cols, axis=1), expo


@pytest.mark.parametrize("b, degree, level", [(1, 6, 5), (2, 4, 2)])
def test_interpolant_matches_design_matrix(b, degree, level):
    # the evaluator folds the fit into power tables; the reference is the oracle
    # design-matrix product of the same coefficients, read from the form's G
    # (entry G[i, j] multiplies monomial i of u times conj of monomial j)
    sd = structure_data(1, b)
    rule = boundary.sphere_rule(sd, level=level)
    rng = np.random.default_rng(5)
    values = rng.normal(size=len(rule)) + 1j * rng.normal(size=len(rule))
    (ev,), _ = fatou._band_limited_interpolant(rule, values[:, None], degree)
    G = ev.polynomial_form.G[0]
    index = {ex: i for i, ex in enumerate(poisson._monomials(sd.q, degree).exponents)}
    U = boundary.sphere_rule(sd, level=level + 1).nodes
    D, expo = _monomial_design(U, degree)
    coef = np.array([G[index[ex[: sd.q]], index[ex[sd.q :]]] for ex in expo])
    want = D @ coef
    got = ev(U)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # the fit is the oracle's own weighted least-squares fit, on and off the
    # nodes; the design is rank-deficient on the sphere (|u|^2 = 1), so the two
    # minimum-norm solves agree to rounding only (measured <= 4e-14)
    M, _ = _monomial_design(rule.nodes, degree)
    sw = np.sqrt(rule.weights)
    ocoef, *_ = np.linalg.lstsq(M * sw[:, None], values * sw, rcond=None)
    for V, Dv in ((rule.nodes, M), (U, D)):
        fit = Dv @ ocoef
        assert np.max(np.abs(ev(V) - fit)) <= 1e-13 * np.max(np.abs(fit))
    n = len(U) // 6 * 6
    batched = ev(U[:n].reshape(n // 6, 6, 1, sd.q))
    assert batched.shape == (n // 6, 6)
    assert np.max(np.abs(batched.reshape(-1) - want[:n])) <= 1e-14 * np.max(np.abs(want))
    assert ev(np.empty((0, 1, sd.q), dtype=complex)).shape == (0,)
    assert ev(np.empty((3, 0, 1, sd.q), dtype=complex)).shape == (3, 0)


def test_invert_l2_guards(sd11, sd21):
    rule = boundary.sphere_rule(sd11, level=3)
    ones = np.ones(len(rule))
    with pytest.raises(AdmissibilityError):
        fatou.invert_l2(spectral_param(-1.0, sd11), ones[:, None], [3.0], rule)
    with pytest.warns(RuntimeWarning, match="small t"):
        fatou.invert_l2(spectral_param(2.5, sd11), ones[:, None], [0.5], rule)
    # each bad slice, stacked as one column, and a bare slice with no column axis
    for bad in (ones[:-1], ones[:, None], np.ones((2, len(rule))), 1.0):
        with pytest.raises(DomainError, match="one value per rule node"):
            fatou.invert_l2(spectral_param(2.5, sd11), np.asarray(bad)[..., None], [3.0], rule)
    with pytest.raises(DomainError, match="one value per rule node"):
        fatou.invert_l2(spectral_param(2.5, sd11), ones, [3.0], rule)
    srule = boundary.stiefel_rule(sd21, 64, seed=1)
    with pytest.raises(DomainError):
        fatou.invert_l2(spectral_param(4.0, sd21), np.ones((len(srule), 1)), [3.0], srule)


@pytest.mark.parametrize("s", [1.5, 3.0])
def test_domination_check(sd11, s):
    chart = boundary.heisenberg_chart(sd11)
    (rep,) = fatou.domination_check([spectral_param(s, sd11)], (0.5, 1.0, 2.0), chart)
    assert rep.ok
    assert rep.max_excess <= 1e-10
    assert np.isfinite(rep.phi_integral) and rep.phi_integral > 0
    assert rep.n_nodes == len(chart)


def test_domination_check_shares_heights_across_s(sd11, sd21):
    chart = boundary.heisenberg_chart(sd11)
    t_list = (0.5, 1.0, 2.0, 4.0)
    sps = [spectral_param(s, sd11) for s in (1.5, 3.0, 3.0 + 0.5j)]
    reports = fatou.domination_check(sps, t_list, chart)
    assert len(reports) == len(sps)
    for sp, rep in zip(sps, reports):
        (single,) = fatou.domination_check([sp], t_list, chart)
        for name in ("t_list", "branch", "violations", "max_excess", "phi_integral", "n_nodes"):
            assert getattr(rep, name) == getattr(single, name)
    assert [rep.branch for rep in reports] == ["small-s", "large-s", "large-s"]
    for bad in ([], [sps[0], spectral_param(4.0, sd21)]):
        with pytest.raises(DomainError, match="one domain"):
            fatou.domination_check(bad, t_list, chart)


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
    (single,) = fatou.norm_sandwich(sp, [2.0], fs, t_grid, rule)
    assert np.allclose(single.hardy_norms, reports[1].hardy_norms)
    for p in (1.0, np.inf, np.nan, (2.0, np.inf)):
        with pytest.raises(DomainError, match="finite p > 1"):
            fatou.norm_sandwich(sp, np.atleast_1d(p), fs, t_grid, rule)


@pytest.fixture(scope="module")
def tail_profiles():
    # criterion 7's quick rank-one profile (seed 7) and its rank-two recovery
    # profile on a 10^4-node Stiefel rule, as (spectral parameter, profile)
    from matrixball import suite

    sd = structure_data(1, 1)
    rule = boundary.sphere_rule(sd, level=5)
    sp = spectral_param(2.5, sd)
    f = ktypes.random_band_limited(sd, seed=97, max_p=2, max_q=2, translates=1)
    prof = fatou.radial_profile(sp, f, rule.nodes, np.arange(0.0, 5.0 + 1e-9, 0.5), rule)
    sd2 = structure_data(2, 1)
    rule2 = boundary.stiefel_rule(sd2, samples=10**4, seed=98)
    sp2 = spectral_param(4.0, sd2)
    prof2 = fatou.radial_profile(sp2, suite.trace_affine(sd2, 99), rule2.nodes[:160],
                                 np.arange(0.0, 4.01, 0.5), rule2)
    return {"r1 quick": (sp, prof), "r2 1e4": (sp2, prof2)}


def test_boundary_limit_is_stable_under_roundoff(tail_profiles):
    # a 1e-13 relative change of the profile must not be amplified into the
    # limits by a loosely converged optimizer
    sp, prof = tail_profiles["r1 quick"]
    rng = np.random.default_rng(13)
    bumped = fatou.RadialProfile(
        prof.t_grid, prof.values * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0, prof.values.shape)),
        prof.nodes, prof.growth)
    a = fatou.boundary_limit(sp, prof).limits
    b = fatou.boundary_limit(sp, bumped).limits
    scale = float(np.max(np.abs(prof.renormalized[:, -1])))
    assert np.max(np.abs(a - b)) <= 5e-11 * scale


@pytest.mark.parametrize("r, b, s", [(1, 1, 2.5), (1, 1, 3.0 + 0.5j), (1, 2, 3.5)])
def test_boundary_limit_and_fatou_cs_share_one_extrapolation(r, b, s):
    # the zonal profile is P_s 1 at the base node, whose boundary limit is c_s itself
    sp = spectral_param(s, structure_data(r, b))
    grid = np.arange(0.0, 8.01, 0.5)
    limit = fatou.boundary_limit(sp, fatou.zonal_profile(sp, grid)).limits[0]
    cs = poisson._cs_fatou([sp], t_grid=grid)[0]
    assert abs(limit - cs) <= 1e-13 * abs(cs)


@pytest.mark.parametrize("grid", [[0.0, 1.0, 1.5, 3.0, 4.0], [0.0, 1.0, 2.0]],
                         ids=["non-uniform", "three points"])
def test_boundary_limit_rejects_grids_the_extrapolation_cannot_use(sd11, sphere6, grid):
    sp = spectral_param(2.5, sd11)
    prof = fatou.radial_profile(sp, 1.0, sphere6.nodes[:3], np.array(grid), sphere6)
    with pytest.raises(DomainError, match="uniform t grid"):
        fatou.boundary_limit(sp, prof)


def test_boundary_limit_does_not_import_scipy_optimize():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from matrixball import boundary, fatou, ktypes\n"
        "from matrixball.structure import spectral_param, structure_data\n"
        "sd = structure_data(1, 1)\n"
        "rule = boundary.sphere_rule(sd, level=3)\n"
        "sp = spectral_param(2.5, sd)\n"
        "f = ktypes.random_band_limited(sd, seed=97, max_p=2, max_q=2, translates=1)\n"
        "prof = fatou.radial_profile(sp, f, rule.nodes, np.arange(0.0, 5.01, 0.5), rule)\n"
        "rep = fatou.boundary_limit(sp, prof)\n"
        "assert np.all(rep.converged)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_radial_profile_takes_a_stack_of_nodes_only(sd11, sphere6):
    # one Shilov point is no stack: like transform_radial, the profile does not
    # promote it to one centre
    sp = spectral_param(2.5, sd11)
    with pytest.raises(MembershipError, match="stack"):
        fatou.radial_profile(sp, 1.0, sphere6.nodes[0], np.array([0.0, 1.0]), sphere6)
