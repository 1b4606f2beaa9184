"""Left-invariant derivatives, the Hua system, and third-order operators."""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from matrixball import _kernels, group, hua, linalg, suite
from matrixball.errors import DegeneracyError, DomainError
from matrixball.structure import spectral_param, structure_data


def radial_generator(sd):
    X0 = np.zeros((sd.m, sd.m), dtype=np.complex128)
    for j in range(sd.r):
        X0[j, sd.r + j] = 1.0
        X0[sd.r + j, j] = 1.0
    return X0


def h1_func(sd):
    return lambda G: _kernels.h1_batch(np.asarray(G, dtype=np.complex128), sd.r)


def test_lie_derivative_constant(sd11):
    X0 = radial_generator(sd11)
    one = lambda G: np.ones(G.shape[0], dtype=np.complex128)
    e = np.eye(3, dtype=np.complex128)
    for dirs in ((X0,), (X0, X0), (X0, X0, X0)):
        assert abs(hua.lie_derivative(one, e, dirs, sd=sd11)) < 1e-9


def test_lie_derivative_height(sd11):
    # h1(g exp(u X0)) = h1(g) + u along the radial line
    X0 = radial_generator(sd11)
    F = h1_func(sd11)
    for g in (np.eye(3, dtype=np.complex128), group.radial(0.7, sd11)):
        d1 = hua.lie_derivative(F, g, (X0,), sd=sd11)
        assert abs(d1 - 1.0) < 1e-9
    # second and third derivatives of powers of the height at the identity
    e = np.eye(3, dtype=np.complex128)
    F2 = lambda G: h1_func(sd11)(G) ** 2
    F3 = lambda G: h1_func(sd11)(G) ** 3
    assert abs(hua.lie_derivative(F2, e, (X0, X0), sd=sd11) - 2.0) < 1e-8
    assert abs(hua.lie_derivative(F3, e, (X0, X0, X0), sd=sd11) - 6.0) < 1e-6


def test_lie_derivative_linearity(sd11):
    X0 = radial_generator(sd11)
    g = group.random_group_element(3, 0.3, sd11)
    F = h1_func(sd11)
    G2 = lambda G: np.exp(h1_func(sd11)(G))
    combo = lambda G: 2.0 * F(G) - 0.5j * G2(G)
    a = hua.lie_derivative(F, g, (X0,), sd=sd11)
    b = hua.lie_derivative(G2, g, (X0,), sd=sd11)
    c = hua.lie_derivative(combo, g, (X0,), sd=sd11)
    assert abs(c - (2.0 * a - 0.5j * b)) < 1e-9


def test_calibration_scales():
    # the Hua basis pairs under the plain trace pairing; the eigenvalue law it
    # yields, (s^2 - (r+b)^2)/4, is checked by test_hua_eigen_residual
    for r, b in ((1, 1), (2, 1)):
        basis = hua.hua_basis(structure_data(r, b))
        basis.validate()


def test_lie_derivative_propagates_stack_errors(sd11):
    # an F that fails on a stack must fail loudly, not be re-run per element
    X0 = radial_generator(sd11)
    calls = []

    def F(G):
        G = np.asarray(G)
        calls.append(G.ndim)
        if G.ndim == 3:
            raise ValueError("stack rejected")
        return complex(_kernels.h1_batch(G[None], sd11.r)[0])

    with pytest.raises(ValueError, match="stack rejected"):
        hua.lie_derivative(F, np.eye(3, dtype=np.complex128), (X0,), sd=sd11)
    assert calls == [3]


def test_lie_derivative_single_element_fallback(sd11):
    # an F written for single elements is not re-run per element: a stack result
    # of the wrong shape is a usage error
    X0 = radial_generator(sd11)
    F = lambda G: complex(_kernels.h1_batch(np.asarray(G).reshape(-1, 3, 3), sd11.r)[0])
    with pytest.raises(DomainError, match="one value per stacked element"):
        hua.lie_derivative(F, group.radial(0.7, sd11), (X0,), sd=sd11)


@pytest.mark.parametrize("r,b,s", [(1, 1, 3.0), (1, 1, 4 + 1j), (2, 1, 4.0)])
def test_hua_eigen_residual(r, b, s):
    sd = structure_data(r, b)
    sp = spectral_param(s, sd)
    basis = hua.hua_basis(sd)
    for g, U in hua._sample_pairs(sd, 2, seed=31):
        assert hua.eigen_residual(sp, g, U, basis) < 1e-6


def test_harmonic_kernel_annihilated(sd11):
    # s = r + b puts the kernel in the kernel of the Hua operator
    sp = spectral_param(float(sd11.r + sd11.b), sd11)
    assert abs(sp.hua_eigenvalue) < 1e-14
    basis = hua.hua_basis(sd11)
    for g, U in hua._sample_pairs(sd11, 2, seed=5):
        F = hua.lift_kernel(sp, U)
        H = hua.hua_second(F, g, basis)
        Fg = complex(F(g[None])[0])
        assert np.max(np.abs(H)) / abs(Fg) < 1e-5


def test_sample_pairs_take_seeds_past_int64(sd11):
    # seeds stay Python ints, so any non-negative seed works, as per seed
    for seed in (2**63 - 1, 2**64 + 5):
        for i, (g, _) in enumerate(hua._sample_pairs(sd11, 3, seed=seed)):
            assert np.array_equal(g, group.random_group_element(seed + 7 * i, 0.25, sd11))


def test_fd_order_slopes(sd11):
    basis = hua.hua_basis(sd11)
    sp = spectral_param(3.0, sd11)
    assert abs(hua.measure_fd_order(sp, basis, order=4) - 4.0) < 0.3
    assert abs(hua.measure_fd_order(sp, basis, order=2) - 2.0) < 0.3


def third_ratio_at(sp, g, U, basis):
    F = hua.lift_kernel(sp, U)
    TU = hua.hua_third_U(F, g, basis)
    TW = hua.hua_third_W(F, g, basis)
    sd = sp.sd
    # both outputs live on the p+ block
    for T in (TU, TW):
        peak = np.max(np.abs(T))
        off = T.copy()
        off[: sd.r, sd.r :] = 0.0
        assert np.max(np.abs(off)) < 1e-9 * peak
    blkU = TU[: sd.r, sd.r :].ravel()
    blkW = TW[: sd.r, sd.r :].ravel()
    k = int(np.argmax(np.abs(blkW)))
    return blkU[k] / blkW[k]


def test_third_order_frozen_ratios():
    # exact rational law (s^2 - nu^2) / (s^2 - nu^2 - 4(n + 1)), nu = n/r: (s^2 - 4) / (s^2 - 16)
    # at (1, 1), (s^2 - 9) / (s^2 - 25) at (1, 2) and (s^2 - 9) / (s^2 - 37) at (2, 1)
    cases = {(1, 1): ((3.5, -11.0 / 5.0), (9.0, 77.0 / 65.0)),
             (1, 2): ((3.5, -13.0 / 51.0),),
             (2, 1): ((3.5, -13.0 / 99.0),)}
    for rb, pairs in cases.items():
        sd = structure_data(*rb)
        basis = hua.hua_basis(sd)
        g, U = hua._sample_pairs(sd, 1, seed=19)[0]
        for s, want in pairs:
            got = third_ratio_at(spectral_param(s, sd), g, U, basis)
            assert abs(got - want) / abs(want) < 1e-6, (rb, s)


def remix_basis(basis, A):
    """Change of p+ basis v' = A v with duals recomputed for the same pairing."""
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != (basis.sd.n, basis.sd.n):
        raise DomainError("mixing matrix must be n x n")
    Ainv = np.linalg.inv(A)
    pplus = np.einsum("ac,cij->aij", A, basis.pplus)
    pminus = np.einsum("ca,cij->aij", Ainv, basis.pminus)
    out = hua.LieBasis(sd=basis.sd, pplus=pplus, pminus=pminus)
    out.validate()
    return out


def test_third_order_basis_independence(sd11):
    basis = hua.hua_basis(sd11)
    rng = np.random.default_rng(12)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert abs(np.linalg.det(A)) > 0.1
    mixed = remix_basis(basis, A)
    g, U = hua._sample_pairs(sd11, 1, seed=8)[0]
    sp = spectral_param(3.0, sd11)
    F = hua.lift_kernel(sp, U)
    H0 = hua.hua_second(F, g, basis)
    H1 = hua.hua_second(F, g, mixed)
    assert np.max(np.abs(H0 - H1)) < 1e-8 * max(1.0, np.max(np.abs(H0)))
    r0 = third_ratio_at(sp, g, U, basis)
    r1 = third_ratio_at(sp, g, U, mixed)
    assert abs(r0 - r1) < 1e-6 * abs(r0)


def test_third_order_report(sd11):
    sps = [spectral_param(s, sd11) for s in (2.4, 3.2, 4.4, 5.2)]
    rep = hua.third_order_ratio(sps, samples=3, seed=77)
    assert max(rep.cvs) < 1e-6
    assert max(rep.law_errs) < 1e-8
    assert rep.law_errs == [abs(got - hua.ratio_law(s, sd11)) / abs(hua.ratio_law(s, sd11))
                            for s, got in zip(rep.s_values, rep.ratios)]


def test_third_order_ratio_does_not_import_scipy_optimize():
    code = (
        "import sys\n"
        "from matrixball import hua\n"
        "from matrixball.structure import spectral_param, structure_data\n"
        "sd = structure_data(1, 1)\n"
        "sps = [spectral_param(s, sd) for s in (2.4, 3.2, 4.4)]\n"
        "rep = hua.third_order_ratio(sps, samples=1, seed=77)\n"
        "assert max(rep.law_errs) < 1e-2\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def stencil_oracle(sd, dirs, scheme, h):
    """The per-point stencil loop: one expm per (X/Y choice, axis, offset)."""
    J = group.jmatrix(sd)
    parts = []
    for v in dirs:
        X, Y = hua._split_real(np.asarray(v, dtype=np.complex128), J)
        parts.append(((X, 1.0), (Y, 1j)))
    offs, cfs = scheme.offsets, scheme.coeffs
    mats, coeffs = [], []
    for combo in itertools.product(*parts):
        ccoef = 1.0 + 0.0j
        for _, unit in combo:
            ccoef *= unit
        exps = [[linalg.expm(h * o * R) for o in offs] for R, _ in combo]
        for sel in itertools.product(range(len(offs)), repeat=len(dirs)):
            M = None
            w = ccoef
            for axis, si in enumerate(sel):
                M = exps[axis][si] if M is None else M @ exps[axis][si]
                w *= cfs[si]
            mats.append(M)
            coeffs.append(w)
    return np.array(mats), np.array(coeffs) / h ** len(dirs)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("r,b", [(1, 1), (2, 1)])
def test_stencil_plan_matches_loop(r, b, mixed, order):
    sd = structure_data(r, b)
    basis = hua.hua_basis(sd)
    if mixed:
        rng = np.random.default_rng(40 + r)
        A = rng.normal(size=(sd.n, sd.n)) + 1j * rng.normal(size=(sd.n, sd.n))
        basis = remix_basis(basis, A)
    vp, vm = basis.pplus, basis.pminus
    scheme = hua.FDScheme(step=2e-2, order=order)
    for dirs in ((vp[0],), (vp[0], vm[-1]), (vm[0], vm[-1], vp[0]), (vp[-1], vp[-1], vp[-1])):
        for h in (scheme.step, scheme.step / 2.0):
            plan = hua._StencilPlan(sd, dirs, scheme, h)
            mats, coeffs = stencil_oracle(sd, dirs, scheme, h)
            assert np.array_equal(plan.mats, mats)
            assert np.array_equal(plan.coeffs, coeffs)


def test_stencil_exponentials_computed_once(sd11, monkeypatch):
    # a stencil depends on (direction, scheme, h) only: a new g and s reuse it
    basis = hua.hua_basis(sd11)
    (g0, U), (g1, _) = hua._sample_pairs(sd11, 2, seed=13)
    hua.hua_second(hua.lift_kernel(spectral_param(3.0, sd11), U), g0, basis)
    calls = []
    real_expm = linalg.expm

    def counting_expm(X):
        calls.append(1)
        return real_expm(X)

    monkeypatch.setattr(linalg, "expm", counting_expm)
    F = hua.lift_kernel(spectral_param(2.5, sd11), U)
    assert np.all(np.isfinite(hua.hua_second(F, g1, basis)))
    assert calls == []
    # a step no other call uses is a new stencil, so the counter does see it
    hua.hua_second(F, g1, basis, hua.FDScheme(step=3.7e-2))
    assert calls


OPERATORS = {"second": hua.hua_second, "U": hua.hua_third_U, "W": hua.hua_third_W}


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("r,b", [(1, 1), (2, 1)])
def test_on_kernels_matches_per_pair_loop(r, b, order, richardson):
    # the per-s, per-pair loop of the generic route is the oracle, bit for bit
    sd = structure_data(r, b)
    rng = np.random.default_rng(50 + r)
    A = rng.normal(size=(sd.n, sd.n)) + 1j * rng.normal(size=(sd.n, sd.n))
    plain = hua.hua_basis(sd)
    pairs = hua._sample_pairs(sd, 2, seed=17)
    sps = [spectral_param(s, sd) for s in (2.5, 4.0 + 1.0j)]
    scheme = hua.FDScheme(step=2e-2, order=order, richardson=richardson)
    # third-order stencils at (2, 1) have 66 terms: run them at the cheapest scheme only
    third = r == 1 or (order == 2 and not richardson)
    for basis in (plain, remix_basis(plain, A)):
        for which in ("second", "U", "W") if third else ("second",):
            got = hua.on_kernels(which, sps, pairs, basis, scheme)
            want = np.array([[OPERATORS[which](hua.lift_kernel(sp, U), g, basis, scheme)
                              for sp in sps] for g, U in pairs])
            assert np.array_equal(got, want), which


def test_eigen_residuals_match_per_pair_loop(sd11):
    # the per-s, per-pair residual of hua_second on lift_kernel is the oracle, bit for bit
    basis = hua.hua_basis(sd11)
    pairs = hua._sample_pairs(sd11, 2, seed=29)
    sps = [spectral_param(s, sd11) for s in (3.0, 4.0 + 1.0j, float(sd11.r + sd11.b))]
    want = []
    for sp in sps:
        row = []
        for g, U in pairs:
            F = hua.lift_kernel(sp, U)
            H = hua.hua_second(F, g, basis)
            Fg = complex(F(np.asarray(g)[None])[0])
            target = sp.hua_eigenvalue * Fg * np.eye(sd11.r)
            scale = max(abs(sp.hua_eigenvalue) * abs(Fg), abs(Fg))
            row.append(float(np.max(np.abs(H - target)) / scale))
        want.append(row)
    assert hua.eigen_residuals(sps, pairs, basis) == want
    assert [[hua.eigen_residual(sp, g, U, basis) for g, U in pairs] for sp in sps] == want
    # at s = r + b the eigenvalue is 0 and the residual is max|H K_s| / |K_s(g . 0)|
    assert want[-1] == [float(np.max(np.abs(hua.hua_second(hua.lift_kernel(sps[-1], U), g, basis)))
                              / abs(hua.lift_kernel(sps[-1], U)(g))) for g, U in pairs]


def count_plans(monkeypatch):
    built = []

    class CountingPlan(hua._StencilPlan):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(hua, "_StencilPlan", CountingPlan)
    return built


def test_third_order_ratio_builds_each_plan_once(sd11, monkeypatch):
    # 2 operators x 6 non-zero terms x 2 Richardson steps, whatever the number of s and samples
    built = count_plans(monkeypatch)
    hua.third_order_ratio([spectral_param(s, sd11) for s in (2.4, 3.2, 4.4, 5.2)], samples=3)
    assert len(built) == 2 * 6 * 2


def test_check_hua_builds_each_plan_once(sd11, monkeypatch):
    # one operator x 2 non-zero terms x 2 Richardson steps covers every s and the harmonic point
    built = count_plans(monkeypatch)
    suite.check_hua(sd11, (2.0, 3.0), 3, 7)
    assert len(built) == 2 * 2


# non-zero terms per domain: (second order, each third-order operator)
TERM_COUNTS = {(1, 1): (2, 6), (1, 2): (3, 15), (1, 3): (4, 28), (2, 1): (12, 66),
               (2, 2): (16, 120), (3, 1): (36, 276)}


@pytest.mark.parametrize("rb", suite.DOMAINS)
def test_operators_keep_only_non_zero_terms(rb):
    sd = structure_data(*rb)
    basis = hua.hua_basis(sd)
    second = hua._second_terms(basis)
    third = {which: hua._third_terms(basis, which) for which in ("U", "W")}
    assert len(second) == sd.r * sd.n == TERM_COUNTS[rb][0]
    assert len(third["U"]) == len(third["W"]) == TERM_COUNTS[rb][1]
    for _, weight in second + third["U"] + third["W"]:
        assert np.any(weight)


def test_zero_samples_is_a_domain_error(sd11):
    sps = [spectral_param(s, sd11) for s in (2.4, 3.2, 4.4)]
    with pytest.raises(DomainError, match="at least one sample"):
        hua.third_order_ratio(sps, samples=0)
    with pytest.raises(DomainError, match="at least one spectral parameter"):
        hua.third_order_ratio([], samples=3)
    with pytest.raises(DomainError, match="at least one sample"):
        suite.check_hua(sd11, (2.0,), 0, 7)


def test_on_kernels_non_finite_value_is_degeneracy(sd11, monkeypatch):
    # poison the q x q determinant the kernel exponent is taken from
    real = _kernels._logabsdet_small

    def poisoned(T):
        out = real(T)
        out[5] = np.nan
        return out

    monkeypatch.setattr(_kernels, "_logabsdet_small", poisoned)
    basis = hua.hua_basis(sd11)
    pairs = hua._sample_pairs(sd11, 1, seed=3)
    with pytest.raises(DegeneracyError, match="non-finite F value in FD stencil \\(point 5 of"):
        hua.on_kernels("second", [spectral_param(3.0, sd11)], pairs, basis)


@pytest.mark.parametrize("rb", suite.DOMAINS)
def test_kernel_exponent_matches_ball_point_form(rb):
    # -2 log|det(D - U^H B)| against log det(I - Z Z^H) - 2 log|det(I - Z U^H)| at Z = g . 0;
    # K_s = exp(sigma * exponent), so the error is relative to max(|exponent|, 1)
    sd = structure_data(*rb)
    for g, U in hua._sample_pairs(sd, 3, seed=11):
        Z = group.mobius(g, np.zeros((sd.r, sd.q)))
        want = _kernels.logdet_ipzz(Z) - 2.0 * _kernels.logabsdet_izuh(Z, U)
        got = hua._kernel_exponent(g[None], U, sd)[0]
        assert abs(got - want) <= 1e-11 * max(abs(want), 1.0)


@pytest.mark.parametrize("t", [1.0, 10.0, 20.0])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_kernel_exponent_far_from_the_peak(r, t):
    # at g = a_t, U = -U0 the kernel is e^(-2 r t sigma): no cancellation, no -inf
    sd = structure_data(r, 1)
    got = hua._kernel_exponent(group.radial(t, sd)[None], -group.base_point(sd), sd)[0]
    assert abs(got + 2.0 * r * t) <= 1e-13 * 2.0 * r * t


@pytest.mark.parametrize("which", ["second", "U"])
@pytest.mark.parametrize("r,b", [(1, 1), (2, 1)])
def test_stencil_points_match_plan_products(r, b, which):
    sd = structure_data(r, b)
    terms, scheme = hua._operator(hua.hua_basis(sd), which, None)
    stencil = hua._Stencil(sd, terms, scheme, scheme.step)
    g = hua._sample_pairs(sd, 1, seed=5)[0][0]
    want = np.concatenate([g @ hua._StencilPlan(sd, dirs, scheme, scheme.step).mats
                           for dirs, _ in terms])
    got = stencil.points(g)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14


def test_third_order_ratio_peak_memory():
    # the stencil is kept once, in its wide layout; a second (P, m, m) copy peaks near 49 MiB
    code = (
        "import tracemalloc\n"
        "from matrixball import hua\n"
        "from matrixball.structure import spectral_param, structure_data\n"
        "sd = structure_data(2, 1)\n"
        "shift = sd.n / sd.r - 2.0\n"
        "sps = [spectral_param(s + shift, sd) for s in (2.4, 3.2, 4.4, 5.2)]\n"
        "tracemalloc.start()\n"
        "hua.third_order_ratio(sps, samples=3)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) <= 38 * 2 ** 20
