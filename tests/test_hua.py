"""Left-invariant derivatives, the Hua system, and third-order operators."""

import itertools
import math

import numpy as np
import pytest

from matrixball import _kernels, group, hua, linalg
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
        assert basis.dual_scale == 1
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
    # an F whose stack result has the wrong shape is evaluated per element
    X0 = radial_generator(sd11)
    F = lambda G: complex(_kernels.h1_batch(np.asarray(G).reshape(-1, 3, 3), sd11.r)[0])
    d1 = hua.lie_derivative(F, group.radial(0.7, sd11), (X0,), sd=sd11)
    assert abs(d1 - 1.0) < 1e-9


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


def test_third_order_frozen_ratios(sd11):
    # exact rational law at (1, 1): ratio(s) = (s^2 - 4) / (s^2 - 16)
    basis = hua.hua_basis(sd11)
    g, U = hua._sample_pairs(sd11, 1, seed=19)[0]
    for s, want in ((3.5, -11.0 / 5.0), (9.0, 77.0 / 65.0)):
        got = third_ratio_at(spectral_param(s, sd11), g, U, basis)
        assert abs(got - want) / abs(want) < 1e-6


def test_third_order_basis_independence(sd11):
    basis = hua.hua_basis(sd11)
    rng = np.random.default_rng(12)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert abs(np.linalg.det(A)) > 0.1
    mixed = hua.remix_basis(basis, A)
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
    assert rep.c_rel_err < 1e-3
    assert abs(rep.c_fit - 6.0) < 1e-2
    assert abs(rep.p_fit - 2.0) < 1e-2
    assert abs(rep.d_fit - 4.0) < 1e-2
    assert abs(rep.p_denominator - 3.0) < 1e-2
    assert rep.genus_candidate == 3
    assert rep.fit_residual < 1e-6


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
    basis = hua.build_basis(sd)
    if mixed:
        rng = np.random.default_rng(40 + r)
        A = rng.normal(size=(sd.n, sd.n)) + 1j * rng.normal(size=(sd.n, sd.n))
        basis = hua.remix_basis(basis, A)
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
