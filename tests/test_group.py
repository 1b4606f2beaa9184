import numpy as np
import pytest

from matrixball import group, linalg, poisson, suite
from matrixball.errors import DegeneracyError
from matrixball.structure import spectral_param, structure_data


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


def test_mobius_composition():
    # mobius(gh, Z) = mobius(g, mobius(h, Z)) at a point Z != 0 of every domain;
    # the measured error is at most 3e-15
    for rb in suite.DOMAINS:
        sd = structure_data(*rb)
        g = group.random_group_element(11, 0.6, sd)
        h = group.random_group_element(12, 0.6, sd)
        Z = group.mobius(group.random_group_element(13, 0.6, sd), np.zeros((sd.r, sd.q)))
        assert np.max(np.abs(Z)) > 0.1
        lhs = group.mobius(g @ h, Z)
        rhs = group.mobius(g, group.mobius(h, Z))
        assert np.max(np.abs(lhs - rhs)) < 1e-12, rb


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


@pytest.mark.parametrize("rb", suite.DOMAINS)
def test_base_point_right_factor_is_exactly_the_identity(rb):
    # transform_radial at the base point (spherical_profile's only center) acts by
    # this factor, so the radial line a_t . 0 is evaluated without any rounding of M
    sd = structure_data(*rb)
    M = group.kappa_right_factors(group.base_point(sd)[None])
    assert np.array_equal(M, np.eye(sd.q)[None])


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


@pytest.mark.parametrize("rb", [(1, 1), (2, 1)])
def test_cocycle_battery_contraction_matches_per_sample_loop(rb):
    # the batched contraction count and gap equal the one-sample-at-a-time loop
    sd = structure_data(*rb)
    n, seed = 200, 7
    out = suite.cocycle_battery(sd, 0, n, seed)
    E = group.nbar_basis(sd)
    rng = np.random.default_rng(seed + 10 ** 6)
    coords = rng.normal(scale=1.5, size=(n, len(E)))
    A = np.tensordot(coords, E, axes=(1, 0))
    nbar = np.eye(sd.m) + A + 0.5 * (A @ A)
    ts = rng.uniform(0.1, 4.0, size=n)
    violations, gap_min = 0, np.inf
    for j in range(n):
        h_base = group.h1_scalar(nbar[j], sd)
        h_conj = group.h1_scalar(group.radial(ts[j], sd) @ nbar[j] @ group.radial(-ts[j], sd), sd)
        gap_min = min(gap_min, h_base - h_conj)
        violations += h_conj > h_base + 1e-10
    assert out["violations"] == violations
    assert out["contraction_min_gap"] == gap_min


def test_is_domain_point_boundary(sd11):
    assert group.is_domain_point(np.array([[0.3, 0.1j]]))
    assert not group.is_domain_point(np.array([[1.0, 0.0]]))


def test_random_algebra_element_in_algebra(sd21, rng):
    X = group.random_algebra_element(rng, 0.5, sd21)
    J = group.jmatrix(sd21)
    assert np.max(np.abs(X.conj().T @ J + J @ X)) < 1e-12
    assert abs(np.trace(X)) < 1e-12


@pytest.mark.parametrize("rb", suite.DOMAINS)
def test_random_group_element_is_expm_of_random_algebra_element(rb):
    # the stacked draw equals the per-sample oracle, seed by seed, bit for bit
    sd = structure_data(*rb)
    seeds = [0, 9, 123456, np.random.default_rng(4)]
    oracle = [np.random.default_rng(4) if isinstance(s, np.random.Generator)
              else np.random.default_rng(s) for s in seeds]
    X = np.stack([group.random_algebra_element(rng, 0.45, sd) for rng in oracle])
    assert np.array_equal(group.random_group_element(seeds, 0.45, sd), linalg.expm(X))


def test_is_shilov_point_batches(sd21):
    # every point of a batch must pass; an empty batch passes, a non-finite point fails
    U = np.stack([group.base_point(sd21)] * 3)
    assert group.is_shilov_point(U)
    assert group.is_shilov_point(U[:0])
    for bad in (np.nan, np.inf):
        V = U.copy()
        V[1, 0, 2] = bad
        assert not group.is_shilov_point(V)


@pytest.mark.parametrize("rb", suite.DOMAINS)
def test_stacked_helpers_match_per_element_calls(rb):
    # one call on a stack gives, bit for bit, what one call per element gives
    sd = structure_data(*rb)
    seeds = [3, 8, 21, 40]
    G = group.random_group_element(seeds, 0.7, sd)
    assert G.shape == (len(seeds), sd.m, sd.m)
    assert np.array_equal(G, [group.random_group_element(s, 0.7, sd) for s in seeds])
    assert np.array_equal(group.random_group_element(seeds, 0.0, sd),
                          [group.random_group_element(s, 0.0, sd) for s in seeds])
    ts = np.array([0.1, 0.7, 2.5, -1.3])
    assert np.array_equal(group.radial(ts, sd), [group.radial(float(t), sd) for t in ts])
    Z0 = np.zeros((sd.r, sd.q), dtype=np.complex128)
    U0 = group.base_point(sd)
    for P in (Z0, U0):
        assert np.array_equal(group.mobius(G, P), [group.mobius(g, P) for g in G])
    assert np.array_equal(group.kappa_factor(G, sd), [group.kappa_factor(g, sd) for g in G])
    assert np.array_equal(group.group_inverse(G, sd), [group.group_inverse(g, sd) for g in G])


def test_stacked_mobius_checks_every_element(sd11):
    # one singular CZ + D in a stack raises, as it does alone
    t = 0.8
    Z = np.array([[-np.cosh(t) / np.sinh(t), 0.0]])
    stack = np.stack([np.eye(sd11.m), group.radial(t, sd11), np.eye(sd11.m)])
    with pytest.raises(DegeneracyError, match="CZ \\+ D"):
        group.mobius(stack, Z)


def test_is_domain_point_stacks(sd21):
    Z = 0.3 * np.stack([group.base_point(sd21)] * 4)
    assert group.is_domain_point(Z)
    Z[2] *= 4.0
    assert not group.is_domain_point(Z)
    Z[2, 0, 0] = np.nan
    assert not group.is_domain_point(Z)


def _cocycle_battery_loop(sd, pairs, contraction_samples, seed):
    """The battery one sample at a time, as the suite ran it before it took stacks."""
    worst = 0.0
    for i in range(pairs):
        x = group.random_group_element(seed + 2 * i, 0.7, sd)
        y = group.random_group_element(seed + 2 * i + 1, 0.7, sd)
        ky = group.kappa_factor(y, sd)
        lhs = group.h1_scalar(x @ ky, sd)
        rhs = group.h1_scalar(x @ y, sd) - group.h1_scalar(y, sd)
        worst = max(worst, abs(lhs - rhs))
    E = group.nbar_basis(sd)
    rng = np.random.default_rng(seed + 10 ** 6)
    coords = rng.normal(scale=1.5, size=(contraction_samples, len(E)))
    A = np.tensordot(coords, E, axes=(1, 0))
    nbar = np.eye(sd.m) + A + 0.5 * (A @ A)
    ts = rng.uniform(0.1, 4.0, size=contraction_samples)
    h_base = np.array([group.h1_scalar(n, sd) for n in nbar])
    h_conj = np.array([group.h1_scalar(group.radial(float(t), sd) @ n @ group.radial(-float(t), sd), sd)
                       for t, n in zip(ts, nbar)])
    return {"cocycle_worst": worst,
            "violations": int(np.count_nonzero(h_conj > h_base + 1e-10)),
            "contraction_min_gap": float(np.min(h_base - h_conj))}


def _kernel_form_battery_loop(sd, n_pairs, seed, s_values=(2.0, 3.0 + 0.5j)):
    """Criterion 3's battery one sample at a time, as the suite ran it before, and
    the s and pair of its worst."""
    worst, worst_from = 0.0, None
    sps = [spectral_param(s, sd) for s in s_values]
    Z0 = np.zeros((sd.r, sd.q), dtype=np.complex128)
    U0 = group.base_point(sd)
    rng = np.random.default_rng(seed + 31)
    for i in range(n_pairs):
        g = group.random_group_element(seed + 3 * i, 0.6, sd)
        Ak = np.linalg.qr(rng.normal(size=(sd.r, sd.r)) + 1j * rng.normal(size=(sd.r, sd.r)))[0]
        Dk = np.linalg.qr(rng.normal(size=(sd.q, sd.q)) + 1j * rng.normal(size=(sd.q, sd.q)))[0]
        kt = np.zeros((sd.m, sd.m), dtype=np.complex128)
        kt[: sd.r, : sd.r] = Ak
        kt[sd.r :, sd.r :] = Dk
        kt *= np.exp(-1j * np.angle(np.linalg.det(kt)) / sd.m)
        Z = group.mobius(g, Z0)
        U = group.mobius(kt, U0)
        hval = group.h1_scalar(group.group_inverse(g, sd) @ kt, sd)
        for s, sp in zip(s_values, sps):
            lhs = poisson.kernel(sp, Z, U)
            rhs = np.exp(-(sp.s * sd.r + sd.n) * hval)
            if abs(lhs - rhs) / abs(rhs) > worst:
                worst, worst_from = abs(lhs - rhs) / abs(rhs), "s=%s pair %d" % (s, i)
    return worst, worst_from


@pytest.mark.parametrize("rb", suite.DOMAINS)
def test_batteries_match_per_sample_loops(rb):
    # criteria 2 and 3 at quick sizes, bit for bit against the per-sample loops
    sd = structure_data(*rb)
    assert suite.cocycle_battery(sd, 20, 100, 7) == _cocycle_battery_loop(sd, 20, 100, 7)
    assert suite.kernel_form_battery(sd, 30, 7) == _kernel_form_battery_loop(sd, 30, 7)


def test_batteries_exponentiate_once_per_domain(monkeypatch):
    calls = []
    real_expm = linalg.expm

    def counting_expm(X):
        calls.append(1)
        return real_expm(X)

    monkeypatch.setattr(linalg, "expm", counting_expm)
    res = suite.criterion_cocycle(seed=7, profile="quick")
    n_domains = len(res.details) - 1  # one entry per domain plus the violation total
    assert res.passed and 0 < len(calls) <= 2 * n_domains
    calls.clear()
    res = suite.criterion_kernel_form(seed=7, profile="quick")
    assert res.passed and 0 < len(calls) <= len(res.details)
