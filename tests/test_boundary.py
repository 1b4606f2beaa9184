"""Quadrature rules: exactness, calibration, and cross-consistency."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

from matrixball import _kernels, boundary, fatou, group, linalg, poisson, suite
from matrixball.errors import DomainError
from matrixball.structure import spectral_param, structure_data


def dirichlet_moment(q: int, powers) -> float:
    """E[prod |u_i|^(2 a_i)] for u uniform on the unit sphere of C^q."""
    total = sum(powers)
    out = math.factorial(q - 1) / math.factorial(q - 1 + total)
    for a in powers:
        out *= math.factorial(a)
    return out


def test_sphere_moments_q2(sd11):
    # closed form 1/(k+1); the rule is exact up to degree 2*level
    rule = boundary.sphere_rule(sd11, level=6)
    u1 = rule.nodes[:, 0, 0]
    for k in range(7):
        got = np.dot(rule.weights, np.abs(u1) ** (2 * k)).real
        assert abs(got - 1.0 / (k + 1)) < 1e-12


def test_sphere_moments_q3(sd12):
    rule = boundary.sphere_rule(sd12, level=5)
    u1 = rule.nodes[:, 0, 0]
    u2 = rule.nodes[:, 0, 1]
    for k in range(6):
        got = np.dot(rule.weights, np.abs(u1) ** (2 * k)).real
        assert abs(got - dirichlet_moment(3, (k,))) < 1e-12
    mixed = np.dot(rule.weights, np.abs(u1) ** 2 * np.abs(u2) ** 2).real
    assert abs(mixed - dirichlet_moment(3, (1, 1))) < 1e-12


def test_sphere_rule_basics(sd11):
    small = boundary.sphere_rule(sd11, level=5)
    big = boundary.sphere_rule(sd11, level=8)
    for rule in (small, big):
        assert rule.kind.startswith("deterministic")
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 1.0) < 1e-13
        # nodes live on the Shilov boundary: unit rows
        norms = np.linalg.norm(rule.nodes[:, 0, :], axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-13
    assert len(big) > len(small)


def test_sphere_phase_orthogonality(sd11):
    rule = boundary.sphere_rule(sd11, level=5)
    u1 = rule.nodes[:, 0, 0]
    u2 = rule.nodes[:, 0, 1]
    assert abs(np.dot(rule.weights, u1 * np.conj(u2))) < 1e-14
    assert abs(np.dot(rule.weights, u1 * np.abs(u1) ** 2)) < 1e-14


def test_sphere_rule_rank_one_only():
    with pytest.raises(DomainError):
        boundary.sphere_rule(structure_data(2, 1), level=4)


def test_disk_marginal_matches_sphere(sd11):
    # the disk rule is the law of U_1; zonal integrands must agree exactly
    sph = boundary.sphere_rule(sd11, level=6)
    dsk = boundary.disk_rule(sd11, level=6)
    assert abs(dsk.weights.sum() - 1.0) < 1e-13

    def h(u):
        return np.abs(u) ** 4 + 0.3 * u ** 2 * np.conj(u) ** 3

    a = np.dot(sph.weights, h(sph.nodes[:, 0, 0]))
    b = np.dot(dsk.weights, h(dsk.nodes))
    assert abs(a - b) < 1e-12


def test_disk_density_moments():
    # density (b/pi)(1-|u|^2)^(b-1): E|u|^(2k) = k! b! / (k+b)!
    sd = structure_data(1, 2)
    rule = boundary.disk_rule(sd, level=6)
    for k in range(6):
        got = np.dot(rule.weights, np.abs(rule.nodes) ** (2 * k)).real
        want = math.factorial(k) * 2 / math.factorial(k + 2)
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("b", [1, 2])
def test_graded_disk_rule_phases(b):
    # with panels > 1 the phases are graded toward theta = pi and mirrored
    # about it: a probability rule that integrates low Fourier modes to ~1e-11
    # but no longer exactly
    rule = boundary.disk_rule(structure_data(1, b), level=18, panels=27)
    assert abs(rule.weights.sum() - 1.0) <= 1e-15
    th = np.angle(rule.nodes.reshape(-1, 2 * boundary.PHASE_POINTS * (boundary.PHASE_HALVINGS + 1))[0])
    th = np.sort(np.mod(th, 2.0 * np.pi))
    assert np.allclose(th + th[::-1], 2.0 * np.pi, rtol=0, atol=1e-14)
    assert np.min(np.abs(th - np.pi)) < np.pi * 2.0 ** -boundary.PHASE_HALVINGS
    for k in range(-4, 5):
        if k:
            assert abs(np.dot(rule.weights, np.exp(1j * k * np.angle(rule.nodes)))) <= 1e-10, k


@pytest.mark.parametrize("level", [0, 3, 24])
def test_uniform_disk_rule_phases_are_exact(sd11, level):
    # panels = 1 keeps 2 level + 1 uniform phases, exact for e^(i k theta) up
    # to |k| = 2 level: the degree claim that zonal Gram tests rely on
    rule = boundary.disk_rule(sd11, level=level)
    assert len(rule) == (level + 2) * (2 * level + 1)
    theta = np.angle(rule.nodes)
    for k in range(1, 2 * level + 1):
        for sign in (1, -1):
            assert abs(np.dot(rule.weights, np.exp(1j * sign * k * theta))) <= 1e-14, k


def test_stiefel_rule_properties(sd21):
    rule = boundary.stiefel_rule(sd21, samples=4000, seed=5)
    U = rule.nodes
    assert U.shape == (4000, 2, 3)
    gram = U @ np.swapaxes(U, -1, -2).conj()
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12
    assert np.allclose(rule.weights, 1.0 / 4000)
    # seeded determinism
    again = boundary.stiefel_rule(sd21, samples=4000, seed=5)
    assert np.array_equal(rule.nodes, again.nodes)
    other = boundary.stiefel_rule(sd21, samples=4000, seed=6)
    assert not np.array_equal(rule.nodes, other.nodes)
    # Haar moment E|U_11|^2 = 1/q within 8 standard errors of an independent sample
    probe = np.abs(U[:, 0, 0]) ** 2
    m = np.dot(rule.weights, probe)
    assert abs(m - 1.0 / 3.0) < 8 * np.std(probe) / np.sqrt(len(probe))


def test_sobol_unscrambled_matches_joe_kuo():
    # the first eight points of dimensions 1-3 of the Joe-Kuo sequence in Gray-code
    # order, each moved to the centre of its 2^-32 cell
    V, shift = boundary._sobol_generator(3, None)
    got = boundary._sobol_block(V, shift, 0, 8) - 0.5 ** (boundary.SOBOL_BITS + 1)
    want = np.array([[0, 0, 0], [4, 4, 4], [6, 2, 2], [2, 6, 6],
                     [3, 3, 5], [7, 7, 1], [5, 1, 7], [1, 5, 3]]) / 8.0
    assert np.array_equal(got, want)
    # a block that starts inside the sequence continues it
    assert np.array_equal(boundary._sobol_block(V, shift, 5, 8),
                          boundary._sobol_block(V, shift, 0, 8)[5:])


@pytest.mark.parametrize("seed", [5, 47, 48, 49])
def test_sobol_scramble_keeps_one_point_per_interval(seed):
    dim = len(boundary.SOBOL_DIRECTIONS)
    V, shift = boundary._sobol_generator(dim, seed)
    for m in (0, 1, 4, 11, 14):
        x = boundary._sobol_block(V, shift, 0, 2 ** m)
        assert np.all((x > 0) & (x < 1))
        cells = np.sort(np.floor(x * 2 ** m), axis=0)
        assert np.array_equal(cells, np.broadcast_to(np.arange(2.0 ** m)[:, None], x.shape))


def test_sobol_points_stay_strictly_inside():
    # the extreme integers 0 and 2^32 - 1 map to 2^-33 and 1 - 2^-33, so ndtri is finite
    V, _ = boundary._sobol_generator(3, None)
    for shift in (np.zeros(3, dtype=np.int64), np.full(3, 2 ** boundary.SOBOL_BITS - 1)):
        x = boundary._sobol_block(V, shift, 0, 64)
        assert np.all((x > 0) & (x < 1))
        assert np.all(np.isfinite(boundary.ndtri(x)))
    rule = boundary.stiefel_rule(structure_data(3, 1), 2 ** 16, seed=47)
    assert np.all(np.isfinite(rule.nodes))


def test_ndtri_matches_scipy():
    # the grid k 2^-20 and the extreme Sobol points 2^-33, 1 - 2^-33; the
    # largest measured error relative to scipy.special.ndtri is 1.05e-15
    p = np.concatenate([np.arange(1, 2 ** 20) * 2.0 ** -20, [2.0 ** -33, 1 - 2.0 ** -33]])
    want = scipy.special.ndtri(p)
    z = boundary.ndtri(p)
    assert np.all(np.abs(z - want) <= 4e-15 * np.abs(want))
    # in place, as stiefel_rule calls it, on a 2-D block
    x = p[: 3 * 2 ** 18].reshape(-1, 12).copy()
    assert boundary.ndtri(x, out=x) is x
    assert np.array_equal(x, z[: 3 * 2 ** 18].reshape(-1, 12))
    # and into an out of any layout, in chunks of NDTRI_CHUNK
    y = np.empty((2 * boundary.NDTRI_CHUNK + 5, 2))[:, 1]
    assert boundary.ndtri(p[: len(y)], out=y) is y
    assert np.array_equal(y, z[: len(y)])


def _unblocked_sobol_stiefel(sd, samples, seed):
    """The whole-stack construction: each point from its Gray code, one QR."""
    V, shift = boundary._sobol_generator(2 * sd.q * sd.r, seed)
    i = np.arange(samples)
    gray = i ^ (i >> 1)
    x = np.repeat(shift[None], samples, axis=0)
    for k in range(boundary.SOBOL_BITS):
        x ^= np.where((gray >> k & 1)[:, None] == 1, V[k], 0)
    z = boundary.ndtri((x + 0.5) * 2.0 ** -boundary.SOBOL_BITS)
    G = (z[:, 0::2] + 1j * z[:, 1::2]).reshape(samples, sd.q, sd.r)
    Q, _ = linalg.qr_unitary(G)
    return np.ascontiguousarray(np.swapaxes(Q, -1, -2).conj())


@pytest.mark.parametrize("seed", [5, 47])
@pytest.mark.parametrize("rb", [(1, 2), (2, 1), (2, 2), (3, 1)])
def test_stiefel_rule_matches_full_qr(rb, seed):
    # the blocked rule reproduces the whole-stack construction bit for bit:
    # one sample, within one block, at a block's end and across blocks
    sd = structure_data(*rb)
    for samples in (1, 3001, _kernels.BLOCK, _kernels.BLOCK + 3, 40000):
        rule = boundary.stiefel_rule(sd, samples=samples, seed=seed)
        assert rule.nodes.flags.c_contiguous
        assert np.array_equal(rule.nodes, _unblocked_sobol_stiefel(sd, samples, seed))


def test_stiefel_rule_rejects_domains_beyond_the_sobol_table():
    # the table covers every battery domain; (3, 2) needs 2qr = 30 coordinates
    assert max(2 * r * (r + b) for r, b in suite.DOMAINS) == len(boundary.SOBOL_DIRECTIONS)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="has 24"):
            boundary.stiefel_rule(structure_data(3, 2), 10 ** 6, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("rb", [(2, 1), (1, 2), (3, 1)])
def test_stiefel_rule_memory_guard(rb):
    # the Gaussian columns live in the nodes' bytes; one block's draw and QR come on top
    sd = structure_data(*rb)
    tracemalloc.start()
    try:
        rule = boundary.stiefel_rule(sd, 10 ** 5, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * rule.nodes.nbytes


@pytest.mark.parametrize("samples", [0, -5, 2.5])
def test_stiefel_rule_rejects_bad_samples(sd21, samples):
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="positive integer"):
            boundary.stiefel_rule(sd21, samples, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("b", [1, 2, 3])
def test_nbar_height_depends_on_abs_x_and_abs_y(b):
    # h1(exp(x, y)) is invariant under M: any O(2b) rotation of x and y -> -y
    sd = structure_data(1, b)
    E = group.nbar_basis(sd)  # E[0]: grade -2, E[1:]: grade -1
    rng = np.random.default_rng(30 + b)

    def h1(x, y):
        A = np.tensordot(x, E[1:], axes=(1, 0)) + y[:, None, None] * E[0]
        return _kernels.h1_batch(np.eye(sd.m) + A + 0.5 * (A @ A), sd.r)

    x = rng.normal(size=(40, 2 * b)) * rng.uniform(0.1, 20.0, size=(40, 1))
    y = rng.normal(size=40) * rng.uniform(0.1, 50.0, size=40)
    O, _ = np.linalg.qr(rng.normal(size=(2 * b, 2 * b)))
    O[:, 0] *= -1.0  # reach the reflections of O(2b) as well
    ref = h1(x, y)
    # h1 = -log det(I - Z Z^H)/2 + ..., and that determinant is ~ exp(-2 h1):
    # its cancellation costs exp(2 h1) ulps (measured <= 1.2e-16 exp(2 h1))
    tol = 1e-14 * np.exp(2.0 * ref)
    assert np.all(np.abs(h1(x @ O.T, y) - ref) <= tol)
    assert np.all(np.abs(h1(x, -y) - ref) <= tol)


def test_heisenberg_chart_calibration():
    for b in (1, 2, 3):
        sd = structure_data(1, b)
        rule = boundary.heisenberg_chart(sd)
        h1v = rule.aux["h1"]
        assert np.all(np.isfinite(h1v)) and np.all(np.isfinite(rule.weights))
        dens = np.exp(-2.0 * sd.n * h1v)
        assert abs(np.dot(rule.weights, dens) - 1.0) < 1e-12
        # nodes are group elements and the cached h1 matches the group one
        J = group.jmatrix(sd)
        for i in (0, len(rule) // 2, len(rule) - 1):
            g = rule.nodes[i]
            scale = max(1.0, np.linalg.norm(g) ** 2)
            assert np.max(np.abs(g.conj().T @ J @ g - J)) < 1e-12 * scale
            assert abs(group.h1_scalar(g, sd) - h1v[i]) < 1e-10


@pytest.mark.parametrize("b", [1, 2, 3])
def test_heisenberg_chart_heights_stay_finite_at_256_per_axis(monkeypatch, b):
    # the outermost nodes of a 256-per-axis chart lie far enough out that
    # log det(I - Z Z^H) cancelled there (32 NaN and 4 inf at each of b = 1, 2, 3)
    monkeypatch.setattr(boundary, "CHART_NODES_PER_AXIS", 256)
    rule = boundary.heisenberg_chart(structure_data(1, b))
    assert len(rule) == 256 ** 2
    assert np.all(np.isfinite(rule.aux["h1"])) and np.all(np.isfinite(rule.weights))


def test_heisenberg_chart_is_rank_one(sd21):
    with pytest.raises(DomainError, match="rank-one only"):
        boundary.heisenberg_chart(sd21)


def test_heisenberg_chart_pushforward(sd11):
    # weights * exp(-2n h1) push boundary images to the uniform K-measure; the
    # chart integrates functions of (|x|, |y|) only, so only M-invariant
    # moments, those of |U_1|, are tested
    rule = boundary.heisenberg_chart(sd11)
    # boundary images kappa(nbar).U0 = nbar.U0 = (A U0 + B)(C U0 + D)^-1
    g, r = rule.nodes, sd11.r
    U0 = group.base_point(sd11)
    AU = np.einsum("nij,jq->niq", g[:, :r, :r], U0) + g[:, :r, r:]
    CU = np.einsum("npj,jq->npq", g[:, r:, :r], U0) + g[:, r:, r:]
    img = np.swapaxes(np.linalg.solve(np.swapaxes(CU, -1, -2), np.swapaxes(AU, -1, -2)), -1, -2)
    w = rule.weights * np.exp(-2.0 * sd11.n * rule.aux["h1"])
    m2 = np.dot(w, np.abs(img[:, 0, 0]) ** 2).real
    m4 = np.dot(w, np.abs(img[:, 0, 0]) ** 4).real
    assert abs(m2 - 0.5) < 1e-3
    assert abs(m4 - 1.0 / 3.0) < 1e-3


@pytest.mark.parametrize("b", [1, 2, 3])
def test_heisenberg_chart_cs_matches_gamma_product(b):
    sd = structure_data(1, b)
    chart = boundary.heisenberg_chart(sd)
    for s in (1.5, 2.0, 2.5, 3.0 + 0.5j):
        sp = spectral_param(s, sd)
        gk = poisson.c_s(sp)
        assert abs(poisson._cs_direct(sp, chart) - gk) <= 1e-6 * abs(gk), s


@pytest.mark.parametrize("s", [1.5, 4.0])
def test_heisenberg_chart_domination_at_b2(sd12, s):
    # the L^1 majorant holds on the chart beyond b = 1, on both branches
    rep = fatou.domination_check(spectral_param(s, sd12), (0.5, 1.0, 2.0, 4.0),
                                 boundary.heisenberg_chart(sd12))
    assert rep.ok and rep.violations == [0, 0, 0, 0]
    assert rep.branch == ("small-s" if s < sd12.b + 1 else "large-s")


@pytest.mark.parametrize("build", [
    lambda sd: boundary.sphere_rule(sd, level=-1),
    lambda sd: boundary.disk_rule(sd, level=-1),
], ids=["sphere-level", "disk-level"])
def test_rules_reject_negative_level(sd11, build):
    # a negative level once built an empty rule that integrated everything to 0
    with pytest.raises(DomainError):
        build(sd11)
