"""Quadrature rules: exactness, calibration, and cross-consistency."""

import math
import tracemalloc

import numpy as np
import pytest

from matrixball import boundary, group
from matrixball.errors import DomainError
from matrixball.structure import structure_data


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
    # Haar moment E|U_11|^2 = 1/q with a Monte Carlo error bar
    m = np.dot(rule.weights, np.abs(U[:, 0, 0]) ** 2).real
    assert abs(m - 1.0 / 3.0) < 8 * rule.estimated_accuracy


def test_heisenberg_chart_calibration(sd11):
    rule = boundary.heisenberg_chart(sd11, grid=2)
    h1v = rule.aux["h1"]
    dens = np.exp(-2.0 * sd11.n * h1v)
    assert abs(np.dot(rule.weights, dens) - 1.0) < 1e-12
    # nodes are group elements and the cached h1 matches the group one
    J = group.jmatrix(sd11)
    for i in (0, len(rule) // 2, len(rule) - 1):
        g = rule.nodes[i]
        scale = max(1.0, np.linalg.norm(g) ** 2)
        assert np.max(np.abs(g.conj().T @ J @ g - J)) < 1e-12 * scale
        assert abs(group.h1_scalar(g, sd11) - h1v[i]) < 1e-10
    assert rule.estimated_accuracy < 1e-4


def test_heisenberg_chart_size_guard(sd12):
    # 28^5 = 1.7e7 nodes at b = 2 and grid 2: refused before any grid exists
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="exceeds the cap"):
            boundary.heisenberg_chart(sd12, grid=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_heisenberg_chart_pushforward(sd11):
    # weights * exp(-2n h1) push boundary images to the uniform K-measure
    rule = boundary.heisenberg_chart(sd11, grid=2)
    img = rule.aux["boundary"]
    w = rule.weights * np.exp(-2.0 * sd11.n * rule.aux["h1"])
    m2 = np.dot(w, np.abs(img[:, 0, 0]) ** 2).real
    m4 = np.dot(w, np.abs(img[:, 0, 0]) ** 4).real
    assert abs(m2 - 0.5) < 1e-3
    assert abs(m4 - 1.0 / 3.0) < 1e-3
    assert abs(np.dot(w, img[:, 0, 0] * np.conj(img[:, 0, 1]))) < 1e-12


def test_integrate_helper(sd11):
    rule = boundary.sphere_rule(sd11, level=4)
    vals = np.abs(rule.nodes[:, 0, 0]) ** 2
    assert abs(boundary.integrate(rule, vals) - 0.5) < 1e-12
    assert abs(boundary.integrate(rule, lambda U: np.abs(U[:, 0, 0]) ** 2) - 0.5) < 1e-12
