"""Acceptance battery: the twelve numbered checks behind the test suite and CLI.

Each criterion_* function runs one self-contained numerical experiment at a
fixed tolerance and returns a CriterionResult. The "full" profile is the
authoritative configuration; "quick" shrinks sample counts for smoke runs and
for the determinism re-run check, exercising the same code paths.

Criteria 1, 2 and 4-11 keep their body in a check_* function that takes the
domain, the s values, the sizes and the criterion seed (sub-seeds are derived
inside), and returns a plain (worst, passed, details) tuple. Every pass rule
and tolerance is stated there; criterion_* pins the sizes per profile and
loops over domains, and the mirrored CLI subcommands call the same checks
with their flags.

Wall-clock time is recorded on the result object and printed by callers, but
it is never serialized into artifacts: criterion 12 requires byte-identical
outputs across reruns.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__, _kernels, boundary, fatou, group, hua, ktypes, poisson
from .errors import ConvergenceError, DomainError
from .structure import restricted_roots, spectral_param, structure_data

DOMAINS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))

# Tolerances that a criterion reports and its check function applies.
COCYCLE_TOL = 1e-9
KERNEL_FORM_TOL = 1e-9
HUA_TOL = 1e-4
THIRD_ORDER_TOL = 1e-2
CS_TOL = 1e-3
FATOU_TOL = 1e-2
SCHUR_TOL = 1e-3
INVERSION_TOL = 5e-2


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    worst: float
    tol: float
    budget_s: float
    elapsed_s: float = 0.0
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return "criterion %2d %-22s %s  worst %.3e (tol %.1e)  [%.1fs]" % (
            self.index, self.name, status, self.worst, self.tol, self.elapsed_s)


def _sanitize(obj):
    """Make details JSON-serializable deterministically."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _require_rank_one(sd, index: int):
    """Criteria 9-11 run on rank one only; say so before any rule is built."""
    if sd.r != 1:
        raise DomainError("criterion %d's check is rank-one only, got r = %d" % (index, sd.r))


def _per_domain(check, domains, *args):
    """check(sd, *args) on each (r, b): the largest worst, whether all passed, details by domain."""
    outs = [check(structure_data(*rb), *args) for rb in domains]
    details = {"r%d_b%d" % rb: out[2] for rb, out in zip(domains, outs)}
    return max(out[0] for out in outs), all(out[1] for out in outs), details


# ---------------------------------------------------------------------------
# 1. restricted roots by brute force
# ---------------------------------------------------------------------------

def check_structure(sd):
    """Criterion 1 on one domain: brute-force restricted roots against the expected
    multiplicities, and n = r(r + b). worst is 0 on a match, 1 otherwise."""
    roots = restricted_roots(sd)  # raises on any internal mismatch
    expect = {}
    for j in range(1, sd.r + 1):
        expect["beta_%d" % j] = 1
        expect["beta_%d/2" % j] = 2 * sd.b
        for k in range(j + 1, sd.r + 1):
            expect["(beta_%d-beta_%d)/2" % (j, k)] = sd.a
            expect["(beta_%d+beta_%d)/2" % (j, k)] = sd.a
    match = roots == expect and sd.n == sd.r * (sd.r + sd.b)
    return 0.0 if match else 1.0, match, {"roots": roots, "n": sd.n, "match": match}


def criterion_structure(seed: int = 7, profile: str = "full") -> CriterionResult:
    worst, ok, details = _per_domain(check_structure, DOMAINS)
    return CriterionResult(1, "structure-roots", ok, worst, 0.0, 1.0, details=details)


# ---------------------------------------------------------------------------
# 2. cocycle identity and the conjugation contraction inequality
# ---------------------------------------------------------------------------

def cocycle_battery(sd, pairs: int, contraction_samples: int, seed: int) -> dict:
    """Residuals of h1(x kappa(y)) = h1(xy) - h1(y) plus the contraction count."""
    xy = group.random_group_element(seed + np.arange(2 * pairs), 0.7, sd)
    x, y = xy[0::2], xy[1::2]
    ky = group.kappa_factor(y, sd)
    lhs = _kernels.h1_batch(x @ ky, sd.r)
    rhs = _kernels.h1_batch(x @ y, sd.r) - _kernels.h1_batch(y, sd.r)
    worst = float(np.max(np.abs(lhs - rhs), initial=0.0))

    E = group.nbar_basis(sd)
    rng = np.random.default_rng(seed + 10 ** 6)
    coords = rng.normal(scale=1.5, size=(contraction_samples, len(E)))
    A = np.tensordot(coords, E, axes=(1, 0))
    nbar = np.eye(sd.m) + A + 0.5 * (A @ A)  # exact: the algebra is 2-step
    ts = rng.uniform(0.1, 4.0, size=contraction_samples)
    h_base = _kernels.h1_batch(nbar, sd.r)
    h_conj = _kernels.h1_batch(group.radial(ts, sd) @ nbar @ group.radial(-ts, sd), sd.r)
    violations = int(np.count_nonzero(h_conj > h_base + 1e-10))
    return {"cocycle_worst": worst, "violations": violations,
            "contraction_min_gap": float(np.min(h_base - h_conj))}


def check_cocycle(sd, pairs: int, seed: int, tol: float = COCYCLE_TOL):
    """Criterion 2 on one domain: the cocycle identity at `pairs` pairs and the
    contraction inequality at 5 * pairs samples, with no violation allowed."""
    out = cocycle_battery(sd, pairs, 5 * pairs, seed)
    worst = out["cocycle_worst"]
    return worst, worst <= tol and out["violations"] == 0, out


def criterion_cocycle(seed: int = 7, profile: str = "full") -> CriterionResult:
    pairs = 200 if profile == "full" else 20
    domains = DOMAINS if profile == "full" else ((1, 1), (2, 1))
    worst, ok, details = _per_domain(check_cocycle, domains, pairs, seed)
    details["total_violations"] = sum(d["violations"] for d in details.values())
    return CriterionResult(2, "cocycle-suite", ok, worst, COCYCLE_TOL, 10.0, details=details)


# ---------------------------------------------------------------------------
# 3. kernel determinant form vs horospherical form
# ---------------------------------------------------------------------------

def kernel_form_battery(sd, n_pairs: int, seed: int, s_values=(2.0, 3.0 + 0.5j)) -> float:
    sps = [spectral_param(s, sd) for s in s_values]
    Z0 = np.zeros((sd.r, sd.q), dtype=np.complex128)
    U0 = group.base_point(sd)
    rng = np.random.default_rng(seed + 31)
    g = group.random_group_element(seed + 3 * np.arange(n_pairs), 0.6, sd)
    Ar = np.empty((n_pairs, sd.r, sd.r), dtype=np.complex128)
    Dr = np.empty((n_pairs, sd.q, sd.q), dtype=np.complex128)
    for i in range(n_pairs):  # one shared stream, drawn in the per-sample order
        Ar[i] = rng.normal(size=(sd.r, sd.r)) + 1j * rng.normal(size=(sd.r, sd.r))
        Dr[i] = rng.normal(size=(sd.q, sd.q)) + 1j * rng.normal(size=(sd.q, sd.q))
    kt = np.zeros((n_pairs, sd.m, sd.m), dtype=np.complex128)
    kt[:, : sd.r, : sd.r] = np.linalg.qr(Ar)[0]
    kt[:, sd.r :, sd.r :] = np.linalg.qr(Dr)[0]
    # land in SU(m); the phase is a scalar per element, as array angle/exp round differently
    kt *= np.array([np.exp(-1j * np.angle(d) / sd.m) for d in np.linalg.det(kt)])[:, None, None]
    Z = group.mobius(g, Z0)
    U = group.mobius(kt, U0)
    hval = _kernels.h1_batch(group.group_inverse(g, sd) @ kt, sd.r)
    lhs = [poisson.kernel(sp, Z, U) for sp in sps]
    rhs = [np.exp(-(sp.s * sd.r + sd.n) * hval) for sp in sps]
    worst = 0.0
    for i in range(n_pairs):  # scalar relative errors: the array abs rounds differently
        for a, b in zip(lhs, rhs):
            worst = max(worst, abs(a[i] - b[i]) / abs(b[i]))
    return worst


def criterion_kernel_form(seed: int = 7, profile: str = "full") -> CriterionResult:
    n_pairs = 300 if profile == "full" else 30
    domains = DOMAINS if profile == "full" else ((1, 1), (2, 1))
    outs = [kernel_form_battery(structure_data(*rb), n_pairs, seed) for rb in domains]
    details = {"r%d_b%d" % rb: {"worst_rel_err": w} for rb, w in zip(domains, outs)}
    worst = max(outs)
    return CriterionResult(3, "kernel-form", worst <= KERNEL_FORM_TOL, worst, KERNEL_FORM_TOL,
                           10.0, details=details)


# ---------------------------------------------------------------------------
# 4. Hua eigenvalue equation
# ---------------------------------------------------------------------------

def check_hua(sd, s_values, n_pts: int, seed: int, tol: float = HUA_TOL):
    """Criterion 4 on one domain: H K_s = (1/4)(s^2 - (r+b)^2) K_s I_r.

    The residual is taken at n_pts seeded (g, U) pairs shared by every s;
    worst is the largest. H K_s must also vanish (within 1e-5) at the
    harmonic point s = r + b.
    """
    pairs = hua._sample_pairs(sd, n_pts, seed)
    sps = [spectral_param(s, sd) for s in s_values] + [spectral_param(float(sd.r + sd.b), sd)]
    *rows, zero_row = hua.eigen_residuals(sps, pairs, hua.hua_basis(sd))
    details = {"s_%s" % s: {"residuals": res, "max": max(res)} for s, res in zip(s_values, rows)}
    worst = max([0.0] + [max(res) for res in rows])
    details["harmonic_zero_residual"] = max(zero_row)
    ok = worst <= tol and max(zero_row) <= 1e-5
    return worst, ok, details


def criterion_hua(seed: int = 7, profile: str = "full") -> CriterionResult:
    domains = ((1, 1), (2, 1)) if profile == "full" else ((1, 1),)
    s_values = (2.0, 3.0, 4.0 + 1.0j) if profile == "full" else (2.0,)
    n_pts = 5 if profile == "full" else 2
    worst, ok, details = _per_domain(check_hua, domains, s_values, n_pts, seed)
    if profile == "full":
        sd = structure_data(1, 1)
        slope = hua.measure_fd_order(spectral_param(2.0, sd), hua.hua_basis(sd),
                                     order=4, seed=seed + 23)
        details["fd_slope_order4"] = slope
        ok = ok and abs(slope - 4.0) <= 0.3
    return CriterionResult(4, "hua-eigenvalue", ok, worst, HUA_TOL, 300.0, details=details)


# ---------------------------------------------------------------------------
# 5. third-order ratio
# ---------------------------------------------------------------------------

THIRD_ORDER_S = (2.4, 2.8, 3.2, 3.6, 4.4, 4.8, 5.2, 5.6, 6.0, 6.4)


def check_third_order(sd, s_values, samples: int, seed: int, tol_cv: float = THIRD_ORDER_TOL):
    """Criterion 5 on one domain: the U/W ratio is constant per s (worst CV) and
    its fitted c is within 2% of 2(n + 1)."""
    rep = hua.third_order_ratio([spectral_param(s, sd) for s in s_values],
                                samples=samples, seed=seed + 70)
    cv_worst = float(np.max(rep.cvs))
    details = {
        "s_values": list(s_values),
        "cvs": rep.cvs,
        "ratios": rep.ratios,
        "c_fit": rep.c_fit,
        "c_expected": rep.c_expected,
        "c_rel_err": rep.c_rel_err,
        "p_fit": rep.p_fit,
        "p_denominator": rep.p_denominator,
        "genus_candidate": rep.genus_candidate,
        "fit_residual": rep.fit_residual,
    }
    return cv_worst, cv_worst <= tol_cv and rep.c_rel_err <= 0.02, details


def criterion_third_order(seed: int = 7, profile: str = "full") -> CriterionResult:
    if profile == "full":
        s_list, samples = THIRD_ORDER_S, 10
    else:
        s_list, samples = (2.4, 3.2, 4.4, 5.2), 3
    worst, ok, details = check_third_order(structure_data(1, 1), s_list, samples, seed)
    return CriterionResult(5, "third-order-ratio", ok, worst, THIRD_ORDER_TOL, 600.0,
                           details=details)


# ---------------------------------------------------------------------------
# 6. c_s by three routes
# ---------------------------------------------------------------------------

def check_cs(sd, s_values, samples: int, seed: int, tol: float | None = None):
    """Criterion 6 on one domain: c_s by every route that applies, per s.

    Rank one compares the closed form, the Fatou limit and the integral over
    the fixed Heisenberg chart (built once for every s) within 1e-3; worst is
    the largest pairwise relative error. Higher rank compares the closed form
    with the Fatou limit on a Stiefel rule of `samples` nodes (seed + 40)
    within 1e-2. The Fatou limits of every s come from one radial pass.
    """
    sps = [spectral_param(s, sd) for s in s_values]
    for sp in sps:  # an inadmissible s fails before the chart or rule is built
        poisson._require_admissible(sp)
    details = {}
    errs = []
    # one rule (the default disk rule at rank one) and one radial pass for every s
    rule = None if sd.r == 1 else boundary.stiefel_rule(sd, samples=samples, seed=seed + 40)
    fats = poisson._cs_fatou(sps, rule=rule)
    if sd.r == 1:
        chart = boundary.heisenberg_chart(sd)
        for s, sp, fat in zip(s_values, sps, fats):
            rep = poisson._cs_report(sp, fat, chart)
            details["s_%s" % s] = {
                "gk": rep.cs_gk, "fatou": rep.cs_fatou, "direct": rep.cs_direct,
                "max_pairwise_rel_err": rep.max_pairwise_rel_err,
            }
            errs.append(rep.max_pairwise_rel_err)
    else:
        for s, sp, fat in zip(s_values, sps, fats):
            gk = poisson.c_s(sp, method="gk")
            errs.append(abs(gk - fat) / abs(gk))
            details["s_%s" % s] = {"gk": gk, "fatou": fat, "rel_err": errs[-1],
                                   "samples": samples}
    tol = (CS_TOL if sd.r == 1 else 1e-2) if tol is None else tol
    return max([0.0] + errs), all(e <= tol for e in errs), details


def criterion_cs(seed: int = 7, profile: str = "full") -> CriterionResult:
    s_values = (1.5, 2.0, 2.5, 3.0 + 0.5j) if profile == "full" else (2.0,)
    samples = 10 ** 6 if profile == "full" else 2 * 10 ** 5
    # the rank-one chart is freed before the Stiefel rule, which sets the peak memory
    worst, ok, one = check_cs(structure_data(1, 1), s_values, samples, seed)
    _, ok2, two = check_cs(structure_data(2, 1), (4,), samples, seed)
    details = {"r1_b1_" + k: v for k, v in one.items()}
    details.update({"r2_b1_" + k: v for k, v in two.items()})
    return CriterionResult(6, "cs-triple", ok and ok2, worst, CS_TOL, 300.0, details=details)


# ---------------------------------------------------------------------------
# 7. Fatou boundary recovery plus the inadmissible negative control
# ---------------------------------------------------------------------------

def trace_affine(sd, seed: int) -> Callable:
    """Seeded boundary function 1 + tr(U C) + conj(tr(U C))/4, any rank.

    C is a complex q x r matrix of unit Frobenius norm drawn from the seed.
    """
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(sd.q, sd.r)) + 1j * rng.normal(size=(sd.q, sd.r))
    C /= np.linalg.norm(C)
    # x = the r^2 entries of U C; the monomials of degree <= 1 are 1, x_0, x_1, ...
    G = np.zeros((1 + sd.r**2, 1 + sd.r**2), dtype=np.complex128)
    G[0, 0] = 1.0
    diagonal = 1 + (sd.r + 1) * np.arange(sd.r)
    G[diagonal, 0] = 1.0
    G[0, diagonal] = 0.25
    return poisson.PolynomialForm(C[None], G[None], (1, 1)).evaluator()


def check_fatou(sd, s, size: int, t_grid, seed: int, p: float = 2.0,
                tol: float | None = None):
    """Criterion 7's recovery on one domain: the transform's boundary limit is f.

    Rank one takes a band-limited f (seed + 90) at every node of a level-`size`
    sphere rule, and worst is the sup error (within 1e-2). Higher rank takes
    trace_affine (seed + 92) at the first 160 nodes of a `size`-node Stiefel
    rule (seed + 91), and worst is the L^p error (within 5e-2). Every node's
    radial profile must converge.
    """
    sp = spectral_param(s, sd)
    if sd.r == 1:
        rule = boundary.sphere_rule(sd, level=size)
        f = ktypes.random_band_limited(sd, seed=seed + 90, max_p=2, max_q=2, translates=1)
        nodes, default_tol = rule.nodes, FATOU_TOL
    else:
        rule = boundary.stiefel_rule(sd, samples=size, seed=seed + 91)
        f = trace_affine(sd, seed + 92)
        nodes, default_tol = rule.nodes[:160], 5e-2
    prof = fatou.radial_profile(sp, f, nodes, t_grid, rule)
    rep = fatou.boundary_limit(sp, prof, reference=f, p=p, rule=rule)
    worst = rep.sup_err if sd.r == 1 else rep.lp_err
    tol = default_tol if tol is None else tol
    details = {"sup_err": rep.sup_err, "l%g_err" % p: rep.lp_err,
               "t_max": float(t_grid[-1]), "nodes": len(nodes)}
    return worst, bool(np.all(rep.converged)) and worst <= tol, details


def criterion_fatou(seed: int = 7, profile: str = "full") -> CriterionResult:
    level, t_max = (6, 6.0) if profile == "full" else (5, 5.0)
    worst, ok, d1 = check_fatou(structure_data(1, 1), 2.5, level,
                                np.arange(0.0, t_max + 1e-9, 0.5), seed)
    details = {"r1_b1": d1}

    # negative control: inadmissible s must be reported as non-convergent
    sp_bad = spectral_param(-0.5, structure_data(1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zprof = fatou.zonal_profile(sp_bad, np.arange(0.0, 8.01, 0.5))
    try:
        fatou.boundary_limit(sp_bad, zprof)
        control = False
    except ConvergenceError as exc:
        control = True
        details["negative_control"] = {"reported": str(exc)[:120]}
    ok = ok and control

    if profile == "full":
        worst2, ok2, details["r2_b1"] = check_fatou(structure_data(2, 1), 4.0, 10 ** 5,
                                                    np.arange(0.0, 4.01, 0.5), seed)
        ok = ok and ok2
        worst = max(worst, worst2)
    return CriterionResult(7, "fatou-recovery", ok, worst, FATOU_TOL, 600.0, details=details)


# ---------------------------------------------------------------------------
# 8. L1 domination of the renormalized kernel family
# ---------------------------------------------------------------------------

def check_domination(sd, s_values, t_list):
    """Criterion 8 on one domain: |Psi_t| <= Phi at every t on the Heisenberg
    chart (which must have at least 1000 nodes), and Phi in L^1; the heights
    are shared across s. worst is the largest excess of Psi_t over Phi."""
    chart = boundary.heisenberg_chart(sd)
    details = {"chart_nodes": len(chart)}
    ok = len(chart) >= 1000
    worst = 0.0
    reps = fatou.domination_check([spectral_param(s, sd) for s in s_values], t_list, chart)
    for s, rep in zip(s_values, reps):
        details["s_%s" % s] = {
            "branch": rep.branch, "violations": rep.violations,
            "max_excess": rep.max_excess, "phi_integral": rep.phi_integral,
        }
        ok = ok and rep.ok
        worst = max(worst, rep.max_excess)
    return worst, ok, details


def criterion_domination(seed: int = 7, profile: str = "full") -> CriterionResult:
    worst, ok, details = check_domination(structure_data(1, 1), (1.5, 3.0),
                                          (0.5, 1.0, 2.0, 4.0))
    return CriterionResult(8, "domination", ok, worst, 1e-10, 60.0, details=details)


# ---------------------------------------------------------------------------
# 9. norm sandwich
# ---------------------------------------------------------------------------

def check_sandwich(sd, s_values, p_list, n_f: int, level: int, t_grid, seed: int):
    """Criterion 9 on one rank-one domain: |c_s| ||f||_p <= ||P_s f||_Hp <= gamma_s ||f||_p
    for n_f band-limited f (seed + 500 + 7j) on a level-`level` sphere rule.

    The lifted values are shared across p. worst is the largest ratio of a
    bound's left side to its right side, minus 1; each bound allows the relative
    slack fatou.SANDWICH_SLACK (2%).
    """
    _require_rank_one(sd, 9)
    rule = boundary.sphere_rule(sd, level=level)
    fs = [ktypes.random_band_limited(sd, seed=seed + 500 + 7 * j, max_p=2, max_q=2,
                                     translates=1) for j in range(n_f)]
    details = {}
    ok = True
    worst = 0.0
    for s in s_values:
        for rep in fatou.norm_sandwich(spectral_param(s, sd), p_list, fs, t_grid, rule):
            lo = np.asarray(rep.f_norms) * rep.cs_abs / np.asarray(rep.hardy_norms)
            hi = np.asarray(rep.hardy_norms) / (rep.gamma * np.asarray(rep.f_norms))
            slack_used = float(max(np.max(lo), np.max(hi)) - 1.0)
            details["s_%s_p_%s" % (s, rep.p)] = {
                "all_ok": rep.all_ok, "gamma": rep.gamma, "cs_abs": rep.cs_abs,
                "max_slack_used": slack_used,
            }
            ok = ok and rep.all_ok
            worst = max(worst, slack_used)
    return worst, ok, details


def criterion_sandwich(seed: int = 7, profile: str = "full") -> CriterionResult:
    full = profile == "full"
    worst, ok, details = check_sandwich(
        structure_data(1, 1), (2.0, 2.5) if full else (2.0,),
        (1.5, 2.0, 4.0) if full else (2.0,), 20 if full else 2, 6,
        np.linspace(0.0, 5.0, 6), seed)
    return CriterionResult(9, "norm-sandwich", ok, worst, fatou.SANDWICH_SLACK, 300.0,
                           details=details)


# ---------------------------------------------------------------------------
# 10. Schur diagonality and the coefficient form of the Hardy norm
# ---------------------------------------------------------------------------

def check_schur(sd, s, max_pq: int, level: int, seed: int, tol_cv: float = SCHUR_TOL):
    """Criterion 10 on one rank-one domain, on a level-`level` sphere rule.

    P_s f / f is constant (worst CV) and equal to Phi_{s,delta} for a translated
    zonal f of every K-type up to (max_pq, max_pq) (seed + 11 + i). The Hardy
    norm of a random combination (seed + 1000) computed from its coefficients
    matches the direct quadrature norm within 1e-2.
    """
    _require_rank_one(sd, 10)
    rule = boundary.sphere_rule(sd, level=level)
    sp = spectral_param(s, sd)
    deltas = ktypes.ktype_range(max_pq, max_pq)
    details = {}
    worst_cv = 0.0
    ok = True
    for i, d in enumerate(deltas):
        rep = ktypes.schur_diagonality(sp, d, 1.0, rule.nodes, rule, seed=seed + 11 + i)
        worst_cv = max(worst_cv, rep.cv)
        ok = ok and rep.cv <= tol_cv and rep.ratio_matches_phi
        details["delta_%d_%d" % (d.p, d.q)] = {
            "cv": rep.cv, "ratio": rep.ratio_mean, "phi": rep.phi_reference,
        }
    # coefficient-based Hardy norm vs the direct quadrature norm
    rng = np.random.default_rng(seed + 1000)
    coeffs = {d: complex(rng.normal(), rng.normal()) for d in deltas}
    norm = np.sqrt(sum(abs(a) ** 2 for a in coeffs.values()))
    coeffs = {d: a / norm for d, a in coeffs.items()}
    f = ktypes.band_limited(coeffs, sd)
    t_grid = np.linspace(0.0, 5.0, 6)
    growth = float(np.real(sp.growth))
    profiles = {d: ktypes.spherical_profile(sp, d, t_grid, rule).values for d in deltas}
    slice_sq = np.zeros(len(t_grid))
    for d, a in coeffs.items():
        slice_sq += abs(a) ** 2 * np.abs(profiles[d]) ** 2
    hn_coeff = float(np.max(np.exp(-growth * t_grid) * np.sqrt(slice_sq)))
    hn_direct = poisson.hardy_norm(sp, f, 2.0, t_grid, rule)
    rel = abs(hn_coeff - hn_direct) / hn_direct
    details["hardy_norm"] = {"coefficient_form": hn_coeff, "direct": hn_direct,
                             "rel_err": rel}
    return worst_cv, ok and rel <= 1e-2, details


def criterion_schur_l2(seed: int = 7, profile: str = "full") -> CriterionResult:
    worst, ok, details = check_schur(structure_data(1, 1), 2.5,
                                     3 if profile == "full" else 2, 6, seed)
    return CriterionResult(10, "schur-l2", ok, worst, SCHUR_TOL, 300.0, details=details)


# ---------------------------------------------------------------------------
# 11. L2 inversion round trip
# ---------------------------------------------------------------------------

def check_inversion(sd, s, n_f: int, level: int, t_list, seed: int,
                    tol: float = INVERSION_TOL):
    """Criterion 11 on one rank-one domain: invert_l2 recovers each of n_f
    band-limited f (seed + 300 + k) from its transform at every t of t_list,
    read from one transform_radial call over t_list.

    The relative L^2 error must fall strictly with t and end within tol;
    worst is the largest final error.
    """
    _require_rank_one(sd, 11)
    rule = boundary.sphere_rule(sd, level=level)
    sp = spectral_param(s, sd)
    details = {}
    ok = True
    worst = 0.0
    for k in range(n_f):
        f = ktypes.random_band_limited(sd, seed=seed + 300 + k, max_p=2, max_q=2,
                                       translates=1)
        lift = poisson.transform_radial(sp, f, rule.nodes, t_list, rule)
        fv = f(rule.nodes)
        fn = float(np.sqrt(np.sum(rule.weights * np.abs(fv) ** 2)))
        errs = []
        for j, t in enumerate(t_list):
            gv = fatou.invert_l2(sp, lift[:, j], t, rule)
            errs.append(float(np.sqrt(np.sum(rule.weights * np.abs(gv - fv) ** 2)) / fn))
        decreasing = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
        details["f_%d" % k] = {"errors": errs, "decreasing": decreasing}
        ok = ok and decreasing and errs[-1] <= tol
        worst = max(worst, errs[-1])
    return worst, ok, details


def criterion_inversion(seed: int = 7, profile: str = "full") -> CriterionResult:
    full = profile == "full"
    worst, ok, details = check_inversion(structure_data(1, 1), 2.0, 5 if full else 1,
                                         6 if full else 5,
                                         (3.0, 4.0, 5.0) if full else (3.0, 4.0), seed)
    return CriterionResult(11, "inversion-roundtrip", ok, worst, INVERSION_TOL, 300.0,
                           details=details)


# ---------------------------------------------------------------------------
# 12. determinism of the suite artifacts
# ---------------------------------------------------------------------------

def _run_suite_subprocess(seed: int, criteria: str, workdir: str) -> dict:
    """Run the quick suite in workdir with --out run; sha256 of each artifact by name.

    The relative --out keeps workdir's path out of the artifacts' recorded
    config, so the digests of runs from different directories can be compared.
    """
    cmd = [sys.executable, "-m", "matrixball", "suite", "--profile", "quick",
           "--seed", str(seed), "--criteria", criteria, "--out", "run"]
    env = dict(os.environ)
    # the child starts in workdir, where a relative PYTHONPATH entry would not resolve
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_parent] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=workdir)
    if proc.returncode not in (0, 1):
        raise RuntimeError("suite subprocess failed (%d): %s" % (proc.returncode,
                                                                 proc.stderr[-500:]))
    out_dir = os.path.join(workdir, "run")
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def criterion_determinism(seed: int = 7, profile: str = "full") -> CriterionResult:
    criteria = "1,2,3,6,8" if profile == "full" else "1,3,8"
    with tempfile.TemporaryDirectory() as tmp:  # identical command, run twice
        d1 = _run_suite_subprocess(seed, criteria, tmp)
        d2 = _run_suite_subprocess(seed, criteria, tmp)
    same = d1 == d2 and len(d1) > 0
    details = {"criteria_rerun": criteria, "files": sorted(d1),
               "digests_run1": d1, "digests_run2": d2}
    return CriterionResult(12, "determinism", same, 0.0 if same else 1.0, 0.0, 2700.0,
                           details=details)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

CRITERIA = {
    1: criterion_structure,
    2: criterion_cocycle,
    3: criterion_kernel_form,
    4: criterion_hua,
    5: criterion_third_order,
    6: criterion_cs,
    7: criterion_fatou,
    8: criterion_domination,
    9: criterion_sandwich,
    10: criterion_schur_l2,
    11: criterion_inversion,
    12: criterion_determinism,
}


def run_criterion(index: int, seed: int = 7, profile: str = "full") -> CriterionResult:
    t0 = time.time()
    res = CRITERIA[index](seed=seed, profile=profile)
    res.elapsed_s = time.time() - t0
    return res


def run_all(seed: int = 7, profile: str = "full", criteria=None, log=None):
    """Run the requested criteria in order, returning CriterionResult objects."""
    indices = sorted(criteria) if criteria else sorted(CRITERIA)
    results = []
    for idx in indices:
        res = run_criterion(idx, seed=seed, profile=profile)
        results.append(res)
        if log is not None:
            log(res.line())
    return results


def results_json(results, seed: int, profile: str, config: dict | None = None) -> str:
    payload = {
        "version": __version__,
        "seed": seed,
        "profile": profile,
        "config": _sanitize(config or {}),
        "all_passed": bool(all(r.passed for r in results)),
        "results": [
            {
                "index": r.index,
                "name": r.name,
                "passed": bool(r.passed),
                "worst": float(r.worst),
                "tol": float(r.tol),
                "budget_s": float(r.budget_s),
                "details": _sanitize(r.details),
            }
            for r in results
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def results_csv(results, seed: int, profile: str, config: dict | None = None) -> str:
    lines = [
        "# matrixball %s" % __version__,
        "# config: %s" % json.dumps(_sanitize(config or {}), sort_keys=True),
        "# seed: %d  profile: %s" % (seed, profile),
        "# wall-time: excluded from artifacts so reruns are byte-identical",
        "index,name,passed,worst,tol,budget_s",
    ]
    for r in results:
        lines.append("%d,%s,%d,%r,%r,%r" % (r.index, r.name, int(r.passed),
                                            float(r.worst), float(r.tol),
                                            float(r.budget_s)))
    return "\n".join(lines) + "\n"
