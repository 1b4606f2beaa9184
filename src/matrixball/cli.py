"""Command-line interface: subcommands per module plus the acceptance suite.

Artifacts are CSV (with #-prefixed metadata headers) and JSON (sorted keys),
written atomically via temp file + rename. Identical configuration and seed
produce byte-identical files; wall-clock timings go to stdout only.

Exit codes: 0 success, 1 failed invariant or non-convergence, 2 usage or
precondition error, 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, boundary, fatou, group, hua, ktypes, poisson, suite
from .errors import DegeneracyError, DomainError, MatrixBallError
from .structure import restricted_roots, spectral_param, structure_data


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Resolved run parameters; serialized verbatim into every artifact."""

    r: int = 1
    b: int = 1
    s_re: float = 2.0
    s_im: float = 0.0
    p: float = 2.0
    rule: str | None = None
    level: int = 8
    samples: int | None = None
    seed: int = 7
    t_start: float = 0.0
    t_stop: float = 4.0
    t_step: float = 0.5
    out: str | None = None
    profile: str = "full"
    criteria: str | None = None
    tol_rel: float | None = None
    tol_abs: float | None = None
    tol_cv: float | None = None

    @property
    def s(self) -> complex:
        return complex(self.s_re, self.s_im)

    def t_grid(self) -> np.ndarray:
        if not all(math.isfinite(x) for x in (self.t_start, self.t_stop, self.t_step)):
            raise DomainError("--t-start, --t-stop and --t-step must be finite")
        if self.t_step <= 0:
            raise DomainError("--t-step must be positive")
        return np.arange(self.t_start, self.t_stop + 1e-9, self.t_step)

    def as_dict(self) -> dict:
        return asdict(self)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig defaults, overridden by --config file values, overridden by flags."""
    values = RunConfig().as_dict()
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(values)
        if unknown:
            raise MatrixBallError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        values.update(loaded)
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if values["samples"] is not None and values["samples"] < 1:
        raise DomainError("--samples must be at least 1, got %r" % (values["samples"],))
    for key in ("tol_rel", "tol_abs", "tol_cv"):
        tol = values[key]
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise DomainError("--%s must be positive and finite, got %r" % (key.replace("_", "-"), tol))
    return RunConfig(**values)


def build_rule(cfg: RunConfig, sd):
    kind = cfg.rule or ("sphere" if sd.r == 1 else "stiefel")
    if kind == "sphere":
        return boundary.sphere_rule(sd, level=cfg.level)
    if kind == "disk":
        return boundary.disk_rule(sd, level=cfg.level)
    if kind == "stiefel":
        return boundary.stiefel_rule(sd, samples=cfg.samples or 200000, seed=cfg.seed)
    if kind == "chart":
        return boundary.heisenberg_chart(sd, grid=max(2, cfg.level // 4))
    raise MatrixBallError("unknown rule kind %r" % kind)


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------

def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, ".tmp-%d-%s" % (os.getpid(), os.path.basename(path)))
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def emit_json(cfg: RunConfig, payload: dict, path: str):
    doc = {
        "version": __version__,
        "config": suite._sanitize(cfg.as_dict()),
        "payload": suite._sanitize(payload),
    }
    _write_atomic(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def emit_csv(cfg: RunConfig, header: str, rows, path: str):
    lines = [
        "# matrixball %s" % __version__,
        "# config: %s" % json.dumps(suite._sanitize(cfg.as_dict()), sort_keys=True),
        "# seed: %d" % cfg.seed,
        "# wall-time: excluded from artifacts so reruns are byte-identical",
        header,
    ]
    for row in rows:
        lines.append(",".join("%r" % v if isinstance(v, float) else str(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _out_paths(cfg: RunConfig, stem: str):
    if not cfg.out:
        return None, None
    base = cfg.out
    if base.endswith(os.sep) or os.path.isdir(base):
        base = os.path.join(base, stem)
    return base + ".json", base + ".csv"


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_structure(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    roots = restricted_roots(sd)
    payload = {"r": sd.r, "b": sd.b, "n": sd.n, "a": sd.a, "m": sd.m,
               "harmonic_s": sd.harmonic_s, "roots": roots}
    jp, cp = _out_paths(cfg, "structure")
    if jp:
        emit_json(cfg, payload, jp)
        emit_csv(cfg, "root,multiplicity", sorted(roots.items()), cp)
    print("structure r=%d b=%d: n=%d, a=%d, roots %s" % (sd.r, sd.b, sd.n, sd.a,
                                                         sorted(roots.items())))
    return 0


def cmd_group_selftest(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    pairs = cfg.samples or 200
    out = suite.cocycle_battery(sd, pairs, max(pairs * 5, 1000), cfg.seed)
    tol = 1e-9 if cfg.tol_abs is None else cfg.tol_abs
    ok = out["cocycle_worst"] <= tol and out["violations"] == 0
    jp, _ = _out_paths(cfg, "group-selftest")
    if jp:
        emit_json(cfg, {**out, "passed": ok}, jp)
    print("group selftest r=%d b=%d: cocycle worst %.3e (tol %.1e), "
          "contraction violations %d -> %s"
          % (sd.r, sd.b, out["cocycle_worst"], tol, out["violations"],
             "ok" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_poisson_kernel(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    sp = spectral_param(cfg.s, sd)
    U0 = group.base_point(sd)
    Z0 = np.zeros((sd.r, sd.q), dtype=np.complex128)
    rows, worst = [], 0.0
    for t in cfg.t_grid():
        g = group.radial(float(t), sd)
        Z = group.mobius(g, Z0)
        if not group.is_domain_point(Z):
            # a finite t whose image rounds onto the boundary is a numerical degeneracy
            raise DegeneracyError("a_t . 0 at t = %g rounds onto the boundary of the ball" % t)
        K = poisson.kernel(sp, Z, U0)
        href = np.exp(-(sp.s * sd.r + sd.n) * group.h1_scalar(group.group_inverse(g, sd), sd))
        rel = abs(K - href) / abs(href)
        worst = max(worst, rel)
        rows.append((float(t), float(K.real), float(K.imag), rel))
    jp, cp = _out_paths(cfg, "kernel")
    if cp:
        emit_csv(cfg, "t,kernel_re,kernel_im,horospherical_rel_err", rows, cp)
        emit_json(cfg, {"worst_rel_err": worst, "rows": len(rows)}, jp)
    tol = 1e-9 if cfg.tol_rel is None else cfg.tol_rel
    print("kernel radial check s=%s: %d points, det vs horospherical worst %.3e"
          % (cfg.s, len(rows), worst))
    return 0 if worst <= tol else 1


def cmd_poisson_phi(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    sp = spectral_param(cfg.s, sd)
    rule = build_rule(cfg, sd)
    rows = []
    for t in cfg.t_grid():
        v = poisson.phi_s(sp, float(t), rule)
        ren = v * np.exp(-sp.growth * t)
        rows.append((float(t), float(v.real), float(v.imag), float(abs(ren))))
    jp, cp = _out_paths(cfg, "phi")
    if cp:
        emit_csv(cfg, "t,phi_re,phi_im,renormalized_abs", rows, cp)
    print("phi_s profile s=%s on %d nodes: renormalized last %.6g"
          % (cfg.s, len(rule), rows[-1][3]))
    return 0


def cmd_poisson_cs(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    sp = spectral_param(cfg.s, sd)
    if sd.r == 1:
        rep = poisson.c_s(sp, method="all")
        payload = {"s": sp.s, "gk": rep.cs_gk, "fatou": rep.cs_fatou,
                   "direct": rep.cs_direct,
                   "max_pairwise_rel_err": rep.max_pairwise_rel_err}
        worst = rep.max_pairwise_rel_err
    else:
        rule = boundary.stiefel_rule(sd, samples=cfg.samples or 400000, seed=cfg.seed)
        gk = poisson.c_s(sp, method="gk")
        fat = poisson.c_s(sp, method="fatou", rule=rule)
        worst = abs(gk - fat) / abs(gk)
        payload = {"s": sp.s, "gk": gk, "fatou": fat, "rel_err": worst}
    jp, _ = _out_paths(cfg, "cs")
    if jp:
        emit_json(cfg, payload, jp)
    tol = (1e-3 if sd.r == 1 else 1e-2) if cfg.tol_rel is None else cfg.tol_rel
    print("c_s s=%s: %s, worst rel err %.3e (tol %.1e)"
          % (cfg.s, {k: v for k, v in payload.items() if k != "s"}, worst, tol))
    return 0 if worst <= tol else 1


def cmd_poisson_transform(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    sp = spectral_param(cfg.s, sd)
    rule = build_rule(cfg, sd)
    f = _seeded_function(cfg, sd)
    t_grid = cfg.t_grid()
    vals = poisson.transform_radial(sp, f, group.base_point(sd)[None], t_grid, rule)[0]
    rows = []
    for t, v in zip(t_grid, vals):
        v = complex(v)
        ren = v * np.exp(-sp.growth * t)
        rows.append((float(t), v.real, v.imag, float(abs(ren))))
    jp, cp = _out_paths(cfg, "transform")
    if cp:
        emit_csv(cfg, "t,value_re,value_im,renormalized_abs", rows, cp)
    print("transform of seeded band-limited f along the radial line: %d points, "
          "renormalized last %.6g" % (len(rows), rows[-1][3]))
    return 0


def cmd_poisson_norms(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    sp = spectral_param(cfg.s, sd)
    rule = build_rule(cfg, sd)
    f = _seeded_function(cfg, sd)
    rep = fatou.norm_sandwich(sp, cfg.p, [f], cfg.t_grid(), rule)
    fnorm, hn = rep.f_norms[0], rep.hardy_norms[0]
    payload = {"p": cfg.p, "f_norm": fnorm, "hardy_norm": hn,
               "cs_abs": rep.cs_abs, "gamma": rep.gamma,
               "lower_ok": rep.lower_ok[0], "upper_ok": rep.upper_ok[0]}
    jp, _ = _out_paths(cfg, "norms")
    if jp:
        emit_json(cfg, payload, jp)
    print("norms s=%s p=%g: |c_s|||f||=%.6g <= %.6g <= gamma||f||=%.6g"
          % (cfg.s, cfg.p, rep.cs_abs * fnorm, hn, rep.gamma * fnorm))
    return 0 if rep.all_ok else 1


def cmd_hua_check(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    sp = spectral_param(cfg.s, sd)
    basis = hua.hua_basis(sd)
    pairs = hua._sample_pairs(sd, cfg.samples or 5, cfg.seed)
    res = [hua.eigen_residual(sp, g, U, basis) for g, U in pairs]
    eig = sp.hua_eigenvalue
    payload = {"s": sp.s, "eigenvalue": eig, "residuals": res, "max": max(res)}
    jp, cp = _out_paths(cfg, "hua-check")
    if jp:
        emit_json(cfg, payload, jp)
        emit_csv(cfg, "sample,residual", list(enumerate(res)), cp)
    tol = 1e-4 if cfg.tol_rel is None else cfg.tol_rel
    print("hua check s=%s: eigenvalue %s, max residual %.3e over %d points (tol %.1e)"
          % (cfg.s, eig, max(res), len(res), tol))
    return 0 if max(res) <= tol else 1


def cmd_hua_third_ratio(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    s_list = (2.4, 2.8, 3.2, 3.6, 4.4, 4.8, 5.2, 5.6, 6.0, 6.4)
    sps = [spectral_param(s + (sd.harmonic_s - 2.0), sd) for s in s_list]
    rep = hua.third_order_ratio(sps, samples=cfg.samples or 10, seed=cfg.seed + 70)
    payload = {
        "s_values": [sp.s for sp in sps],
        "ratios": rep.ratios, "cvs": rep.cvs,
        "c_fit": rep.c_fit, "c_expected": rep.c_expected, "c_rel_err": rep.c_rel_err,
        "p_fit": rep.p_fit, "p_denominator": rep.p_denominator,
        "genus_candidate": rep.genus_candidate, "fit_residual": rep.fit_residual,
    }
    jp, _ = _out_paths(cfg, "third-ratio")
    if jp:
        emit_json(cfg, payload, jp)
    tol_cv = 1e-2 if cfg.tol_cv is None else cfg.tol_cv
    ok = float(np.max(rep.cvs)) <= tol_cv and rep.c_rel_err <= 0.02
    print("third-order ratio r=%d b=%d: worst CV %.2e, c_fit %.6g (expected %g, "
          "rel err %.2e), p_fit %.6g vs genus %d"
          % (sd.r, sd.b, float(np.max(rep.cvs)), rep.c_fit, rep.c_expected,
             rep.c_rel_err, rep.p_fit, rep.genus_candidate))
    return 0 if ok else 1


def _seeded_function(cfg: RunConfig, sd):
    """Deterministic test function: band-limited (rank one) or a trace affine."""
    if sd.r == 1:
        return ktypes.random_band_limited(sd, seed=cfg.seed, max_p=2, max_q=2,
                                          translates=1)
    return suite.trace_affine(sd, cfg.seed)


def cmd_fatou_profile(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    sp = spectral_param(cfg.s, sd)
    rule = build_rule(cfg, sd)
    f = _seeded_function(cfg, sd)
    nodes = rule.nodes[: min(64, len(rule))]
    prof = fatou.radial_profile(sp, f, nodes, cfg.t_grid(), rule)
    ren = prof.renormalized
    rows = [(k, float(t), float(ren[k, i].real), float(ren[k, i].imag))
            for k in range(len(nodes)) for i, t in enumerate(prof.t_grid)]
    tol = 1e-2 if cfg.tol_rel is None else cfg.tol_rel
    tail = prof.tail_variation()
    jp, cp = _out_paths(cfg, "fatou-profile")
    if cp:
        emit_csv(cfg, "node_index,t,re,im", rows, cp)
        emit_json(cfg, {"nodes": len(nodes), "t_stop": float(prof.t_grid[-1]),
                        "tail_variation": tail,
                        "tail_stable": bool(tail <= tol)}, jp)
    print("fatou profile s=%s over %d nodes: tail variation %.3e"
          % (cfg.s, len(nodes), tail))
    return 0


def cmd_fatou_limit(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    sp = spectral_param(cfg.s, sd)
    rule = build_rule(cfg, sd)
    f = _seeded_function(cfg, sd)
    nodes = rule.nodes if len(rule) <= 3000 else rule.nodes[:160]
    prof = fatou.radial_profile(sp, f, nodes, cfg.t_grid(), rule)
    rep = fatou.boundary_limit(sp, prof, reference=f, p=cfg.p, rule=rule)
    tol = 1e-2 if cfg.tol_rel is None else cfg.tol_rel
    payload = {"sup_err": rep.sup_err, "lp_err": rep.lp_err, "cs": rep.cs,
               "nodes": len(nodes), "sup_ok": bool(rep.sup_err <= tol),
               "lp_ok": bool(rep.lp_err <= tol)}
    jp, _ = _out_paths(cfg, "fatou-limit")
    if jp:
        emit_json(cfg, payload, jp)
    print("fatou limit s=%s: sup err %.3e, L^%g err %.3e over %d nodes (tol %.1e)"
          % (cfg.s, rep.sup_err, cfg.p, rep.lp_err, len(nodes), tol))
    return 0 if rep.sup_err <= tol or rep.lp_err <= tol else 1


def cmd_fatou_invert(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    sp = spectral_param(cfg.s, sd)
    rule = build_rule(cfg, sd) if cfg.rule else boundary.sphere_rule(sd, level=min(cfg.level, 6))
    f = _seeded_function(cfg, sd)
    F = poisson.poisson_lift(sp, f, rule)
    fv = poisson._as_evaluator(f)(rule.nodes)
    fn = float(np.sqrt(np.sum(rule.weights * np.abs(fv) ** 2)))
    ts = [t for t in cfg.t_grid() if t >= 1.0] or [3.0, 4.0, 5.0]
    rows = []
    for t in ts:
        g = fatou.invert_l2(sp, F, float(t), rule)
        gv = g(rule.nodes)
        err = float(np.sqrt(np.sum(rule.weights * np.abs(gv - fv) ** 2)) / fn)
        rows.append((float(t), err))
    tol = 5e-2 if cfg.tol_rel is None else cfg.tol_rel
    worst = rows[-1][1]
    errs = [r[1] for r in rows]
    jp, cp = _out_paths(cfg, "invert")
    if cp:
        emit_csv(cfg, "t,rel_l2_err", rows, cp)
        emit_json(cfg, {"errors": dict(rows), "final_ok": bool(worst <= tol),
                        "decreasing": bool(all(a >= b for a, b in
                                               zip(errs, errs[1:])))}, jp)
    print("inversion round trip s=%s: %s (tol %.1e at final t)"
          % (cfg.s, ", ".join("t=%g err %.3e" % r for r in rows), tol))
    return 0 if worst <= tol else 1


def cmd_fatou_dominate(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    sp = spectral_param(cfg.s, sd)
    chart = boundary.heisenberg_chart(sd, grid=max(2, cfg.level // 4))
    ts = [t for t in cfg.t_grid() if t > 0] or [0.5, 1.0, 2.0, 4.0]
    rep = fatou.domination_check(sp, ts, chart)
    payload = {"branch": rep.branch, "violations": rep.violations,
               "max_excess": rep.max_excess, "phi_integral": rep.phi_integral,
               "nodes": rep.n_nodes, "dominated": bool(rep.ok)}
    jp, _ = _out_paths(cfg, "dominate")
    if jp:
        emit_json(cfg, payload, jp)
    print("domination s=%s (%s branch): violations %s on %d nodes, Phi integral %.6g"
          % (cfg.s, rep.branch, rep.violations, rep.n_nodes, rep.phi_integral))
    return 0 if rep.ok else 1


def cmd_fatou_sandwich(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    sp = spectral_param(cfg.s, sd)
    rule = build_rule(cfg, sd) if cfg.rule else boundary.sphere_rule(sd, level=min(cfg.level, 6))
    n_f = cfg.samples or 5
    fs = [ktypes.random_band_limited(sd, seed=cfg.seed + 7 * j, max_p=2, max_q=2,
                                     translates=1) for j in range(n_f)]
    t_grid = cfg.t_grid()
    rep = fatou.norm_sandwich(sp, cfg.p, fs, t_grid, rule)
    payload = {"p": rep.p, "cs_abs": rep.cs_abs, "gamma": rep.gamma,
               "f_norms": rep.f_norms, "hardy_norms": rep.hardy_norms,
               "lower_ok": rep.lower_ok, "upper_ok": rep.upper_ok,
               "sandwich_ok": bool(rep.all_ok)}
    jp, _ = _out_paths(cfg, "sandwich")
    if jp:
        emit_json(cfg, payload, jp)
    print("norm sandwich s=%s p=%g over %d functions: %s"
          % (cfg.s, cfg.p, n_f, "all ok" if rep.all_ok else "FAILED"))
    return 0 if rep.all_ok else 1


def cmd_ktypes_spectrum(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    if sd.r != 1:
        raise MatrixBallError("ktypes spectrum is rank-one only")
    rule = build_rule(cfg, sd)
    f = ktypes.random_band_limited(sd, seed=cfg.seed, max_p=2, max_q=2)
    coeffs, defect = ktypes.ktype_spectrum(f, 3, 3, rule)
    rows = [(d.p, d.q, float(c.real), float(c.imag)) for d, c in sorted(
        coeffs.items(), key=lambda kv: (kv[0].p, kv[0].q))]
    jp, cp = _out_paths(cfg, "spectrum")
    if cp:
        emit_csv(cfg, "p,q,coeff_re,coeff_im", rows, cp)
        emit_json(cfg, {"defect": defect, "coefficients": {
            "%d_%d" % (d.p, d.q): c for d, c in coeffs.items()}}, jp)
    print("ktype spectrum up to (3,3): Parseval defect %.3e over %d types"
          % (defect, len(rows)))
    return 0


def cmd_ktypes_schur(cfg: RunConfig) -> int:
    sd = structure_data(cfg.r, cfg.b)
    if sd.r != 1:
        raise MatrixBallError("schur diagonality battery is rank-one only")
    rule = build_rule(cfg, sd) if cfg.rule else boundary.sphere_rule(sd, level=min(cfg.level, 6))
    sp = spectral_param(cfg.s, sd)
    rows, worst = [], 0.0
    for i, d in enumerate(ktypes.ktype_range(3, 3)):
        rep = ktypes.schur_diagonality(sp, d, 1.0, rule.nodes, rule, seed=cfg.seed + i)
        rows.append((d.p, d.q, rep.cv, float(rep.ratio_mean.real),
                     float(rep.ratio_mean.imag)))
        worst = max(worst, rep.cv)
    jp, cp = _out_paths(cfg, "schur")
    if cp:
        emit_csv(cfg, "p,q,cv,ratio_re,ratio_im", rows, cp)
    tol = 1e-3 if cfg.tol_cv is None else cfg.tol_cv
    print("schur diagonality s=%s: worst CV %.3e over %d K-types (tol %.1e)"
          % (cfg.s, worst, len(rows), tol))
    return 0 if worst <= tol else 1


def cmd_suite(cfg: RunConfig) -> int:
    indices = None
    if cfg.criteria:
        indices = sorted({int(x) for x in str(cfg.criteria).replace(" ", "").split(",")})
        bad = [i for i in indices if i not in suite.CRITERIA]
        if bad:
            raise MatrixBallError("unknown criteria: %s" % bad)
    results = suite.run_all(seed=cfg.seed, profile=cfg.profile, criteria=indices,
                            log=print)
    out_dir = cfg.out or "matrixball-suite"
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, "suite.json"),
                  suite.results_json(results, cfg.seed, cfg.profile, cfg.as_dict()))
    _write_atomic(os.path.join(out_dir, "suite.csv"),
                  suite.results_csv(results, cfg.seed, cfg.profile, cfg.as_dict()))
    n_pass = sum(r.passed for r in results)
    print("suite: %d/%d criteria passed, artifacts in %s"
          % (n_pass, len(results), out_dir))
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--r", type=int, help="rank r of the matrix ball (default 1)")
    p.add_argument("--b", type=int, help="excess b = q - r >= 1 (default 1)")
    p.add_argument("--s-re", type=float, dest="s_re", help="Re(s)")
    p.add_argument("--s-im", type=float, dest="s_im", help="Im(s)")
    p.add_argument("--p", type=float, help="L^p exponent")
    p.add_argument("--rule", choices=("sphere", "disk", "stiefel", "chart"),
                   help="quadrature rule kind (default: sphere for r=1, stiefel otherwise)")
    p.add_argument("--level", type=int, help="quadrature level (deterministic rules)")
    p.add_argument("--samples", type=int, help="sample count (Monte Carlo rules, batteries)")
    p.add_argument("--seed", type=int, help="RNG seed (default 7)")
    p.add_argument("--t-start", type=float, dest="t_start")
    p.add_argument("--t-stop", type=float, dest="t_stop")
    p.add_argument("--t-step", type=float, dest="t_step")
    p.add_argument("--out", help="output path prefix (directory for suite)")
    p.add_argument("--config", help="JSON file with default flag values")
    p.add_argument("--tol-rel", type=float, dest="tol_rel", help="relative tolerance override")
    p.add_argument("--tol-abs", type=float, dest="tol_abs", help="absolute tolerance override")
    p.add_argument("--tol-cv", type=float, dest="tol_cv",
                   help="coefficient-of-variation tolerance override")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="matrixball",
        description="Poisson transforms, Hua operators and boundary limits on matrix balls")
    ap.add_argument("--version", action="version", version="matrixball " + __version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        _common_flags(p)
        p.set_defaults(fn=fn)
        return p

    add("structure", cmd_structure, "restricted roots and derived integers")

    gp = sub.add_parser("group", help="group-level self tests")
    gsub = gp.add_subparsers(dest="action", required=True)
    p = gsub.add_parser("selftest", help="cocycle identity and contraction battery")
    _common_flags(p)
    p.set_defaults(fn=cmd_group_selftest)

    pp = sub.add_parser("poisson", help="kernel, transform, spherical function, c_s, norms")
    psub = pp.add_subparsers(dest="action", required=True)
    for name, fn, h in (
        ("kernel", cmd_poisson_kernel, "radial kernel values + horospherical cross-check"),
        ("transform", cmd_poisson_transform, "transform of a seeded function along the radial line"),
        ("phi", cmd_poisson_phi, "spherical function profile"),
        ("cs", cmd_poisson_cs, "the constant c_s by all applicable routes"),
        ("norms", cmd_poisson_norms, "Hardy norm vs the sandwich constants"),
    ):
        p = psub.add_parser(name, help=h)
        _common_flags(p)
        p.set_defaults(fn=fn)

    hp = sub.add_parser("hua", help="Hua operator checks")
    hsub = hp.add_subparsers(dest="action", required=True)
    for name, fn, h in (
        ("check", cmd_hua_check, "second-order eigenvalue residuals"),
        ("third-ratio", cmd_hua_third_ratio, "third-order operator ratio fit"),
    ):
        p = hsub.add_parser(name, help=h)
        _common_flags(p)
        p.set_defaults(fn=fn)

    fp = sub.add_parser("fatou", help="boundary limits, inversion, domination, sandwich")
    fsub = fp.add_subparsers(dest="action", required=True)
    for name, fn, h in (
        ("profile", cmd_fatou_profile, "renormalized radial profile of a seeded function"),
        ("limit", cmd_fatou_limit, "boundary limit vs the reference function"),
        ("invert", cmd_fatou_invert, "L2 inversion round trip"),
        ("dominate", cmd_fatou_dominate, "dominated-convergence bound"),
        ("sandwich", cmd_fatou_sandwich, "two-sided norm estimate"),
    ):
        p = fsub.add_parser(name, help=h)
        _common_flags(p)
        p.set_defaults(fn=fn)

    kp = sub.add_parser("ktypes", help="K-type spectra and Schur diagonality")
    ksub = kp.add_subparsers(dest="action", required=True)
    for name, fn, h in (
        ("spectrum", cmd_ktypes_spectrum, "zonal coefficients of a seeded function"),
        ("schur", cmd_ktypes_schur, "Schur scalar constancy per K-type"),
    ):
        p = ksub.add_parser(name, help=h)
        _common_flags(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("suite", help="run the numbered acceptance battery")
    _common_flags(p)
    p.add_argument("--profile", choices=("quick", "full"),
                   help="battery size (default full)")
    p.add_argument("--criteria", help="comma-separated criterion indices (default all)")
    p.set_defaults(fn=cmd_suite)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.fn(cfg)
    except MatrixBallError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
