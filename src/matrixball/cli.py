"""Command-line interface: subcommands per module plus the acceptance suite.

Ten subcommands mirror a criterion: each is a thin call of that criterion's
check function in `suite` on the flags' domain and s, and passes exactly
when the check would on those inputs. Pass rules and tolerances live in
`suite`; --tol overrides the check's tolerance for the command line only.
--seed is the criterion seed. A subcommand takes the flags and --config keys
of the RunConfig fields it reads (`reads`) alone; any other exits 2. No
subcommand takes --rule: rank one uses a sphere rule of --level and higher
rank a Stiefel rule, which poisson phi and transform and fatou profile draw
with --samples nodes (200000) at --seed. In a mirror --samples sets

    group selftest   2  cocycle pairs (200)   fatou dominate   8  -
    hua check        4  sample points (5)     fatou sandwich   9  functions (20)
    hua third-ratio  5  sample points (10)    poisson norms    9  functions (1)
    poisson cs       6  Stiefel nodes (2^16)  ktypes schur    10  -
    fatou limit      7  Stiefel nodes (10^5)  fatou invert    11  functions (1)

and a mirror writes {"worst", "passed", "details"} as JSON to --out. The six
others but suite are tables: a CSV of rows, and a JSON summary where there is one.

Every artifact, suite's included, is JSON {"version", "config", "payload"} with
sorted keys or CSV with #-prefixed metadata headers, written atomically via
temp file + rename. Identical configuration and seed produce byte-identical
files; wall-clock timings go to stdout only.

Exit codes: 0 success, 1 failed invariant or non-convergence, 2 usage or
precondition error, 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__, boundary, fatou, group, ktypes, poisson, suite
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
    level: int = 8
    samples: int | None = None
    seed: int = 7
    t_start: float = 0.0
    t_stop: float = 4.0
    t_step: float = 0.5
    out: str | None = None
    profile: str = "full"
    criteria: str | None = None
    tol: float | None = None

    @property
    def s(self) -> complex:
        # a real s stays a float, so details keys read as the suite's ("s_2.0")
        return complex(self.s_re, self.s_im) if self.s_im else float(self.s_re)

    def t_grid(self) -> np.ndarray:
        if not all(math.isfinite(x) for x in (self.t_start, self.t_stop, self.t_step)):
            raise DomainError("--t-start, --t-stop and --t-step must be finite")
        if self.t_step <= 0:
            raise DomainError("--t-step must be positive")
        try:
            grid = np.arange(self.t_start, self.t_stop + 1e-9, self.t_step)
        except ValueError as exc:  # numpy's "Maximum allowed size exceeded"
            raise DomainError("the t grid from --t-start %g to --t-stop %g by --t-step %g is "
                              "too large: %s" % (self.t_start, self.t_stop, self.t_step, exc)) from None
        if not grid.size:
            raise DomainError("the t grid from --t-start %g to --t-stop %g is empty"
                              % (self.t_start, self.t_stop))
        return grid

    def as_dict(self) -> dict:
        return asdict(self)


def _config_type_ok(annotation: str, value) -> bool:
    """Whether a --config value fits a RunConfig field annotated "int", "float | None", ...

    A bool is no number, and a float field also takes an int.
    """
    base, _, optional = annotation.partition(" | ")
    if value is None:
        return bool(optional)
    accepted = {"int": int, "float": (int, float), "str": str}[base]
    return isinstance(value, accepted) and not isinstance(value, bool)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig defaults, overridden by --config file values, overridden by flags."""
    values = RunConfig().as_dict()
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:  # not JSON, or not text
                raise DomainError("--config %s is not valid JSON: %s" % (path, exc)) from None
        if not isinstance(loaded, dict):
            raise DomainError("--config %s must hold a JSON object, not %s"
                              % (path, type(loaded).__name__))
        unknown = set(loaded) - set(values)
        if unknown:
            raise DomainError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        for fld in fields(RunConfig):
            if fld.name in loaded and not _config_type_ok(fld.type, loaded[fld.name]):
                raise DomainError("--config %s: %s must be %s, got %r"
                                  % (path, fld.name, fld.type, loaded[fld.name]))
        unread = ", ".join(sorted(set(loaded) - set(args.fn.reads)))
        if unread:
            raise DomainError("--config %s: this subcommand does not read %s" % (path, unread))
        values.update(loaded)
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if values["samples"] is not None and values["samples"] < 1:
        raise DomainError("--samples must be at least 1, got %r" % (values["samples"],))
    if values["profile"] not in ("quick", "full"):
        raise DomainError("profile must be quick or full, got %r" % (values["profile"],))
    if values["seed"] < 0:
        raise DomainError("--seed must be non-negative, got %r" % (values["seed"],))
    for key in ("s_re", "s_im"):
        if not math.isfinite(values[key]):
            raise DomainError("--%s must be finite, got %r" % (key.replace("_", "-"), values[key]))
    if values["tol"] is not None and not (math.isfinite(values["tol"]) and values["tol"] > 0):
        raise DomainError("--tol must be positive and finite, got %r" % (values["tol"],))
    return RunConfig(**values)


def build_rule(cfg: RunConfig, sd):
    """A sphere rule of --level at rank one, else a Stiefel rule of --samples at --seed."""
    if sd.r == 1:
        return boundary.sphere_rule(sd, level=cfg.level)
    return boundary.stiefel_rule(sd, samples=cfg.samples or 200000, seed=cfg.seed)


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


def emit_json(cfg: RunConfig, payload: dict, path: str):
    doc = {
        "version": __version__,
        "config": _sanitize(cfg.as_dict()),
        "payload": _sanitize(payload),
    }
    _write_atomic(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def emit_csv(cfg: RunConfig, header: str, rows, path: str):
    config = cfg.as_dict()  # the seed line repeats the config's, whether read or not
    lines = [
        "# matrixball %s" % __version__,
        "# config: %s" % json.dumps(_sanitize(config), sort_keys=True),
        "# seed: %d" % config["seed"],
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

# the fields cfg.s, cfg.t_grid() and build_rule read (--level at rank one, else the others)
S, T_GRID, RULE = ("s_re", "s_im"), ("t_start", "t_stop", "t_step"), ("level", "samples", "seed")


def _table(stem: str, header: str | None, reads: tuple):
    """Subcommand writing its artifacts to --out: a CSV of rows under `header`
    (none when header is None) and a JSON summary (none when it is None).

    The decorated function maps (cfg, sd) to (rows, summary, line, passed),
    reading the fields `reads`; the subcommand, which adds r, b and out to its
    `reads`, prints the line and exits 0 exactly when passed.
    """
    def wrap(body):
        def cmd(cfg: RunConfig) -> int:
            rows, summary, line, ok = body(cfg, structure_data(cfg.r, cfg.b))
            jp, cp = _out_paths(cfg, stem)
            if cp and header is not None:
                emit_csv(cfg, header, rows, cp)
            if jp and summary is not None:
                emit_json(cfg, summary, jp)
            print(line)
            return 0 if ok else 1
        cmd.reads = ("r", "b") + reads + ("out",)
        return cmd
    return wrap


@_table("structure", "root,multiplicity", ())
def cmd_structure(cfg, sd):
    roots = restricted_roots(sd)
    payload = {"r": sd.r, "b": sd.b, "n": sd.n, "a": sd.a, "m": sd.m,
               "harmonic_s": sd.harmonic_s, "roots": roots}
    return sorted(roots.items()), payload, "structure r=%d b=%d: n=%d, a=%d, roots %s" % (
        sd.r, sd.b, sd.n, sd.a, sorted(roots.items())), True


@_table("kernel", "t,kernel_re,kernel_im,horospherical_rel_err", S + T_GRID + ("tol",))
def cmd_poisson_kernel(cfg, sd):
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
    tol = suite.KERNEL_FORM_TOL if cfg.tol is None else cfg.tol
    line = ("kernel radial check s=%s: %d points, det vs horospherical worst %.3e"
            % (cfg.s, len(rows), worst))
    return rows, {"worst_rel_err": worst, "rows": len(rows)}, line, worst <= tol


def _radial_rows(sp, t_grid, vals) -> list:
    """(t, re, im, |renormalized|) rows of radial values on t_grid."""
    rows = []
    for t, v in zip(t_grid, vals):
        v = complex(v)
        ren = v * np.exp(-sp.growth * t)
        rows.append((float(t), v.real, v.imag, float(abs(ren))))
    return rows


@_table("phi", "t,phi_re,phi_im,renormalized_abs", S + RULE + T_GRID)
def cmd_poisson_phi(cfg, sd):
    sp = spectral_param(cfg.s, sd)
    rule = build_rule(cfg, sd)
    t_grid = cfg.t_grid()
    rows = _radial_rows(sp, t_grid, poisson.phi_s(sp, t_grid, rule))
    return rows, None, "phi_s profile s=%s on %d nodes: renormalized last %.6g" % (
        cfg.s, len(rule), rows[-1][3]), True


@_table("transform", "t,value_re,value_im,renormalized_abs", S + RULE + T_GRID)
def cmd_poisson_transform(cfg, sd):
    sp = spectral_param(cfg.s, sd)
    rule = build_rule(cfg, sd)
    t_grid = cfg.t_grid()
    vals = poisson.transform_radial(sp, _seeded_function(cfg, sd), group.base_point(sd)[None],
                                    t_grid, rule)[0]
    rows = _radial_rows(sp, t_grid, vals)
    return rows, None, ("transform of seeded band-limited f along the radial line: %d points, "
                        "renormalized last %.6g" % (len(rows), rows[-1][3])), True


def _seeded_function(cfg: RunConfig, sd):
    """Deterministic test function: band-limited (rank one) or a trace affine."""
    if sd.r == 1:
        return ktypes.random_band_limited(sd, seed=cfg.seed, max_p=2, max_q=2,
                                          translates=1)
    return suite.trace_affine(sd, cfg.seed)


@_table("fatou-profile", "node_index,t,re,im", S + RULE + T_GRID)
def cmd_fatou_profile(cfg, sd):
    sp = spectral_param(cfg.s, sd)
    rule = build_rule(cfg, sd)
    nodes = rule.nodes[: min(64, len(rule))]
    prof = fatou.radial_profile(sp, _seeded_function(cfg, sd), nodes, cfg.t_grid(), rule)
    ren = prof.renormalized
    rows = [(k, float(t), float(ren[k, i].real), float(ren[k, i].imag))
            for k in range(len(nodes)) for i, t in enumerate(prof.t_grid)]
    tail = prof.tail_variation()
    summary = {"nodes": len(nodes), "t_stop": float(prof.t_grid[-1]), "tail_variation": tail}
    return rows, summary, "fatou profile s=%s over %d nodes: tail variation %.3e" % (
        cfg.s, len(nodes), tail), True


@_table("spectrum", "p,q,coeff_re,coeff_im", ("level", "seed"))
def cmd_ktypes_spectrum(cfg, sd):
    if sd.r != 1:
        raise DomainError("ktypes spectrum is rank-one only")
    rule = build_rule(cfg, sd)
    f = ktypes.random_band_limited(sd, seed=cfg.seed, max_p=2, max_q=2)
    coeffs, defect = ktypes.ktype_spectrum(f, 3, 3, rule)
    rows = [(d.p, d.q, float(c.real), float(c.imag)) for d, c in sorted(
        coeffs.items(), key=lambda kv: (kv[0].p, kv[0].q))]
    summary = {"defect": defect,
               "coefficients": {"%d_%d" % (d.p, d.q): c for d, c in coeffs.items()}}
    return rows, summary, "ktype spectrum up to (3,3): Parseval defect %.3e over %d types" % (
        defect, len(rows)), True


def _tol(cfg: RunConfig) -> dict:
    """The --tol override as a check's keyword, if given; else the check keeps its default."""
    return {} if cfg.tol is None else {"tol": cfg.tol}


def _t_values(cfg: RunConfig, keep, need: str) -> list:
    ts = [float(t) for t in cfg.t_grid() if keep(t)]
    if not ts:
        raise DomainError("the t grid has no t %s" % need)
    return ts


def _mirror(name: str, index: int, reads: tuple):
    """Subcommand running criterion `index`'s check on the flags' domain.

    The decorated function maps the flags to the check's inputs and returns
    its (worst, passed, details); the subcommand passes exactly when it does.
    """
    def wrap(inputs):
        def body(cfg, sd):
            worst, ok, details = inputs(cfg, sd)
            line = "%s r=%d b=%d%s (criterion %d): worst %.3e -> %s" % (
                name, cfg.r, cfg.b, " s=%s" % (cfg.s,) if "s_re" in reads else "", index, worst,
                "ok" if ok else "FAIL")
            return None, {"worst": worst, "passed": ok, "details": details}, line, ok
        cmd = _table(name.replace(" ", "-"), None, reads)(body)
        cmd.criterion = index
        return cmd
    return wrap


@_mirror("group selftest", 2, ("samples", "seed", "tol"))
def cmd_group_selftest(cfg, sd):
    return suite.check_cocycle(sd, cfg.samples or 200, cfg.seed, **_tol(cfg))


@_mirror("hua check", 4, S + ("samples", "seed", "tol"))
def cmd_hua_check(cfg, sd):
    return suite.check_hua(sd, [cfg.s], cfg.samples or 5, cfg.seed, **_tol(cfg))


@_mirror("hua third-ratio", 5, ("samples", "seed", "tol"))
def cmd_hua_third_ratio(cfg, sd):
    # the criterion's s list, moved with the harmonic point r + b (the law's zero).
    # At (2, 2) it puts s = 7.2 only 0.011 from the law's pole sqrt(52); at 3
    # samples the CV there is 2.7e-7 and the law error 4.1e-8, 10^4 under tolerance.
    s_values = [s + (sd.harmonic_s - 2.0) for s in suite.THIRD_ORDER_S]
    return suite.check_third_order(sd, s_values, cfg.samples or 10, cfg.seed, **_tol(cfg))


@_mirror("poisson cs", 6, S + ("samples", "seed", "tol"))
def cmd_poisson_cs(cfg, sd):
    return suite.check_cs(sd, [cfg.s], cfg.samples or suite.CS_SAMPLES, cfg.seed, **_tol(cfg))


@_mirror("fatou limit", 7, S + RULE + T_GRID + ("p", "tol"))
def cmd_fatou_limit(cfg, sd):
    size = cfg.level if sd.r == 1 else cfg.samples or 10 ** 5
    return suite.check_fatou(sd, cfg.s, size, cfg.t_grid(), cfg.seed, cfg.p, **_tol(cfg))


@_mirror("fatou dominate", 8, S + T_GRID)
def cmd_fatou_dominate(cfg, sd):
    ts = _t_values(cfg, lambda t: t > 0, "> 0")
    return suite.check_domination(sd, [cfg.s], ts)


def _sandwich(functions: int):
    def inputs(cfg, sd):
        return suite.check_sandwich(sd, [cfg.s], [cfg.p], cfg.samples or functions,
                                    cfg.level, cfg.t_grid(), cfg.seed)
    return inputs


cmd_fatou_sandwich = _mirror("fatou sandwich", 9, S + RULE + T_GRID + ("p",))(_sandwich(20))
cmd_poisson_norms = _mirror("poisson norms", 9, S + RULE + T_GRID + ("p",))(_sandwich(1))


@_mirror("ktypes schur", 10, S + ("level", "seed", "tol"))
def cmd_ktypes_schur(cfg, sd):
    return suite.check_schur(sd, cfg.s, 3, cfg.level, cfg.seed, **_tol(cfg))


@_mirror("fatou invert", 11, S + RULE + T_GRID + ("tol",))
def cmd_fatou_invert(cfg, sd):
    ts = _t_values(cfg, lambda t: t >= 1.0, ">= 1")
    return suite.check_inversion(sd, cfg.s, cfg.samples or 1, cfg.level, ts, cfg.seed,
                                 **_tol(cfg))


def _criterion_index(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DomainError("--criteria takes comma-separated integers, not %r" % token) from None


def cmd_suite(cfg: RunConfig) -> int:
    indices = None
    if cfg.criteria is not None:  # "" is a malformed list, not "all"
        indices = sorted({_criterion_index(x)
                          for x in str(cfg.criteria).replace(" ", "").split(",")})
        bad = [i for i in indices if i not in suite.CRITERIA]
        if bad:
            raise DomainError("unknown criteria: %s" % bad)
    results = suite.run_all(seed=cfg.seed, profile=cfg.profile, criteria=indices,
                            log=print)
    out_dir = cfg.out or "matrixball-suite"
    n_pass = sum(r.passed for r in results)
    records = [{"index": r.index, "name": r.name, "passed": bool(r.passed),
                "worst": float(r.worst), "tol": float(r.tol), "budget_s": float(r.budget_s),
                "details": r.details} for r in results]
    emit_json(cfg, {"all_passed": n_pass == len(results), "results": records},
              os.path.join(out_dir, "suite.json"))
    emit_csv(cfg, "index,name,passed,worst,tol,budget_s",
             [(r.index, r.name, int(r.passed), float(r.worst), float(r.tol), float(r.budget_s))
              for r in results], os.path.join(out_dir, "suite.csv"))
    print("suite: %d/%d criteria passed, artifacts in %s"
          % (n_pass, len(results), out_dir))
    return 0 if n_pass == len(results) else 1


cmd_suite.reads = ("seed", "profile", "criteria", "out")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# RunConfig field -> its flag's add_argument keywords; a subcommand registers those it reads
FLAGS = {
    "r": dict(type=int, help="rank r of the matrix ball (default 1)"),
    "b": dict(type=int, help="excess b = q - r >= 1 (default 1)"),
    "s_re": dict(type=float, help="Re(s)"),
    "s_im": dict(type=float, help="Im(s)"),
    "p": dict(type=float, help="L^p exponent"),
    "level": dict(type=int, help="quadrature level (deterministic rules)"),
    "samples": dict(type=int, help="sample count (Stiefel rules, batteries)"),
    "seed": dict(type=int, help="RNG seed (default 7)"),
    "t_start": dict(type=float), "t_stop": dict(type=float), "t_step": dict(type=float),
    "out": dict(help="output path prefix (directory for suite)"),
    "tol": dict(type=float, help="override the pass rule's tolerance, in the unit of its worst"),
    "profile": dict(choices=("quick", "full"), help="battery size (default full)"),
    "criteria": dict(help="comma-separated criterion indices (default all)"),
}

GROUPS = {
    "group": "group-level self tests",
    "poisson": "kernel, transform, spherical function, c_s, norms",
    "hua": "Hua operator checks",
    "fatou": "boundary limits, inversion, domination, sandwich",
    "ktypes": "K-type spectra and Schur diagonality",
}

SUBCOMMANDS = (
    (("structure",), cmd_structure, "restricted roots and derived integers"),
    (("group", "selftest"), cmd_group_selftest, "cocycle identity and contraction battery"),
    (("poisson", "kernel"), cmd_poisson_kernel, "radial kernel values + horospherical cross-check"),
    (("poisson", "transform"), cmd_poisson_transform,
     "transform of a seeded function along the radial line"),
    (("poisson", "phi"), cmd_poisson_phi, "spherical function profile"),
    (("poisson", "cs"), cmd_poisson_cs, "the constant c_s by all applicable routes"),
    (("poisson", "norms"), cmd_poisson_norms, "Hardy norm vs the sandwich constants"),
    (("hua", "check"), cmd_hua_check, "second-order eigenvalue residuals"),
    (("hua", "third-ratio"), cmd_hua_third_ratio, "third-order ratio: constancy and closed-form s-law"),
    (("fatou", "profile"), cmd_fatou_profile, "renormalized radial profile of a seeded function"),
    (("fatou", "limit"), cmd_fatou_limit, "boundary limit vs the reference function"),
    (("fatou", "invert"), cmd_fatou_invert, "L2 inversion round trip"),
    (("fatou", "dominate"), cmd_fatou_dominate, "dominated-convergence bound"),
    (("fatou", "sandwich"), cmd_fatou_sandwich, "two-sided norm estimate"),
    (("ktypes", "spectrum"), cmd_ktypes_spectrum, "zonal coefficients of a seeded function"),
    (("ktypes", "schur"), cmd_ktypes_schur, "Schur scalar constancy per K-type"),
    (("suite",), cmd_suite, "run the numbered acceptance battery"),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="matrixball",
        description="Poisson transforms, Hua operators and boundary limits on matrix balls")
    ap.add_argument("--version", action="version", version="matrixball " + __version__)
    sub = ap.add_subparsers(dest="command", required=True)
    actions = {}
    for words, fn, help_text in SUBCOMMANDS:
        parent = sub
        if len(words) == 2:
            if words[0] not in actions:
                gp = sub.add_parser(words[0], help=GROUPS[words[0]])
                actions[words[0]] = gp.add_subparsers(dest="action", required=True)
            parent = actions[words[0]]
        if hasattr(fn, "criterion"):
            help_text += " (criterion %d's check)" % fn.criterion
        p = parent.add_parser(words[-1], help=help_text, allow_abbrev=False)  # --p is no --profile
        for name, kwargs in FLAGS.items():
            if name in fn.reads:
                p.add_argument("--" + name.replace("_", "-"), **kwargs)
        p.add_argument("--config", help="JSON file with default flag values")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.fn(cfg)
    except (MatrixBallError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
