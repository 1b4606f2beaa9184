"""Benchmark of matrixball's acceptance battery: end-to-end walls and a per-layer split.

Usage, from the repository root:
    python3 perfbench/run.py --workload sandwich --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each run starts three import-only worker processes (set-up time), then runs
passes of the workload, each in a fresh single-threaded worker process, until
--seconds have elapsed (at least one pass). A pass runs every operation of
the workload once, in order. With --trace 1 the run also makes one traced
pass in its own process and reports per-layer metrics instead of end-to-end
ones. Metric names and units come from BENCHMARK.json.

An operation fails when its check does not pass, when worst > tol, or when
it raises; failures are counted, never retried. A run is correct when no
operation failed, every pass (traced or not) reproduced the same `worst`
values bit for bit, and the traced self times add up to the traced wall.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full record of the run (environment,
every pass, warnings) is written under .perfbench_out/ in the repository.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sandwich", "recovery", "hua-fd", "quadrature")
LONG_CRITERIA = ("crit4", "crit5", "crit6", "crit7", "crit11")
PROBES = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    """Single-threaded BLAS, src/ on the path, MATRIXBALL_WORKERS at its default."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env.pop("MATRIXBALL_WORKERS", None)
    return env


def spawn(args, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run exceeded %.0f s" % DEADLINE_S)
    cmd = [sys.executable, str(BENCH / "worker.py")] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s did not finish within the run deadline" % args) from None
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d:\n%s" % (args, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_identity() -> dict:
    """Git commit when the tree is a git checkout, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def worst_tol_ratio(ops) -> float:
    """Largest worst/tol over operations with a non-zero tolerance (0 if all raised)."""
    return max((op["worst"] / op["tol"] for op in ops if op["tol"] and op["worst"] is not None),
               default=0.0)


def check_passes(passes, problems) -> None:
    """Every pass of one run must reproduce the first pass's worst values exactly."""
    ref = [(op["name"], op["worst"]) for op in passes[0]["ops"]]
    for i, p in enumerate(passes[1:], 1):
        got = [(op["name"], op["worst"]) for op in p["ops"]]
        if got != ref:
            problems.append("pass %d worst values differ from pass 0: %s vs %s" % (i, got, ref))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", seed]
    probes = [spawn(base + ["--probe"], deadline) for _ in range(PROBES)]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(spawn(base, deadline))
    traced = None
    spans_file = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / ("spans-%s-seed%d.json" % (workload, seed))
        traced = spawn(base + ["--trace", "--spans", spans_file], deadline)

    everything = passes + ([traced] if traced else [])
    all_ops = [op for p in everything for op in p["ops"]]
    problems = [
        "%s failed: %s" % (op["name"], (op["error"] or "passed=%s worst=%r tol=%r" % (
            op["passed"], op["worst"], op["tol"])).strip().splitlines()[-1])
        for op in all_ops if not op["ok"]
    ]
    check_passes(everything, problems)
    envs = {json.dumps(w["env"], sort_keys=True) for w in probes + everything}
    if len(envs) != 1:
        problems.append("workers ran in different environments: %s" % sorted(envs))

    walls = [p["wall_s"] for p in passes]
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median([p["cpu_s"] for p in passes]),
        "setup_s": statistics.median([w["setup_s"] for w in probes + passes]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
        "suite.worst_tol_ratio": worst_tol_ratio(passes[0]["ops"]),
    }
    for name in LONG_CRITERIA:
        times = [op["seconds"] for p in passes for op in p["ops"] if op["name"] == name]
        values[name + "_s"] = statistics.median(times) if times else 0.0
    if traced is not None:
        layers = traced["layers"]
        values.update({k: v for k, v in layers.items() if k != "trace.spans"})
        values["suite.warnings"] = sum(traced["warnings"].values())
        values["trace.overhead_s"] = traced["wall_s"] - values["wall_s"]
        spanned = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        gap = spanned + layers["trace.unspanned_s"] - traced["wall_s"]
        if abs(gap) > 1e-6 * max(traced["wall_s"], 1.0):
            problems.append("traced self times miss the traced wall by %.3g s" % gap)

    env = dict(probes[0]["env"])
    env.update(source_identity(), nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)), cpu=cpu_model())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "env": env,
        "correct": not problems,
        "problems": problems,
        "attempted": len(all_ops),
        "failed": sum(not op["ok"] for op in all_ops),
        "values": values,
        "passes": passes,
        "traced": traced,
        "probes": probes,
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
    }


def select_metrics(record: dict, declared: dict) -> dict:
    kind = "per_layer" if record["trace"] else "end_to_end"
    return {name: {"value": record["values"][name], "unit": unit}
            for name, unit in declared[kind].items()}


def print_summary(record: dict, metrics: dict) -> None:
    w = record
    print("workload %s  seed %d  trace %d  passes %d  failed/attempted %d/%d  correct %s"
          % (w["workload"], w["seed"], w["trace"], len(w["passes"]), w["failed"],
             w["attempted"], w["correct"]))
    for name, m in metrics.items():
        print("  %-26s %14.6g %s" % (name, m["value"], m["unit"]))
    v = w["values"]
    print("  pass walls (s): %s  cpu (s): %s" % (
        " ".join("%.3f" % p["wall_s"] for p in w["passes"]),
        " ".join("%.3f" % p["cpu_s"] for p in w["passes"])))
    print("  criterion walls (s): %s  worst/tol %.4g" % (
        " ".join("%s=%.3f" % (c, v[c + "_s"]) for c in LONG_CRITERIA if v[c + "_s"]),
        v["suite.worst_tol_ratio"]))
    if w["traced"]:
        wall = w["traced"]["wall_s"]
        shares = sorted(((k[:-7], val / wall) for k, val in v.items() if k.endswith(".self_s")),
                        key=lambda kv: -kv[1])
        print("  layer shares of traced wall %.3f s: %s" % (
            wall, " ".join("%s %.1f%%" % (k, 100 * s) for k, s in shares if s >= 0.001)))
        for key, n in sorted(w["traced"]["warnings"].items()):
            print("  warning x%d  %s" % (n, key))
    env = w["env"]
    print("  env: python %s numpy %s scipy %s backend %s nproc %s blas %s git %s src %s"
          % (env["python"], env["numpy"], env["scipy"], env["backend"], env["nproc"],
             env["blas_threads"]["OPENBLAS_NUM_THREADS"], env["git_sha"],
             env["src_sha256"][:12]))
    for problem in w["problems"]:
        print("  PROBLEM: %s" % problem)


def save(record: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / ("%s-seed%d-trace%d-%s-%d.json" % (
        record["workload"], record["seed"], record["trace"], stamp, os.getpid()))
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="matrixball acceptance-battery benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "matrixball" / "__init__.py").is_file():
        print("error: %s has no src/matrixball to benchmark" % ROOT, file=sys.stderr)
        return 2
    declared = declared_metrics()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        metrics = select_metrics(record, declared)
        print_summary(record, metrics)
        print("  record: %s" % save(record).relative_to(ROOT))
        combined["correct"] &= record["correct"]
        combined["attempted"] += record["attempted"]
        combined["failed"] += record["failed"]
        prefix = "" if len(names) == 1 else name + "/"
        combined["metrics"].update({prefix + k: m for k, m in metrics.items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
