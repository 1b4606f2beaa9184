"""One benchmark pass in a fresh process: import, build, run every operation once.

Usage (run by run.py, with PYTHONPATH pointing at the repository's src/):
    python3 perfbench/worker.py --workload hua-fd --seed 7 [--trace] [--probe] [--smoke]
        [--spans FILE]

The last line of standard output is one JSON object. With --probe the worker
only imports the workload's modules and reports the import time and the
environment. With --trace every layer is wrapped by a span tracer and the
result carries per-layer self times and counters (tracer.Tracer); --spans
writes the raw spans to FILE.
"""

import argparse
import importlib
import json
import math
import resource
import time
import traceback
import warnings


def _env() -> dict:
    import os
    import platform

    import numpy
    import scipy

    from matrixball import _kernels

    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": _kernels.backend(),
        "blas_threads": threads,
        "matrixball_workers": os.environ.get("MATRIXBALL_WORKERS"),
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    t_import = time.perf_counter()
    from workloads import SMOKE, WORKLOADS

    workload = WORKLOADS[args.workload]
    importlib.import_module("matrixball")
    for name in workload.modules:
        importlib.import_module("matrixball." + name)
    setup_s = time.perf_counter() - t_import
    result = {"setup_s": setup_s, "env": _env()}
    if args.probe:
        print(json.dumps(result))
        return

    sizes = SMOKE[args.workload] if args.smoke else workload.sizes
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ops = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start, cpu_start = time.perf_counter(), time.process_time()
        for i, (name, op) in enumerate(workload.build(args.seed, sizes)):
            if tracer is not None:
                tracer.run_id = i
            t0 = time.perf_counter()
            rec = {"name": name, "passed": False, "worst": None, "tol": None, "error": None}
            try:
                out = op()
                rec.update(passed=out.passed, worst=out.worst, tol=out.tol)
            except Exception:  # an operation that raises is a failed operation
                rec["error"] = traceback.format_exc(limit=8)
            rec["seconds"] = time.perf_counter() - t0
            rec["ok"] = bool(rec["passed"] and rec["worst"] is not None
                             and math.isfinite(rec["worst"])
                             and (rec["tol"] == 0 or rec["worst"] <= rec["tol"]))
            ops.append(rec)
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start

    counts = {}
    for w in caught:
        key = "%s: %s" % (w.category.__name__, str(w.message).splitlines()[0])
        counts[key] = counts.get(key, 0) + 1
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=ops,
        warnings=counts,
    )
    if tracer is not None:
        result["layers"] = tracer.summary(wall_s)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["layer", "start", "end", "parent", "run_id"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
