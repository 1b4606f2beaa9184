"""Compare benchmark records of a base and a new version, metric by metric.

Usage, from the repository root:
    python3 perfbench/compare.py --base .perfbench_out/results/A*.json \
        --new .perfbench_out/results/B*.json

For each workload and metric it prints the median of each side and the
relative change, and marks an end-to-end metric whose new median is worse
than the base median by more than its bound in BENCHMARK.json. Records whose
Python, numpy, scipy, kernel backend, core count or CPU differ are flagged:
their numbers do not compare.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV_KEYS = ("python", "numpy", "scipy", "backend", "nproc", "cpu")


def load(paths):
    groups = {}
    for path in paths:
        rec = json.loads(Path(path).read_text())
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def env_mismatches(records) -> list:
    out = []
    for key in ENV_KEYS:
        seen = sorted({str(r["env"].get(key)) for r in records})
        if len(seen) > 1:
            out.append("%s differs: %s" % (key, ", ".join(seen)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two sets of benchmark records")
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base, new = load(args.base), load(args.new)
    all_records = [r for g in (base, new) for recs in g.values() for r in recs]
    for problem in env_mismatches(all_records):
        print("WARNING: %s; the comparison is not like for like" % problem)
    regressions = 0
    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        print("%s trace %d: %d base runs, %d new runs" % (key[0], key[1], len(b), len(n)))
        for metric in b[0]["values"]:
            mb = statistics.median(r["values"][metric] for r in b)
            mn = statistics.median(r["values"][metric] for r in n)
            if mb == mn == 0:
                continue  # a criterion or layer this workload does not run
            change = (mn - mb) / abs(mb) if mb else float("nan")
            flag = ""
            if metric in bounds and change > bounds[metric]:
                flag = "  REGRESSION (bound %g)" % bounds[metric]
                regressions += 1
            print("  %-26s %14.6g -> %14.6g  %+8.2f%%%s" % (metric, mb, mn, 100 * change, flag))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
