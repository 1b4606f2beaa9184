"""Tests of the benchmark's tracer and of the determinism of its counters.

Run from the repository root:
    python3 -m pytest -q perfbench/tests
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from tracer import COUNTERS, Tracer, self_times  # noqa: E402


def _fake_clock():
    now = [0.0]
    return now, (lambda: now[0])


def test_self_times_of_nested_calls():
    now, clock = _fake_clock()
    tr = Tracer(clock=clock)

    def leaf():
        now[0] += 2.0

    leaf_t = tr.wrap("evaluator", leaf)

    def mid():
        now[0] += 1.0
        leaf_t()
        now[0] += 0.5
        leaf_t()

    mid_t = tr.wrap("fatou", mid)

    def top():
        now[0] += 3.0
        mid_t()
        now[0] += 0.25

    tr.wrap("suite", top)()
    now[0] += 1.0  # time outside every span

    assert self_times(tr.spans) == {"suite": 3.25, "fatou": 1.5, "evaluator": 4.0}
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 1]
    summary = tr.summary(wall_s=now[0])
    assert (summary["suite.self_s"], summary["fatou.self_s"], summary["evaluator.self_s"]) == (
        3.25, 1.5, 4.0)
    assert summary["hua.self_s"] == 0.0
    assert summary["trace.unspanned_s"] == 1.0
    spanned = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert spanned + summary["trace.unspanned_s"] == now[0]


def test_span_closes_when_the_call_raises():
    now, clock = _fake_clock()
    tr = Tracer(clock=clock)

    def boom():
        now[0] += 1.0
        raise ValueError("expected")

    with pytest.raises(ValueError):
        tr.wrap("x", boom)()
    assert tr.spans == [("x", 0.0, 1.0, -1, -1)]
    assert tr.stack == []


def test_counts_repeat_across_traced_runs():
    """Two traced smoke passes agree on every counter and reproduce untraced worst values."""
    deadline = time.monotonic() + 600
    for workload in run.WORKLOADS:
        args = ["--workload", workload, "--seed", 7, "--smoke"]
        plain = run.spawn(args, deadline)
        first, second = (run.spawn(args + ["--trace"], deadline) for _ in range(2))
        counts = [{k: t["layers"][k] for k in COUNTERS} for t in (first, second)]
        assert counts[0] == counts[1], workload
        assert first["warnings"] == second["warnings"] == plain["warnings"], workload
        worst = [[(op["name"], op["worst"]) for op in p["ops"]] for p in (plain, first, second)]
        assert worst[0] == worst[1] == worst[2], workload
        assert all(op["ok"] for p in (plain, first, second) for op in p["ops"]), workload
