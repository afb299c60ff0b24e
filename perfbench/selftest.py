"""Fast self-test of the benchmark harness (about 35 s on 2 vCPUs).

Usage (from the root of a checkout):  python3 perfbench/selftest.py

Runs every workload once at its tiny size, traced (a traced run also
makes untraced passes, so it yields both metric sets), and checks that

* every metric BENCHMARK.json lists is emitted, with its unit and a
  finite value, in the result line of its trace mode;
* every metric the benchmark is specified to report exists, including
  those only printed (fail_share, tol_miss_share, max_rel_err);
* no command failed the benchmark's own checks.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

import run

SPECIFIED_END_TO_END = (
    "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "fail_share", "tol_miss_share", "max_rel_err",
)
SPECIFIED_PER_LAYER = (
    "kernel.balls", "kernel.busy_s", "kernel.us_per_ball", "kernel.points",
    "kernel.points_per_ball", "kernel.tol_miss",
    "search.requests", "search.distinct", "search.busy_s", "search.self_s",
    "search.balls_per_norm",
    "estimator.ratios", "estimator.busy_s", "estimator.self_s",
    "estimator.requests_per_ratio", "estimator.repeat_share", "estimator.skipped",
    "model.calls", "model.busy_s",
    "cli.busy_s", "cli.self_s", "cli.concurrency", "report.render_s", "report.bytes",
    "trace.overhead_s",
)


def check(workload: str, spec: dict) -> list[str]:
    problems = []
    m = run.measure(workload, seed=1, seconds=0, trace=True, tiny=True)
    if m["failed"]:
        problems.append(f"{m['failed']} command(s) failed: {m['faults']}")
    for name in SPECIFIED_END_TO_END:
        if name not in m["end_to_end"]:
            problems.append(f"end-to-end metric {name} missing")
    for name in SPECIFIED_PER_LAYER:
        if name not in m["per_layer"]:
            problems.append(f"per-layer metric {name} missing")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, absent = run.result_line(m, spec, trace)
        json.dumps(result, allow_nan=False)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"result keys {sorted(result)}")
        for metric in spec[key]:
            got = result["metrics"].get(metric["name"])
            if got is None:
                problems.append(f"{metric['name']} not emitted (absent: {absent})")
            elif got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
                problems.append(f"{metric['name']} emitted as {got}")
    return [f"{workload}: {p}" for p in problems]


def main() -> int:
    spec = run.load_spec()
    problems = [p for workload in run.WORKLOADS for p in check(workload, spec)]
    for p in problems:
        print(p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
