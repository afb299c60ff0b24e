"""Benchmark of the morreyconst CLI: end-to-end metrics, or per-layer ones.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload norm-nd --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``norm-nd``: cold ``norm`` of the critical power |x|^(-n/q) for
  (n, p, q) = (2, 1, 2) and (3, 2, 4), each in both modes, plus
  ``verify-thm1 --n 3 --p 2 --q 4 --s 2``.  Kernel-bound.  The seed only
  fixes the order of the commands.
* ``sweep-n1``: ``search --n 1 --p 1 --q 2`` in both modes with the
  default kinds, a fixed number of random pairs drawn from ``--seed``,
  and ``--threads 1``; each mode is preceded by a cold ``norm`` of the
  mode's witness power, whose value is checked against its closed form.
* ``sweep-n1-t2``: the same commands with ``--threads 2``.  Its search
  reports must equal, byte for byte, those of ``--threads 1``, which
  the run computes once, untimed, before it measures.

Every CLI command runs in a fresh interpreter (perfbench/worker.py) that
imports the package from ``src/`` and then calls ``morreyconst.cli.run``
in-process, so each command sees a cold norm cache.  One pass runs every
command of the workload once.  The run repeats passes while the next one
is expected to end within ``--seconds`` (always at least one) and
reports medians over passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, measured
by wrapping the package's public functions (perfbench/layertrace.py);
spans and a summary go to ``.perfbench-out/<workload>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is
one CLI command.  ``failed`` counts commands that the benchmark's own
checks reject: the command raised or timed out, its report does not
parse, its exit code disagrees with the report's ``n_failed``, a norm
is more than 1e-3 (relative) off its closed form, or a threaded report
differs from the single-threaded one.  A command whose report records a
failing check of the program's own, and which exits 1 accordingly, is a
faithfully reported defect: it lowers ``ok_share`` but is not a failed
operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

CLOSED_FORM_REL_TOL = 1e-3      # acceptance criterion 1's tolerance
SWEEP_TRIALS = 30               # random pairs per sweep command
TINY_SWEEP_TRIALS = 2
SETUP_REPS = 5                  # timed fresh-interpreter set-ups per run
COMMAND_TIMEOUT_S = 150.0
NORM_ND_CASES = ((2, 1.0, 2.0), (3, 2.0, 4.0))
MODES = ("morrey", "small")


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure this checkout."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    closed_form: float | None = None        # exact norm the report must give
    reference: tuple[str, ...] | None = None  # argv whose report bytes it must equal


def closed_form_norm(n: int, p: float, q: float) -> float:
    """Norm of |x|^(-n/q): v_n^(1/q) (1 - p/q)^(-1/p), v_n the unit-ball volume."""
    vn = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    return vn ** (1 / q) * (1 - p / q) ** (-1 / p)


def critical_norm(n: int, p: float, q: float, mode: str, extra: tuple[str, ...] = ()) -> Command:
    argv = ("norm", "--n", str(n), "--p", repr(p), "--q", repr(q), "--mode", mode,
            "--function", f"0 inf 1 {-n / q!r}", *extra)
    return Command(argv, closed_form=closed_form_norm(n, p, q))


def norm_nd(seed: int, tiny: bool) -> list[Command]:
    # The self-test's tiny size keeps the n = 3 commands only, at a loose
    # quadrature tolerance; n = 2 takes the same code path, more slowly.
    extra = ("--rel-tol", "1e-3") if tiny else ()
    cases = NORM_ND_CASES[1:] if tiny else NORM_ND_CASES
    commands = [critical_norm(n, p, q, mode, extra) for n, p, q in cases for mode in MODES]
    commands.append(Command(("verify-thm1", "--n", "3", "--p", "2", "--q", "4", "--s", "2", *extra)))
    random.Random(seed).shuffle(commands)
    return commands


def sweep(seed: int, tiny: bool, threads: int) -> list[Command]:
    trials = TINY_SWEEP_TRIALS if tiny else SWEEP_TRIALS
    commands = []
    for mode in MODES:
        commands.append(critical_norm(1, 1.0, 2.0, mode))
        base = ("search", "--n", "1", "--p", "1", "--q", "2", "--mode", mode,
                "--trials", str(trials), "--seed", str(seed))
        reference = (*base, "--threads", "1") if threads > 1 else None
        commands.append(Command((*base, "--threads", str(threads)), reference=reference))
    return commands


WORKLOADS = {
    "norm-nd": norm_nd,
    "sweep-n1": lambda seed, tiny: sweep(seed, tiny, threads=1),
    "sweep-n1-t2": lambda seed, tiny: sweep(seed, tiny, threads=2),
}


# ---------------------------------------------------------------------------
# Running commands


def run_worker(argv: tuple[str, ...], trace: bool, spans_path: str | None = None) -> dict:
    request = json.dumps({"argv": list(argv), "trace": trace, "spans_path": spans_path})
    try:
        proc = subprocess.run(
            [sys.executable, WORKER], input=request, capture_output=True, text=True,
            cwd=ROOT, timeout=COMMAND_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {COMMAND_TIMEOUT_S} s"}
    lines = proc.stdout.splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}


def norm_results(node) -> list[dict]:
    """Every serialized NormResult in a report tree."""
    if isinstance(node, dict):
        if "tol_ok" in node and "truncated" in node:
            return [node]
        return [r for value in node.values() for r in norm_results(value)]
    if isinstance(node, list):
        return [r for value in node for r in norm_results(value)]
    return []


@dataclass
class Outcome:
    """One command's result as the benchmark judged it."""

    argv: tuple[str, ...]
    result: dict
    faults: list[str] = field(default_factory=list)
    ok: bool = False
    norms: int = 0
    tol_misses: int = 0
    rel_err: float | None = None
    skipped: int = 0


def judge(cmd: Command, result: dict, reference_text: str | None) -> Outcome:
    out = Outcome(cmd.argv, result)
    if result.get("error"):
        out.faults.append(result["error"].strip().splitlines()[-1])
        return out
    try:
        report = json.loads(result["report"])
        n_failed = int(report["n_failed"])
    except (ValueError, KeyError, TypeError) as exc:
        out.faults.append(f"unreadable report: {exc!r}")
        return out
    if result["exit"] != (0 if n_failed == 0 else 1):
        out.faults.append(f"exit {result['exit']} with n_failed = {n_failed}")
    found = norm_results(report)
    out.norms = len(found)
    out.tol_misses = sum(1 for r in found if not r["tol_ok"])
    out.skipped = sum(t.get("n_skipped", 0) for t in report.get("tasks", []))
    if cmd.closed_form is not None:
        value = found[0]["value"] if found else None
        if value is None:
            out.faults.append("norm report without a finite value")
        else:
            out.rel_err = abs(value - cmd.closed_form) / cmd.closed_form
            if not out.rel_err <= CLOSED_FORM_REL_TOL:
                out.faults.append(f"norm {value!r} is off its closed form {cmd.closed_form!r}")
    if reference_text is not None and result["report"] != reference_text:
        out.faults.append("report differs from the single-threaded report")
    out.ok = not out.faults and result["exit"] == 0
    return out


def run_pass(commands, references, trace: bool, spans_dir: str | None) -> list[Outcome]:
    outcomes = []
    for k, cmd in enumerate(commands):
        spans_path = os.path.join(spans_dir, f"command{k}.npz") if spans_dir else None
        result = run_worker(cmd.argv, trace, spans_path)
        ref = references.get(cmd.reference) if cmd.reference else None
        outcomes.append(judge(cmd, result, ref))
    return outcomes


def end_to_end(outcomes: list[Outcome]) -> dict[str, float]:
    """Metrics of one untraced pass (set-up time is added by the caller)."""
    norms = sum(o.norms for o in outcomes)
    errors = [o.rel_err for o in outcomes if o.rel_err is not None]
    return {
        "wall_s": wall_seconds(outcomes),
        "cpu_s": sum(o.result.get("cpu_s", 0.0) for o in outcomes),
        "peak_rss_mb": max(o.result.get("maxrss_kb", 0) for o in outcomes) / 1024.0,
        "fail_share": sum(not o.ok for o in outcomes) / len(outcomes),
        "tol_miss_share": sum(o.tol_misses for o in outcomes) / norms if norms else 0.0,
        "max_rel_err": max(errors) if errors else math.inf,
    }


def wall_seconds(outcomes: list[Outcome]) -> float:
    return sum(o.result.get("wall_s", 0.0) for o in outcomes)


def setup_seconds(reps: int) -> list[float]:
    """Fresh interpreter: import the package and finish a trivial n = 1 norm report.

    The first start is a warm-up (bytecode caches, page cache) and is not
    reported.
    """
    cmd = critical_norm(1, 1.0, 2.0, "morrey")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    times = []
    for _ in range(reps + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "morreyconst.cli", *cmd.argv], capture_output=True,
            text=True, cwd=ROOT, env=env, timeout=COMMAND_TIMEOUT_S, check=False,
        )
        times.append(time.perf_counter() - t0)
        outcome = judge(cmd, {"exit": proc.returncode, "report": proc.stdout}, None)
        if not outcome.ok:
            raise BenchmarkError(f"set-up norm failed: {outcome.faults} {proc.stderr[-2000:]}")
    return times[1:]


# ---------------------------------------------------------------------------
# Per-layer metrics

KERNEL_FUNCS = ("integrate_abs_pow_ball", "ball_integrals_n1", "centered_integrals")
MODEL_FUNCS = ("canonicalize", "add", "subtract", "scale", "truncate", "parse_function")

# Each per-layer metric needs, from each group, at least one of these public
# functions in the package; a metric missing one is reported as absent.
NEEDS = {
    "kernel.points": [("cap_fraction_radii",)],
    "kernel.points_per_ball": [("cap_fraction_radii",), KERNEL_FUNCS],
    "kernel.tol_miss": [("integrate_abs_pow_ball",)],
    "search.balls_per_norm": [("norm",), KERNEL_FUNCS],
    "estimator.ratios": [("ratio",)],
    "estimator.requests_per_ratio": [("ratio",), ("norm",)],
    "estimator.repeat_share": [("ratio",), ("norm",)],
    "estimator.skipped": [],
    "cli.concurrency": [("run",), ("norm",)],
    "report.render_s": [("render_json", "render_csv")],
    "report.bytes": [],
}
LAYER_NEEDS = {
    "kernel": [KERNEL_FUNCS],
    "search": [("norm",)],
    "estimator": [("ratio", "estimate_constant")],
    "model": [MODEL_FUNCS],
    "cli": [("run",)],
    "trace": [],
}


def needs(metric: str) -> list[tuple[str, ...]]:
    if metric in NEEDS:
        return NEEDS[metric]
    return LAYER_NEEDS[metric.split(".")[0]]


def ratio_or_zero(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    g: Counter = Counter()
    for o in outcomes:
        g.update({k: v for k, v in o.result.get("layers", {}).items() if isinstance(v, (int, float))})
    return {
        "kernel.balls": g["kernel.balls"],
        "kernel.busy_s": g["kernel.busy_s"],
        "kernel.us_per_ball": 1e6 * ratio_or_zero(g["kernel.busy_s"], g["kernel.balls"]),
        "kernel.points": g["kernel.points"],
        "kernel.points_per_ball": ratio_or_zero(g["kernel.points"], g["kernel.balls"]),
        "kernel.tol_miss": g["kernel.tol_miss"],
        "search.requests": g["search.requests"],
        "search.distinct": g["search.distinct"],
        "search.computed": g["search.computed"],
        "search.busy_s": g["search.busy_s"],
        "search.self_s": g["search.self_s"],
        "search.balls_per_norm": ratio_or_zero(g["kernel.balls"], g["search.computed"]),
        "estimator.ratios": g["estimator.ratios"],
        "estimator.busy_s": g["estimator.busy_s"],
        "estimator.self_s": g["estimator.self_s"],
        "estimator.requests_per_ratio": ratio_or_zero(g["estimator.requests"], g["estimator.ratios"]),
        "estimator.repeat_share": ratio_or_zero(g["estimator.repeats"], g["estimator.requests"]),
        "estimator.skipped": sum(o.skipped for o in outcomes),
        "model.calls": g["model.calls"],
        "model.busy_s": g["model.busy_s"],
        "cli.busy_s": g["cli.busy_s"],
        "cli.self_s": g["cli.self_s"],
        "cli.concurrency": ratio_or_zero(g["search.busy_s"], g["cli.busy_s"]),
        "report.render_s": g["report.render_s"],
        "report.bytes": sum(len(o.result.get("report", "").encode()) for o in outcomes),
        "trace.spans": g["spans"],
    }


# ---------------------------------------------------------------------------


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def machine() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run the workload; return its end-to-end and (if traced) per-layer values.

    A traced run alternates untraced and traced passes, so it yields both.
    """
    if not os.path.isfile(os.path.join(SRC, "morreyconst", "cli.py")):
        raise BenchmarkError(f"no package source at {SRC}")
    commands = WORKLOADS[workload](seed, tiny)
    out_dir = os.path.join(OUT_DIR, workload)
    os.makedirs(out_dir, exist_ok=True)

    setups = setup_seconds(1 if tiny else SETUP_REPS)
    everything: list[Outcome] = []
    references: dict[tuple[str, ...], str] = {}
    for cmd in commands:
        if cmd.reference is not None and cmd.reference not in references:
            ref = Command(cmd.reference)
            outcome = judge(ref, run_worker(ref.argv, trace=False), None)
            everything.append(outcome)
            references[cmd.reference] = outcome.result.get("report", "")

    plain: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    present: set[str] = set()
    started = time.perf_counter()
    while True:
        outcomes = run_pass(commands, references, False, None)
        everything += outcomes
        plain.append(end_to_end(outcomes))
        if trace:
            outcomes = run_pass(commands, references, True, out_dir)
            everything += outcomes
            traced.append({**per_layer(outcomes), "wall_s": wall_seconds(outcomes)})
            for o in outcomes:
                present.update(o.result.get("layers", {}).get("present", ()))
        elapsed = time.perf_counter() - started
        if elapsed * (1 + 1 / len(plain)) > seconds:
            break

    e2e = median_of(plain)
    e2e["setup_s"] = statistics.median(setups)
    e2e["ok_share"] = 1.0 - e2e["fail_share"]
    e2e["tol_ok_share"] = 1.0 - e2e["tol_miss_share"]
    # Digits, not the error itself: a change in the last bits of a correct
    # norm is no regression.  Clamped to [0, 52 bits].
    e2e["rel_err_digits"] = -math.log10(min(max(e2e["max_rel_err"], 2.0**-52), 1.0))
    layers = None
    if trace:
        layers = median_of(traced)
        layers["trace.overhead_s"] = layers.pop("wall_s") - e2e["wall_s"]
        layers = {k: v for k, v in layers.items() if all(present & set(g) for g in needs(k))}

    measurement = {
        "workload": workload,
        "seed": seed,
        "machine": machine(),
        "passes": len(plain),
        "attempted": len(everything),
        "failed": sum(1 for o in everything if o.faults),
        "end_to_end": e2e,
        "per_layer": layers,
        "setup_s_samples": setups,
        "end_to_end_per_pass": plain,
        "per_layer_per_pass": traced,
        "faults": [{"argv": o.argv, "faults": o.faults} for o in everything if o.faults],
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(measurement, fh, indent=1, sort_keys=True)
    return measurement


def result_line(measurement: dict, spec: dict, trace: bool) -> tuple[dict, list[str]]:
    """The final JSON object, and the per-layer metrics that are absent."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = measurement["per_layer"] if trace else measurement["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    absent = [m["name"] for m in wanted if m["name"] not in values]
    result = {
        "correct": measurement["failed"] == 0,
        "attempted": measurement["attempted"],
        "failed": measurement["failed"],
        "metrics": metrics,
    }
    return result, absent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # Exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # reaps the running command's process before the benchmark ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        spec = load_spec()
        measurement = measure(args.workload, args.seed, args.seconds, trace)
        result, absent = result_line(measurement, spec, trace)
    except (BenchmarkError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 1

    m = measurement
    print(f"workload {m['workload']}, seed {m['seed']}, {m['passes']} pass(es), "
          f"{m['attempted']} commands, {m['failed']} failed, machine {m['machine']}")
    for key in ("fail_share", "tol_miss_share", "max_rel_err"):
        print(f"  {key} = {m['end_to_end'][key]!r}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    for name in absent:
        print(f"  {name}: absent (the public functions it is measured at are gone)")
    for fault in m["faults"]:
        print(f"  failed: {' '.join(fault['argv'])}: {'; '.join(fault['faults'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
