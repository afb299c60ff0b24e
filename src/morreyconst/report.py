"""Deterministic report assembly and rendering.

A report is a plain JSON-able tree: config echo, per-task results, and a
flat list of named checks, each carrying expected value, computed value
and tolerance so failures are machine-readable.  Rendering is strictly
deterministic -- sorted keys, round-tripping float literals, no NaN/inf
tokens (infinities appear as a null value plus an ``infinite`` flag) --
so identical configuration and seed produce identical bytes regardless
of scheduling.  Timing therefore never goes into the report body; the
CLI prints it to stderr.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Any

from morreyconst import __version__
from morreyconst.constants import ConstantEstimate
from morreyconst.model import format_function
from morreyconst.norms import NormResult

__all__ = [
    "Check",
    "serialize_norm_result",
    "serialize_estimate",
    "build_report",
    "render_json",
    "render_csv",
    "flatten",
]


@dataclass(frozen=True)
class Check:
    """One verifiable assertion with its full verdict context."""

    name: str
    passed: bool
    expected: str
    computed: float | None
    tolerance: float | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "expected": self.expected,
            "computed": _clean_float(self.computed),
            "tolerance": _clean_float(self.tolerance),
        }


def _clean_float(x: float | None) -> float | None:
    if x is None:
        return None
    if math.isnan(x) or math.isinf(x):
        return None
    return float(x)


def serialize_norm_result(res: NormResult) -> dict[str, Any]:
    return {
        "value": None if res.infinite else res.value,
        "infinite": res.infinite,
        "argmax_d": res.argmax.d if res.argmax is not None else None,
        "argmax_r": res.argmax.r if res.argmax is not None else None,
        "truncated": res.truncated,
        "tol_ok": res.tol_ok,
    }


def serialize_estimate(est: ConstantEstimate, seed: int, trials: int) -> dict[str, Any]:
    x, y = est.best_pair if est.best_pair is not None else (None, None)
    return {
        "kind": est.kind.family.value,
        "s": est.kind.s,
        "best_ratio": est.best_ratio,
        "best_index": est.best_index,
        "witness_x": format_function(x) if x is not None else None,
        "witness_y": format_function(y) if y is not None else None,
        "n_pairs_tried": est.n_pairs_tried,
        "n_skipped": est.n_skipped,
        "max_ratio_seen": est.max_ratio_seen,
        "trials": trials,
        "seed": seed,
    }


def build_report(
    command: str, config: dict[str, Any], tasks: list[dict[str, Any]], checks: list[Check]
) -> dict[str, Any]:
    return {
        "tool": {"name": "morreyconst", "version": __version__},
        "command": command,
        "config": config,
        "tasks": tasks,
        "checks": [c.as_dict() for c in checks],
        "n_checks": len(checks),
        "n_failed": sum(1 for c in checks if not c.passed),
        "all_passed": all(c.passed for c in checks),
    }


def render_json(report: dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def flatten(obj: Any, prefix: str = "") -> list[tuple[str, Any]]:
    """Depth-first (path, leaf) pairs; list indices become path segments."""
    if isinstance(obj, dict):
        out = []
        for key in sorted(obj):
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.extend(flatten(obj[key], sub))
        return out
    if isinstance(obj, (list, tuple)):
        out = []
        for i, item in enumerate(obj):
            sub = f"{prefix}.{i}" if prefix else str(i)
            out.extend(flatten(item, sub))
        return out
    return [(prefix, obj)]


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(report: dict[str, Any]) -> str:
    """Same content as the JSON tree, as (path, value) rows.

    Float cells use round-tripping literals, so the numeric content is
    identical to the JSON rendering character for character.
    """
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path", "value"])
    for path, value in flatten(report):
        writer.writerow([path, _csv_cell(value)])
    return buf.getvalue()
