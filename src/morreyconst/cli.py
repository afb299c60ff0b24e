"""Command-line front end.

Subcommands
-----------
norm         compute the norm of a piecewise radial power function
verify-thm1  check that all four ratio constants reach 2 in the
             unrestricted-radius mode, via the extremal witness pair
verify-thm2  check the small-mode analogue along a ladder of split radii
constants    maximize each ratio over witnesses plus random pairs
search       random sweep reporting violations of the universal bound 2

All flags may also come from a JSON config file (--config); explicit
flags win.  Reports are JSON or CSV with byte-deterministic content for
a fixed configuration and seed; wall time goes to stderr only.  Exit
status is 0 exactly when every check in the report passed.

Each command owns one NormTable: the ratio commands hand it all their
candidate pairs at once, so every distinct norm shape (|f| up to a
positive factor) is searched once, in lockstep groups, and --threads
N > 1 lets it hand those groups to a pool of at most N (and at most the
CPU count) worker processes, shut down before the command returns.
The workers only search; the memo stays in the command's process.
The thread count never changes the report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from morreyconst.constants import (
    DEFAULT_EPS_LADDER,
    ConstantKind,
    NormTable,
    candidate_pairs,
    estimate_constants,
    pair_ratios,
    theorem2_lower_bound,
    witness_pair_morrey,
    witness_pair_small_morrey,
)
from morreyconst.integrate import IntegrationSettings
from morreyconst.model import (
    FunctionParseError,
    Mode,
    SpaceParams,
    parse_function,
    subtract,
    truncate,
)
from morreyconst.norms import closed_form_power_norm, search_window
from morreyconst.report import (
    Check,
    build_report,
    render_csv,
    render_json,
    serialize_estimate,
    serialize_function,
    serialize_norm_result,
)

__all__ = ["main", "run", "RunConfig", "ConfigError"]

RATIO_CEILING_SLACK = 1e-9      # admissible numerical excess above 2
BOUND_SLACK = 1e-3              # admissible deficit against closed-form bounds
FINAL_EPS_WINDOW = 0.02         # how close to 2 the smallest split must get


class ConfigError(ValueError):
    """Invalid or inconsistent command configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration shared by all subcommands."""

    space: SpaceParams
    s_values: tuple[float, ...]
    eps_ladder: tuple[float, ...]
    integ: IntegrationSettings
    random_trials: int
    seed: int
    threads: int
    out: str | None
    format: str
    function_text: str | None

    def echo(self) -> dict[str, Any]:
        """Config as serialized in the report.

        Thread count and output path are deliberately absent: they must
        not influence report bytes.
        """
        return {
            "n": self.space.n,
            "p": self.space.p,
            "q": self.space.q,
            "mode": self.space.mode.value,
            "s_values": list(self.s_values),
            "eps_ladder": list(self.eps_ladder),
            "rel_tol": self.integ.rel_tol,
            "seed": self.seed,
            "trials": self.random_trials,
            "function": self.function_text,
        }


_MODES = ("morrey", "small")
_FORMATS = ("json", "csv")


def _one_of(options: tuple[str, ...], value: Any) -> str:
    if value not in options:
        raise ValueError(f"expected one of {list(options)}")
    return value


def _float_list(value: Any) -> list[float]:
    if not isinstance(value, list):
        raise ValueError("expected a list of numbers")
    return [float(str(v)) for v in value]


# Every config key: its default, and how a config-file value is checked
# and converted, as the flag's parser type and choices check the flag.
# A file value is converted from its text (a list item by item), as a
# flag is, so that 2.5 and true are no int and true is no float.
_KEYS: dict[str, tuple[Any, Any]] = {
    "n": (1, int),
    "p": (1.0, float),
    "q": (2.0, float),
    "mode": ("morrey", lambda value: _one_of(_MODES, value)),
    "s": ([2.0], _float_list),
    "eps": (list(DEFAULT_EPS_LADDER), _float_list),
    "rel_tol": (1e-10, float),
    "seed": (0, int),
    "trials": (0, int),
    "threads": (1, int),
    "out": (None, str),
    "format": ("json", lambda value: _one_of(_FORMATS, value)),
    "function": (None, str),
}

# commands fix the radius domain themselves; --mode only matters elsewhere
_FORCED_MODE = {"verify-thm1": "morrey", "verify-thm2": "small"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morreyconst",
        description="Ball-averaged norms of radial power functions and the "
        "ratio constants of the resulting spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "norm": "compute the norm of a piecewise radial power function",
        "verify-thm1": "verify the unrestricted-mode constants reach 2",
        "verify-thm2": "verify the small-mode constants approach 2 along a split ladder",
        "constants": "estimate each constant over witnesses and random pairs",
        "search": "random sweep checking that no ratio exceeds 2",
    }
    for name, desc in descriptions.items():
        sp = sub.add_parser(name, help=desc, description=desc)
        sp.add_argument("--config", help="JSON file with any of the flags below")
        sp.add_argument("--n", type=int, help="space dimension")
        sp.add_argument("--p", type=float, help="integrability exponent")
        sp.add_argument("--q", type=float, help="scaling exponent (p <= q)")
        sp.add_argument("--mode", choices=_MODES,
                        help="radius domain: all radii, or radii below 1")
        sp.add_argument("--s", type=float, action="append",
                        help="power parameter, repeatable")
        sp.add_argument("--eps", type=float, action="append",
                        help="small-mode split radius ladder, repeatable")
        sp.add_argument("--rel-tol", type=float, dest="rel_tol",
                        help="quadrature relative tolerance")
        sp.add_argument("--seed", type=int, help="random-pair generator seed")
        sp.add_argument("--trials", type=int, help="number of random pairs")
        sp.add_argument("--threads", type=int,
                        help="worker processes for the lockstep groups of distinct norms "
                        "(capped at the CPU count)")
        sp.add_argument("--out", help="report path (default: stdout)")
        sp.add_argument("--format", choices=_FORMATS, help="report format")
        sp.add_argument("--function", help="pieces as 'lo hi coef alpha; ...'")
    return parser


def _resolve_config(command: str, args: argparse.Namespace) -> RunConfig:
    file_values: dict[str, Any] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}")
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {args.config!r} must hold a JSON object")
        unknown = set(file_values) - set(_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def pick(key: str) -> Any:
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        default, convert = _KEYS[key]
        value = file_values.get(key)
        if value is None:
            return default
        try:
            return convert(value if isinstance(value, list) else str(value))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: bad value {value!r} ({exc})")

    mode = Mode(_FORCED_MODE.get(command, pick("mode")))
    try:
        space = SpaceParams(pick("n"), pick("p"), pick("q"), mode)
        integ = IntegrationSettings(rel_tol=pick("rel_tol"))
    except ValueError as exc:
        raise ConfigError(str(exc))

    eps_ladder = tuple(sorted(pick("eps"), reverse=True))
    if not eps_ladder:
        raise ConfigError("the eps ladder must hold at least one split radius")
    if any(not (0.0 < e < 1.0) for e in eps_ladder):
        raise ConfigError(f"split radii must lie in (0, 1), got {list(eps_ladder)}")
    s_values = tuple(pick("s"))
    if any(s < 1.0 for s in s_values):
        raise ConfigError(f"s values must be >= 1, got {list(s_values)}")

    trials = pick("trials")
    if command == "search" and args.trials is None and file_values.get("trials") is None:
        trials = 100
    if trials < 0:
        raise ConfigError("trials must be >= 0")
    if command == "search" and trials < 1:
        raise ConfigError("search requires trials >= 1")

    threads = pick("threads")
    if threads < 1:
        raise ConfigError("threads must be >= 1")

    return RunConfig(
        space=space,
        s_values=s_values,
        eps_ladder=eps_ladder,
        integ=integ,
        random_trials=trials,
        seed=pick("seed"),
        threads=threads,
        out=pick("out"),
        format=pick("format"),
        function_text=pick("function"),
    )


def _all_kinds(s_values: tuple[float, ...]) -> list[ConstantKind]:
    kinds = [ConstantKind.gen_vnj(s) for s in s_values] + [ConstantKind.mod_vnj()]
    kinds += [ConstantKind.gen_mod_vnj(s) for s in s_values] + [ConstantKind.zbaganu()]
    return list(dict.fromkeys(kinds))


def _witness_ratios(kinds, pairs, table: NormTable) -> list[list[float]]:
    """pair_ratios for witness pairs, whose ratios are all defined."""
    rows = pair_ratios(kinds, pairs, table)
    if any(math.isnan(value) for row in rows for value in row):
        raise ValueError("a witness pair has an undefined ratio")
    return rows


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each takes the command's NormTable and returns
# (tasks, checks).


def _cmd_norm(cfg: RunConfig, table: NormTable):
    f = parse_function(cfg.function_text or "")
    [res] = table.evaluate([f])
    task = {
        "task": "norm",
        "function": serialize_function(f),
        "result": serialize_norm_result(res),
    }
    return [task], []


def _theorem1_ratio_tolerance(kind: ConstantKind, deficit: float, rel_tol: float) -> float:
    """Admissible gap below 2 for a witness ratio at a finite r_max.

    The outer witness part loses a factor (1 - deficit) of its norm, so
    an s-power ratio computes to 1 + (1 - deficit)^s >= 2 - s*deficit;
    the product and unit-pair forms behave like s = 2.
    """
    s_eff = kind.s if kind.s is not None else 2.0
    return s_eff * deficit + 10.0 * rel_tol


def _cmd_verify_thm1(cfg: RunConfig, table: NormTable):
    space = cfg.space
    space.require_strict()
    f, k = witness_pair_morrey(space)
    g = truncate(f, 0.0, 1.0)
    h = subtract(f, g)

    kinds = _all_kinds(cfg.s_values)
    names = ("f", "g", "h", "k")
    functions = (f, g, h, k)
    results = dict(zip(names, table.evaluate(functions)))
    values = [row[0] for row in _witness_ratios(kinds, [(f, k)], table)]
    cf = closed_form_power_norm(space)
    _, r_max, _ = search_window(h, space.mode)
    deficit = r_max ** (-space.n * (1.0 - space.p / space.q) / space.p)

    checks = [
        Check(
            "closed_form_norm",
            abs(results["f"].value - cf) <= 1e-3 * cf,
            f"norm of the pure power = {cf!r} (closed form)",
            results["f"].value,
            1e-3,
        )
    ]
    for name in ("g", "k"):
        checks.append(
            Check(
                f"norm_chain_{name}",
                abs(results[name].value - results["f"].value) <= 1e-3 * results["f"].value,
                "equals the norm of the full power",
                results[name].value,
                1e-3,
            )
        )
    checks.append(
        Check(
            "norm_chain_h_deficit",
            abs(results["h"].value - results["f"].value)
            <= 2.0 * deficit * results["f"].value,
            f"within relative 2*deficit of the full power norm, deficit={deficit!r}",
            results["h"].value,
            2.0 * deficit,
        )
    )
    checks.append(
        Check(
            "norm_chain_h_truncated",
            results["h"].truncated,
            "supremum still climbing at r_max: truncation flag set",
            1.0 if results["h"].truncated else 0.0,
        )
    )

    ratio_tasks = []
    for kind, value in zip(kinds, values):
        tol = _theorem1_ratio_tolerance(kind, deficit, cfg.integ.rel_tol)
        checks.append(
            Check(
                f"ratio_{kind.label()}",
                2.0 - tol <= value <= 2.0 + RATIO_CEILING_SLACK,
                f"witness ratio in [2 - {tol!r}, 2 + {RATIO_CEILING_SLACK!r}]",
                value,
                tol,
            )
        )
        ratio_tasks.append({"kind": kind.family.value, "s": kind.s, "value": value})

    tasks = [
        {
            "task": "witness_norms",
            "closed_form": cf,
            "norms": {name: serialize_norm_result(results[name]) for name in names},
        },
        {"task": "witness_ratios", "ratios": ratio_tasks},
    ]
    return tasks, checks


def _cmd_verify_thm2(cfg: RunConfig, table: NormTable):
    space = cfg.space
    space.require_strict()
    ladder = cfg.eps_ladder
    cf = closed_form_power_norm(space)

    kinds = _all_kinds(cfg.s_values)
    pairs = [witness_pair_small_morrey(space, eps) for eps in ladder]
    outer = [subtract(f, truncate(f, 0.0, eps)) for (f, _), eps in zip(pairs, ladder)]
    nf, *outer_norms = table.evaluate([pairs[0][0], *outer])
    rows = _witness_ratios(kinds, pairs, table)
    checks = [
        Check(
            "closed_form_norm",
            abs(nf.value - cf) <= 1e-3 * cf,
            f"norm of the truncated power = {cf!r} (closed form)",
            nf.value,
            1e-3,
        )
    ]

    tasks: list[dict[str, Any]] = []
    for i, (eps, nh) in enumerate(zip(ladder, outer_norms)):
        h_bound = nf.value * (
            1.0 - eps ** (space.n * (1.0 - space.p / space.q))
        ) ** (1.0 / space.p)
        checks.append(
            Check(
                f"h_lower_bound_eps={eps:g}",
                nh.value >= h_bound * (1.0 - BOUND_SLACK),
                f"outer-part norm >= {h_bound!r} (closed-form lower bound)",
                nh.value,
                BOUND_SLACK,
            )
        )
        checks.append(
            Check(
                f"h_truncated_eps={eps:g}",
                nh.truncated,
                "supremum still climbing as r -> 1: truncation flag set",
                1.0 if nh.truncated else 0.0,
            )
        )
        eps_ratios = []
        for kind, row in zip(kinds, rows):
            value = row[i]
            bound = theorem2_lower_bound(space, eps, kind)
            checks.append(
                Check(
                    f"ratio_{kind.label()}_eps={eps:g}",
                    bound - BOUND_SLACK <= value <= 2.0 + RATIO_CEILING_SLACK,
                    f"in [{bound!r} - {BOUND_SLACK!r}, 2 + {RATIO_CEILING_SLACK!r}]",
                    value,
                    BOUND_SLACK,
                )
            )
            eps_ratios.append(
                {"kind": kind.family.value, "s": kind.s, "value": value, "bound": bound}
            )
        tasks.append(
            {
                "task": "witness_ratios",
                "eps": eps,
                "h_norm": serialize_norm_result(nh),
                "h_bound": h_bound,
                "ratios": eps_ratios,
            }
        )

    for kind, values in zip(kinds, rows):
        monotone = all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        checks.append(
            Check(
                f"monotone_{kind.label()}",
                monotone,
                "ratios nondecreasing as the split radius shrinks",
                values[-1],
                1e-9,
            )
        )
        checks.append(
            Check(
                f"final_eps_{kind.label()}",
                abs(values[-1] - 2.0) <= FINAL_EPS_WINDOW,
                f"within {FINAL_EPS_WINDOW!r} of 2 at the smallest split {ladder[-1]:g}",
                values[-1],
                FINAL_EPS_WINDOW,
            )
        )
    return tasks, checks


def _cmd_constants(cfg: RunConfig, table: NormTable):
    kinds = _all_kinds(cfg.s_values)
    ceiling = 2.0 + 5.0 * cfg.integ.rel_tol
    pairs = candidate_pairs(
        cfg.space, random_trials=cfg.random_trials, seed=cfg.seed, eps_ladder=cfg.eps_ladder
    )
    estimates = estimate_constants(kinds, pairs, table)
    tasks = []
    checks = []
    for kind, est in zip(kinds, estimates):
        tasks.append(
            {"task": "estimate", **serialize_estimate(est, cfg.seed, cfg.random_trials)}
        )
        checks.append(
            Check(
                f"upper_bound_{kind.label()}",
                est.max_ratio_seen <= ceiling,
                f"no ratio above {ceiling!r}",
                est.max_ratio_seen,
                5.0 * cfg.integ.rel_tol,
            )
        )
        if cfg.space.mode is Mode.MORREY:
            floor = 2.0 - FINAL_EPS_WINDOW
        else:
            floor = theorem2_lower_bound(cfg.space, cfg.eps_ladder[-1], kind) - BOUND_SLACK
        checks.append(
            Check(
                f"witness_floor_{kind.label()}",
                est.best_ratio >= floor,
                f"witness pairs push the estimate to at least {floor!r}",
                est.best_ratio,
            )
        )
    return tasks, checks


def _cmd_search(cfg: RunConfig, table: NormTable):
    kinds = _all_kinds(cfg.s_values)
    ceiling = 2.0 + 5.0 * cfg.integ.rel_tol
    pairs = candidate_pairs(
        cfg.space, random_trials=cfg.random_trials, seed=cfg.seed, eps_ladder=cfg.eps_ladder
    )
    estimates = estimate_constants(kinds, pairs, table, keep_trace=True)
    tasks = []
    checks = []
    for kind, est in zip(kinds, estimates):
        evaluated = [
            (idx, value)
            for idx, value in enumerate(est.trace)
            if not math.isnan(value)
        ]
        violations = sum(1 for _, value in evaluated if value > ceiling)
        top = sorted(evaluated, key=lambda iv: (-iv[1], iv[0]))[:5]
        tasks.append(
            {
                "task": "sweep",
                "kind": kind.family.value,
                "s": kind.s,
                "max_ratio": est.max_ratio_seen,
                "violations": violations,
                "n_pairs_tried": est.n_pairs_tried,
                "n_skipped": est.n_skipped,
                "top_pairs": [
                    {
                        "index": idx,
                        "ratio": value,
                        "x": serialize_function(pairs[idx][0]),
                        "y": serialize_function(pairs[idx][1]),
                    }
                    for idx, value in top
                ],
            }
        )
        checks.append(
            Check(
                f"no_violations_{kind.label()}",
                violations == 0,
                f"zero ratios above {ceiling!r}",
                float(violations),
                5.0 * cfg.integ.rel_tol,
            )
        )
    return tasks, checks


_COMMANDS = {
    "norm": _cmd_norm,
    "verify-thm1": _cmd_verify_thm1,
    "verify-thm2": _cmd_verify_thm2,
    "constants": _cmd_constants,
    "search": _cmd_search,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = _resolve_config(args.command, args)
        with NormTable(cfg.space, cfg.integ, cfg.threads) as table:
            tasks, checks = _COMMANDS[args.command](cfg, table)
    except (ConfigError, FunctionParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = build_report(args.command, cfg.echo(), tasks, checks)
    text = render_json(report) if cfg.format == "json" else render_csv(report)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"wall_time_seconds={time.perf_counter() - started:.3f}", file=sys.stderr)
    return 0 if report["all_passed"] else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
