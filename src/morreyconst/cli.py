"""Command-line front end.

Subcommands
-----------
norm         compute the norm of a piecewise radial power function
verify-thm1  check that all four ratio constants reach 2 in the
             unrestricted-radius mode, via the extremal witness pair
verify-thm2  check the small-mode analogue along a ladder of split radii
constants    maximize each ratio over witnesses plus random pairs
search       random sweep reporting violations of the universal bound 2

Usage: morreyconst COMMAND [--flag VALUE | --flag=VALUE]..., each flag a
config key with _ written - (--rel-tol), or --config, by its exact name;
--s and --eps collect every use, and a flag wins over the config file.
Reports are byte-deterministic for a fixed configuration and seed; wall
time goes to stderr only.  Exit status is 0 when every check in the
report passed, 1 when one failed, 2 on bad input or an unwritable report.

Each command owns one norms.NormTable: the ratio commands hand it all
their candidate pairs at once, so every distinct norm shape (|f| up to
a positive factor) is certified, solved exactly (n = 1) or searched
once.  The certificate and the exact n = 1 path run in the command's
process; --threads N > 1 lets it hand the n >= 2 searches to a pool of
at most N (and at most the CPU count) worker processes, shut down before
the command returns.
The workers only search; their results stay in the command's table.
The thread count never changes the report.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, NoReturn

from morreyconst.constants import (
    DEFAULT_EPS_LADDER,
    ConstantKind,
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
    format_function,
    parse_function,
    subtract,
    truncate,
)
from morreyconst.norms import NormTable, closed_form_power_norm, search_window
from morreyconst.report import (
    Check,
    build_report,
    render_csv,
    render_json,
    serialize_estimate,
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


def _one_of(value: Any, *options: str) -> str:
    if value not in options:
        raise ValueError(f"expected one of {list(options)}")
    return value


def _float_list(value: Any) -> list[float]:
    if not isinstance(value, list):
        raise ValueError("expected a list of numbers")
    return [float(str(v)) for v in value]


# Every config key: its default, the converter that checks a flag's value
# and a config-file value (a list item by item) from their text, so that
# 2.5 and true are no int and true is no float, and its --help line.
_KEYS: dict[str, tuple[Any, Any, str]] = {
    "n": (1, int, "space dimension"),
    "p": (1.0, float, "integrability exponent"),
    "q": (2.0, float, "scaling exponent (p <= q)"),
    "mode": ("morrey", lambda v: _one_of(v, "morrey", "small"), "morrey: all radii, small: r < 1"),
    "s": ([2.0], _float_list, "power parameter, repeatable"),
    "eps": (list(DEFAULT_EPS_LADDER), _float_list, "small-mode split radius ladder, repeatable"),
    "rel_tol": (1e-10, float, "quadrature relative tolerance"),
    "seed": (0, int, "random-pair generator seed"),
    "trials": (0, int, "number of random pairs"),
    "threads": (1, int, "worker processes for the n >= 2 searches (at most the CPU count)"),
    "out": (None, str, "report path (default: stdout)"),
    "format": ("json", lambda v: _one_of(v, "json", "csv"), "report format"),
    "function": (None, str, "pieces as 'lo hi coef alpha; ...'"),
}

# commands fix the radius domain themselves; --mode only matters elsewhere
_FORCED_MODE = {"verify-thm1": "morrey", "verify-thm2": "small"}
_USAGE = "usage: morreyconst COMMAND [--flag VALUE | --flag=VALUE]..."
_CONFIG = (None, str, "JSON file with any of the flags below")  # --config, no key of the file


def _usage_error(message: str) -> NoReturn:
    print(f"{_USAGE}\nmorreyconst: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The command, ``config`` and one attribute per key of _KEYS (None when absent)."""
    flags = {"--" + key.replace("_", "-"): key for key in ("config", *_KEYS)}
    args = SimpleNamespace(command=None, config=None, **dict.fromkeys(_KEYS))
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            lines = (f"  {flag:<11} {_KEYS.get(key, _CONFIG)[2]}" for flag, key in flags.items())
            print(_USAGE, "", *str(__doc__).split("\n\n")[1:2], "", "flags:", *lines, sep="\n")
            raise SystemExit(0)
        if args.command is None:
            if token not in _COMMANDS:
                _usage_error(f"expected a command ({', '.join(_COMMANDS)}), got {token!r}")
            args.command = token
            continue
        name, joined, text = token.partition("=")
        if name not in flags:
            _usage_error(f"unknown flag or stray argument {token!r}")
        text = text if joined else next(tokens, None)
        if text is None:
            _usage_error(f"{name} expects a value")
        key = flags[name]
        default, convert, _ = _KEYS.get(key, _CONFIG)
        many = isinstance(default, list)  # --s and --eps append, other flags keep the last
        try:
            value = (getattr(args, key) or []) + convert([text]) if many else convert(text)
        except ValueError as exc:
            _usage_error(f"{name}: bad value {text!r} ({exc})")
        setattr(args, key, value)
    if args.command is None:
        _usage_error(f"expected a command ({', '.join(_COMMANDS)})")
    return args


def _resolve_config(command: str, args: SimpleNamespace) -> RunConfig:
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
        default, convert, _ = _KEYS[key]
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
        "function": format_function(f),
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


def _outer_part_truncated(space, a: float, b: float, r_max: float, rel_tol: float) -> bool:
    """The exact n = 1 truncation flag of h = |x|^(-1/q) on a <= |x| < b.

    h is the outer witness part: a = eps, b = 1 in small mode, a = 1,
    b = infinity in Morrey mode.  With kappa = 1 - p/q, |h|^p is
    |x|^(kappa - 1), and value^p of an interval is its length^(-kappa)
    times its integral of |h|^p.  An interval on one side of 0 does best
    starting at a (|h| falls), where value^p is
    len^(-kappa) ((a + len)^kappa - a^kappa) / kappa, which rises with
    len up to b - a.  One holding points on both sides does best
    centered (the integral is concave in each end), where value^p is
    (2 r)^(-kappa) 2 (r^kappa - a^kappa) / kappa, which rises with r up
    to b.  So the supremum over radii up to rho is the larger of the two
    at len = min(2 rho, b - a) and r = min(rho, b); over every radius of
    the mode it is that at rho = 1 in small mode, and the limit
    2^(1 - kappa) / kappa in Morrey mode.  The flag is set when that
    beats the window's supremum by more than rel_tol.
    """
    kappa = 1.0 - space.p / space.q

    def best(rho: float) -> float:
        length, r = min(2.0 * rho, b - a), min(rho, b)
        one = length**-kappa * ((a + length) ** kappa - a**kappa) / kappa
        two = (2.0 * r) ** -kappa * 2.0 * (r**kappa - a**kappa) / kappa
        return max(one, two) ** (1.0 / space.p)

    full = best(1.0) if b < math.inf else (2.0 ** (1.0 - kappa) / kappa) ** (1.0 / space.p)
    return full > best(r_max) * (1.0 + rel_tol)


def _truncation_check(name: str, space, res, expected: bool, climbing: str) -> Check:
    """The check that res's truncation flag is the expected one.

    For n >= 2 the flag is expected set, which the search's margin rule
    decides; for n = 1 the expectation is derived
    (:func:`_outer_part_truncated`).
    """
    if space.n == 1:
        text = f"exact n = 1 truncation flag {'set' if expected else 'clear'} (derived)"
    else:
        text = f"supremum still climbing {climbing}: truncation flag set"
    return Check(name, res.truncated == expected, text, 1.0 if res.truncated else 0.0)


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
    expected = space.n > 1 or _outer_part_truncated(space, 1.0, math.inf, r_max, cfg.integ.rel_tol)
    checks.append(
        _truncation_check("norm_chain_h_truncated", space, results["h"], expected, "at r_max")
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
        r_max = search_window(outer[i], space.mode)[1]
        expected = space.n > 1 or _outer_part_truncated(space, eps, 1.0, r_max,
                                                        cfg.integ.rel_tol)
        checks.append(
            _truncation_check(f"h_truncated_eps={eps:g}", space, nh, expected, "as r -> 1")
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
                        "x": format_function(pairs[idx][0]),
                        "y": format_function(pairs[idx][1]),
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
    args = _parse_args(sys.argv[1:] if argv is None else argv)
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
    try:
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write report to {cfg.out or 'stdout'}: {exc}", file=sys.stderr)
        return 2
    print(f"wall_time_seconds={time.perf_counter() - started:.3f}", file=sys.stderr)
    return 0 if report["all_passed"] else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
