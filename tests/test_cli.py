"""CLI subcommands, config resolution, report formats, determinism."""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import subprocess
import sys

import pytest

from morreyconst.cli import _KEYS, _parse_args, _resolve_config, run
from morreyconst.norms import _search_chunk
from morreyconst.report import flatten


# where _logged_search_chunk appends; a module global, so that forked
# pool workers inherit it
_SEARCH_LOG = ""


def _logged_search_chunk(fs, params, integ):
    """The n >= 2 searches of fs, logging (pid, fs, params, integ) from any process.

    Defined at module level, so that a pool can pickle it by name.
    """
    with open(_SEARCH_LOG, "ab", buffering=0) as fh:
        fh.write(pickle.dumps((os.getpid(), fs, params, integ)))
    return _search_chunk(fs, params, integ)


def _read_search_log(path) -> list:
    records = []
    if path.exists():
        with open(path, "rb") as fh:
            while fh.peek(1):
                records.append(pickle.load(fh))
    return records


def run_json(capsys, argv):
    """Invoke the CLI in-process and parse its JSON report from stdout."""
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestNormCommand:
    def test_power_norm_value(self, capsys):
        code, rep = run_json(
            capsys,
            ["norm", "--function", "0 inf 1 -0.5", "--n", "1", "--p", "1", "--q", "2"],
        )
        assert code == 0
        res = rep["tasks"][0]["result"]
        assert res["value"] == pytest.approx(2.8284271247461903, rel=1e-3)
        assert not res["infinite"]

    def test_non_member_reported_not_crashed(self, capsys):
        code, rep = run_json(
            capsys,
            ["norm", "--function", "0 inf 1 -1", "--n", "1", "--p", "1", "--q", "2"],
        )
        assert code == 0
        res = rep["tasks"][0]["result"]
        assert res["infinite"] is True and res["value"] is None

    def test_empty_function_is_zero(self, capsys):
        code, rep = run_json(capsys, ["norm", "--function", ""])
        assert code == 0
        assert rep["tasks"][0]["result"]["value"] == 0.0

    def test_parse_error_exit_2(self, capsys):
        code = run(["norm", "--function", "0 one 1 -0.5"])
        assert code == 2
        assert "piece 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--r-max", "--d-max"])
    def test_window_flags_removed(self, capsys, flag):
        # the search window follows from the function and the mode alone
        with pytest.raises(SystemExit) as exc:
            run(["norm", "--function", "", flag, "2"])
        assert exc.value.code == 2

    def test_infinite_never_in_json_floats(self, capsys):
        # the JSON renderer forbids NaN/inf tokens outright
        code, rep = run_json(
            capsys,
            ["norm", "--function", "0 inf 1 -1", "--n", "1", "--p", "1", "--q", "2"],
        )
        for _, leaf in flatten(rep):
            if isinstance(leaf, float):
                assert math.isfinite(leaf)


class TestVerifyTheorem1:
    def test_passes_at_defaults(self, capsys):
        code, rep = run_json(capsys, ["verify-thm1", "--n", "1", "--p", "1", "--q", "2"])
        assert code == 0
        assert rep["all_passed"] is True
        names = {c["name"] for c in rep["checks"]}
        assert "closed_form_norm" in names
        assert "norm_chain_h_truncated" in names
        assert any(name.startswith("ratio_gen_vnj") for name in names)

    def test_n3_passes_at_defaults(self, capsys):
        # the outer part h is certified: its bathtub bound over the window
        # meets its centered supremum 2.023192236959367, below the
        # r -> infinity limit 2.0231922379709633, so its `truncated` is exact
        argv = ["verify-thm1", "--n", "3", "--p", "2", "--q", "4", "--s", "2"]
        code, rep = run_json(capsys, argv)
        assert code == 0
        assert rep["all_passed"] is True
        h = rep["tasks"][0]["norms"]["h"]
        assert h["value"] == 2.023192236959367
        assert h["truncated"] is True and h["argmax_d"] == 0.0

    def test_every_failure_carries_verdict_context(self, capsys):
        code, rep = run_json(capsys, ["verify-thm1"])
        for check in rep["checks"]:
            assert set(check) == {"name", "passed", "expected", "computed", "tolerance"}

    def test_one_search_per_norm_shape(self, capsys, monkeypatch):
        # [DERIVED] the witness pair's 8 functions are multiples of |f|,
        # its inner part g and its outer part h: 3 searches
        import morreyconst.norms as norms_mod

        searched = []
        original = norms_mod._search_group

        def counting(fs, *args):
            searched.extend(fs)
            return original(fs, *args)

        monkeypatch.setattr(norms_mod, "_search_group", counting)
        run(["verify-thm1", "--n", "3", "--p", "2", "--q", "4", "--s", "2"])
        capsys.readouterr()
        assert len(searched) == len(set(searched)) == 3

    def test_rejects_p_equal_q(self, capsys):
        code = run(["verify-thm1", "--p", "2", "--q", "2"])
        assert code == 2
        assert "p < q" in capsys.readouterr().err


class TestVerifyTheorem2:
    def test_known_borderline_failure_reported_honestly(self, capsys):
        # at n=1 the product-form witness ratio approaches 1.98 from
        # below as the split shrinks to 1e-4, so the within-0.02 check
        # must fail by a hair -- the command reports it and exits 1
        code, rep = run_json(
            capsys, ["verify-thm2", "--n", "1", "--p", "1", "--q", "2", "--s", "1"]
        )
        assert code == 1
        failed = [c["name"] for c in rep["checks"] if not c["passed"]]
        assert "final_eps_zbaganu" in failed
        # everything else is fine: bounds, monotonicity, truncation flags
        assert all(name.startswith("final_eps") for name in failed)

    def test_coarse_ladder_bounds_pass(self, capsys):
        code, rep = run_json(
            capsys,
            ["verify-thm2", "--n", "1", "--s", "2", "--eps", "0.5", "--eps", "0.1"],
        )
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["ratio_gen_vnj(s=2)_eps=0.5"]["passed"]
        assert by_name["ratio_gen_vnj(s=2)_eps=0.1"]["passed"]
        assert by_name["monotone_gen_vnj(s=2)"]["passed"]
        # [DERIVED] 1 + (1 - sqrt(0.1))^2 = 1.4675444679663241
        assert by_name["ratio_gen_vnj(s=2)_eps=0.1"]["computed"] == pytest.approx(
            1.4675444679663241, rel=1e-4
        )

    def test_mode_is_forced_small(self, capsys):
        code, rep = run_json(
            capsys,
            ["verify-thm2", "--mode", "morrey", "--s", "1", "--eps", "0.5"],
        )
        assert rep["config"]["mode"] == "small"


class TestConstantsCommand:
    def test_estimates_present_and_bounded(self, capsys):
        code, rep = run_json(
            capsys,
            ["constants", "--n", "1", "--s", "2", "--trials", "4", "--seed", "3"],
        )
        assert code == 0
        kinds = {t["kind"] for t in rep["tasks"]}
        assert kinds == {"gen_vnj", "mod_vnj", "gen_mod_vnj", "zbaganu"}
        for t in rep["tasks"]:
            assert t["best_ratio"] <= 2.0 + 1e-9
            assert t["witness_x"] is not None


class TestSearchCommand:
    def test_requires_trials(self, capsys):
        code = run(["search", "--trials", "0"])
        assert code == 2

    def test_tasks_report_top_pairs(self, capsys):
        code, rep = run_json(
            capsys, ["search", "--s", "2", "--trials", "6", "--seed", "11"]
        )
        assert code == 0
        for t in rep["tasks"]:
            assert t["violations"] == 0
            assert 1 <= len(t["top_pairs"]) <= 5
            ratios = [p["ratio"] for p in t["top_pairs"]]
            assert ratios == sorted(ratios, reverse=True)
            # witness pair leads; nothing random beats it
            assert t["top_pairs"][0]["index"] == 0


    def test_thin_annulus_seed_passes(self, capsys):
        # seed 83005 draws -0.23137 |x|^(-1/2) on [0.018431, 0.019073), whose
        # best ball is the annulus itself, r = 3.2e-4: every ratio stays
        # under the ceiling
        code, rep = run_json(capsys, ["search", "--n", "1", "--p", "1", "--q", "2", "--mode",
                                      "small", "--trials", "30", "--seed", "83005"])
        assert code == 0
        assert all(c["passed"] for c in rep["checks"])

    def test_outer_part_truncation_derived(self):
        # [DERIVED] n = 1, p = 1, q = 2: for h = |x|^(-1/2) on eps <= |x| < 1
        # the r -> 1 ball [-1, 1] over the ball [eps, 1] is
        # 2^(1/2) (1 - eps)^(1/2): a tie at eps = 0.5, a win below it
        from morreyconst.cli import _outer_part_truncated
        from morreyconst.model import Mode, SpaceParams

        sp = SpaceParams(1, 1.0, 2.0, Mode.SMALL_MORREY)
        r_max = 1.0 - 1e-6
        assert not _outer_part_truncated(sp, 0.5, 1.0, r_max, 1e-10)
        assert not _outer_part_truncated(sp, 0.6, 1.0, r_max, 1e-10)
        assert _outer_part_truncated(sp, 0.49, 1.0, r_max, 1e-10)
        assert _outer_part_truncated(sp.with_mode(Mode.MORREY), 1.0, math.inf, 1e6, 1e-10)


_KINDS_S2 = ("gen_vnj(s=2)", "mod_vnj", "gen_mod_vnj(s=2)", "zbaganu")


class TestCheckNames:
    """Check names are the report's keys: each command's names, in their order."""

    def test_verify_thm1(self, capsys):
        _, rep = run_json(capsys, ["verify-thm1", "--s", "2", "--s", "3"])
        assert [c["name"] for c in rep["checks"]] == [
            "closed_form_norm", "norm_chain_g", "norm_chain_k", "norm_chain_h_deficit",
            "norm_chain_h_truncated", "ratio_gen_vnj(s=2)", "ratio_gen_vnj(s=3)",
            "ratio_mod_vnj", "ratio_gen_mod_vnj(s=2)", "ratio_gen_mod_vnj(s=3)", "ratio_zbaganu",
        ]

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_verify_thm2(self, capsys, n):
        _, rep = run_json(capsys, ["verify-thm2", "--n", n])
        per_eps = [
            name
            for eps in ("0.5", "0.1", "0.01", "0.0001")
            for name in (f"h_lower_bound_eps={eps}", f"h_truncated_eps={eps}",
                         *(f"ratio_{kind}_eps={eps}" for kind in _KINDS_S2))
        ]
        per_kind = [f"{check}_{kind}" for kind in _KINDS_S2 for check in ("monotone", "final_eps")]
        assert [c["name"] for c in rep["checks"]] == ["closed_form_norm", *per_eps, *per_kind]

    def test_constants(self, capsys):
        _, rep = run_json(capsys, ["constants", "--trials", "2"])
        assert [c["name"] for c in rep["checks"]] == [
            f"{check}_{kind}" for kind in _KINDS_S2 for check in ("upper_bound", "witness_floor")
        ]

    def test_search(self, capsys):
        _, rep = run_json(capsys, ["search", "--trials", "2"])
        assert [c["name"] for c in rep["checks"]] == [f"no_violations_{k}" for k in _KINDS_S2]


class TestLargeS:
    @pytest.mark.parametrize("argv", [["search", "--trials", "1", "--s", "1e6"],
                                      ["verify-thm1", "--s", "1e6"],
                                      ["verify-thm2", "--eps", "0.5", "--s", "1e6"],
                                      ["constants", "--s", "2", "--s", "600"]])
    def test_overflowing_power_is_an_input_error(self, capsys, argv):
        # N^s or 2^(s - 1) leaves the float range: one error line naming
        # --s, and the exit code of bad input, not of a failed check
        assert run(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: --s ") and "too large" in line

    def test_usable_s_still_runs(self, capsys):
        code, rep = run_json(capsys, ["search", "--trials", "1", "--s", "300"])
        assert code == 0 and rep["all_passed"] is True


class TestConfigFile:
    def test_file_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1, "p": 1.0, "q": 2.0, "function": "0 inf 1 -0.5"}))
        code, rep = run_json(capsys, ["norm", "--config", str(cfg)])
        assert rep["tasks"][0]["result"]["value"] == pytest.approx(2.828427, rel=1e-3)

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"function": "0 inf 1 -0.5"}))
        code, rep = run_json(capsys, ["norm", "--config", str(cfg), "--function", ""])
        assert rep["tasks"][0]["result"]["value"] == 0.0

    def test_unknown_keys_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        for values in ({"radius": 2}, {"mc_samples": 1_000_000}, {"r_max": 2}, {"d_max": 5}):
            cfg.write_text(json.dumps(values))
            assert run(["norm", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "values",
        [
            {"mode": "morey"}, {"format": "xml"}, {"s": 3}, {"eps": 0.1}, {"n": [1]},
            {"n": 2.5}, {"n": True}, {"trials": 1.9}, {"p": True},
        ],
    )
    def test_bad_values_rejected(self, capsys, tmp_path, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert run(["norm", "--function", "", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["verify-thm2"], ["constants", "--mode", "small"]])
    def test_empty_eps_ladder_rejected(self, capsys, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": []}))
        assert run([*command, "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("ladder", [[0.5, 0.5], [0.1, 0.1000000001], [0.5, 0.01, 0.5]])
    def test_split_radii_that_print_alike_rejected(self, capsys, tmp_path, ladder):
        # a check is named by its radius under :g, so two alike would share names
        argv = ["verify-thm2", *(x for eps in ladder for x in ("--eps", repr(eps)))]
        assert run(argv) == 2
        assert "split radii must differ" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": ladder}))
        assert run(["constants", "--mode", "small", "--config", str(cfg)]) == 2

    def test_missing_file_rejected(self, capsys):
        assert run(["norm", "--config", "/nonexistent/cfg.json"]) == 2

    @pytest.mark.parametrize("values", [{}, {"trials": None}])
    def test_search_trials_default_when_absent_or_null(self, tmp_path, values):
        # a JSON null means "not given" for every key, trials included
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        args = _parse_args(["search", "--config", str(cfg)])
        assert _resolve_config("search", args).random_trials == 100


def _reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that _parse_args replaced, as it was, for reference."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with any of the flags below")
    common.add_argument("--n", type=int, help="space dimension")
    common.add_argument("--p", type=float, help="integrability exponent")
    common.add_argument("--q", type=float, help="scaling exponent (p <= q)")
    common.add_argument("--mode", choices=("morrey", "small"),
                        help="radius domain: all radii, or radii below 1")
    common.add_argument("--s", type=float, action="append",
                        help="power parameter, repeatable")
    common.add_argument("--eps", type=float, action="append",
                        help="small-mode split radius ladder, repeatable")
    common.add_argument("--rel-tol", type=float, dest="rel_tol",
                        help="quadrature relative tolerance")
    common.add_argument("--seed", type=int, help="random-pair generator seed")
    common.add_argument("--trials", type=int, help="number of random pairs")
    common.add_argument("--threads", type=int,
                        help="worker processes for the n >= 2 norm searches "
                        "(capped at the CPU count)")
    common.add_argument("--out", help="report path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), help="report format")
    common.add_argument("--function", help="pieces as 'lo hi coef alpha; ...'")

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
        sub.add_parser(name, help=desc, description=desc, parents=[common])
    return parser


_COMMAND_NAMES = ("norm", "verify-thm1", "verify-thm2", "constants", "search")


class TestParseArgs:
    """_parse_args against the argparse parser it replaced (_reference_parser)."""

    # {cfg} stands for a config file holding CONFIG
    CONFIG = {"n": 2, "p": 1.0, "q": 3.0, "s": [1, 3], "trials": 5, "function": "0 1 1 0"}
    ARGVS = [
        # README
        ["norm", "--function", "0 inf 1 -0.5", "--n", "1", "--p", "1", "--q", "2", "--mode",
         "morrey"],
        ["verify-thm1", "--n", "1", "--p", "1", "--q", "2", "--s", "1", "--s", "1.5", "--s", "2",
         "--s", "3"],
        ["verify-thm2", "--n", "2", "--p", "1", "--q", "2", "--s", "1", "--s", "2", "--s", "3"],
        ["constants", "--mode", "small", "--trials", "50", "--seed", "1"],
        ["search", "--trials", "200", "--seed", "7", "--threads", "4", "--out", "report.json"],
        # the benchmark
        ["norm", "--n", "3", "--p", "2.0", "--q", "4.0", "--mode", "small", "--function",
         "0 inf 1 -0.75", "--rel-tol", "1e-3"],
        ["verify-thm1", "--n", "3", "--p", "2", "--q", "4", "--s", "2"],
        ["search", "--n", "1", "--p", "1", "--q", "2", "--mode", "small", "--trials", "30",
         "--seed", "41001", "--threads", "2"],
        # CI
        ["search", "--n", "1", "--p", "2", "--q", "3", "--trials", "30", "--seed", "3", "--mode",
         "morrey", "--out", "/dev/null"],
        ["constants", "--n", "2", "--trials", "3", "--mode", "small", "--out", "/dev/null"],
        ["norm", "--function", ""],
        ["search"],
        # --flag=value
        ["norm", "--n=2", "--p=1", "--q=3", "--function=5 5.0004 1 0", "--format=csv"],
        ["verify-thm2", "--eps=0.5", "--eps", "0.1", "--s=1", "--rel-tol=1e-8"],
        ["norm", "--function=", "--out=r=1.json"],
        # repeated flags: --s and --eps collect, the others keep the last
        ["constants", "--s", "1", "--s", "2.5", "--eps", "0.3", "--eps", "0.01", "--mode",
         "small", "--mode", "morrey"],
        ["norm", "--n", "2", "--n", "3", "--function", "0 1 1 0", "--function", ""],
        # a value is the next token, even one that starts with a dash
        ["norm", "--function", "-1 0 1 0", "--seed", "-3"],
        # a config file and flags
        ["norm", "--config", "{cfg}"],
        ["norm", "--config", "{cfg}", "--n", "3", "--function", ""],
        ["verify-thm1", "--s", "2", "--config", "{cfg}", "--q", "4"],
        ["search", "--config", "{cfg}", "--trials", "2"],
        ["search", "--config", "{cfg}", "--config", "{cfg}"],
    ]

    @pytest.mark.parametrize("argv", ARGVS)
    def test_equals_reference(self, tmp_path, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        argv = [token.replace("{cfg}", str(cfg)) for token in argv]
        args, ref = _parse_args(argv), _reference_parser().parse_args(argv)
        assert vars(args) == vars(ref)
        assert _resolve_config(args.command, args) == _resolve_config(ref.command, ref)

    def test_negative_s_reaches_the_check(self, capsys):
        assert _parse_args(["verify-thm1", "--s", "-1"]).s == [-1.0]
        assert run(["verify-thm1", "--s", "-1"]) == 2
        assert "s values must be >= 1" in capsys.readouterr().err

    # the reference accepts unambiguous prefixes of a flag; _parse_args does not
    PREFIXES = (["norm", "--thr", "2"], ["norm", "--func", ""])

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["bogus"], ["--n", "2", "norm"], ["norm", "--r-max", "2"], ["norm", "--rel_tol",
            "1e-8"], ["norm", "-n", "2"], ["norm", "--n"], ["norm", "--n", "2.5"],
            ["norm", "--p", "one"], ["norm", "--mode", "morey"], ["norm", "--format", "xml"],
            ["norm", "--s", "x"], ["norm", "stray"], ["norm", "--function", "", "stray"],
            ["norm", "--function"], *PREFIXES,
        ],
    )
    def test_usage_error_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: morreyconst COMMAND")
        assert "morreyconst: error: " in captured.err
        if argv not in self.PREFIXES:
            with pytest.raises(SystemExit) as exc:
                _reference_parser().parse_args(argv)
            assert exc.value.code == 2

    @staticmethod
    def _help(capsys, argv) -> str:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out

    @pytest.mark.parametrize(
        "argv", [["--help"], ["-h"], *([name, "--help"] for name in _COMMAND_NAMES),
                 ["search", "--n", "2", "-h"]],
    )
    def test_help_exit_0(self, capsys, argv):
        out = self._help(capsys, argv)
        assert out.startswith("usage: morreyconst COMMAND")
        for name in _COMMAND_NAMES:
            assert f"\n{name} " in out

    def test_flags_are_the_config_keys(self, capsys):
        # the flag set of --help is the config keys plus --config, and
        # _parse_args takes each of them by that name
        listed = [line.split()[0] for line in self._help(capsys, ["--help"]).splitlines()
                  if line.startswith("  --")]
        assert set(listed) == {"--" + key.replace("_", "-") for key in (*_KEYS, "config")}
        assert len(listed) == len(_KEYS) + 1
        for key, (default, _, _) in (*_KEYS.items(), ("config", (None, str, ""))):
            sample = default[0] if isinstance(default, list) else default
            args = vars(_parse_args(["norm", "--" + key.replace("_", "-"), str(sample)]))
            assert {name for name, value in args.items() if value is not None} == {"command", key}


class TestReportFormats:
    def test_csv_and_json_numeric_content_identical(self, capsys, tmp_path):
        argv = ["verify-thm1", "--n", "1", "--s", "2"]
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        assert run(argv + ["--out", str(jpath), "--format", "json"]) == 0
        assert run(argv + ["--out", str(cpath), "--format", "csv"]) == 0
        capsys.readouterr()

        import csv

        with open(cpath, newline="") as fh:
            rows = {path: cell for path, cell in csv.reader(fh)}
        tree = json.loads(jpath.read_text())
        for path, leaf in flatten(tree):
            assert path in rows
            if isinstance(leaf, float):
                # identical round-trip literals, hence equal at 15 digits
                assert rows[path] == repr(leaf)

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        # the report is computed, then cannot be written: no traceback
        out = tmp_path / "missing" / "r.json"
        assert run(["norm", "--function", "0 inf 1 -0.5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write report to {out}")
        assert captured.out == "" and not out.exists()

    def test_json_report_keys_sorted(self, capsys):
        code = run(["norm", "--function", ""])
        out = capsys.readouterr().out
        tree = json.loads(out)
        assert list(tree) == sorted(tree)


class TestDeterminism:
    SEARCH = ("search", "--n", "1", "--p", "1", "--q", "2", "--s", "2",
              "--trials", "6", "--seed", "42")

    def _run(self, tmp_path, threads, tag, command=SEARCH, exit_code=0):
        out = tmp_path / f"rep_{tag}.json"
        cmd = [
            sys.executable, "-m", "morreyconst.cli", *command,
            "--threads", str(threads), "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == exit_code, proc.stderr
        return out.read_bytes()

    def test_reports_byte_identical_across_thread_counts(self, tmp_path):
        single = self._run(tmp_path, 1, "t1")
        multi = self._run(tmp_path, 4, "t4")
        assert single == multi

    @pytest.mark.parametrize(
        "command, exit_code",
        [
            (("constants", "--trials", "4", "--seed", "3", "--mode", "small"), 0),
            # the two-step ladder stops far from 2, so the final-split checks fail
            (("verify-thm2", "--n", "1", "--eps", "0.5", "--eps", "0.1"), 1),
            # 8 functions of 3 norm shapes, deduped before the pool's chunks
            (("verify-thm1", "--n", "1"), 0),
        ],
    )
    def test_other_commands_byte_identical_across_thread_counts(
        self, tmp_path, command, exit_code
    ):
        single = self._run(tmp_path, 1, "t1", command, exit_code)
        multi = self._run(tmp_path, 2, "t2", command, exit_code)
        assert single == multi

    def test_wall_time_only_on_stderr(self, tmp_path):
        out = tmp_path / "rep.json"
        cmd = [
            sys.executable, "-m", "morreyconst.cli", "norm",
            "--function", "", "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert "wall_time_seconds=" in proc.stderr
        assert "wall_time" not in out.read_text()


class TestNormPool:
    def test_each_distinct_norm_computed_once(self, capsys, monkeypatch):
        import morreyconst.norms as norms_mod
        from morreyconst.constants import candidate_pairs
        from morreyconst.model import Mode, SpaceParams, add, scale, subtract

        calls = []  # every function that enters the search
        original = norms_mod._search_group

        def counting(fs, *args):
            calls.extend(fs)
            return original(fs, *args)

        monkeypatch.setattr(norms_mod, "_search_group", counting)
        argv = ["search", "--n", "1", "--p", "1", "--q", "2", "--s", "2",
                "--trials", "4", "--seed", "8", "--threads", "1"]
        assert run(argv) == 0
        capsys.readouterr()
        monkeypatch.undo()

        # the norm shapes of x, y, x + y, x - y of every pair, then of
        # x/N(x) +- y/N(y)
        space = SpaceParams(1, 1.0, 2.0, Mode.MORREY)
        functions = set()
        for x, y in candidate_pairs(space, random_trials=4, seed=8):
            functions.update((x, y, add(x, y), subtract(x, y)))
            nx, ny = norms_mod.norm(x, space).value, norms_mod.norm(y, space).value
            if nx not in (0.0, math.inf) and ny not in (0.0, math.inf):
                u, v = scale(x, 1.0 / nx), scale(y, 1.0 / ny)
                functions.update((add(u, v), subtract(u, v)))
        distinct = {norms_mod._shape(g)[0] for g in functions}
        assert len(calls) == len(distinct) == 28
        assert set(calls) == distinct

    # its first batch leaves 4 uncertified n = 2 shapes to search
    N2_SEARCH = ["search", "--n", "2", "--p", "1", "--q", "2", "--mode", "small",
                 "--trials", "1", "--seed", "1"]

    @staticmethod
    def _recording_pool(monkeypatch, sizes):
        """Replace ProcessPoolExecutor by a serial stand-in that records its sizes."""
        import concurrent.futures

        class NoProcessPool:
            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

            def shutdown(self):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoProcessPool)

    def test_pool_capped_at_cpu_count(self, capsys, monkeypatch):
        sizes = []
        self._recording_pool(monkeypatch, sizes)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert run([*self.N2_SEARCH, "--threads", "64"]) == 0
        capsys.readouterr()
        assert sizes == [3]  # one pool per command, min(64, CPU count, batch)

    def test_n1_never_makes_a_pool(self, capsys, monkeypatch):
        # the certificate and the exact path run in the calling process
        sizes = []
        self._recording_pool(monkeypatch, sizes)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ["search", "--n", "1", "--p", "1", "--q", "2", "--mode", "small",
                "--trials", "30", "--seed", "3", "--threads", "2"]
        assert run(argv) == 0
        capsys.readouterr()
        assert sizes == []

    def test_no_worker_outlives_the_command(self, capsys, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool on any host
        assert run([*self.N2_SEARCH, "--threads", "2"]) == 0
        capsys.readouterr()
        assert multiprocessing.active_children() == []

    def test_pooled_reports_byte_identical(self, monkeypatch, tmp_path):
        # n >= 2 commands, whose --threads 2 runs search on a real pool;
        # the n = 1 commands of TestDeterminism never make one
        import morreyconst.norms as norms_mod

        log = tmp_path / "searched"
        monkeypatch.setattr(sys.modules[__name__], "_SEARCH_LOG", str(log))
        monkeypatch.setattr(norms_mod, "_search_chunk", _logged_search_chunk)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool on any host
        for argv in (self.N2_SEARCH, ["verify-thm2", "--n", "2"]):
            reports = []
            for threads in ("1", "2"):
                log.unlink(missing_ok=True)
                out = tmp_path / f"threads-{threads}.json"
                assert run([*argv, "--threads", threads, "--out", str(out)]) == 0
                reports.append(out.read_bytes())
            assert {pid for pid, *_ in _read_search_log(log)} - {os.getpid()}  # workers searched
            assert reports[0] == reports[1]

    def test_pool_results_land_in_the_callers_memo(self, capsys, monkeypatch, tmp_path):
        # the 4 uncertified shapes of verify-thm2 --n 2 (measured), each
        # searched once, on the pool
        import multiprocessing

        import morreyconst.norms as norms_mod
        from morreyconst.norms import NormTable

        log = tmp_path / "searched"
        monkeypatch.setattr(sys.modules[__name__], "_SEARCH_LOG", str(log))
        monkeypatch.setattr(norms_mod, "_search_chunk", _logged_search_chunk)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool on any host
        assert run(["verify-thm2", "--n", "2", "--threads", "2"]) == 0
        capsys.readouterr()
        assert multiprocessing.active_children() == []

        searched = _read_search_log(log)
        assert {pid for pid, *_ in searched} - {os.getpid()}  # workers searched
        shapes = [s for _, fs, _, _ in searched for s in fs]
        assert len(shapes) == len(set(shapes)) == 4
        _, _, params, integ = searched[0]

        # a second batch of the same shapes is answered by the table itself
        with NormTable(params, integ, workers=2) as table:
            table.evaluate(shapes)
            assert table._pool is not None
            logged = _read_search_log(log)
            table.evaluate(shapes)
        assert {pid for pid, *_ in logged[len(searched):]} - {os.getpid()}
        assert len(_read_search_log(log)) == len(logged)
