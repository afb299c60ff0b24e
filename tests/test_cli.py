"""CLI subcommands, config resolution, report formats, determinism."""

from __future__ import annotations

import json
import math
import os
import pickle
import subprocess
import sys

import pytest

from morreyconst.cli import _build_parser, _resolve_config, run
from morreyconst.norms import _search_group
from morreyconst.report import flatten


# where _logged_search_group appends; a module global, so that forked
# pool workers inherit it
_SEARCH_LOG = ""


def _logged_search_group(fs, params, integ):
    """The search, logging (pid, fs, params, integ) from any process.

    Defined at module level, so that a pool can pickle it by name.
    """
    with open(_SEARCH_LOG, "ab", buffering=0) as fh:
        fh.write(pickle.dumps((os.getpid(), fs, params, integ)))
    return _search_group(fs, params, integ)


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
        norms_mod._search_cached.cache_clear()
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

    def test_missing_file_rejected(self, capsys):
        assert run(["norm", "--config", "/nonexistent/cfg.json"]) == 2

    @pytest.mark.parametrize("values", [{}, {"trials": None}])
    def test_search_trials_default_when_absent_or_null(self, tmp_path, values):
        # a JSON null means "not given" for every key, trials included
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        args = _build_parser().parse_args(["search", "--config", str(cfg)])
        assert _resolve_config("search", args).random_trials == 100


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
        norms_mod._search_cached.cache_clear()
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

    def test_pool_capped_at_cpu_count(self, capsys, monkeypatch):
        import concurrent.futures
        import os

        import morreyconst.norms as norms_mod

        sizes = []

        class NoProcessPool:
            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

            def shutdown(self):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        norms_mod._search_cached.cache_clear()  # a pool is made only for shapes to search
        argv = ["search", "--n", "1", "--p", "1", "--q", "2",
                "--trials", "3", "--seed", "5", "--threads", "64"]
        assert run(argv) == 0
        capsys.readouterr()
        assert sizes == [3]  # one pool per command, min(64, CPU count, batch)

    def test_no_worker_outlives_the_command(self, capsys):
        import multiprocessing

        import morreyconst.norms as norms_mod

        norms_mod._search_cached.cache_clear()  # a pool is made only for shapes to search
        argv = ["search", "--n", "1", "--p", "1", "--q", "2",
                "--trials", "3", "--seed", "5", "--threads", "2"]
        assert run(argv) == 0
        capsys.readouterr()
        assert multiprocessing.active_children() == []

    def test_pool_results_land_in_the_callers_memo(self, capsys, monkeypatch, tmp_path):
        # [DERIVED] the ladder's 4 witness pairs have norm shapes f, and
        # per split g_eps and h_eps (the unit sums are multiples of them):
        # 9 searches, each once, though the pool searches the batches
        import multiprocessing

        import morreyconst.norms as norms_mod
        from morreyconst.constants import NormTable

        log = tmp_path / "searched"
        monkeypatch.setattr(sys.modules[__name__], "_SEARCH_LOG", str(log))
        monkeypatch.setattr(norms_mod, "_search_group", _logged_search_group)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool on any host
        norms_mod._search_cached.cache_clear()
        assert run(["verify-thm2", "--n", "1", "--threads", "2"]) == 1  # the borderline check
        capsys.readouterr()
        assert multiprocessing.active_children() == []

        searched = _read_search_log(log)
        assert {pid for pid, *_ in searched} - {os.getpid()}  # workers searched
        shapes = [s for _, fs, _, _ in searched for s in fs]
        assert len(shapes) == len(set(shapes)) == 9
        _, _, params, integ = searched[0]
        for s in shapes:
            assert norms_mod._search_cached.get((s, params, integ)) is not None

        with NormTable(params, integ, workers=2) as table:
            table.evaluate(shapes)
            assert table._pool is None
        assert len(_read_search_log(log)) == len(searched)
