"""End-to-end acceptance gate.

One test per advertised criterion, each printing a single
``[criterion N] PASS/FAIL`` verdict line (run with ``-s`` to see them
alongside the pytest report).  Tolerances are pinned here and must not
be loosened to make a run green.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from morreyconst.cli import run
from morreyconst.constants import ConstantKind, estimate_constant
from morreyconst.integrate import (
    IntegrationSettings,
    integrate_abs_pow_ball,
    mc_integrate,
)
from morreyconst.model import (
    INF,
    Ball,
    Mode,
    SpaceParams,
    canonicalize,
    parse_function,
    scale,
    subtract,
    truncate,
)
from morreyconst.norms import closed_form_power_norm, norm

M112 = SpaceParams(1, 1.0, 2.0, Mode.MORREY)
S112 = SpaceParams(1, 1.0, 2.0, Mode.SMALL_MORREY)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} -- {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def cli_json(capsys, argv):
    code = run(argv)
    return code, json.loads(capsys.readouterr().out)


def test_criterion_1_closed_form_norms():
    # norm of |x|^(-n/q) against the analytic value, relative 1e-3,
    # each case under 10 s with a cold cache
    cases = [
        # [DERIVED] v_n^(1/q) (1 - p/q)^(-1/p), frozen per tuple
        ((1, 1.0, 2.0), 2.8284271247461903),
        ((2, 1.0, 2.0), 3.5449077018110318),
        ((1, 2.0, 3.0), 2.1822472719434427),
        ((3, 2.0, 4.0), 2.023192237970963),
    ]
    worst_err, slowest = 0.0, 0.0
    for (n, p, q), frozen in cases:
        params = SpaceParams(n, p, q, Mode.MORREY)
        assert closed_form_power_norm(params) == pytest.approx(frozen, rel=1e-12)
        f = parse_function(f"0 inf 1 {-n / q}")
        t0 = time.perf_counter()
        value = norm(f, params).value
        elapsed = time.perf_counter() - t0
        worst_err = max(worst_err, abs(value - frozen) / frozen)
        slowest = max(slowest, elapsed)
        assert value == pytest.approx(frozen, rel=1e-3)
        assert elapsed < 10.0
    verdict(
        1,
        worst_err <= 1e-3 and slowest < 10.0,
        f"four closed-form norms, worst rel err {worst_err:.2e}, "
        f"slowest case {slowest:.2f}s",
    )


def test_criterion_2_morrey_ratios_reach_two(capsys):
    # all four ratio families at n=1, p=1, q=2, s in {1, 1.5, 2, 3}
    # land in [2 - 0.02, 2 + 1e-9]; whole command under 60 s
    t0 = time.perf_counter()
    code, rep = cli_json(
        capsys,
        ["verify-thm1", "--n", "1", "--p", "1", "--q", "2",
         "--s", "1", "--s", "1.5", "--s", "2", "--s", "3"],
    )
    elapsed = time.perf_counter() - t0
    assert code == 0 and rep["all_passed"]
    ratios = [c["computed"] for c in rep["checks"] if c["name"].startswith("ratio_")]
    assert len(ratios) == 10  # gen(4 values of s) + mod + gen-mod(4) + product
    in_window = all(2.0 - 0.02 <= v <= 2.0 + 1e-9 for v in ratios)
    assert elapsed < 60.0
    verdict(
        2,
        in_window and elapsed < 60.0,
        f"{len(ratios)} ratios in [1.98, 2+1e-9] "
        f"(min {min(ratios):.5f}, max {max(ratios):.5f}) in {elapsed:.1f}s",
    )


def test_criterion_3_norm_chain():
    # ||f|| = ||g|| = ||k|| within relative 1e-3; ||h|| within relative
    # 2 r_max^(-n(1-p/q)/p) of ||f||, with the truncation flag raised
    f = parse_function("0 inf 1 -0.5")
    g = truncate(f, 0.0, 1.0)
    h = subtract(f, g)
    k = subtract(g, h)
    nf = norm(f, M112).value
    ng = norm(g, M112).value
    nk = norm(k, M112).value
    res_h = norm(h, M112)
    deficit_cap = 2.0 * 1e6 ** -0.5  # default r_max = 1e6, exponent 1/2
    chain_ok = (
        abs(ng - nf) <= 1e-3 * nf
        and abs(nk - nf) <= 1e-3 * nf
        and abs(res_h.value - nf) <= deficit_cap * nf
        and res_h.truncated
    )
    verdict(
        3,
        chain_ok,
        f"||g||,||k|| within 1e-3 of ||f||={nf:.6f}; "
        f"||h|| deficit {abs(res_h.value - nf) / nf:.2e} <= {deficit_cap:.0e}, "
        f"truncation flagged",
    )


def test_criterion_4_small_morrey_ratios(capsys):
    # run in dimension 2: there the decay exponent n(1-p/q) equals 1,
    # so the 1e-4 split puts every family's ratio within 0.02 of 2.  In
    # dimension 1 the exponent is 1/2 and the s=3 and product ratios
    # provably stall near 1.970-1.980, outside the window.
    n, p, q = 2, 1.0, 2.0
    t0 = time.perf_counter()
    code, rep = cli_json(
        capsys,
        ["verify-thm2", "--n", str(n), "--p", "1", "--q", "2",
         "--s", "1", "--s", "2", "--s", "3"],
    )
    elapsed = time.perf_counter() - t0
    assert code == 0 and rep["all_passed"]

    ratios: dict[str, dict[float, float]] = {}
    for check in rep["checks"]:
        if check["name"].startswith("ratio_"):
            label, eps_part = check["name"][len("ratio_"):].rsplit("_eps=", 1)
            ratios.setdefault(label, {})[float(eps_part)] = check["computed"]
    assert set(ratios) == {
        "gen_vnj(s=1)", "gen_vnj(s=2)", "gen_vnj(s=3)", "mod_vnj",
        "gen_mod_vnj(s=1)", "gen_mod_vnj(s=2)", "gen_mod_vnj(s=3)", "zbaganu",
    }

    def floor_for(label: str, eps: float) -> float:
        shrink = 1.0 - eps ** (n * (1.0 - p / q))
        if label == "zbaganu":
            return 2.0 * shrink ** (1.0 / p)
        s = 2.0 if label == "mod_vnj" else float(label.rsplit("s=", 1)[1][:-1])
        return 1.0 + shrink ** (s / p)

    ok = True
    for label, by_eps in ratios.items():
        ladder = sorted(by_eps, reverse=True)  # 0.5 down to 1e-4
        values = [by_eps[e] for e in ladder]
        ok &= all(v <= 2.0 + 1e-9 for v in values)
        ok &= all(
            by_eps[e] >= floor_for(label, e) - 1e-3 for e in (0.5, 0.1, 0.01)
        )
        ok &= all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        ok &= abs(by_eps[1e-4] - 2.0) <= 0.02
    assert elapsed < 120.0
    finals = [by_eps[1e-4] for by_eps in ratios.values()]
    verdict(
        4,
        ok and elapsed < 120.0,
        f"8 families x 4 splits: bounds, ceiling, monotone; final ratios "
        f"{min(finals):.4f}..{max(finals):.4f} within 0.02 of 2; {elapsed:.1f}s",
    )


def test_criterion_5_upper_bound_sweep():
    # 500 random pairs per mode, all four kinds: no ratio above
    # 2 + 5 rel_tol, and the product ratio never beats the s=2 mean
    # ratio on any pair (shared norms make this exact up to rounding)
    rel_tol = IntegrationSettings().rel_tol
    ceiling = 2.0 + 5.0 * rel_tol
    kinds = [
        ConstantKind.gen_vnj(2.0),
        ConstantKind.mod_vnj(),
        ConstantKind.gen_mod_vnj(2.0),
        ConstantKind.zbaganu(),
    ]
    overall_max, pointwise_ok, n_pairs = 0.0, True, 0
    for mode in (Mode.MORREY, Mode.SMALL_MORREY):
        params = SpaceParams(1, 1.0, 2.0, mode)
        traces = {}
        for kind in kinds:
            est = estimate_constant(
                kind, params, random_trials=500, seed=0, keep_trace=True
            )
            assert est.max_ratio_seen <= ceiling
            overall_max = max(overall_max, est.max_ratio_seen)
            traces[kind.family.value] = est.trace
        n_pairs += len(traces["zbaganu"])
        for zb, mean2 in zip(traces["zbaganu"], traces["gen_vnj"]):
            if not (math.isnan(zb) or math.isnan(mean2)):
                pointwise_ok &= zb <= mean2 + 5.0 * rel_tol
    verdict(
        5,
        overall_max <= ceiling and pointwise_ok,
        f"{n_pairs} pairs, 4 kinds, 2 modes: max ratio {overall_max:.6f} "
        f"<= {ceiling}; product <= s=2 mean pointwise",
    )


def test_criterion_6_mc_vs_quadrature():
    # 20 singularity-free (function, ball) cases: 1e6-sample Monte
    # Carlo within 3 standard errors of quadrature in at least 19
    rng = np.random.Generator(np.random.Philox(key=2026))
    agree = 0
    for case in range(20):
        n = int(rng.integers(1, 4))
        p = float(rng.integers(1, 3))
        n_pieces = int(rng.integers(1, 3))
        cuts = np.sort(rng.uniform(0.05, 3.0, size=n_pieces + 1))
        pieces = [
            (cuts[i], cuts[i + 1], float(rng.uniform(-2.0, 2.0)),
             float(rng.uniform(0.0, 2.5)))
            for i in range(n_pieces)
        ]
        f = canonicalize(pieces)
        ball = Ball(float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.4, 1.5)))
        quad = integrate_abs_pow_ball(f, p, n, ball)
        assert quad.tol_ok
        est, se = mc_integrate(f, p, n, ball, 1_000_000, seed=1000 + case)
        if abs(est - quad.value) <= 3.0 * se:
            agree += 1
    verdict(6, agree >= 19, f"{agree}/20 cases within 3 standard errors")


def test_criterion_7_norm_axioms():
    # homogeneity and the triangle inequality within 2 rel_tol on 100
    # random functions / pairs; small norm never exceeds the full norm
    rel_tol = 1e-8
    integ = IntegrationSettings(rel_tol=rel_tol)
    rng = np.random.Generator(np.random.Philox(key=7))

    def random_function(alpha=None):
        n_pieces = int(rng.integers(1, 4))
        cuts = np.sort(rng.uniform(0.05, 3.0, size=n_pieces + 1))
        return canonicalize(
            [
                (cuts[i], cuts[i + 1], float(rng.uniform(-2.0, 2.0)),
                 float(rng.uniform(-0.3, 1.5)) if alpha is None else alpha)
                for i in range(n_pieces)
            ]
        )

    hom_ok = tri_ok = dom_ok = True
    for _ in range(100):
        f = random_function()
        c = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0))
        base = norm(f, M112, integ=integ).value
        scaled = norm(scale(f, c), M112, integ=integ).value
        hom_ok &= abs(scaled - abs(c) * base) <= 2.0 * rel_tol * abs(c) * base + 1e-15
        small = norm(f, S112, integ=integ).value
        dom_ok &= small <= base * (1.0 + 2.0 * rel_tol) + 1e-15

        shared_alpha = float(rng.uniform(-0.3, 1.5))
        a, b = random_function(shared_alpha), random_function(shared_alpha)
        na = norm(a, M112, integ=integ).value
        nb = norm(b, M112, integ=integ).value
        nsum = norm(a + b, M112, integ=integ).value
        tri_ok &= nsum <= (na + nb) * (1.0 + 2.0 * rel_tol) + 1e-15
    verdict(
        7,
        hom_ok and tri_ok and dom_ok,
        f"100 functions/pairs at rel_tol {rel_tol:g}: homogeneity {hom_ok}, "
        f"triangle {tri_ok}, small<=full {dom_ok}",
    )


def test_criterion_8_byte_identical_reports(tmp_path):
    # same config and seed, different thread counts: reports match byte
    # for byte
    outs = []
    for threads in (1, 3):
        out = tmp_path / f"search_t{threads}.json"
        cmd = [
            sys.executable, "-m", "morreyconst.cli", "search",
            "--n", "1", "--p", "1", "--q", "2", "--s", "2",
            "--trials", "40", "--seed", "7", "--threads", str(threads),
            "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    verdict(
        8,
        identical,
        f"search reports across 1 vs 3 threads: "
        f"{'byte-identical' if identical else 'DIFFER'} ({len(outs[0])} bytes)",
    )
