"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
"""

import json
import random
from dataclasses import replace
import subprocess
import sys
import time
from pathlib import Path

import pytest

import invorbit as iv
from invorbit.cli import run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDENS = Path(__file__).resolve().parent / "goldens"


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _nine_identity():
    t_fwd, t_pre = iv.linear_map(9.0)
    s_fwd, s_pre = iv.identity_map()
    return iv.MapPair(t_fwd, s_fwd, t_pre, s_pre, "linear", "identity")


def test_criterion_1_golden_solve():
    space = iv.sqrt_square_space()
    start = time.perf_counter()
    rep = iv.solve(space, _nine_identity(), iv.RLHypothesis(3.0, 0.0), 81.0)
    elapsed = time.perf_counter() - start
    hit = any(
        space.dist(p, 0.0) <= 1e-12 for p in rep.trace.points[: 60 + 1]
    )
    ok = (
        rep.candidate == 0.0
        and rep.t_residual == 0.0
        and rep.s_residual == 0.0
        and hit
        and abs(rep.trace.cauchy.lambda_hat - 4 / 9) <= 1e-9
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"golden solve: z={rep.candidate}, residuals=({rep.t_residual}, "
        f"{rep.s_residual}), lambda_hat={rep.trace.cauchy.lambda_hat}, "
        f"{elapsed:.3f}s",
    )


def test_criterion_2_hypothesis_gap_detection():
    space = iv.sqrt_square_space()
    maps = _nine_identity()
    hyp = iv.RLHypothesis(3.0, 0.0)
    pairs = iv.sample_pairs(space, 10_000, seed=1)
    full = iv.audit(space, maps, hyp, pairs)
    flagged = {(v.x, v.y): (v.lhs, v.rhs) for v in full.violations}
    origin_unit = (0.0, 1.0) in pairs and flagged.get((0.0, 1.0)) == (1.0, 3.0)
    restricted = iv.audit(space, maps, hyp, [(x, y) for x, y in pairs if y <= 3 * x])
    ok = len(full.violations) >= 1 and origin_unit and restricted.passed
    _report(
        2,
        ok,
        f"full-domain violations={len(full.violations)} incl. (0,1); "
        f"restricted region clean over {restricted.checked_pairs} pairs",
    )


def test_criterion_3_polygon_property_suite():
    space = iv.sqrt_square_space()
    rng = random.Random(20_240)
    start = time.perf_counter()
    holds = 0
    total = 10_000
    for _ in range(total):
        chain = [rng.uniform(0.0, 10.0) for _ in range(rng.randint(2, 10))]
        if iv.polygon_bound(space, chain).holds:
            holds += 1
    elapsed = time.perf_counter() - start
    ok = holds == total and elapsed < 5.0
    _report(3, ok, f"{holds}/{total} chains hold, {elapsed:.2f}s")


def test_criterion_4_geometric_decay_suite():
    rng = random.Random(4_040)
    k = 2.0
    recovered = certified = inconclusive = 0
    for _ in range(1000):
        lam = rng.uniform(1e-6, 1 / k - 1e-6)
        d = [rng.uniform(0.5, 2.0)]
        for _ in range(rng.randint(3, 40)):
            d.append(d[-1] * lam)
        verdict = iv.geometric_cauchy_check(d, k)
        if abs(verdict.lambda_hat - lam) <= 1e-12:
            recovered += 1
        if verdict.verdict is iv.CauchyOutcome.CAUCHY_CERTIFIED:
            certified += 1
    for _ in range(200):
        lam = rng.uniform(1 / k, 2 / k)
        d = [1.0]
        for _ in range(20):
            d.append(d[-1] * lam)
        verdict = iv.geometric_cauchy_check(d, k)
        if verdict.verdict is iv.CauchyOutcome.INCONCLUSIVE:
            inconclusive += 1
    ok = recovered == 1000 and certified == 1000 and inconclusive == 200
    _report(
        4,
        ok,
        f"recovered {recovered}/1000 within 1e-12, certified {certified}/1000, "
        f"inconclusive {inconclusive}/200 at or above 1/K",
    )


def test_criterion_5_sandwich_suite():
    space = iv.sqrt_square_space()
    tol = 1e-6
    ys = iv.sample_points(space, 100, seed=55)
    geometric = [4.0 / 9.0 ** n for n in range(80)]
    harmonic = [1.0 / n for n in range(1, 1_400_001)]
    held = 0
    for seq in (geometric, harmonic):
        held += sum(b.holds for b in iv.limit_sandwich_check(space, seq, 0.0, ys, tol))
    ok = held == 200
    _report(5, ok, f"{held}/200 sandwich bounds hold at tol={tol}")


def test_criterion_6_axiom_checker():
    passed = iv.check_axioms(iv.sqrt_square_space(), iv.Sampled(100_000, seed=1))
    k1 = iv.check_axioms(iv.sqrt_square_space(k_const=1.0), iv.Sampled(10_000, seed=1))
    d3 = [v for v in k1.violations if v.axiom_id == "D3"]
    restricted = replace(iv.sqrt_square_space(), carrier=iv.FiniteCarrier((0.0, 1.0, 4.0)))
    k_star = iv.min_valid_k(restricted)
    ok = passed.passed and len(d3) >= 1 and k_star == 2.0
    _report(
        6,
        ok,
        f"K=2 passed on 1e5 triples; K=1 D3 witness {d3[0].witness if d3 else None}; "
        f"min_valid_k={k_star}",
    )


def test_criterion_7_oracle_falsification_sweep():
    start = time.perf_counter()
    sweep = iv.falsification_sweep(
        sizes=(1, 2, 3),
        entries=(0.0, 1.0, 2.0, 3.0),
        k_values=(1.0, 2.0),
        r_offsets=(0.5,),
        r_factors=(2.0,),
        l_values=(0.0, 1.0),
    )
    elapsed = time.perf_counter() - start
    ok = sweep.counterexamples == () and elapsed < 30.0
    _report(
        7,
        ok,
        f"{sweep.matrices_checked} matrices, {sweep.spaces_admitted} admitted, "
        f"{sweep.hypothesis_holders} holders, {len(sweep.counterexamples)} "
        f"counterexamples, {elapsed:.2f}s",
    )


SPECIALIZED_SCENARIOS = (
    "partial_metric_solve",
    "metric_like_solve",
    "b_metric_solve",
)


def test_criterion_8_specialized_kind_golden_runs(tmp_path):
    reports = {}
    matched = []
    for name in SPECIALIZED_SCENARIOS:
        out = tmp_path / name
        code = run_scenario(SCENARIOS / f"{name}.json", out)
        body = (out / "report.json").read_bytes()
        reports[name] = (code, json.loads(body))
        matched.append(
            body == (GOLDENS / f"{name}.report.json").read_bytes()
            and (out / "trace.csv").read_bytes()
            == (GOLDENS / f"{name}.trace.csv").read_bytes()
        )
    same_shape = (
        len({tuple(sorted(rep["results"])) for _, rep in reports.values()}) == 1
    )
    all_certified = all(
        code == 0 and rep["status"] == "certified" and rep["results"]["candidate"] == 0
        for code, rep in reports.values()
    )
    ok = all(matched) and same_shape and all_certified
    _report(
        8,
        ok,
        f"goldens matched={matched}, uniform structure={same_shape}, "
        f"all certified={all_certified}",
    )


def test_criterion_9_determinism_across_invocations(tmp_path, cli_env):
    identical = []
    for name in ("sqrt_square_solve", "sqrt_square_audit", "oracle_sweep"):
        bodies = []
        for run in ("one", "two"):
            out = tmp_path / name / run
            cmd = [
                sys.executable,
                "-m",
                "invorbit",
                "--scenario",
                str(SCENARIOS / f"{name}.json"),
                "--out",
                str(out),
            ]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, cwd=ROOT, env=cli_env
            )
            assert proc.returncode in (0, 2), proc.stderr
            bodies.append((out / "report.json").read_bytes())
        identical.append(bodies[0] == bodies[1])
    ok = all(identical)
    _report(9, ok, f"byte-identical reports per scenario: {identical}")
