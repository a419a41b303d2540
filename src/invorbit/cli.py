"""Scenario-driven command line front end.

One scenario file, one run, one JSON report (plus a CSV trace for solves).
Exit codes partition outcomes: 0 when the run certifies or all checks
pass, 2 when violations or counterexamples are found or certification
fails, 1 on errors of any kind (bad schema, unresolved built-ins, broken
preimages).  Reports are byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .analysis import (
    CauchyOutcome,
    geometric_cauchy_check,
    limit_sandwich_check,
    polygon_bound,
)
from .errors import HypothesisNotMet, InvorbitError
from .numerics import TOL_AXIOM, TOL_FIX, TOL_POINT
from .oracle import falsification_sweep
from .report import canonical_json, emit_report, write_trace_csv
from .scenario import (
    _ORACLE_DEFAULTS,
    SCENARIO_SCHEMA,
    build_hypothesis,
    build_maps,
    build_space,
    coerce_point,
    load_scenario,
)
from .solver import audit, inverse_orbit, solve
from .spaces import Exhaustive, Sampled, check_axioms, sample_points

POLYGON_CHAIN_LIMIT = 12
LEMMA_SANDWICH_SAMPLES = 25

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDINGS = 2


# ---------------------------------------------------------------------------
# Result serialization helpers
# ---------------------------------------------------------------------------


def _audit_json(report) -> dict:
    return {
        "checked_pairs": report.checked_pairs,
        "passed": report.passed,
        "violations": [
            {"x": v.x, "y": v.y, "lhs": v.lhs, "rhs": v.rhs}
            for v in report.violations
        ],
    }


def _cauchy_json(verdict) -> dict:
    return {
        "lambda_hat": verdict.lambda_hat,
        "threshold": verdict.threshold,
        "verdict": verdict.verdict.value,
        "ratios": len(verdict.per_step_ratios),
        "divergent_steps": list(verdict.divergent_steps),
    }


def _run_solve(scenario: dict, out_dir: Path) -> tuple[dict, int]:
    space = build_space(scenario)
    maps = build_maps(scenario, space)
    hyp = build_hypothesis(scenario, space)
    run = scenario["run"]
    if "x0" not in run:
        raise InvorbitError("solve requires run.x0")
    x0 = coerce_point(space, run["x0"])
    report = solve(space, maps, hyp, x0, max_steps=run["max_steps"])
    trace = report.trace
    write_trace_csv(
        trace.points,
        trace.successive_distances,
        trace.cauchy.per_step_ratios,
        out_dir / "trace.csv",
    )
    results = {
        "candidate": report.candidate,
        "t_residual": report.t_residual,
        "s_residual": report.s_residual,
        "certified": report.certified,
        "terminated_by": trace.terminated_by.value,
        "orbit_steps": len(trace.points) - 1,
        "final_point": trace.points[-1],
        "cauchy": _cauchy_json(trace.cauchy),
        "hypothesis_audit": _audit_json(report.hypothesis_audit),
    }
    return results, EXIT_OK if report.certified else EXIT_FINDINGS


def _pair_strategy(space, run) -> object:
    if space.is_finite:
        return Exhaustive()
    return Sampled(run["n_samples"], run["seed"])


def _run_audit(scenario: dict, out_dir: Path) -> tuple[dict, int]:
    space = build_space(scenario)
    maps = build_maps(scenario, space)
    hyp = build_hypothesis(scenario, space)
    run = scenario["run"]
    report = audit(space, maps, hyp, _pair_strategy(space, run))
    results = _audit_json(report)
    results["strategy"] = (
        "exhaustive"
        if space.is_finite
        else {"sampled": run["n_samples"], "seed": run["seed"]}
    )
    return results, EXIT_OK if report.passed else EXIT_FINDINGS


def _run_axioms(scenario: dict, out_dir: Path) -> tuple[dict, int]:
    space = build_space(scenario)
    run = scenario["run"]
    strategy = (
        Exhaustive() if space.is_finite else Sampled(run["n_samples"], run["seed"])
    )
    report = check_axioms(space, strategy)
    results = {
        "passed": report.passed,
        "checked_pairs": report.checked_pairs,
        "checked_triples": report.checked_triples,
        "kind": space.kind.value,
        "k_const": space.k_const,
        "violations": [
            {
                "axiom_id": v.axiom_id,
                "witness": list(v.witness),
                "lhs": v.lhs,
                "rhs": v.rhs,
            }
            for v in report.violations
        ],
    }
    return results, EXIT_OK if report.passed else EXIT_FINDINGS


def _run_oracle(scenario: dict, out_dir: Path) -> tuple[dict, int]:
    params = scenario["oracle"]
    sweep = falsification_sweep(
        sizes=tuple(params["sizes"]),
        entries=tuple(params["entries"]),
        k_values=tuple(params["k_values"]),
        r_offsets=tuple(params["r_offsets"]),
        r_factors=tuple(params["r_factors"]),
        l_values=tuple(params["l_values"]),
        n_max=params["n_max"],
    )
    results = {
        "matrices_checked": sweep.matrices_checked,
        "spaces_admitted": sweep.spaces_admitted,
        "instances_checked": sweep.instances_checked,
        "hypothesis_holders": sweep.hypothesis_holders,
        "counterexamples": [
            {
                "t_table": [list(kv) for kv in cx.t_table],
                "s_table": [list(kv) for kv in cx.s_table],
                "fixed_points": list(cx.fixed_points),
            }
            for cx in sweep.counterexamples
        ],
    }
    code = EXIT_OK if not sweep.counterexamples else EXIT_FINDINGS
    return results, code


def _run_lemmas(scenario: dict, out_dir: Path) -> tuple[dict, int]:
    space = build_space(scenario)
    maps = build_maps(scenario, space)
    run = scenario["run"]
    if "x0" not in run:
        raise InvorbitError("lemmas requires run.x0")
    x0 = coerce_point(space, run["x0"])
    trace = inverse_orbit(space, maps, x0, max_steps=run["max_steps"])
    chain = trace.points[: min(POLYGON_CHAIN_LIMIT, len(trace.points))]
    polygon = polygon_bound(space, chain)
    tol = run["tol"]
    candidate = trace.points[-1]
    samples = sample_points(space, LEMMA_SANDWICH_SAMPLES, run["seed"])
    sandwich_failures = []
    hypothesis_met = True
    try:
        for y in samples:
            bounds = limit_sandwich_check(space, trace.points, candidate, y, tol)
            if not bounds.holds:
                sandwich_failures.append(
                    {
                        "y": y,
                        "lower": bounds.lower,
                        "estimate": bounds.estimate,
                        "upper": bounds.upper,
                    }
                )
    except HypothesisNotMet:
        hypothesis_met = False
    cauchy_ok = trace.cauchy.verdict is CauchyOutcome.CAUCHY_CERTIFIED
    passed = polygon.holds and cauchy_ok and hypothesis_met and not sandwich_failures
    results = {
        "polygon": {"lhs": polygon.lhs, "rhs": polygon.rhs, "holds": polygon.holds},
        "cauchy": _cauchy_json(trace.cauchy),
        "sandwich": {
            "samples": len(samples),
            "hypothesis_met": hypothesis_met,
            "failures": sandwich_failures,
        },
        "orbit_steps": len(trace.points) - 1,
        "terminated_by": trace.terminated_by.value,
    }
    return results, EXIT_OK if passed else EXIT_FINDINGS


_RUNNERS = {
    "solve": _run_solve,
    "audit": _run_audit,
    "axioms": _run_axioms,
    "oracle": _run_oracle,
    "lemmas": _run_lemmas,
}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

_STATUS = {
    ("solve", EXIT_OK): "certified",
    ("solve", EXIT_FINDINGS): "not_certified",
    ("audit", EXIT_OK): "passed",
    ("audit", EXIT_FINDINGS): "violations_found",
    ("axioms", EXIT_OK): "passed",
    ("axioms", EXIT_FINDINGS): "violations_found",
    ("oracle", EXIT_OK): "passed",
    ("oracle", EXIT_FINDINGS): "counterexamples_found",
    ("lemmas", EXIT_OK): "passed",
    ("lemmas", EXIT_FINDINGS): "gaps_found",
}


def run_scenario(
    path: str | Path,
    out_dir: str | Path,
    command: str | None = None,
    seed: int | None = None,
) -> int:
    """Execute one scenario file and write its report; returns the exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        scenario = load_scenario(path)
        if command is not None:
            scenario["run"]["command"] = command
        if seed is not None:
            scenario["run"]["seed"] = seed
        cmd = scenario["run"]["command"]
        if cmd == "oracle" and "oracle" not in scenario:
            # reachable via --command oracle on a scenario filed for another one
            scenario["oracle"] = dict(_ORACLE_DEFAULTS)
        results, code = _RUNNERS[cmd](scenario, out)
    except InvorbitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except ArithmeticError as err:
        # e.g. an orbit from a huge start overflowing a squared distance
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_ERROR
    report = {
        "tool": {"name": "invorbit", "version": __version__},
        "command": cmd,
        "seed": scenario["run"]["seed"],
        "tolerances": {
            "tol_axiom": TOL_AXIOM,
            "tol_point": TOL_POINT,
            "tol_fix": TOL_FIX,
            "tol": scenario["run"]["tol"],
        },
        "scenario": scenario,
        "status": _STATUS[(cmd, code)],
        "results": results,
    }
    emit_report(report, out / "report.json")
    print(f"{cmd}: {report['status']} (exit {code}) -> {out / 'report.json'}")
    return code


def run_batch(batch_dir: str | Path, out_dir: str | Path, seed: int | None) -> int:
    """Run every scenario file in a directory concurrently."""
    paths = sorted(Path(batch_dir).glob("*.json"))
    if not paths:
        print(f"error: no scenario files in {batch_dir}", file=sys.stderr)
        return EXIT_ERROR
    out = Path(out_dir)
    with ThreadPoolExecutor() as pool:
        codes = list(
            pool.map(
                lambda p: run_scenario(p, out / p.stem, seed=seed),
                paths,
            )
        )
    if EXIT_ERROR in codes:
        return EXIT_ERROR
    return EXIT_FINDINGS if EXIT_FINDINGS in codes else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invorbit",
        description=(
            "Run solve/audit/axioms/oracle/lemmas scenarios over generalized "
            "metric spaces and emit deterministic JSON reports."
        ),
    )
    parser.add_argument("--scenario", help="path to a scenario JSON file")
    parser.add_argument("--batch", help="directory of scenario files to run concurrently")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument(
        "--command",
        choices=list(_RUNNERS),
        help="override the scenario's run.command",
    )
    parser.add_argument("--seed", type=int, help="override the scenario's run.seed")
    parser.add_argument(
        "--print-schema",
        action="store_true",
        help="print the scenario JSON schema and exit",
    )
    parser.add_argument("--version", action="version", version=f"invorbit {__version__}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.print_schema:
        print(canonical_json(SCENARIO_SCHEMA))
        return EXIT_OK
    if args.batch and args.scenario:
        print("error: --scenario and --batch are mutually exclusive", file=sys.stderr)
        return EXIT_ERROR
    if args.batch:
        return run_batch(args.batch, args.out, args.seed)
    if not args.scenario:
        print("error: one of --scenario or --batch is required", file=sys.stderr)
        return EXIT_ERROR
    return run_scenario(args.scenario, args.out, args.command, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
