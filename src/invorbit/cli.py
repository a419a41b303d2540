"""Scenario-driven command line front end.

One scenario file, one run, one JSON report (plus a CSV trace for solves).
Exit codes partition outcomes: 0 when the run certifies or all checks
pass, 2 when violations or counterexamples are found or certification
fails, 1 on errors of any kind (bad schema, unresolved built-ins, broken
preimages).  Reports are byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .analysis import (
    CauchyOutcome,
    limit_sandwich_check,
    polygon_bound,
)
from .errors import HypothesisNotMet, InvorbitError
from .numerics import TOL_AXIOM, TOL_FIX, TOL_POINT
from .oracle import SweepReport, falsification_sweep
from .report import _usable_cpus, canonical_json, emit_report, write_trace_csv
from .scenario import (
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


def _cauchy_json(verdict) -> dict:
    return {
        "lambda_hat": verdict.lambda_hat,
        "threshold": verdict.threshold,
        "verdict": verdict.verdict.value,
        "ratios": len(verdict.per_step_ratios),
        "divergent_steps": list(verdict.divergent_steps),
    }


def _start_point(space, run: dict):
    if "x0" not in run:
        raise InvorbitError(f"{run['command']} requires run.x0")
    return coerce_point(space, run["x0"])


def _run_solve(scenario: dict, out_dir: Path) -> tuple[dict, int]:
    space = build_space(scenario)
    maps = build_maps(scenario, space)
    hyp = build_hypothesis(scenario, space)
    run = scenario["run"]
    x0 = _start_point(space, run)
    report = solve(space, maps, hyp, x0, max_steps=run["max_steps"])
    trace = report.trace
    columns = trace.points, trace.successive_distances, trace.cauchy.per_step_ratios
    write_trace_csv(*columns, out_dir / "trace.csv")
    results = {
        "candidate": report.candidate,
        "t_residual": report.t_residual,
        "s_residual": report.s_residual,
        "certified": report.certified,
        "terminated_by": trace.terminated_by.value,
        "orbit_steps": trace.steps,
        "final_point": report.candidate,
        "cauchy": _cauchy_json(trace.cauchy),
        "hypothesis_audit": report.hypothesis_audit,
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
    sampled = {"sampled": run["n_samples"], "seed": run["seed"]}
    results = {**report._asdict(), "strategy": "exhaustive" if space.is_finite else sampled}
    return results, EXIT_OK if report.passed else EXIT_FINDINGS


def _run_axioms(scenario: dict, out_dir: Path) -> tuple[dict, int]:
    space = build_space(scenario)
    report = check_axioms(space, _pair_strategy(space, scenario["run"]))
    results = {**report._asdict(), "kind": space.kind.value, "k_const": space.k_const}
    return results, EXIT_OK if report.passed else EXIT_FINDINGS


def _run_oracle(scenario: dict, out_dir: Path) -> tuple[SweepReport, int]:
    sweep = falsification_sweep(**scenario["oracle"])
    # A sweep that walked no instance would pass vacuously.
    if not sweep.spaces_admitted:
        raise InvorbitError("the oracle grid admits no space, so nothing was checked")
    if not sweep.instances_checked:
        raise InvorbitError("the oracle grid checks no instance, so nothing was checked")
    return sweep, EXIT_OK if not sweep.counterexamples else EXIT_FINDINGS


def _run_lemmas(scenario: dict, out_dir: Path) -> tuple[dict, int]:
    space = build_space(scenario)
    maps = build_maps(scenario, space)
    run = scenario["run"]
    x0 = _start_point(space, run)
    trace = inverse_orbit(space, maps, x0, max_steps=run["max_steps"])
    chain = trace.points[:POLYGON_CHAIN_LIMIT]
    polygon = polygon_bound(space, chain)
    tol = run["tol"]
    candidate = trace.points[-1]
    samples = sample_points(space, LEMMA_SANDWICH_SAMPLES, run["seed"])
    try:
        checks = limit_sandwich_check(space, trace.points, candidate, samples, tol)
        hypothesis_met = True
    except HypothesisNotMet:
        checks, hypothesis_met = [], False
    sandwich_failures = [
        {"y": y, "lower": b.lower, "estimate": b.estimate, "upper": b.upper}
        for y, b in zip(samples, checks)
        if not b.holds
    ]
    cauchy_ok = trace.cauchy.verdict is CauchyOutcome.CAUCHY_CERTIFIED
    passed = polygon.holds and cauchy_ok and hypothesis_met and not sandwich_failures
    results = {
        "polygon": polygon,
        "cauchy": _cauchy_json(trace.cauchy),
        "sandwich": {
            "samples": len(samples),
            "hypothesis_met": hypothesis_met,
            "failures": sandwich_failures,
        },
        "orbit_steps": trace.steps,
        "terminated_by": trace.terminated_by.value,
    }
    return results, EXIT_OK if passed else EXIT_FINDINGS


class Command(NamedTuple):
    run: Callable[[dict, Path], tuple[dict | SweepReport, int]]
    passed: str  # the report status at exit 0
    failed: str  # the report status at exit 2


COMMANDS = {
    "solve": Command(_run_solve, "certified", "not_certified"),
    "audit": Command(_run_audit, "passed", "violations_found"),
    "axioms": Command(_run_axioms, "passed", "violations_found"),
    "oracle": Command(_run_oracle, "passed", "counterexamples_found"),
    "lemmas": Command(_run_lemmas, "passed", "gaps_found"),
}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


# Errors whose message alone says what went wrong.
_EXPECTED = (InvorbitError, ValueError, KeyError)


def run_scenario(
    path: str | Path,
    out_dir: str | Path,
    command: str | None = None,
    seed: int | None = None,
) -> int:
    """Execute one scenario file and write its report; returns the exit code.

    Every exception ends as exit 1 and one `error: <path>: ...` line, so
    one failing file never takes down a batch.
    """
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        overrides = {"command": command, "seed": seed}
        overrides = {key: value for key, value in overrides.items() if value is not None}
        scenario = load_scenario(path, overrides)
        cmd = scenario["run"]["command"]
        results, code = COMMANDS[cmd].run(scenario, out)
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
            "status": COMMANDS[cmd].passed if code == EXIT_OK else COMMANDS[cmd].failed,
            "results": results,
        }
        # A report is written in chunks: it becomes report.json only once
        # it is whole, so a failed write leaves no truncated report.
        partial = out / "report.json.partial"
        try:
            emit_report(report, partial)
            os.replace(partial, out / "report.json")
        except BaseException:
            with contextlib.suppress(OSError):
                partial.unlink()
            raise
    except Exception as err:
        # An unexpected type, e.g. an OverflowError from a huge start, is named.
        message = f"{err}" if isinstance(err, _EXPECTED) else f"{type(err).__name__}: {err}"
        print(f"error: {path}: {message}", file=sys.stderr)
        return EXIT_ERROR
    print(f"{cmd}: {report['status']} (exit {code}) -> {out / 'report.json'}")
    return code


def _run_captured(
    path: Path, out_dir: Path, command: str | None, seed: int | None
) -> tuple[int, str, str]:
    """Run one batch member; returns its exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_scenario(path, out_dir, command, seed)
    return code, stdout.getvalue(), stderr.getvalue()


def _batch_outcomes(
    paths: list[Path], out: Path, command: str | None, seed: int | None
):
    """Yield `_run_captured` of every path, in path order.

    The scenarios are pure Python, so threads would take turns on the GIL:
    they run on a process pool with one worker per usable CPU.  The workers
    are forked, because a spawned worker imports invorbit again, which costs
    about as much as a small batch.  With one worker, or no `fork`, they
    run one after another in this process.
    """
    jobs = [(path, out / path.stem, command, seed) for path in paths]
    workers = min(_usable_cpus(), len(jobs))
    if workers > 1:
        # imported here, so that `--scenario` runs do not pay for it
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                futures = [pool.submit(_run_captured, *job) for job in jobs]
                for path, future in zip(paths, futures):
                    try:
                        yield future.result()
                    except BrokenProcessPool:
                        yield EXIT_ERROR, "", f"error: {path}: its worker process died\n"
            return
    for job in jobs:
        yield _run_captured(*job)


def run_batch(
    batch_dir: str | Path,
    out_dir: str | Path,
    command: str | None = None,
    seed: int | None = None,
) -> int:
    """Run every scenario file in a directory; output comes in file order."""
    paths = sorted(Path(batch_dir).glob("*.json"))
    if not paths:
        print(f"error: no scenario files in {batch_dir}", file=sys.stderr)
        return EXIT_ERROR
    codes = []
    for code, stdout, stderr in _batch_outcomes(paths, Path(out_dir), command, seed):
        sys.stdout.write(stdout)
        sys.stdout.flush()
        sys.stderr.write(stderr)
        sys.stderr.flush()
        codes.append(code)
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
    parser.add_argument(
        "--batch",
        help="directory of scenario files to run, one worker process per CPU",
    )
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument(
        "--command",
        choices=list(COMMANDS),
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
        return run_batch(args.batch, args.out, args.command, args.seed)
    if not args.scenario:
        print("error: one of --scenario or --batch is required", file=sys.stderr)
        return EXIT_ERROR
    return run_scenario(args.scenario, args.out, args.command, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
