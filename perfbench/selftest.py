"""Show that every correctness check can fail.

Runs invorbit on a few small scenarios, confirms that the checks pass on
the real outputs, then corrupts one thing at a time and confirms that the
check meant to catch it reports a failure.  Exits 1 if any corruption
goes unnoticed or a clean output is flagged.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
from pathlib import Path

import checks
import gen
import run

WORK = run.ROOT / ".perfbench_work" / "selftest"


def scenarios() -> list[dict]:
    rng = random.Random(0)
    oracle = gen.oracle_ops(rng)[0]
    oracle["doc"]["oracle"]["sizes"] = [1, 2]
    while True:
        c, x0 = rng.uniform(1.01, 1.05), rng.uniform(1.0, 100.0)
        if gen.orbit_length(c, x0, 20_000) == 20_000:
            break
    orbit = gen._orbit_doc("abs_metric", "solve", c, x0, 1)
    orbit["run"]["max_steps"] = 20_000
    sampled = gen.sampled_ops(rng)
    for op in sampled:
        op["doc"]["run"]["n_samples"] = 2_000
    # T = 9x against S = identity: the solve certifies, but its audit along
    # the orbit reports violations
    gap_solve, expect = gen._batch_solve(rng, 0)
    ops = [oracle, gen._op("long_solve", orbit, [0]), gen._op("gap_solve", gap_solve, expect), sampled[0], sampled[2]]
    for op in ops:
        op["file"] = op["name"] + ".json"
    return ops


def execute(op: dict) -> tuple[int, Path]:
    import invorbit.cli

    path = WORK / op["file"]
    path.write_text(json.dumps(op["doc"]))
    out = WORK / op["name"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = invorbit.cli.run_scenario(path, out)
    return code, out


def corrupt(out: Path, edit) -> Path:
    """A copy of the output directory with report.json edited."""
    bad = out.with_name(out.name + "_bad")
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(out, bad)
    report = json.loads((bad / "report.json").read_text())
    edit(report["results"])
    (bad / "report.json").write_text(json.dumps(report, indent=2))
    return bad


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    ops = {op["name"]: op for op in scenarios()}
    outputs = {name: execute(op) for name, op in ops.items()}
    missed = 0

    def expect(label: str, op: dict, code: int, out: Path, want_fail: bool, first=None) -> None:
        nonlocal missed
        fails, _ = checks.check_op(op, code, out, {} if first is None else first)
        ok = bool(fails) == want_fail
        missed += not ok
        verdict = "ok " if ok else "MISSED"
        print(f"{verdict} {label}: {'; '.join(fails) if fails else 'passes'}")

    for name, (code, out) in outputs.items():
        expect(f"clean {name}", ops[name], code, out, False)

    oracle, solve = ops["oracle_sweep"], ops["long_solve"]
    axioms, audit = ops["axioms_sqrt_square"], ops["audit_rl_sqrt_square"]
    code, out = outputs["audit_rl_sqrt_square"]
    expect("exit code outside the expected set", audit, 0, out, True)

    bad = out.with_name(out.name + "_truncated")
    shutil.copytree(out, bad)
    (bad / "report.json").write_bytes((out / "report.json").read_bytes()[:-10])
    expect("report that does not re-parse", audit, code, bad, True)

    first: dict = {}
    checks.check_op(audit, code, out, first)
    bad = out.with_name(out.name + "_reformatted")
    shutil.copytree(out, bad)
    (bad / "report.json").write_text(json.dumps(json.loads((out / "report.json").read_text())))
    expect("repeat whose bytes differ", audit, code, bad, True, first)

    code, out = outputs["long_solve"]
    first = {}
    checks.check_op(solve, code, out, first)
    bad = out.with_name(out.name + "_retraced")
    shutil.copytree(out, bad)
    with open(bad / "trace.csv", "a") as fh:
        fh.write("\n")
    expect("repeat whose trace.csv differs", solve, code, bad, True, first)

    def swap_violation(results):
        results["violations"][0].update(x=1.0, y=1.0)  # 9 -> (3+1)^2 = 16 >= 3 * 4

    def swap_solve_violation(results):
        results["hypothesis_audit"]["violations"][0].update(x=1.0, y=1.0)

    gap = ops["gap_solve"]
    if not json.loads((outputs["gap_solve"][1] / "report.json").read_text())["results"]["hypothesis_audit"]["violations"]:
        missed += 1
        print("MISSED gap_solve reports no violations to corrupt")
    cases = [
        (oracle, "oracle_sweep", "matrices_checked off by one", lambda r: r.update(matrices_checked=r["matrices_checked"] - 1)),
        (oracle, "oracle_sweep", "an oracle counterexample", lambda r: r["counterexamples"].append({"fixed_points": []})),
        (solve, "long_solve", "solve not certified", lambda r: r.update(certified=False)),
        (solve, "long_solve", "candidate away from 0", lambda r: r.update(candidate=1e-6)),
        (solve, "long_solve", "orbit shorter than its budget", lambda r: r.update(orbit_steps=r["orbit_steps"] - 1)),
        (axioms, "axioms_sqrt_square", "checked_triples != n_samples", lambda r: r.update(checked_triples=1999)),
        (axioms, "axioms_sqrt_square", "checked_pairs != n_samples", lambda r: r.update(checked_pairs=2001)),
        (audit, "audit_rl_sqrt_square", "audit checked_pairs != n_samples", lambda r: r.update(checked_pairs=1)),
        (audit, "audit_rl_sqrt_square", "violation that does not re-check", swap_violation),
        (gap, "gap_solve", "solve violation that does not re-check", swap_solve_violation),
    ]
    for op, name, label, edit in cases:
        code, out = outputs[name]
        expect(label, op, code, corrupt(out, edit), True)

    malformed = dict(gen._op("m", None, [1], text="{"), file="m.json")
    record = {"file": "m.json", "code": None, "latency": None, "error": None}
    crashed = {"passes": [{"traced": False, "ops": [record], "wall": 1.0, "batch": {"code": 1, "error": "Traceback ..."}}]}
    verdict = run.check_passes("cli_batch", [malformed], crashed, WORK)
    caught = any("--batch: batch crashed" in f for f in verdict["failures"])
    missed += not caught
    print(f"{'ok ' if caught else 'MISSED'} crashed batch: {verdict['failures']}")
    print("all checks can fail" if not missed else f"{missed} corruptions went unnoticed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
