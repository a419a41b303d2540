"""The invorbit benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Generates the workload's scenario files from the seed, measures set-up in
fresh worker processes, runs the timed worker, checks every output, and
prints a table of metrics with units.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are BENCHMARK.json's end_to_end metrics; with
`--trace 1` they are its per_layer metrics, from a separate traced run.
See perfbench/README.md for what each metric and workload measures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9  # fresh processes whose set-up time gives setup_s
COLD_SAMPLES = 5  # fresh interpreters behind cli.import_s and cli.startup_s
DEADLINE_S = 170.0  # a run must end within 180 s
# A second pass feeds the repeat check and a third gives each scenario a
# median of several runs.  An oracle pass takes 3-6 s, so its untraced runs
# get more passes than --seconds alone would give them.
MIN_PASSES = {"oracle_sweep": 6}
DEFAULT_MIN_PASSES = 3
# The reference loop's time (worker.reference) on the 2-vCPU virtual machine
# the baselines come from.  In-process times are scaled to that speed.
REFERENCE_S = 0.015
# How far the program's time follows the loop's when the host changes speed,
# as a power: fitted log-log slopes were 0.7 on oracle_sweep, 0.75 on
# long_orbit and 1.0 on sampled_checks (README.md, "Host noise").
REFERENCE_EXPONENT = 0.75
# `python -c pass` wall time (worker.startups) on the same machine; `--batch`
# times are scaled to it, in full.
STARTUP_S = 0.08

# The end-to-end throughput each workload counts, read from its reports.
WORK_UNITS = {
    "oracle_sweep": ("oracle_instances_per_s", lambda r: r["instances_checked"]),
    "sampled_checks": (
        "checks_per_s",
        lambda r: r["checked_pairs"] + r.get("checked_triples", 0),
    ),
    "long_orbit": ("orbit_steps_per_s", lambda r: r["orbit_steps"]),
    "cli_batch": ("scenarios_per_s", lambda r: 1),  # malformed ones too: no report
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank.

    Below 20 samples that percentile would sit under the median, so the
    maximum is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


def at_reference_speed(
    seconds: float, blocks: list[list[float]], typical: float = REFERENCE_S, exponent: float = REFERENCE_EXPONENT
) -> float:
    """`seconds` as they would read while the reference takes its `typical` time.

    `blocks` are the reference timings just before and just after.  The
    factor depends only on the reference, so a change to the program moves
    the result by the same ratio as the time it measured.
    """
    ref = statistics.median(t for block in blocks for t in block)
    return seconds * (typical / ref) ** exponent


def batch_speed(record: dict) -> float:
    """The factor that brings a `--batch` pass's times to reference speed."""
    return at_reference_speed(1.0, record["refs"], STARTUP_S, 1.0)


def scaled_latencies(record: dict) -> list[float | None]:
    """A pass's latencies at reference speed.

    In process a loop block follows every scenario, so each has one block
    before and one after it.  A `--batch` pass runs in its own process on
    several threads and both vCPUs, where the loop's speed is a poor guide;
    it is scaled by the interpreter start-up times around it instead.
    """
    latencies = [op["latency"] for op in record["ops"]]
    if "batch" in record:
        factor = batch_speed(record)
        return [None if t is None else t * factor for t in latencies]
    blocks = record["refs"]
    return [at_reference_speed(t, [a, b]) for t, a, b in zip(latencies, blocks, blocks[1:])]


def spawn_worker(work: Path, result: Path, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--inputs", str(work / "inputs"),
        "--out", str(work / "out"),
        "--result", str(result),
        *extra,
    ]
    remaining = deadline - time.monotonic()
    # Its own process group, so a timeout also stops the batch process it runs.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired as err:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{stderr[-3000:]}")
    return json.loads(result.read_text())


def cold_start(env: dict) -> dict[str, float]:
    """`import invorbit.cli` and `python -m invorbit --version` in fresh interpreters."""
    probe = "import time; t = time.perf_counter(); import invorbit.cli; print(time.perf_counter() - t)"
    imports, startups = [], []
    for _ in range(COLD_SAMPLES):
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60)
        imports.append(float(out.stdout))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "invorbit", "--version"], env=env, capture_output=True, check=True, timeout=60)
        startups.append(time.perf_counter() - start)
    return {"cli.import_s": statistics.median(imports), "cli.startup_s": statistics.median(startups)}


def check_passes(workload: str, ops: list[dict], result: dict, work: Path) -> dict:
    """Check every operation of every pass; count failures and one pass's work."""
    by_file = {op["file"]: op for op in ops}
    count_work = WORK_UNITS[workload][1]
    first: dict = {}
    attempted = failed = units = 0
    failures = []
    batch_expect = [1] if any(op["expect"] == [1] for op in ops) else [max(op["expect"][0] for op in ops)]
    for index, record in enumerate(result["passes"]):
        outcomes = []
        if "batch" in record:
            batch = record["batch"]
            fails = [] if batch["code"] in batch_expect else [f"batch exit {batch['code']} not in {batch_expect}"]
            if batch["error"]:
                fails.append(f"batch crashed: {batch['error']}")
            outcomes.append(("--batch", fails))
        for op_record in record["ops"]:
            op = by_file[op_record["file"]]
            out = work / "out" / f"pass{index}" / op["file"][:-5]
            fails, report = checks.check_op(op, op_record["code"], out, first)
            if op_record["error"]:
                fails.insert(0, f"raised {op_record['error']}")
            if not fails and index == 0:
                units += count_work(report["results"] if report else None)
            outcomes.append((op["file"], fails))
        for name, fails in outcomes:
            attempted += 1
            if fails:
                failed += 1
                failures.append(f"pass {index} {name}: {'; '.join(fails)}")
    return {"attempted": attempted, "failed": failed, "units": units, "failures": failures}


def end_to_end(workload: str, result: dict, setup: list[dict], units: int) -> tuple[dict, list[str]]:
    """End-to-end metrics from each scenario's median over the untraced passes.

    The shared host's speed on a fixed CPU-bound job drifts by up to 1.8x,
    in phases from seconds to over twenty minutes, so a whole run can fall
    in a slow phase.  In-process times are therefore scaled by the
    reference loop timed around them (`scaled_latencies`).  A scenario's
    median over its repeats is steadier than its best repeat, so latency
    percentiles are taken over per-scenario medians, and throughput
    divides one pass's work by a pass's median time: the sum of the
    medians in process, the median subprocess wall for `--batch`.
    """
    untraced = [p for p in result["passes"] if not p["traced"]]
    runs: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for record in untraced:
        for op, latency in zip(record["ops"], scaled_latencies(record)):
            if latency is not None:  # None: lost in a crashed batch
                runs.setdefault(op["file"], []).append(latency)
                raw.setdefault(op["file"], []).append(op["latency"])
    if not runs:
        raise BenchError("no scenario completed")
    typical = [statistics.median(values) for values in runs.values()]
    if "batch" in untraced[0]:
        pass_time = statistics.median(p["wall"] * batch_speed(p) for p in untraced)
        raw_time = statistics.median(p["wall"] for p in untraced)
    else:
        pass_time = sum(typical)
        raw_time = sum(statistics.median(values) for values in raw.values())
    tail_value, rank = tail(typical)
    every = [v for values in runs.values() for v in values]
    every_tail, every_rank = tail(every)
    refs = [ref for record in untraced for block in record["refs"][1:] for ref in block]
    metrics = {
        "setup_s": statistics.median(at_reference_speed(s["setup_s"], s["setup_refs"]) for s in setup),
        "scenarios_per_s": len(runs) / pass_time,
        "scenario_p50_s": statistics.median(typical),
        "scenario_tail_s": tail_value,
        "work_per_s": units / pass_time,
        "peak_rss_mb": result["rss_mb"],
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh worker processes",
        f"scenario_p50_s, scenario_tail_s: p50, p{rank:.1f} over {len(typical)} scenarios,"
        f" each the median of {len(untraced)} runs",
        f"all {len(every)} runs: p50 {statistics.median(every):.6g} s, p{every_rank:.1f} {every_tail:.6g} s",
        f"work_per_s is {WORK_UNITS[workload][0]} on {workload}",
        f"unscaled: pass {raw_time:.6g} s,"
        f" scenario p50 {statistics.median(statistics.median(v) for v in raw.values()):.6g} s,"
        f" setup {statistics.median(s['setup_s'] for s in setup):.6g} s",
    ]
    if "batch" in untraced[0]:
        reference = f"`python -c pass` in {STARTUP_S * 1e3:g} ms; it took"
    else:
        reference = f"the loop in {REFERENCE_S * 1e3:g} ms, to the power {REFERENCE_EXPONENT:g}; it took"
    notes.append(f"times at reference speed: {reference} {statistics.median(refs) * 1e3:.4g} ms (median of {len(refs)})")
    return metrics, notes


def per_layer(result: dict, cold: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the fastest traced pass, so they come from one pass."""
    traced = [(p["wall"], i) for i, p in enumerate(p for p in result["passes"] if p["traced"])]
    _, fastest = min(traced)
    metrics = dict(result["trace"]["layers"][fastest])
    metrics.update(cold)
    untraced = min(p["wall"] for p in result["passes"] if not p["traced"])
    metrics["trace.overhead_ratio"] = min(traced)[0] / untraced
    shares = result["trace"]["shares"][fastest]
    notes = [
        f"per-layer values: the fastest of {len(traced)} traced passes",
        "self-time shares by module: "
        + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
    ]
    return metrics, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    ops = gen.write_inputs(workload, seed, work / "inputs")

    setup = [
        spawn_worker(work, work / f"setup{i}.json", deadline, "--setup-only")
        for i in range(0 if trace else SETUP_SAMPLES - 1)
    ]
    passes = DEFAULT_MIN_PASSES if trace else MIN_PASSES.get(workload, DEFAULT_MIN_PASSES)
    extra = ["--seconds", str(seconds), "--min-passes", str(passes)] + (["--trace"] if trace else [])
    result = spawn_worker(work, work / "result.json", deadline, *extra)
    setup.append(result)
    verdict = check_passes(workload, ops, result, work)

    if trace:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        metrics, notes = per_layer(result, cold_start(env))
        wanted = spec["per_layer"]
    else:
        metrics, notes = end_to_end(workload, result, setup, verdict["units"])
        wanted = spec["end_to_end"]

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    failed_ops = verdict["failed"] / verdict["attempted"]
    print(f"== {workload}  seed {seed}  {'traced' if trace else 'untraced'}  {len(result['passes'])} passes")
    for m in wanted:
        print(f"  {m['name']:<44} {metrics[m['name']]:>16.6g} {m['unit']}")
    if not trace:
        label = WORK_UNITS[workload][0]
        print(f"  {label:<44} {metrics['work_per_s']:>16.6g} 1/s")
    print(f"  {'failed_ops':<44} {failed_ops:>16.6g} share ({verdict['failed']} of {verdict['attempted']})")
    for note in notes:
        print(f"  # {note}")
    for failure in verdict["failures"][:10]:
        print(f"  FAILED {failure}")
    return {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    package = ROOT / "src" / "invorbit"
    if not (package / "__init__.py").is_file():
        print(f"error: no invorbit sources at {package}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(package), quiet=1):
        print("error: invorbit sources do not compile", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            summary = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
            print(json.dumps(summary), flush=True)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
