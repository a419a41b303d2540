"""Benchmark worker: set up invorbit in a fresh interpreter, then time a workload.

run.py starts this script once per set-up sample and once for the timed
run.  The worker imports invorbit from the checkout's `src`, loads and
builds every scenario of the workload (the set-up time), then runs passes
over the workload's scenarios until `--seconds` have elapsed, each pass
writing into its own output directory.  It records exit codes and
latencies only; run.py checks the outputs afterwards, so the worker's
peak memory is the program's.

    python3 perfbench/worker.py --root . --inputs DIR --out DIR --result FILE \
        [--seconds S] [--min-passes N] [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import selectors
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Batch threads print concurrently, so a newline can land after another
# thread's message; each message itself arrives whole.
STATUS = re.compile(rb"\w+: \w+ \(exit (\d+)\) -> ([^\n]+?report\.json)")
ERROR = re.compile(rb"error: ")
REFERENCE_LOOPS = 50_000  # about 15 ms
REFERENCE_SHARE = 0.1  # reference time after an operation, per second it took
MIN_REFERENCES = 3


def setup(root: Path, inputs: Path, ops: list[dict]):
    """Import invorbit from the checkout and load and build every scenario."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import invorbit
    import invorbit.cli
    from invorbit.errors import InvorbitError
    from invorbit.scenario import build_hypothesis, build_maps, build_space, load_scenario

    if Path(invorbit.__file__).resolve().parent != (src / "invorbit").resolve():
        raise SystemExit(f"invorbit was imported from {invorbit.__file__}, not {src}")
    for op in ops:
        try:
            scenario = load_scenario(inputs / "scenarios" / op["file"])
            space = build_space(scenario)
            if "maps" in scenario:
                build_maps(scenario, space)
            if "hypothesis" in scenario:
                build_hypothesis(scenario, space)
        except (InvorbitError, ValueError, KeyError):
            pass  # the malformed inputs are part of the workload
    return invorbit


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(REFERENCE_LOOPS):
        x = (i % 97) * 0.5
        acc += abs(x - acc * 1e-3) ** 0.5
        table[i & 255] = acc
    return time.perf_counter() - start


def references(after: float) -> list[float]:
    """A block of reference loops worth REFERENCE_SHARE of `after` seconds.

    Single loops spread widely on a shared host, so each operation is
    followed by a block long enough for a steady median.
    """
    block = [reference() for _ in range(MIN_REFERENCES)]
    while sum(block) < REFERENCE_SHARE * after:
        block.append(reference())
    return block


def startups() -> list[float]:
    """Wall times of MIN_REFERENCES fresh interpreters that start and exit.

    The reference for `--batch` passes, which run in a fresh process on
    several threads: their time follows how fast the host starts and
    schedules processes more closely than it follows the loop.
    """
    block = []
    for _ in range(MIN_REFERENCES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        block.append(time.perf_counter() - start)
    return block


def in_process_pass(invorbit, inputs: Path, out: Path, ops: list[dict], before: list[float]) -> dict:
    """One run_scenario call per scenario, timed from outside.

    `before` is the reference block just before the pass; the pass records
    it and the block after each scenario.
    """
    records, refs = [], [before]
    for op in ops:
        sink = io.StringIO()
        error = None
        code = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = invorbit.cli.run_scenario(inputs / "scenarios" / op["file"], out / op["file"][:-5])
            except Exception as err:  # a crash is a failed operation, not a crashed run
                error = repr(err)
            latency = time.perf_counter() - start
        records.append({"file": op["file"], "code": code, "latency": latency, "error": error})
        refs.append(references(latency))
    return {"ops": records, "wall": sum(r["latency"] for r in records), "refs": refs}


def _read_chunks(proc: subprocess.Popen, start: float) -> dict:
    """Each pipe's output as (arrival time, bytes) chunks, until both close."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fileobj.fileno(), 65536)
                if data:
                    chunks[key.fileobj].append((time.perf_counter() - start, data))
                else:
                    sel.unregister(key.fileobj)
    return {"out": chunks[proc.stdout], "err": chunks[proc.stderr]}


def _arrivals(chunks: list, pattern: re.Pattern) -> list[tuple[float, re.Match]]:
    """Every match of `pattern` in the stream with the time its last byte arrived."""
    text = b"".join(data for _, data in chunks)
    ends, offset = [], 0
    for when, data in chunks:
        offset += len(data)
        ends.append((offset, when))
    found = []
    for match in pattern.finditer(text):
        found.append((next(when for end, when in ends if end >= match.end()), match))
    return found


def batch_pass(cmd: list[str], env: dict, out: Path, ops: list[dict], before: list[float]) -> dict:
    """`--batch` in a fresh process; a scenario's latency is when its result line appears.

    `before` is the block of start-up times just before the pass; the pass
    records it and the block after the batch.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--out", str(out)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    streams = _read_chunks(proc, start)
    code = proc.wait()
    wall = time.perf_counter() - start
    by_stem = {op["file"][:-5]: op for op in ops}
    records = []
    for when, match in _arrivals(streams["out"], STATUS):
        op = by_stem.pop(Path(match.group(2).decode()).parent.name, None)
        if op is not None:
            records.append({"file": op["file"], "code": int(match.group(1)), "latency": when, "error": None})
    stderr = b"".join(data for _, data in streams["err"]).decode(errors="replace")
    crashed = "Traceback" in stderr
    error_times = [when for when, _ in _arrivals(streams["err"], ERROR)]
    # Scenarios without a result line ended in an error message (exit 1),
    # unless the batch crashed, in which case their outcome is unknown.
    for op, when in zip(list(by_stem.values()), error_times + [None] * len(by_stem)):
        records.append({"file": op["file"], "code": None if crashed else 1, "latency": when, "error": None})
    batch = {"code": code, "error": stderr[-2000:] if crashed else None}
    return {"ops": records, "wall": wall, "batch": batch, "refs": [before, startups()]}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    manifest = json.loads((args.inputs / "manifest.json").read_text())
    ops = manifest["ops"]

    before = references(0.0)
    start = time.perf_counter()
    invorbit = setup(args.root, args.inputs, ops)
    setup_s = time.perf_counter() - start
    after = references(0.0)
    result = {"setup_s": setup_s, "setup_refs": [before, after]}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return

    batch = manifest["workload"] == "cli_batch"
    if batch:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(args.root / "src"), env.get("PYTHONPATH")]))
        scen = str(args.inputs / "scenarios")
        plain = [sys.executable, "-m", "invorbit", "--batch", scen]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        nproc = os.cpu_count() or 1
        span_file = args.out / "spans.csv.gz"

    passes, layers, shares = [], [], []
    before = startups() if batch else after
    began = time.perf_counter()
    while len(passes) < args.min_passes or time.perf_counter() - began < args.seconds:
        traced = args.trace and len(passes) % 2 == 1
        out = args.out / f"pass{len(passes)}"
        if batch and traced:
            dump_to = args.out / f"spans{len(passes)}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), "--spans", str(dump_to), "--batch", scen]
            record = batch_pass(cmd, env, out, ops, before)
            dumped = json.loads(dump_to.read_text())
            pass_spans, dist_calls = [tuple(s) for s in dumped["spans"]], dumped["dist_calls"]
        elif batch:
            record = batch_pass(plain, env, out, ops, before)
        elif traced:
            tracer.install()
            try:
                record = in_process_pass(invorbit, args.inputs, out, ops, before)
            finally:
                tracer.uninstall()
            pass_spans, dist_calls = tracer.take()
        else:
            record = in_process_pass(invorbit, args.inputs, out, ops, before)
        record["traced"] = traced
        passes.append(record)
        before = record["refs"][-1]
        if len(passes) == 1:
            # One pass's peak, not one that grows with the number of passes.
            usage = resource.RUSAGE_CHILDREN if batch else resource.RUSAGE_SELF
            result["rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
        if traced:
            layers.append(spans.layer_metrics(pass_spans, dist_calls, nproc))
            shares.append(spans.layer_shares(pass_spans))
            spans.dump(pass_spans, span_file, append=span_file.exists())

    result["passes"] = passes
    if tracer is not None:
        result["trace"] = {"layers": layers, "shares": shares}
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
