import contextlib
import csv
import hashlib
import json
import math
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from invorbit import cli
from invorbit.cli import COMMANDS, main, run_batch, run_scenario
from invorbit.report import canonical_json, write_trace_csv
from invorbit.errors import ScenarioError
from invorbit.scenario import (
    SCENARIO_SCHEMA,
    build_space,
    load_scenario,
    normalize_scenario,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# canonical JSON writer
# ---------------------------------------------------------------------------


def test_floats_are_emitted_with_full_precision():
    assert canonical_json(0.1) == "0.10000000000000001"
    assert canonical_json(4 / 9) == "0.44444444444444442"
    assert json.loads(canonical_json(0.1)) == 0.1


def test_non_finite_floats_become_strings():
    assert canonical_json(math.inf) == '"inf"'
    assert canonical_json(math.nan) == '"nan"'


def test_keys_are_sorted():
    out = canonical_json({"b": 1, "a": 2})
    assert out.index('"a"') < out.index('"b"')


# ---------------------------------------------------------------------------
# trace CSV writer
# ---------------------------------------------------------------------------


def _reference_trace_csv(points, distances, ratios, path):
    """The csv.writer loop that the streaming writer replaced."""

    def cell(value):
        if isinstance(value, float):
            if math.isnan(value):
                return "nan"
            if math.isinf(value):
                return "inf" if value > 0 else "-inf"
            return format(value, ".17g")
        return str(value)

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "point", "dist_to_next", "ratio"])
        for n, point in enumerate(points):
            dist = cell(distances[n]) if n < len(distances) else ""
            ratio = cell(ratios[n - 1]) if 1 <= n <= len(ratios) else ""
            writer.writerow([n, cell(point), dist, ratio])


_SUBNORMAL_STALL = [2.0**-e for e in range(1060, 1076)] + [5e-324] * 6 + [1e-310] * 3
_SIGNED_ZEROS = [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0]
_NON_FINITE = [math.nan, math.nan, math.inf, math.inf, -math.inf, -math.inf, math.nan]
_INT_VS_FLOAT = [1, 1.0, 1.0, 1, 10**20, 1e20, 1e20, 10**20, True, 1.0]
_LABELS = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", None, "plain", "plain"]


@pytest.mark.parametrize(
    "points, distances, ratios",
    [
        (_SUBNORMAL_STALL, _SUBNORMAL_STALL[1:], [1.0] * 23),
        (_SIGNED_ZEROS, _SIGNED_ZEROS[::-1], _SIGNED_ZEROS),
        (_NON_FINITE, _NON_FINITE[1:], _NON_FINITE[2:]),
        (_INT_VS_FLOAT, _INT_VS_FLOAT[::-1], _INT_VS_FLOAT[3:]),
        (_LABELS, _LABELS[2:], _LABELS),
        (_LABELS + _NON_FINITE, [0.5] * 3, [0.25] * 2),
        (_SIGNED_ZEROS, [2e-323] * 12, [4e-323] * 12),
        ([], [1.0], [1.0]),
    ],
    ids=[
        "subnormal_stall",
        "signed_zeros",
        "non_finite",
        "int_vs_float",
        "labels",
        "short_columns",
        "long_columns",
        "empty",
    ],
)
def test_trace_csv_matches_the_csv_writer(tmp_path, points, distances, ratios):
    write_trace_csv(points, distances, ratios, tmp_path / "new.csv")
    _reference_trace_csv(points, distances, ratios, tmp_path / "reference.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# ---------------------------------------------------------------------------
# scenario schema
# ---------------------------------------------------------------------------


def test_schema_is_serializable():
    json.dumps(SCENARIO_SCHEMA)


def test_table_scenario_requires_k_const(tmp_path, capsys):
    doc = {
        "space": {
            "family": "table",
            "labels": ["a", "b"],
            "matrix": [[0, 1], [1, 0]],
            "kind": "b_metric",
        },
        "run": {"command": "axioms"},
    }
    code = run_scenario(_write(tmp_path, "bad.json", doc), tmp_path / "out")
    assert code == 1
    err = capsys.readouterr().err
    assert "$.space" in err and "k_const" in err


def test_unknown_command_rejected(tmp_path):
    doc = {"space": {"family": "sqrt_square"}, "run": {"command": "frobnicate"}}
    assert run_scenario(_write(tmp_path, "bad.json", doc), tmp_path / "out") == 1


def test_r_must_exceed_k_is_an_error(tmp_path):
    doc = {
        "space": {"family": "sqrt_square"},
        "maps": {"t": {"kind": "linear", "a": 9.0}, "s": {"kind": "identity"}},
        "hypothesis": {"form": "rl", "r_const": 1.5},
        "run": {"command": "audit", "n_samples": 10},
        "assumptions": {"complete": True},
    }
    assert run_scenario(_write(tmp_path, "bad.json", doc), tmp_path / "out") == 1


def _table_doc(labels, **run):
    return {
        "space": {
            "family": "table",
            "labels": labels,
            "matrix": [[int(i != j) for j in labels] for i in labels],
            "k_const": 1.0,
            "kind": "b_metric",
        },
        "run": {"command": "axioms", **run},
    }


@pytest.mark.parametrize("labels", [[1, "1"], [True, "True"], ["2", "a", 2]])
def test_colliding_table_labels_are_rejected(tmp_path, capsys, labels):
    with pytest.raises(ScenarioError, match="collide"):
        build_space(normalize_scenario(_table_doc(labels)))
    # A permutation map used to fail here with a misleading coverage error.
    doc = _table_doc(labels, command="audit")
    doc["maps"] = {
        "t": {"kind": "permutation", "table": {"1": "1"}},
        "s": {"kind": "identity"},
    }
    doc["hypothesis"] = {"form": "rl", "r_const": 1.5}
    assert run_scenario(_write(tmp_path, "collide.json", doc), tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert f"{labels[0]!r} and {labels[-1]!r} collide" in err
    assert "cover" not in err


def test_normalization_is_idempotent():
    doc = json.loads((SCENARIOS / "sqrt_square_solve.json").read_text())
    once = normalize_scenario(doc)
    assert normalize_scenario(once) == once


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------


def test_solve_scenario_certifies(tmp_path):
    out = tmp_path / "out"
    code = run_scenario(SCENARIOS / "sqrt_square_solve.json", out)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "certified"
    assert report["results"]["candidate"] == 0.0
    assert report["results"]["cauchy"]["lambda_hat"] == pytest.approx(4 / 9, abs=1e-9)
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "step,point,dist_to_next,ratio"
    assert lines[1].startswith("0,81,144,")
    assert lines[2] == "1,9,36,0.25"


def test_audit_scenario_reports_the_gap(tmp_path):
    out = tmp_path / "out"
    code = run_scenario(SCENARIOS / "sqrt_square_audit.json", out)
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "violations_found"
    first = report["results"]["violations"][0]
    assert (first["x"], first["y"], first["lhs"], first["rhs"]) == (0, 1, 1, 3)


def test_axioms_scenario_passes(tmp_path):
    assert run_scenario(SCENARIOS / "sqrt_square_axioms.json", tmp_path / "out") == 0


def test_axioms_scenario_fails_with_k1(tmp_path):
    doc = {
        "space": {"family": "sqrt_square", "k_const": 1.0},
        "run": {"command": "axioms", "n_samples": 500, "seed": 1},
    }
    out = tmp_path / "out"
    assert run_scenario(_write(tmp_path, "k1.json", doc), out) == 2
    report = json.loads((out / "report.json").read_text())
    ids = {v["axiom_id"] for v in report["results"]["violations"]}
    assert "D3" in ids


def test_oracle_scenario_passes(tmp_path):
    out = tmp_path / "out"
    assert run_scenario(SCENARIOS / "oracle_sweep.json", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["counterexamples"] == []
    assert report["results"]["instances_checked"] > 0


@pytest.mark.parametrize(
    "grid",
    [{"entries": []}, {"sizes": []}, {"sizes": [2], "entries": [0.0]}],
    ids=["no_entries", "no_sizes", "no_admitted_matrix"],
)
def test_an_oracle_grid_that_admits_no_space_is_an_error(tmp_path, capsys, grid):
    doc = json.loads((SCENARIOS / "oracle_sweep.json").read_text())
    doc["oracle"].update(grid)
    path = _write(tmp_path, "empty_grid.json", doc)
    assert run_scenario(path, tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: the oracle grid admits no space, so nothing was checked\n"
    )
    assert not (tmp_path / "out" / "report.json").exists()


# SHA-256 of report.json for two sampled runs, recorded before the samplers
# drew in bulk: a changed draw order or a changed slack test breaks these.
SQUARE_DIFF_K1_AXIOMS = {
    "space": {"family": "square_diff", "k_const": 1.0},
    "run": {"command": "axioms", "n_samples": 2000, "seed": 7},
    "assumptions": {"complete": True},
}
SAMPLED_REPORT_SHA256 = [
    (
        "sqrt_square_audit",
        "60ac431cf681fc8640825fa014b090d0067a592962d6fe671de5f686a93a1003",
    ),
    (
        "square_diff_k1_axioms",
        "5821e28abc840ccc7ededdf2760e9ecdfe9ae20ce370d53a4521e7a6cf5ca6d7",
    ),
]


@pytest.mark.parametrize(
    "name, digest", SAMPLED_REPORT_SHA256, ids=[n for n, _ in SAMPLED_REPORT_SHA256]
)
def test_sampled_reports_are_pinned(tmp_path, name, digest):
    if name == "sqrt_square_audit":
        path = SCENARIOS / "sqrt_square_audit.json"
    else:
        path = _write(tmp_path, f"{name}.json", SQUARE_DIFF_K1_AXIOMS)
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    data = (out / "report.json").read_bytes()
    violations = json.loads(data)["results"]["violations"]
    assert len(violations) > 100
    if name == "square_diff_k1_axioms":
        assert all(len(v["witness"]) in (2, 3) for v in violations)
    assert hashlib.sha256(data).hexdigest() == digest


def test_outputs_do_not_depend_on_the_locale(tmp_path, cli_env):
    doc = {
        "space": {
            "family": "table",
            "labels": ["α", "β"],
            "matrix": [[0, 1], [1, 0]],
            "k_const": 1.0,
            "kind": "b_metric",
        },
        "maps": {
            "t": {"kind": "permutation", "table": {"α": "β", "β": "α"}},
            "s": {"kind": "identity"},
        },
        "hypothesis": {"form": "rl", "r_const": 1.5},
        "run": {"command": "solve", "x0": "α", "max_steps": 10},
        "assumptions": {"complete": True},
    }
    scenario = tmp_path / "alpha.json"
    scenario.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    locales = {
        "utf8": {"PYTHONUTF8": "1"},
        "c": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
    }
    runs = {}
    for name, extra in locales.items():
        cwd = tmp_path / name
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "invorbit", "--scenario", str(scenario), "--out", "out"],
            cwd=cwd,
            env={**cli_env, **extra},
            capture_output=True,
        )
        files = [cwd / "out" / "report.json", cwd / "out" / "trace.csv"]
        outputs = [f.read_bytes() if f.exists() else None for f in files]
        runs[name] = (proc.returncode, proc.stdout, proc.stderr, *outputs)
    assert runs["utf8"][0] == 2
    assert "α".encode("utf-8") in runs["utf8"][4]
    assert runs["c"] == runs["utf8"]


def test_table_space_with_permutation_maps(tmp_path):
    doc = {
        "space": {
            "family": "table",
            "labels": ["a", "b", "c"],
            "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
            "k_const": 1.0,
            "kind": "b_metric",
        },
        "maps": {
            "t": {"kind": "permutation", "table": {"a": "b", "b": "a", "c": "c"}},
            "s": {"kind": "permutation", "table": {"a": "a", "b": "b", "c": "c"}},
        },
        "hypothesis": {"form": "rl", "r_const": 1.5},
        "run": {"command": "solve", "x0": "a", "max_steps": 100},
        "assumptions": {"complete": True},
    }
    out = tmp_path / "out"
    code = run_scenario(_write(tmp_path, "finite.json", doc), out)
    report = json.loads((out / "report.json").read_text())
    # The swap against identity cycles between a and b; nothing certifies.
    assert code == 2
    assert report["results"]["terminated_by"] == "max_iterations"


def test_table_space_exhaustive_axioms(tmp_path):
    doc = {
        "space": {
            "family": "table",
            "labels": [0, 1],
            "matrix": [[2, 1], [1, 1]],
            "k_const": 1.0,
            "kind": "metric_like",
        },
        "run": {"command": "axioms"},
    }
    out = tmp_path / "out"
    assert run_scenario(_write(tmp_path, "sigma.json", doc), out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["checked_triples"] == 8


def test_lemmas_scenario_passes(tmp_path):
    out = tmp_path / "out"
    assert run_scenario(SCENARIOS / "lemmas_sqrt_square.json", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["polygon"]["holds"]
    assert report["results"]["sandwich"]["hypothesis_met"]
    assert report["results"]["sandwich"]["failures"] == []


def test_command_override(tmp_path):
    out = tmp_path / "out"
    code = run_scenario(SCENARIOS / "sqrt_square_solve.json", out, command="audit")
    assert code == 2


def test_exit_codes_partition_outcomes(tmp_path):
    codes = set()
    codes.add(run_scenario(SCENARIOS / "sqrt_square_solve.json", tmp_path / "a"))
    codes.add(run_scenario(SCENARIOS / "sqrt_square_audit.json", tmp_path / "b"))
    codes.add(run_scenario(_write(tmp_path, "broken.json", {"run": {}}), tmp_path / "c"))
    assert codes == {0, 2, 1}


# ---------------------------------------------------------------------------
# determinism and echo round-trip
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical_across_runs(tmp_path):
    run_scenario(SCENARIOS / "sqrt_square_solve.json", tmp_path / "one")
    run_scenario(SCENARIOS / "sqrt_square_solve.json", tmp_path / "two")
    a = (tmp_path / "one" / "report.json").read_bytes()
    b = (tmp_path / "two" / "report.json").read_bytes()
    assert a == b


def test_scenario_echo_round_trips(tmp_path):
    out = tmp_path / "out"
    run_scenario(SCENARIOS / "sqrt_square_solve.json", out)
    report = json.loads((out / "report.json").read_text())
    echoed = report["scenario"]
    assert normalize_scenario(echoed) == echoed


def test_seed_override_is_recorded(tmp_path):
    out = tmp_path / "out"
    run_scenario(SCENARIOS / "sqrt_square_audit.json", out, seed=77)
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 77
    assert report["scenario"]["run"]["seed"] == 77


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------


def test_batch_runs_every_scenario(tmp_path):
    batch = tmp_path / "batch"
    batch.mkdir()
    for name in ("sqrt_square_solve.json", "sqrt_square_audit.json"):
        (batch / name).write_text((SCENARIOS / name).read_text())
    out = tmp_path / "out"
    code = run_batch(batch, out, seed=None)
    assert code == 2  # the audit member finds violations
    assert (out / "sqrt_square_solve" / "report.json").exists()
    assert (out / "sqrt_square_audit" / "report.json").exists()


def test_batch_with_no_scenarios_is_an_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_batch(empty, tmp_path / "out", seed=None) == 1


def test_arithmetic_failure_does_not_abort_the_batch(tmp_path, cli_env):
    # From x0 = 1e200 the squared distance of the b-metric overflows.
    batch = tmp_path / "batch"
    batch.mkdir()
    doc = json.loads((SCENARIOS / "b_metric_solve.json").read_text())
    doc["run"]["x0"] = 1e200
    _write(batch, "a_overflow.json", doc)
    (batch / "b_good.json").write_text((SCENARIOS / "sqrt_square_solve.json").read_text())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "invorbit", "--batch", str(batch), "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=cli_env,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"error: {batch / 'a_overflow.json'}: OverflowError" in proc.stderr
    assert (out / "b_good" / "report.json").exists()


def test_non_scalar_labels_do_not_abort_the_batch(tmp_path, cli_env):
    batch = tmp_path / "batch"
    batch.mkdir()
    _write(batch, "a_nested.json", _table_doc([[1], [2]]))
    (batch / "b_good.json").write_text((SCENARIOS / "sqrt_square_solve.json").read_text())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "invorbit", "--batch", str(batch), "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=cli_env,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "$.space.labels[0]" in proc.stderr
    assert (out / "b_good" / "report.json").exists()


def test_batch_output_is_deterministic_and_in_file_order(tmp_path, cli_env):
    batch = tmp_path / "batch"
    shutil.copytree(SCENARIOS, batch)
    (batch / "c_malformed.json").write_text("{")
    out = tmp_path / "out"
    cmd = [sys.executable, "-m", "invorbit", "--batch", str(batch), "--out", str(out)]
    runs = [subprocess.run(cmd, capture_output=True, cwd=ROOT, env=cli_env) for _ in range(2)]
    assert [run.returncode for run in runs] == [1, 1]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr
    exit_of = {}
    for command in COMMANDS.values():
        exit_of.update({command.passed: 0, command.failed: 2})
    expected = []
    for path in sorted(SCENARIOS.glob("*.json")):  # the batch minus the malformed file
        report_path = out / path.stem / "report.json"
        report = json.loads(report_path.read_text())
        status = report["status"]
        expected.append(f"{report['command']}: {status} (exit {exit_of[status]}) -> {report_path}")
    assert runs[0].stdout.decode() == "".join(line + "\n" for line in expected)
    assert runs[0].stderr.decode().startswith(f"error: {batch / 'c_malformed.json'}: not valid JSON")
    assert runs[0].stderr.decode().count("\n") == 1


def _unreadable(directory: Path, kind: str) -> Path:
    """A scenario path that cannot be loaded, of one kind."""
    path = directory / f"{kind}.json"
    if kind == "a_directory":
        path.mkdir()
    elif kind == "b_missing":
        path.symlink_to(directory / "nowhere" / "scenario.json")
    else:
        path.write_text("[" * 200_000 + "]" * 200_000)
    return path


UNREADABLE = ("a_directory", "b_missing", "c_deep")


@pytest.mark.parametrize("kind", UNREADABLE)
def test_unreadable_scenario_is_an_error(tmp_path, capsys, kind):
    path = _unreadable(tmp_path, kind)
    with pytest.raises(ScenarioError):
        load_scenario(path)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_unreadable_scenarios_do_not_abort_the_batch(tmp_path, cli_env):
    batch = tmp_path / "batch"
    batch.mkdir()
    for kind in UNREADABLE:
        _unreadable(batch, kind)
    (batch / "d_good.json").write_text((SCENARIOS / "sqrt_square_solve.json").read_text())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "invorbit", "--batch", str(batch), "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=cli_env,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = proc.stderr.splitlines()
    assert len(errors) == len(UNREADABLE)
    assert all(line.startswith("error:") for line in errors)
    assert "Is a directory" in errors[0]
    assert "No such file" in errors[1]
    assert "nested too deeply" in errors[2]
    assert (out / "d_good" / "report.json").exists()


@contextlib.contextmanager
def _time_limit(seconds: int):
    """Raise TimeoutError in the main thread if the block runs too long."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the batch pool needs the fork start method",
)


@needs_fork
def test_a_dead_worker_fails_the_batch_without_hanging(tmp_path, monkeypatch, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    names = ("a", "b", "c", "d", "e")
    for name in names:
        (batch / f"{name}.json").write_text((SCENARIOS / "sqrt_square_solve.json").read_text())
    real = cli.run_scenario

    def dies_on_b(path, out_dir, command=None, seed=None):
        if Path(path).stem == "b":
            os._exit(3)
        return real(path, out_dir, command, seed)

    # the forked workers inherit both patches
    monkeypatch.setattr(cli, "run_scenario", dies_on_b)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    with _time_limit(60):
        code = run_batch(batch, out, seed=None)
    assert code == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    finished = captured.out.splitlines()
    unfinished = captured.err.splitlines()
    assert all(line.startswith("solve: certified (exit 0)") for line in finished)
    assert all(line.startswith("error:") and "worker process died" in line for line in unfinished)
    assert f"error: {batch / 'b.json'}: its worker process died" in unfinished
    # every file is named by exactly one line: its status or its error
    for name in names:
        named = [line for line in finished if line.endswith(str(out / name / "report.json"))]
        named += [line for line in unfinished if str(batch / f"{name}.json") in line]
        assert len(named) == 1, name


@needs_fork
def test_a_one_file_batch_runs_in_process_like_the_pool(tmp_path, monkeypatch):
    pids = []
    real = cli.run_scenario

    def recording(path, out_dir, command=None, seed=None):
        pids.append(os.getpid())  # appends in forked workers stay there
        return real(path, out_dir, command, seed)

    monkeypatch.setattr(cli, "run_scenario", recording)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    alone, pooled = tmp_path / "alone", tmp_path / "pooled"
    for batch, names in ((alone, ["sqrt_square_audit.json"]),
                         (pooled, ["sqrt_square_audit.json", "sqrt_square_solve.json"])):
        batch.mkdir()
        for name in names:
            (batch / name).write_text((SCENARIOS / name).read_text())
    assert run_batch(alone, tmp_path / "out_alone", seed=None) == 2
    assert pids == [os.getpid()]
    assert run_batch(pooled, tmp_path / "out_pooled", seed=None) == 2
    assert pids == [os.getpid()]
    report = "sqrt_square_audit/report.json"
    assert (tmp_path / "out_alone" / report).read_bytes() == (
        tmp_path / "out_pooled" / report
    ).read_bytes()


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
def test_an_unexpected_exception_does_not_abort_the_batch(tmp_path, monkeypatch, capsys, workers):
    if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the batch pool needs the fork start method")
    batch = tmp_path / "batch"
    batch.mkdir()
    for name in ("a_bad.json", "b_good.json"):
        (batch / name).write_text((SCENARIOS / "sqrt_square_solve.json").read_text())
    real = cli.load_scenario

    def fails_on_a(path):
        if Path(path).stem == "a_bad":
            raise TypeError("unhashable thing")
        return real(path)

    # the forked workers inherit both patches
    monkeypatch.setattr(cli, "load_scenario", fails_on_a)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    out = tmp_path / "out"
    assert run_batch(batch, out, seed=None) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {batch / 'a_bad.json'}: TypeError: unhashable thing"]
    assert (out / "b_good" / "report.json").exists()
    assert not (out / "a_bad" / "report.json").exists()


def test_a_negative_seed_override_is_an_error(tmp_path, capsys):
    path = SCENARIOS / "sqrt_square_audit.json"
    assert run_scenario(path, tmp_path / "out", seed=-1) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: schema violations:") and "$.run.seed" in err


def test_command_override_to_oracle_fills_the_oracle_defaults(tmp_path):
    out = tmp_path / "out"
    assert run_scenario(SCENARIOS / "sqrt_square_axioms.json", out, command="oracle") == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"]["oracle"]["sizes"] == [1, 2, 3]
    assert report["scenario"]["run"]["command"] == "oracle"


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_non_finite_numbers_are_rejected_at_load(tmp_path, literal):
    path = tmp_path / "scenario.json"
    path.write_text(
        '{"space": {"family": "sqrt_square", "k_const": %s},'
        ' "run": {"command": "axioms", "n_samples": 10}}' % literal
    )
    with pytest.raises(ScenarioError, match="non-finite"):
        load_scenario(path)
    assert run_scenario(path, tmp_path / "out") == 1


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def test_the_command_table_matches_the_schema_enum():
    assert list(COMMANDS) == SCENARIO_SCHEMA["properties"]["run"]["properties"]["command"]["enum"]


def test_print_schema_emits_valid_json(capsys):
    assert main(["--print-schema"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["title"] == "invorbit scenario"


def test_main_requires_a_scenario_or_batch(capsys):
    assert main([]) == 1
    assert "required" in capsys.readouterr().err
