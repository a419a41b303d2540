import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from invorbit.cli import run_batch, run_scenario
from invorbit.report import canonical_json
from invorbit.errors import ScenarioError
from invorbit.scenario import SCENARIO_SCHEMA, load_scenario, normalize_scenario

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


def test_arithmetic_failure_does_not_abort_the_batch(tmp_path):
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
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error: OverflowError" in proc.stderr
    assert (out / "b_good" / "report.json").exists()


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


def test_print_schema_emits_valid_json(capsys):
    from invorbit.cli import main

    assert main(["--print-schema"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["title"] == "invorbit scenario"


def test_main_requires_a_scenario_or_batch(capsys):
    from invorbit.cli import main

    assert main([]) == 1
    assert "required" in capsys.readouterr().err
