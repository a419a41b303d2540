"""The scenario tables: schema output, defaults, and fields a variant never reads."""

import json
from pathlib import Path

import pytest

from invorbit.cli import main, run_scenario
from invorbit.errors import ScenarioError
from invorbit.oracle import DEFAULT_GRID, falsification_sweep
from invorbit.scenario import normalize_scenario

GOLDENS = Path(__file__).resolve().parent / "goldens"

SQRT = {"family": "sqrt_square"}
TABLE = {
    "family": "table",
    "labels": [0, 1],
    "matrix": [[0, 1], [1, 0]],
    "k_const": 1.0,
    "kind": "b_metric",
}
LINEAR = {"kind": "linear", "a": 4.0}
RL = {"form": "rl", "r_const": 3.0}


def _family(name):
    return {"space": {"family": name}, "run": {"command": "axioms"}}


def _maps(space, kind, hypothesis=None, command="lemmas", x0=1.0):
    doc = {"space": space, "maps": {"t": kind, "s": kind}, "run": {"command": command, "x0": x0}}
    if hypothesis is not None:
        doc["hypothesis"] = hypothesis
    return doc


# One minimal document per family, map kind, hypothesis form and command.
MINIMAL = {
    "family_sqrt_square": _family("sqrt_square"),
    "family_two_point_sigma": _family("two_point_sigma"),
    "family_abs_metric": _family("abs_metric"),
    "family_max_partial": _family("max_partial"),
    "family_sum_metric_like": _family("sum_metric_like"),
    "family_square_diff": _family("square_diff"),
    "family_table": {"space": TABLE, "run": {"command": "axioms"}},
    "map_linear": _maps(SQRT, LINEAR),
    "map_identity": _maps(SQRT, {"kind": "identity"}),
    "map_permutation": _maps(TABLE, {"kind": "permutation", "table": {"0": 1, "1": 0}}, x0=0),
    "form_rl": _maps(SQRT, LINEAR, RL, "audit"),
    "form_phi": _maps(
        {"family": "square_diff"}, LINEAR, {"form": "phi", "family": "affine", "a": 5.0, "b": 0.0}, "audit"
    ),
    "command_solve": _maps(SQRT, LINEAR, RL, "solve"),
    "command_audit": _maps(SQRT, LINEAR, RL, "audit"),
    "command_axioms": _family("sqrt_square"),
    "command_oracle": {"space": {"family": "two_point_sigma"}, "run": {"command": "oracle"}},
    "command_lemmas": _maps(SQRT, LINEAR),
}


def test_print_schema_matches_the_golden(capsys):
    assert main(["--print-schema"]) == 0
    assert capsys.readouterr().out == (GOLDENS / "schema.json").read_text()


NORMALIZED = json.loads((GOLDENS / "normalized.json").read_text())


@pytest.mark.parametrize("case", sorted(MINIMAL))
def test_minimal_documents_normalize_as_recorded(case):
    once = normalize_scenario(MINIMAL[case])
    assert json.dumps(once, sort_keys=True) == json.dumps(NORMALIZED[case], sort_keys=True)
    assert normalize_scenario(once) == once


# Each document names one field its family, map kind or hypothesis form does
# not read, or restates K as other than 1 on a family whose K is 1.
UNREAD = [
    ({"family": "sqrt_square", "lower": 5, "kind": "b_metric"}, None, None, "$.space.lower"),
    ({"family": "two_point_sigma", "k_const": 5}, None, None, "$.space.k_const"),
    ({"family": "two_point_sigma", "sample_bound": 3.0}, None, None, "$.space.sample_bound"),
    ({"family": "abs_metric", "k_const": 2.0}, None, None, "$.space.k_const"),
    ({"family": "max_partial", "k_const": 1.5}, None, None, "$.space.k_const"),
    ({"family": "sum_metric_like", "k_const": 3}, None, None, "$.space.k_const"),
    ({"family": "square_diff", "upper": 4.0}, None, None, "$.space.upper"),
    (dict(TABLE, sample_bound=3.0), None, None, "$.space.sample_bound"),
    (SQRT, {"kind": "identity", "a": 0.5}, None, "$.maps.t.a"),
    (SQRT, {"kind": "linear", "a": 2.0, "table": {}}, None, "$.maps.t.table"),
    (SQRT, LINEAR, {"form": "rl", "r_const": 3.0, "a": 1.0}, "$.hypothesis.a"),
    (
        SQRT,
        LINEAR,
        {"form": "phi", "family": "affine", "a": 5.0, "b": 0.0, "l_const": 1.0},
        "$.hypothesis.l_const",
    ),
]


@pytest.mark.parametrize(
    "space, t_map, hypothesis, field", UNREAD, ids=[f"{i}:{u[-1]}" for i, u in enumerate(UNREAD)]
)
def test_fields_a_variant_never_reads_are_rejected(tmp_path, capsys, space, t_map, hypothesis, field):
    doc = {"space": space, "run": {"command": "axioms"}}
    if t_map is not None:
        doc["maps"] = {"t": t_map, "s": {"kind": "identity"}}
    if hypothesis is not None:
        doc["hypothesis"] = hypothesis
    path = tmp_path / "unread.json"
    path.write_text(json.dumps(doc))
    assert run_scenario(path, tmp_path / "out") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: {field}: ")
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("family", ["two_point_sigma", "abs_metric", "max_partial", "sum_metric_like"])
def test_a_family_with_k_one_accepts_k_one_restated(family):
    doc = {"space": {"family": family, "k_const": 1}, "run": {"command": "axioms"}}
    assert normalize_scenario(doc)["space"]["k_const"] == 1


def test_a_filled_oracle_grid_shares_no_list_with_the_defaults():
    doc = {"space": {"family": "two_point_sigma"}, "run": {"command": "oracle"}}
    first = normalize_scenario(doc)
    first["oracle"]["sizes"].append(4)
    first["oracle"]["entries"].clear()
    assert normalize_scenario(doc)["oracle"]["sizes"] == [1, 2, 3]
    assert DEFAULT_GRID["sizes"] == [1, 2, 3]
    assert DEFAULT_GRID["entries"] == [0.0, 1.0, 2.0, 3.0]
    assert falsification_sweep.__defaults__[0] == [1, 2, 3]


def _sized(field, size):
    """A document whose `field` asks for `size` steps, samples or labels."""
    if field == "labels":
        space = dict(TABLE, labels=list(range(size)), matrix=[[0] * size] * size)
        return {"space": space, "run": {"command": "axioms"}}
    command = "solve" if field == "max_steps" else "audit"
    doc = _maps(SQRT, LINEAR, RL, command)
    doc["run"][field] = size
    return doc


# A run grows linearly with max_steps and n_samples, and exhaustive axioms
# walk n**3 label triples: a size past its bound is a schema error before
# any orbit, sample or triple, not an out-of-memory kill or a full disk.
@pytest.mark.parametrize(
    "field, bound, path",
    [
        ("max_steps", 1_000_000, "$.run.max_steps"),
        ("n_samples", 1_000_000, "$.run.n_samples"),
        ("labels", 100, "$.space.labels"),
    ],
)
def test_a_run_size_is_bounded(field, bound, path):
    at_bound = normalize_scenario(_sized(field, bound))
    got = len(at_bound["space"]["labels"]) if field == "labels" else at_bound["run"][field]
    assert got == bound
    with pytest.raises(ScenarioError) as caught:
        normalize_scenario(_sized(field, bound + 1))
    lines = str(caught.value).splitlines()
    assert lines[0] == "schema violations:"
    assert [line.split(":")[0] for line in lines[1:]] == [path]
