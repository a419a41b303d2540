"""The scenario tables: schema output, validation, defaults, and fields a variant never reads."""

import copy
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from invorbit import scenario
from invorbit.cli import main, run_scenario
from invorbit.errors import ScenarioError
from invorbit.oracle import DEFAULT_GRID, falsification_sweep
from invorbit.scenario import (
    COMMANDS,
    FAMILIES,
    FORMS,
    MAP_KINDS,
    SCENARIO_SCHEMA,
    normalize_scenario,
    validate_scenario,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"

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


# The sections each command reads beside space, run and assumptions.
SECTIONS_READ = {
    "solve": {"maps", "hypothesis"},
    "audit": {"maps", "hypothesis"},
    "axioms": set(),
    "oracle": {"oracle"},
    "lemmas": {"maps"},
}


@pytest.mark.parametrize("command", sorted(SECTIONS_READ))
def test_a_section_its_command_does_not_read_is_dropped(command):
    doc = {**_maps(SQRT, LINEAR, RL, command), "oracle": {"sizes": [1]}}
    once = normalize_scenario(doc)
    assert set(once) == {"space", "run", "assumptions"} | SECTIONS_READ[command]
    assert normalize_scenario(once) == once


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


# ---------------------------------------------------------------------------
# Validation: the schema interpreter against jsonschema
# ---------------------------------------------------------------------------


def _keywords(schema):
    """Every keyword of `schema` and of the subschemas it holds."""
    for key, value in schema.items():
        yield key
        if key in ("properties", "$defs"):
            for subschema in value.values():
                yield from _keywords(subschema)
        elif key in ("items", "if", "then"):
            yield from _keywords(value)
        elif key == "allOf":
            for subschema in value:
                yield from _keywords(subschema)


def test_the_validator_implements_exactly_the_keywords_the_schema_uses():
    implemented = set(scenario._CHECKS) | set(scenario._KEYWORDS) | scenario._SKIPPED
    assert set(_keywords(SCENARIO_SCHEMA)) == implemented


def test_the_schema_is_a_draft_2020_12_schema():
    assert SCENARIO_SCHEMA["$schema"] == "https://json-schema.org/draft/2020-12/schema"
    jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)


def _run_schema(schema):
    return schema["properties"]["run"]["properties"]


# Each edit puts a keyword or form the validator does not implement where a
# run with a seed reaches it; validating such a run must raise, not pass.
UNIMPLEMENTED = {
    "keyword": lambda schema: _run_schema(schema)["seed"].update(multipleOf=2),
    "else": lambda schema: _run_schema(schema)["seed"].update({"if": {}, "else": {}}),
    "remote_ref": lambda schema: _run_schema(schema).update(seed={"$ref": "other.json#/$defs/seed"}),
    "schema_valued_extras": lambda schema: schema["properties"]["run"].update(additionalProperties={}),
}


@pytest.mark.parametrize("edit", sorted(UNIMPLEMENTED))
def test_a_schema_edit_the_validator_does_not_implement_raises(edit):
    schema = copy.deepcopy(SCENARIO_SCHEMA)
    UNIMPLEMENTED[edit](schema)
    doc = {"space": {"family": "sqrt_square"}, "run": {"command": "axioms", "seed": 1}}
    with pytest.raises(ValueError, match="is not implemented"):
        list(scenario._errors(doc, schema, schema))


def _jsonschema_text(doc):
    """The `ScenarioError` text jsonschema's errors give, or None for a valid document."""
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    lines = []
    for err in errors:
        path = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path)
        lines.append(f"{path}: {err.message}")
    return "schema violations:\n" + "\n".join(lines)


def _validator_text(doc):
    try:
        validate_scenario(doc)
    except ScenarioError as err:
        return str(err)
    return None


def _valid_values():
    """The valid values of each (section, field) in the normalized minimal
    documents: one per family, map kind, hypothesis form and command."""
    values: dict = {}
    for doc in NORMALIZED.values():
        sections = [(name, fields) for name, fields in doc.items() if name != "maps"]
        sections += [("maps", fields) for fields in doc.get("maps", {}).values()]
        for section, fields in sections:
            for field, value in fields.items():
                values.setdefault((section, field), []).append(value)
    return values


_VALID = _valid_values()
# Every name a document may hold: section, field and variant names.
_NAMES = sorted({*FAMILIES, *MAP_KINDS, *FORMS, *COMMANDS, *(name for key in _VALID for name in key)})
# Values of every JSON type, and at the edges of the schema's bounds:
# integral floats, booleans beside 0 and 1, each side of the size bounds.
_EDGES = [None, "", "x", [], {}, 0, 1, 2, 0.0, 1.0, 5.0, 0.5, -1, -0.0, True, False]
_EDGES += [100, 101, 10**6, 10**6 + 1, 1e6 + 1.0, [1, 1.0], [1, True], [[0]], {"a": 1}]
# An edge value is drawn twice as often as an arbitrary one, and each
# draw is a fresh copy, since mutations edit documents in place.
JSON_VALUES = (
    st.sampled_from(_EDGES)
    | st.sampled_from(_EDGES)
    | st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=2),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(_NAMES), inner, max_size=2),
        max_leaves=4,
    )
).map(copy.deepcopy)


@st.composite
def _section(draw, section, fields):
    """Some of `fields`, each with one of its valid values."""
    present = draw(st.integers(0, 2 ** len(fields) - 1))
    return {
        field: copy.deepcopy(draw(st.sampled_from(_VALID[section, field])))
        for i, field in enumerate(fields)
        if present >> i & 1
    }


@st.composite
def _variant(draw, section, key, table):
    """A section naming a variant of `table`, with its required fields and some defaults."""
    name = draw(st.sampled_from(sorted(table)))
    variant = table[name]
    fields = draw(_section(section, sorted(variant.defaults)))
    fields.update({field: copy.deepcopy(_VALID[section, field][0]) for field in variant.required})
    return {key: name, **fields}


def _containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from _containers(child)


@st.composite
def scenario_documents(draw):
    """Scenario documents built from the variant tables, then mutated.

    Before its mutations a document is valid.  Each of up to three
    mutations deletes a key or an item, replaces one with a JSON value of
    any type, or adds one, anywhere in the document.
    """
    run = {"command": draw(st.sampled_from(COMMANDS))}
    run.update(draw(_section("run", ["x0", "max_steps", "seed", "n_samples", "tol"])))
    doc = {"space": draw(_variant("space", "family", FAMILIES)), "run": run}
    sections = draw(st.integers(0, 15))
    if sections & 1:
        doc["maps"] = {side: draw(_variant("maps", "kind", MAP_KINDS)) for side in ("t", "s")}
    if sections & 2:
        doc["hypothesis"] = draw(_variant("hypothesis", "form", FORMS))
    if sections & 4:
        doc["assumptions"] = draw(_section("assumptions", ["complete", "phi_limit_condition_attested"]))
    if sections & 8:
        doc["oracle"] = draw(_section("oracle", sorted(DEFAULT_GRID)))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        nodes = list(_containers(doc))
        slots = [
            (node, key) for node in nodes for key in (node if isinstance(node, dict) else range(len(node)))
        ]
        action = draw(st.sampled_from(["delete", "replace", "replace", "add"]))
        if action == "add" or not slots:
            node = draw(st.sampled_from(nodes))
            if isinstance(node, dict):
                node[draw(st.sampled_from(_NAMES) | st.text(max_size=2))] = draw(JSON_VALUES)
            else:
                node.append(draw(JSON_VALUES))
        else:
            node, key = draw(st.sampled_from(slots))
            if action == "delete":
                del node[key]
            else:
                node[key] = draw(JSON_VALUES)
    return doc


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario_documents())
def test_validation_matches_jsonschema_on_generated_documents(doc):
    assert _validator_text(doc) == _jsonschema_text(doc)


def _with(path, value, doc=None):
    """A copy of a minimal solve document with `value` at `path`."""
    doc = copy.deepcopy(doc or MINIMAL["command_solve"])
    *parents, last = path
    node = doc
    for key in parents:
        node = node.setdefault(key, {})
    node[last] = value
    return doc


EDGE_DOCUMENTS = {
    "integral_float_max_steps": _with(("run", "max_steps"), 5.0),
    "true_max_steps": _with(("run", "max_steps"), True),
    "true_seed": _with(("run", "seed"), True),
    "integral_float_n_max": _with(("oracle", "n_max"), 5.0),
    "true_n_max": _with(("oracle", "n_max"), True),
    "one_and_one_point_zero_sizes": _with(("oracle", "sizes"), [1, 1.0]),
    "one_and_true_sizes": _with(("oracle", "sizes"), [1, True]),
    "one_and_true_entries": _with(("oracle", "entries"), [1, True]),
    "true_and_true_entries": _with(("oracle", "entries"), [True, True]),
    "unsortable_duplicates": _with(("oracle", "k_values"), [{"a": 1}, {"a": 1.0}]),
    "nested_true_and_one": _with(("oracle", "l_values"), [[1, True], [1, 1]]),
    # Added in an order other than the sorted one.
    "unexpected_keys": _with(("run", "1"), 1, _with(("run", "Alpha"), 2, _with(("run", "zeta"), 3))),
    "one_unexpected_key": _with(("extra",), None),
    # With no family, kind or form, every conditional requirement applies.
    "no_family": _with(("space",), {"labels": []}),
    "no_map_kind": _with(("maps",), {"t": {}, "s": {"a": -1}}),
    "no_form": _with(("hypothesis",), {"l_const": -1}),
    "non_object_section": _with(("space",), ["sqrt_square"]),
    "non_object_root": ["space", "run"],
    "null_root": None,
    "empty_root": {},
    "empty_labels": {"space": dict(TABLE, labels=[]), "run": {"command": "axioms"}},
    "labels_at_bound": _sized("labels", 100),
    "labels_past_bound": _sized("labels", 101),
    "map_ref_errors": _with(("maps", "t"), {"kind": "permutation", "a": 0}),
    "phi_without_family": _with(("hypothesis",), {"form": "phi", "a": "1", "b": None}),
    "wrong_const": _with(("hypothesis", "family"), "linear"),
}


@pytest.mark.parametrize("case", sorted(EDGE_DOCUMENTS))
def test_validation_matches_jsonschema_on_edge_documents(case):
    doc = EDGE_DOCUMENTS[case]
    assert _validator_text(doc) == _jsonschema_text(doc)


def test_a_grid_nested_too_deeply_to_compare_is_a_schema_error(tmp_path, capsys):
    # Two grid items nested 900 deep: the uniqueItems sort compares them
    # recursively, past Python's recursion limit, and jsonschema raises
    # RecursionError on this document itself.  It is a schema error.
    deep = "[" * 900 + "1" + "]" * 900
    text = (
        '{"space": {"family": "two_point_sigma"}, "run": {"command": "oracle"}, '
        f'"oracle": {{"sizes": [{deep}, [{deep}]]}}}}'
    )
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: schema violations:\n$.oracle.sizes")
    assert "RecursionError" not in err
    with pytest.raises(ScenarioError, match=r"^schema violations:\n\$\.oracle\.sizes"):
        validate_scenario(json.loads(text))


# ---------------------------------------------------------------------------
# Integral floats in integer fields
# ---------------------------------------------------------------------------

_GRID = {"sizes": [1, 2], "entries": [0.0, 1.0], "k_values": [1.0], "r_offsets": [0.5], "r_factors": [2.0]}
_ORACLE = {"space": {"family": "two_point_sigma"}, "run": {"command": "oracle"}, "oracle": _GRID}
_SOLVE = dict(MINIMAL["command_solve"], assumptions={"complete": True})

# Draft 2020-12 counts 2.0 as an integer, so each document is valid with
# the integer field written as a float, and must run as the integer does.
INTEGRAL_FLOATS = {
    "solve_max_steps": (_SOLVE, ("run", "max_steps"), 50),
    "lemmas_max_steps": (MINIMAL["command_lemmas"], ("run", "max_steps"), 50),
    "axioms_n_samples": (MINIMAL["command_axioms"], ("run", "n_samples"), 100),
    "audit_n_samples": (MINIMAL["command_audit"], ("run", "n_samples"), 100),
    "axioms_seed": (_with(("run", "n_samples"), 100, MINIMAL["command_axioms"]), ("run", "seed"), 3),
    "oracle_sizes": (_ORACLE, ("oracle", "sizes"), [2]),
    "oracle_n_max": (_ORACLE, ("oracle", "n_max"), 3),
}


@pytest.mark.parametrize("case", sorted(INTEGRAL_FLOATS))
def test_an_integral_float_runs_as_its_integer(tmp_path, capsys, case):
    base, field, value = INTEGRAL_FLOATS[case]
    as_float = [float(v) for v in value] if isinstance(value, list) else float(value)
    outputs = []
    for name, written in [("int", value), ("float", as_float)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_with(field, written, base)))
        code = run_scenario(path, tmp_path / name)
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        outputs.append((code, files, capsys.readouterr().err))
    assert outputs[0][0] in (0, 2)
    assert outputs[1] == outputs[0]


# ---------------------------------------------------------------------------
# No runtime dependency
# ---------------------------------------------------------------------------


def test_the_cli_imports_no_jsonschema(cli_env):
    probe = "import sys, invorbit.cli; print([m for m in sys.modules if m.startswith('jsonschema')])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=cli_env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


# The shipped scenarios run as a batch in an interpreter where importing
# jsonschema fails, and their outputs match the goldens and the pins.
BATCH_WITHOUT_JSONSCHEMA = """
import sys
sys.modules["jsonschema"] = None
from invorbit.cli import main
sys.exit(main(["--batch", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_a_batch_runs_where_jsonschema_cannot_be_imported(tmp_path, cli_env):
    out = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "-c", BATCH_WITHOUT_JSONSCHEMA, str(ROOT / "scenarios"), str(out)],
        env=cli_env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 2, run.stderr
    assert run.stderr == ""
    for line in (GOLDENS / "scenarios.sha256").read_text().splitlines():
        digest, path = line.split("  ")
        assert hashlib.sha256((out / path).read_bytes()).hexdigest() == digest, path
    for golden in [*GOLDENS.glob("*.report.json"), *GOLDENS.glob("*.trace.csv")]:
        stem, name = golden.name.split(".", 1)
        assert (out / stem / name).read_bytes() == golden.read_bytes(), golden.name
