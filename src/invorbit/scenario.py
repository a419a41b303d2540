"""Scenario documents: schema, normalization, and built-in resolution.

A scenario is a JSON object naming a space, a map pair, an expansion
hypothesis, and a run request.  Normalization fills every default so the
echoed document in a report is complete and re-parseable; resolution
turns the declarative parts into live objects.  Each space family, map
kind and hypothesis form is one `Variant` entry, which the schema,
normalization and resolution all read.  The schema is a JSON Schema
(draft 2020-12) document; a small interpreter of the keywords it uses
validates a scenario with `jsonschema`'s messages, so the package needs
no third-party module.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from collections.abc import Mapping, Sequence
from numbers import Number
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .errors import ScenarioError
from .oracle import DEFAULT_GRID
from .solver import (
    DEFAULT_MAX_STEPS,
    MapPair,
    PhiHypothesis,
    RLHypothesis,
    affine_phi,
    identity_map,
    linear_map,
    permutation_map,
)
from .spaces import (
    SAMPLE_BOUND,
    Space,
    SpaceKind,
    abs_metric_space,
    max_partial_space,
    sqrt_square_space,
    square_diff_space,
    sum_metric_like_space,
    table_space,
    two_point_sigma_space,
)

# The commands a scenario may request; the CLI's command table runs them.
COMMANDS = ("solve", "audit", "axioms", "oracle", "lemmas")
# The sections of a scenario each command reads, in echo order; a
# normalized scenario holds these only.
_SECTIONS_READ = {
    "solve": ("space", "maps", "hypothesis", "run", "assumptions"),
    "audit": ("space", "maps", "hypothesis", "run", "assumptions"),
    "axioms": ("space", "run", "assumptions"),
    "oracle": ("space", "run", "assumptions", "oracle"),
    "lemmas": ("space", "maps", "run", "assumptions"),
}

# The largest `run.max_steps` and `run.n_samples`, and the most table
# labels, a scenario may ask for: an orbit's memory and output grow
# linearly with the first, a sampled run's time and violations with the
# second, and exhaustive axioms walk n**3 label triples.
MAX_RUN_SIZE = 1_000_000
MAX_LABELS = 100


class Variant(NamedTuple):
    """One space family, map kind or hypothesis form.

    It reads the fields in `required` (which the schema demands) and in
    `defaults` (which normalization fills).  A field in `fixed` keeps its
    default: a document may restate it but not change it.
    """

    build: Callable
    defaults: dict = {}
    required: tuple = ()
    fixed: tuple = ()


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _distinct_labels(labels: list) -> tuple:
    """Table labels, rejecting two that share a string form.

    `coerce_point` finds a finite point by its string form, so labels such
    as 1 and "1", or true and "True", cannot be told apart.
    """
    by_str: dict[str, int] = {}
    for i, label in enumerate(labels):
        j = by_str.setdefault(str(label), i)
        if j != i:
            raise ScenarioError(
                f"table labels {labels[j]!r} and {label!r} collide: finite "
                "points are addressed by their string form"
            )
    return tuple(labels)


def coerce_point(space: Space, value: Any) -> Any:
    """Map a JSON scalar onto a carrier point (finite labels by string form).

    A string that parses to a non-finite float, such as "inf" or "1e999", is
    rejected on an interval carrier as a non-finite literal is.
    """
    if space.is_finite:
        by_str = {str(p): p for p in space.carrier.points}
        key = str(value)
        if key not in by_str:
            raise ScenarioError(f"point {value!r} is not in the finite carrier")
        return by_str[key]
    return _finite_float(value)


def _permutation(space: Space, spec: dict) -> tuple:
    if not space.is_finite:
        raise ScenarioError("permutation maps need a finite carrier")
    table = {
        coerce_point(space, k): coerce_point(space, v)
        for k, v in spec["table"].items()
    }
    if set(table) != set(space.carrier.points):
        raise ScenarioError("permutation table must cover the whole carrier")
    return permutation_map(table)


def _affine_phi(spec: dict) -> PhiHypothesis:
    return PhiHypothesis(
        affine_phi(float(spec["a"]), float(spec["b"])), float(spec["codomain_bound"])
    )


# ---------------------------------------------------------------------------
# Variant tables
# ---------------------------------------------------------------------------

_K1 = {"k_const": 1.0, "sample_bound": SAMPLE_BOUND}  # interval families whose K is 1

# Space families, in schema enum order; a builder takes the normalized spec.
FAMILIES = {
    "sqrt_square": Variant(
        lambda s: sqrt_square_space(float(s["k_const"]), s["sample_bound"]),
        {"k_const": 2.0, "sample_bound": SAMPLE_BOUND},
    ),
    "two_point_sigma": Variant(
        lambda s: two_point_sigma_space(), {"k_const": 1.0}, fixed=("k_const",)
    ),
    "abs_metric": Variant(
        lambda s: abs_metric_space(
            s["lower"], math.inf if s["upper"] is None else s["upper"], s["sample_bound"]
        ),
        {**_K1, "lower": 0.0, "upper": None},
        fixed=("k_const",),
    ),
    "max_partial": Variant(
        lambda s: max_partial_space(s["sample_bound"]), _K1, fixed=("k_const",)
    ),
    "sum_metric_like": Variant(
        lambda s: sum_metric_like_space(s["sample_bound"]), _K1, fixed=("k_const",)
    ),
    "square_diff": Variant(
        lambda s: square_diff_space(float(s["k_const"]), s["sample_bound"]),
        {"k_const": 2.0, "sample_bound": SAMPLE_BOUND},
    ),
    "table": Variant(
        lambda s: table_space(
            _distinct_labels(s["labels"]),
            s["matrix"],
            float(s["k_const"]),
            SpaceKind(s["kind"]),
        ),
        required=("labels", "matrix", "k_const", "kind"),
    ),
}

# Map kinds; a builder takes the space and the spec, and returns
# (forward, preimage).
MAP_KINDS = {
    "linear": Variant(lambda space, s: linear_map(float(s["a"])), required=("a",)),
    "identity": Variant(lambda space, s: identity_map()),
    "permutation": Variant(_permutation, required=("table",)),
}

# Hypothesis forms; a builder takes the spec.  A null codomain_bound stands
# for the space's K**2.
FORMS = {
    "rl": Variant(
        lambda s: RLHypothesis(float(s["r_const"]), float(s["l_const"])),
        {"l_const": 0.0},
        ("r_const",),
    ),
    "phi": Variant(_affine_phi, {"codomain_bound": None}, ("family", "a", "b")),
}


def _required_when(key: str, table: dict) -> list:
    """The schema's conditional requirements for the variants of `table`."""
    return [
        {
            "if": {"properties": {key: {"const": name}}},
            "then": {"required": list(variant.required)},
        }
        for name, variant in table.items()
        if variant.required
    ]


def _grid_array(items: dict) -> dict:
    return {"type": "array", "uniqueItems": True, "items": items}


SCENARIO_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "invorbit scenario",
    "type": "object",
    "required": ["space", "run"],
    "additionalProperties": False,
    "properties": {
        "space": {
            "type": "object",
            "required": ["family"],
            "additionalProperties": False,
            "properties": {
                "family": {"enum": list(FAMILIES)},
                "k_const": {"type": "number", "minimum": 1},
                "sample_bound": {"type": "number", "exclusiveMinimum": 0},
                "lower": {"type": "number"},
                "upper": {"type": ["number", "null"]},
                "labels": {
                    "type": "array",
                    "minItems": 1,
                    "maxItems": MAX_LABELS,
                    "items": {"type": ["string", "number", "boolean", "null"]},
                },
                "matrix": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
                "kind": {"enum": [kind.value for kind in SpaceKind]},
            },
            "allOf": _required_when("family", FAMILIES),
        },
        "maps": {
            "type": "object",
            "required": ["t", "s"],
            "additionalProperties": False,
            "properties": {
                "t": {"$ref": "#/$defs/map"},
                "s": {"$ref": "#/$defs/map"},
            },
        },
        "hypothesis": {
            "type": "object",
            "required": ["form"],
            "additionalProperties": False,
            "properties": {
                "form": {"enum": list(FORMS)},
                "r_const": {"type": "number", "exclusiveMinimum": 0},
                "l_const": {"type": "number", "minimum": 0},
                "family": {"enum": ["affine"]},
                "a": {"type": "number"},
                "b": {"type": "number"},
                "codomain_bound": {"type": ["number", "null"]},
            },
            "allOf": _required_when("form", FORMS),
        },
        "run": {
            "type": "object",
            "required": ["command"],
            "additionalProperties": False,
            "properties": {
                "command": {"enum": list(COMMANDS)},
                "x0": {"type": ["number", "string"]},
                "max_steps": {"type": "integer", "minimum": 2, "maximum": MAX_RUN_SIZE},
                "seed": {"type": "integer", "minimum": 0},
                "n_samples": {"type": "integer", "minimum": 1, "maximum": MAX_RUN_SIZE},
                "tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "assumptions": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "complete": {"type": "boolean"},
                "phi_limit_condition_attested": {"type": "boolean"},
            },
        },
        "oracle": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # A repeated value would sweep the same instances again.
                "sizes": _grid_array({"type": "integer", "minimum": 1}),
                "entries": _grid_array({"type": "number", "minimum": 0}),
                "k_values": _grid_array({"type": "number", "minimum": 1}),
                "r_offsets": _grid_array({"type": "number", "exclusiveMinimum": 0}),
                "r_factors": _grid_array({"type": "number", "exclusiveMinimum": 1}),
                "l_values": _grid_array({"type": "number", "minimum": 0}),
                "n_max": {"type": "integer", "minimum": 1},
            },
        },
    },
    "$defs": {
        "map": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(MAP_KINDS)},
                "a": {"type": "number", "exclusiveMinimum": 0},
                "table": {"type": "object"},
            },
            "allOf": _required_when("kind", MAP_KINDS),
        }
    },
}

_RUN_DEFAULTS = {
    "max_steps": DEFAULT_MAX_STEPS,
    "seed": 0,
    "n_samples": 10_000,
    "tol": 1e-6,
}

# The limit flag is echoed in the report; no check reads it.
_ASSUMPTION_DEFAULTS = {"complete": False, "phi_limit_condition_attested": False}


# ---------------------------------------------------------------------------
# Validation: an interpreter of the draft 2020-12 keywords SCENARIO_SCHEMA
# uses.  It reports what jsonschema 4.26 reports, in the same order and
# with the same messages; a keyword or `$ref` form it does not implement
# raises, so a schema edit is never silently ignored.
# ---------------------------------------------------------------------------


def _number(value: Any) -> bool:
    return isinstance(value, Number) and not isinstance(value, bool)


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
    "number": _number,
    # 50.0 is an integer too; normalization makes it 50.
    "integer": lambda value: (
        _number(value)
        and (isinstance(value, int) or isinstance(value, float) and value.is_integer())
    ),
}


def _unbool(value: Any, true: object = object(), false: object = object()) -> Any:
    """Tell true and false apart from 1 and 0."""
    return true if value is True else false if value is False else value


def _equal(one: Any, two: Any) -> bool:
    """JSON equality: 1 equals 1.0 but true does not, in arrays and objects too."""
    if one is two:
        return True
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, Sequence) and isinstance(two, Sequence):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, Mapping) and isinstance(two, Mapping):
        return len(one) == len(two) and all(k in two and _equal(v, two[k]) for k, v in one.items())
    return _unbool(one) == _unbool(two)


def _unique(items: list) -> bool:
    """No two items are equal: compare sorted neighbours, or every pair if unsortable."""
    try:
        ordered = sorted(map(_unbool, items))
        return not any(map(_equal, ordered, ordered[1:]))
    except (NotImplementedError, TypeError):
        seen: list = []
        for item in map(_unbool, items):
            if any(_equal(other, item) for other in seen):
                return False
            seen.append(item)
        return True


def _type(types, doc, schema):
    types = [types] if isinstance(types, str) else types
    for name in types:
        if _TYPES[name](doc):
            return None
    return f"{doc!r} is not of type {', '.join(map(repr, types))}"


def _no_extras(allowed, doc, schema):
    if allowed is not False:
        raise ValueError(f"additionalProperties {allowed!r} is not implemented")
    if isinstance(doc, dict):
        extras = sorted(set(doc).difference(schema.get("properties", {})), key=str)
        names = ", ".join(map(repr, extras))
        verb = "was" if len(extras) == 1 else "were"
        return extras and f"Additional properties are not allowed ({names} {verb} unexpected)"


# Keywords that judge the document itself: (value, doc, schema) -> the
# message of its violation, or a false value.
_CHECKS: dict[str, Callable] = {
    "type": _type,
    "additionalProperties": _no_extras,
    "enum": lambda values, doc, schema: (
        not any(_equal(value, doc) for value in values) and f"{doc!r} is not one of {values!r}"
    ),
    "const": lambda value, doc, schema: not _equal(doc, value) and f"{value!r} was expected",
    "minimum": lambda bound, doc, schema: (
        _number(doc) and doc < bound and f"{doc!r} is less than the minimum of {bound!r}"
    ),
    "exclusiveMinimum": lambda bound, doc, schema: (
        _number(doc) and doc <= bound
        and f"{doc!r} is less than or equal to the minimum of {bound!r}"
    ),
    "maximum": lambda bound, doc, schema: (
        _number(doc) and doc > bound and f"{doc!r} is greater than the maximum of {bound!r}"
    ),
    "minItems": lambda n, doc, schema: (
        isinstance(doc, list) and len(doc) < n
        and f"{doc!r} {'should be non-empty' if n == 1 else 'is too short'}"
    ),
    "maxItems": lambda n, doc, schema: (
        isinstance(doc, list) and len(doc) > n
        and f"{doc!r} {'is expected to be empty' if n == 0 else 'is too long'}"
    ),
    "uniqueItems": lambda unique, doc, schema: (
        unique and isinstance(doc, list) and not _unique(doc) and f"{doc!r} has non-unique elements"
    ),
}


def _resolve(ref: str, root: dict) -> dict:
    prefix = "#/$defs/"
    if not ref.startswith(prefix):
        raise ValueError(f"$ref {ref!r} is not implemented")
    return root["$defs"][ref[len(prefix) :]]


def _within(key, doc, schema, root):
    """The errors of `doc` under `schema`, with `key` put before each path."""
    for path, message in _errors(doc, schema, root):
        yield (key, *path), message


def _required(names, doc, schema, root):
    if isinstance(doc, dict):
        for name in names:
            if name not in doc:
                yield (), f"{name!r} is a required property"


def _properties(subschemas, doc, schema, root):
    if isinstance(doc, dict):
        for name, subschema in subschemas.items():
            if name in doc:
                yield from _within(name, doc[name], subschema, root)


def _items(subschema, doc, schema, root):
    if isinstance(doc, list):
        for index, item in enumerate(doc):
            yield from _within(index, item, subschema, root)


def _if(condition, doc, schema, root):
    if "then" in schema and next(_errors(doc, condition, root), None) is None:
        yield from _errors(doc, schema["then"], root)


# Keywords with any number of errors: (value, doc, schema, root) -> (path, message)s.
_KEYWORDS: dict[str, Callable] = {
    "required": _required,
    "properties": _properties,
    "items": _items,
    "allOf": lambda subschemas, doc, schema, root: (
        error for subschema in subschemas for error in _errors(doc, subschema, root)
    ),
    "if": _if,
    "$ref": lambda ref, doc, schema, root: _errors(doc, _resolve(ref, root), root),
}

# Keywords that judge nothing; "if" reads "then".
_SKIPPED = frozenset({"$schema", "title", "$defs", "then"})


def _errors(doc, schema: dict, root: dict):
    """(path, message) for each keyword of `schema` that `doc` breaks, in schema order."""
    for key, value in schema.items():
        if key in _CHECKS:
            try:
                message = _CHECKS[key](value, doc, schema)
            except RecursionError:
                # Python's comparisons and repr recurse into nested values;
                # jsonschema cannot judge such a document either.
                message = f"nested too deeply to check {key!r}"
            if message:
                yield (), message
        elif key in _KEYWORDS:
            yield from _KEYWORDS[key](value, doc, schema, root)
        elif key not in _SKIPPED:
            raise ValueError(f"schema keyword {key!r} is not implemented")


def validate_scenario(doc: Any) -> None:
    errors = sorted(_errors(doc, SCENARIO_SCHEMA, SCENARIO_SCHEMA), key=lambda error: error[0])
    if errors:
        lines = []
        for path, message in errors:
            where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
            lines.append(f"{where}: {message}")
        raise ScenarioError("schema violations:\n" + "\n".join(lines))


def _as_integers(doc: Any, schema: dict, root: dict) -> Any:
    """`doc` with each number `schema` types as integer made an int, as `range` needs."""
    if "$ref" in schema:
        schema = _resolve(schema["$ref"], root)
    if schema.get("type") == "integer":
        return int(doc)
    if isinstance(doc, dict) and "properties" in schema:
        fields = schema["properties"]
        return {k: _as_integers(v, fields[k], root) if k in fields else v for k, v in doc.items()}
    if isinstance(doc, list) and "items" in schema:
        return [_as_integers(item, schema["items"], root) for item in doc]
    return doc


def _filled(section: dict, where: str, key: str, table: dict) -> dict:
    """`section` with its variant's defaults; a field it does not read is an error."""
    name = section[key]
    variant = table[name]
    for field, value in section.items():
        if field in variant.fixed and value != variant.defaults[field]:
            raise ScenarioError(
                f"{where}.{field}: {key} {name!r} fixes it at {variant.defaults[field]!r}"
            )
        if field != key and field not in variant.defaults and field not in variant.required:
            raise ScenarioError(f"{where}.{field}: {key} {name!r} does not read this field")
    return {**variant.defaults, **section}


def normalize_scenario(doc: dict) -> dict:
    """Validate and fill every default; idempotent on its own output.

    A section its command does not read is validated, then dropped.
    """
    validate_scenario(doc)
    reads = _SECTIONS_READ[doc["run"]["command"]]
    space = _filled(doc["space"], "$.space", "family", FAMILIES)
    out: dict = {"space": space}
    if "maps" in doc:
        out["maps"] = {
            side: _filled(doc["maps"][side], f"$.maps.{side}", "kind", MAP_KINDS)
            for side in ("t", "s")
        }
    if "hypothesis" in doc:
        hyp = _filled(doc["hypothesis"], "$.hypothesis", "form", FORMS)
        if "codomain_bound" in hyp and hyp["codomain_bound"] is None:
            hyp["codomain_bound"] = float(space["k_const"]) ** 2
        out["hypothesis"] = hyp
    out["run"] = {**_RUN_DEFAULTS, **doc["run"]}
    out["assumptions"] = {**_ASSUMPTION_DEFAULTS, **doc.get("assumptions", {})}
    if "oracle" in reads:
        # Each fill gets its own lists: they are the sweep's defaults too.
        out["oracle"] = {**copy.deepcopy(DEFAULT_GRID), **doc.get("oracle", {})}
    out = {section: out[section] for section in reads if section in out}
    return _as_integers(out, SCENARIO_SCHEMA, SCENARIO_SCHEMA)


def _finite_float(literal: str | float) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ScenarioError(f"non-finite number {literal}")
    return value


def load_scenario(path: str | Path, overrides: dict | None = None) -> dict:
    """Parse, validate and normalize a scenario file.

    Python's JSON parser accepts Infinity, NaN and literals such as 1e999
    that overflow to infinity; all are rejected, since an infinite bound
    passes every inequality it appears in.  A file that cannot be read, or
    nests too deeply for the parser, is a `ScenarioError` as well.

    `overrides` (the CLI's --command and --seed) replace fields of the
    file's `run` once the file is valid as written; they are applied to
    the file's own document, so a section the new command reads is kept.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:  # a directory, a missing file, no permission
        raise ScenarioError(f"cannot read scenario file: {err}") from err
    try:
        doc = json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"not valid JSON: {err}") from err
    except RecursionError as err:
        raise ScenarioError("JSON nested too deeply to parse") from err
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    scenario = normalize_scenario(doc)
    if overrides:
        # normalized again: an override is checked, and defaulted, like the file
        scenario = normalize_scenario({**doc, "run": {**doc["run"], **overrides}})
    return scenario


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


def build_space(scenario: dict) -> Space:
    spec = scenario["space"]
    space = FAMILIES[spec["family"]].build(spec)
    return dataclasses.replace(space, complete=scenario["assumptions"]["complete"])


def build_maps(scenario: dict, space: Space) -> MapPair:
    if "maps" not in scenario:
        raise ScenarioError("this command requires a 'maps' section")
    t_spec = scenario["maps"]["t"]
    s_spec = scenario["maps"]["s"]
    t_fwd, t_pre = MAP_KINDS[t_spec["kind"]].build(space, t_spec)
    s_fwd, s_pre = MAP_KINDS[s_spec["kind"]].build(space, s_spec)
    return MapPair(t_fwd, s_fwd, t_pre, s_pre, t_spec["kind"], s_spec["kind"])


def build_hypothesis(scenario: dict, space: Space):
    if "hypothesis" not in scenario:
        raise ScenarioError("this command requires a 'hypothesis' section")
    spec = scenario["hypothesis"]
    return FORMS[spec["form"]].build(spec)
