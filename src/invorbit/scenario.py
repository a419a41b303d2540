"""Scenario documents: schema, normalization, and built-in resolution.

A scenario is a JSON object naming a space, a map pair, an expansion
hypothesis, and a run request.  Normalization fills every default so the
echoed document in a report is complete and re-parseable; resolution
turns the declarative parts into live objects.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import jsonschema

from .errors import ScenarioError
from .solver import (
    MapPair,
    PhiHypothesis,
    RLHypothesis,
    affine_phi,
    identity_map,
    linear_map,
    permutation_map,
)
from .spaces import (
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

COMMANDS = ("solve", "audit", "axioms", "oracle", "lemmas")

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
                "family": {
                    "enum": [
                        "sqrt_square",
                        "two_point_sigma",
                        "abs_metric",
                        "max_partial",
                        "sum_metric_like",
                        "square_diff",
                        "table",
                    ]
                },
                "k_const": {"type": "number", "minimum": 1},
                "sample_bound": {"type": "number", "exclusiveMinimum": 0},
                "lower": {"type": "number"},
                "upper": {"type": ["number", "null"]},
                "labels": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": ["string", "number", "boolean", "null"]},
                },
                "matrix": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
                "kind": {
                    "enum": [
                        "partial_metric",
                        "metric_like",
                        "b_metric",
                        "b_metric_like",
                    ]
                },
            },
            "allOf": [
                {
                    "if": {"properties": {"family": {"const": "table"}}},
                    "then": {"required": ["labels", "matrix", "k_const", "kind"]},
                }
            ],
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
                "form": {"enum": ["rl", "phi"]},
                "r_const": {"type": "number", "exclusiveMinimum": 0},
                "l_const": {"type": "number", "minimum": 0},
                "family": {"enum": ["affine"]},
                "a": {"type": "number"},
                "b": {"type": "number"},
                "codomain_bound": {"type": ["number", "null"]},
            },
            "allOf": [
                {
                    "if": {"properties": {"form": {"const": "rl"}}},
                    "then": {"required": ["r_const"]},
                },
                {
                    "if": {"properties": {"form": {"const": "phi"}}},
                    "then": {"required": ["family", "a", "b"]},
                },
            ],
        },
        "run": {
            "type": "object",
            "required": ["command"],
            "additionalProperties": False,
            "properties": {
                "command": {"enum": list(COMMANDS)},
                "x0": {"type": ["number", "string"]},
                "max_steps": {"type": "integer", "minimum": 2},
                "seed": {"type": "integer", "minimum": 0},
                "n_samples": {"type": "integer", "minimum": 1},
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
                "sizes": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                "entries": {"type": "array", "items": {"type": "number", "minimum": 0}},
                "k_values": {"type": "array", "items": {"type": "number", "minimum": 1}},
                "r_offsets": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
                "r_factors": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 1}},
                "l_values": {"type": "array", "items": {"type": "number", "minimum": 0}},
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
                "kind": {"enum": ["linear", "identity", "permutation"]},
                "a": {"type": "number", "exclusiveMinimum": 0},
                "table": {"type": "object"},
            },
            "allOf": [
                {
                    "if": {"properties": {"kind": {"const": "linear"}}},
                    "then": {"required": ["a"]},
                },
                {
                    "if": {"properties": {"kind": {"const": "permutation"}}},
                    "then": {"required": ["table"]},
                },
            ],
        }
    },
}

_FAMILY_DEFAULT_K = {
    "sqrt_square": 2.0,
    "two_point_sigma": 1.0,
    "abs_metric": 1.0,
    "max_partial": 1.0,
    "sum_metric_like": 1.0,
    "square_diff": 2.0,
}

_RUN_DEFAULTS = {
    "max_steps": 10_000,
    "seed": 0,
    "n_samples": 10_000,
    "tol": 1e-6,
}

_ORACLE_DEFAULTS = {
    "sizes": [1, 2, 3],
    "entries": [0.0, 1.0, 2.0, 3.0],
    "k_values": [1.0, 2.0],
    "r_offsets": [0.5],
    "r_factors": [2.0],
    "l_values": [0.0, 1.0],
    "n_max": 4,
}


def validate_scenario(doc: Any) -> None:
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        lines = []
        for err in errors:
            path = "$" + "".join(
                f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path
            )
            lines.append(f"{path}: {err.message}")
        raise ScenarioError("schema violations:\n" + "\n".join(lines))


def normalize_scenario(doc: dict) -> dict:
    """Validate and fill every default; idempotent on its own output."""
    validate_scenario(doc)
    out: dict = {}

    space = dict(doc["space"])
    family = space["family"]
    space.setdefault("k_const", _FAMILY_DEFAULT_K.get(family, 1.0))
    if family != "table" and family != "two_point_sigma":
        space.setdefault("sample_bound", 10.0)
    if family == "abs_metric":
        space.setdefault("lower", 0.0)
        space.setdefault("upper", None)
    out["space"] = space

    if "maps" in doc:
        out["maps"] = {
            side: dict(doc["maps"][side]) for side in ("t", "s")
        }

    if "hypothesis" in doc:
        hyp = dict(doc["hypothesis"])
        if hyp["form"] == "rl":
            hyp.setdefault("l_const", 0.0)
        else:
            bound = hyp.get("codomain_bound")
            hyp["codomain_bound"] = (
                float(space["k_const"]) ** 2 if bound is None else bound
            )
        out["hypothesis"] = hyp

    run = dict(doc["run"])
    for key, value in _RUN_DEFAULTS.items():
        run.setdefault(key, value)
    out["run"] = run

    assumptions = dict(doc.get("assumptions", {}))
    assumptions.setdefault("complete", False)
    assumptions.setdefault("phi_limit_condition_attested", False)
    out["assumptions"] = assumptions

    if doc["run"]["command"] == "oracle" or "oracle" in doc:
        oracle = dict(doc.get("oracle", {}))
        for key, value in _ORACLE_DEFAULTS.items():
            oracle.setdefault(key, value)
        out["oracle"] = oracle

    return out


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ScenarioError(f"non-finite number {literal}")
    return value


def load_scenario(path: str | Path) -> dict:
    """Parse, validate and normalize a scenario file.

    Python's JSON parser accepts Infinity, NaN and literals such as 1e999
    that overflow to infinity; all are rejected, since an infinite bound
    passes every inequality it appears in.
    """
    try:
        doc = json.loads(
            Path(path).read_text(encoding="utf-8"),
            parse_float=_finite_float,
            parse_constant=_finite_float,
        )
    except json.JSONDecodeError as err:
        raise ScenarioError(f"not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    return normalize_scenario(doc)


# ---------------------------------------------------------------------------
# Resolution
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


def build_space(scenario: dict) -> Space:
    spec = scenario["space"]
    family = spec["family"]
    complete = scenario["assumptions"]["complete"]
    k = float(spec["k_const"])
    if family == "sqrt_square":
        space = sqrt_square_space(k, spec["sample_bound"])
    elif family == "two_point_sigma":
        space = two_point_sigma_space()
    elif family == "abs_metric":
        upper = spec["upper"]
        space = abs_metric_space(
            spec["lower"],
            float("inf") if upper is None else upper,
            spec["sample_bound"],
        )
    elif family == "max_partial":
        space = max_partial_space(spec["sample_bound"])
    elif family == "sum_metric_like":
        space = sum_metric_like_space(spec["sample_bound"])
    elif family == "square_diff":
        space = square_diff_space(k, spec["sample_bound"])
    elif family == "table":
        space = table_space(
            _distinct_labels(spec["labels"]),
            spec["matrix"],
            k,
            SpaceKind(spec["kind"]),
        )
    else:
        raise ScenarioError(f"unresolved space family: {family!r}")
    if space.complete != complete:
        space = Space(
            space.carrier, space.dist, space.k_const, space.kind, space.name, complete
        )
    return space


def coerce_point(space: Space, value: Any) -> Any:
    """Map a JSON scalar onto a carrier point (finite labels by string form)."""
    if space.is_finite:
        by_str = {str(p): p for p in space.carrier.points}
        key = str(value)
        if key not in by_str:
            raise ScenarioError(f"point {value!r} is not in the finite carrier")
        return by_str[key]
    return float(value)


def _build_one_map(space: Space, spec: dict) -> tuple:
    kind = spec["kind"]
    if kind == "linear":
        return linear_map(float(spec["a"]))
    if kind == "identity":
        return identity_map()
    if kind == "permutation":
        if not space.is_finite:
            raise ScenarioError("permutation maps need a finite carrier")
        table = {
            coerce_point(space, k): coerce_point(space, v)
            for k, v in spec["table"].items()
        }
        if set(table) != set(space.carrier.points):
            raise ScenarioError("permutation table must cover the whole carrier")
        return permutation_map(table)
    raise ScenarioError(f"unresolved map kind: {kind!r}")


def build_maps(scenario: dict, space: Space) -> MapPair:
    if "maps" not in scenario:
        raise ScenarioError("this command requires a 'maps' section")
    t_spec = scenario["maps"]["t"]
    s_spec = scenario["maps"]["s"]
    t_fwd, t_pre = _build_one_map(space, t_spec)
    s_fwd, s_pre = _build_one_map(space, s_spec)
    return MapPair(t_fwd, s_fwd, t_pre, s_pre, t_spec["kind"], s_spec["kind"])


def build_hypothesis(scenario: dict, space: Space):
    if "hypothesis" not in scenario:
        raise ScenarioError("this command requires a 'hypothesis' section")
    spec = scenario["hypothesis"]
    if spec["form"] == "rl":
        return RLHypothesis(float(spec["r_const"]), float(spec["l_const"]))
    return PhiHypothesis(
        affine_phi(float(spec["a"]), float(spec["b"])),
        float(spec["codomain_bound"]),
        scenario["assumptions"]["phi_limit_condition_attested"],
        label=f"affine(a={spec['a']}, b={spec['b']})",
    )
