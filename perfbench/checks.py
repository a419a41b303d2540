"""Per-operation correctness checks.

Every check reads the scenario document the generator wrote and the files
the program produced, and returns a list of reasons the operation failed
(empty when it passed).  The distance formulas and the violation rule are
the benchmark's own copies, so a violation the program reports is
re-checked independently of the program's code.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

TOL_POINT = 1e-12  # the documented ambient point tolerance
TOL_AXIOM = 1e-9  # the documented relative slack; violations beyond half of it

DISTANCES = {
    "sqrt_square": lambda x, y: (math.sqrt(x) + math.sqrt(y)) ** 2,
    "abs_metric": lambda x, y: abs(x - y),
    "max_partial": lambda x, y: float(max(x, y)),
    "sum_metric_like": lambda x, y: float(x + y),
    "square_diff": lambda x, y: (x - y) ** 2,
    "two_point_sigma": lambda x, y: 2.0 if x == 0 and y == 0 else 1.0,
}


def distance(space: dict):
    if space["family"] != "table":
        return DISTANCES[space["family"]]
    index = {label: i for i, label in enumerate(space["labels"])}
    matrix = space["matrix"]
    return lambda x, y: float(matrix[index[x]][index[y]])


def forward(spec: dict):
    if spec["kind"] == "linear":
        a = spec["a"]
        return lambda x: a * x
    if spec["kind"] == "identity":
        return lambda x: x
    table = spec["table"]
    return lambda x: table[str(x)]


def is_violation(doc: dict, x, y) -> bool:
    """Whether (x, y) breaks the document's expansion inequality."""
    d = distance(doc["space"])
    tx, sy = forward(doc["maps"]["t"])(x), forward(doc["maps"]["s"])(y)
    hyp = doc["hypothesis"]
    lhs = d(tx, sy)
    if hyp["form"] == "rl":
        coeff = hyp["r_const"]
        l_const = hyp.get("l_const", 0.0)
        if l_const > 0:
            sharp = lambda p, q: abs(2.0 * d(p, q) - (d(p, p) + d(q, q)))  # noqa: E731
            coeff += l_const * min(sharp(x, tx), sharp(y, sy), sharp(x, sy), sharp(y, tx))
        rhs = coeff * d(x, y)
    else:
        t = d(x, y)
        if t <= 0.0:
            return False
        rhs = (hyp["a"] + hyp["b"] * t) * t
    return rhs - lhs > 0.5 * TOL_AXIOM * max(abs(rhs), abs(lhs))


def matrices_in_grid(oracle: dict) -> int:
    """Symmetric n x n matrices over the entries: E^(n(n+1)/2) per size."""
    entries = len(set(oracle["entries"]))
    return sum(entries ** (n * (n + 1) // 2) for n in oracle["sizes"])


def _carrier_size(doc: dict) -> int | None:
    family = doc["space"]["family"]
    if family == "table":
        return len(doc["space"]["labels"])
    return 2 if family == "two_point_sigma" else None


def check_results(doc: dict, report: dict) -> list[str]:
    """Invariants that hold independently of how the program computes them."""
    results = report["results"]
    command = doc["run"]["command"]
    fails = []
    if command == "oracle":
        expected = matrices_in_grid(doc["oracle"])
        if results["matrices_checked"] != expected:
            fails.append(f"matrices_checked {results['matrices_checked']} != {expected}")
        if results["counterexamples"]:
            fails.append(f"{len(results['counterexamples'])} oracle counterexamples")
        return fails
    size = _carrier_size(doc)
    n = doc["run"].get("n_samples", 10_000)
    if command == "axioms":
        pairs, triples = (n, n) if size is None else (size**2, size**3)
        if (results["checked_pairs"], results["checked_triples"]) != (pairs, triples):
            fails.append(
                f"checked {results['checked_pairs']} pairs, {results['checked_triples']}"
                f" triples; expected {pairs}, {triples}"
            )
    if command == "audit":
        pairs = n if size is None else size**2
        if results["checked_pairs"] != pairs:
            fails.append(f"checked_pairs {results['checked_pairs']} != {pairs}")
    if command in ("audit", "solve"):
        # a solve audits the hypothesis along its orbit and reports the same way
        reported = results["violations"] if command == "audit" else results["hypothesis_audit"]["violations"]
        bad = [v for v in reported if not is_violation(doc, v["x"], v["y"])]
        if bad:
            fails.append(f"{len(bad)} reported violations do not re-check, e.g. {bad[0]}")
    if command == "solve":
        candidate = results["candidate"]
        if not results["certified"]:
            fails.append("solve not certified")
        # canonical JSON prints 0.0 as 0, which parses back as an int
        if type(candidate) not in (int, float) or abs(candidate) > TOL_POINT:
            fails.append(f"candidate {candidate!r} is not within {TOL_POINT} of 0")
    if command in ("solve", "lemmas") and doc["run"].get("max_steps") is not None:
        # the generator only emits long orbits that use the whole budget
        if results["orbit_steps"] != doc["run"]["max_steps"]:
            fails.append(f"orbit_steps {results['orbit_steps']} != {doc['run']['max_steps']}")
    return fails


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def check_op(op: dict, code: int | None, out: Path, first: dict) -> tuple[list[str], dict | None]:
    """All checks of one operation: exit code, re-parse, repeat bytes, invariants.

    Returns the reasons it failed and the parsed report, if any.  `first`
    maps an operation's file name to the digests of its first outputs in
    this run; a later repeat must reproduce them byte for byte.
    """
    fails = []
    if code not in op["expect"]:
        fails.append(f"exit code {code} not in {op['expect']}")
    if op["expect"] == [1]:
        return fails, None
    report_path = out / "report.json"
    try:
        report = json.loads(report_path.read_bytes())
    except (OSError, ValueError) as err:
        return fails + [f"report does not re-parse: {err}"], None
    digests = {"report": digest(report_path)}
    if op["doc"]["run"]["command"] == "solve":
        digests["trace"] = digest(out / "trace.csv")
    seen = first.setdefault(op["file"], digests)
    if seen != digests:
        fails.append("output bytes differ from the first run of the same input")
    try:
        fails.extend(check_results(op["doc"], report))
    except (KeyError, TypeError, ValueError) as err:
        fails.append(f"report lacks an expected field: {err!r}")
    return fails, report
