import ast
import contextlib
import csv
import errno
import hashlib
import importlib.util
import json
import math
import multiprocessing
import os
import shutil
import signal
import struct
import subprocess
import sys
import threading
from itertools import cycle
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invorbit as iv
from invorbit import cli, report
from invorbit.cli import COMMANDS, main, run_batch, run_scenario
from invorbit.report import canonical_json, format_float, write_trace_csv
from invorbit.analysis import Cycled
from invorbit.errors import ScenarioError
from invorbit.oracle import DEFAULT_GRID
from invorbit.scenario import (
    SCENARIO_SCHEMA,
    build_maps,
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


def _reference_canonical_json(value, indent=0):
    """The recursive writer that the one-pass writer replaced."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_reference_canonical_json(value[k], indent + 1)}"
            for k in sorted(value, key=str)
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_reference_canonical_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7e308, 0.1, 1.0]
_TEXT = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00é€😀'), max_size=4)
# Scalars of every type the writer takes, with bool beside int and the
# float edges; containers hold them and each other, empty ones included.
_JSON_DOCS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, 1, True, False])
    | st.floats()
    | st.sampled_from(_EDGE_FLOATS)
    | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    # int and str keys side by side, sorted by str: 1 and "1" keep their order
    | st.dictionaries(
        st.integers(-2, 11) | st.sampled_from(["1", "10", "2", "a", "B"]) | _TEXT,
        inner,
        max_size=4,
    ),
    max_leaves=12,
)


@given(_JSON_DOCS, st.sampled_from([1, 2, 3, 7, report.JSON_CHUNK_PARTS]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_writer_matches_the_recursive_reference(doc, chunk):
    # A small chunk size joins the parts at many places inside a document.
    with mock.patch.object(report, "JSON_CHUNK_PARTS", chunk):
        assert canonical_json(doc) == _reference_canonical_json(doc)
    assert canonical_json(doc) == _reference_canonical_json(doc)


class _SubFloat(float):
    """A float whose own format differs from "%.17g"."""

    def __format__(self, spec):
        return "sub"


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_RECORD_FLOATS = (
    st.floats()
    | st.sampled_from(_EDGE_FLOATS + [-5e-324, 2.2250738585072014e-308, -1.7e308])
    | st.integers(0, 2**64 - 1).map(_from_bits)
)
# Values that send a record down the value-by-value path.
_RECORD_OTHERS = st.sampled_from([0, 1, 10**20, True, False, _SubFloat(2.5), None, "s"])
_RECORD_KEYS = st.sampled_from(
    ["x", "y", "lhs", "rhs", "%", "a%b", "%%s", "%(x)s", 'q"', "é", "a\nb"]
)


@st.composite
def _record_lists(draw):
    """Lists of dicts, nearly all of one key set and of float values."""
    keys = draw(st.lists(_RECORD_KEYS | st.integers(0, 2), min_size=1, max_size=4, unique=True))
    records = []
    for _ in range(draw(st.integers(1, 9))):
        record = {}
        for key in draw(st.permutations(keys)):
            other = draw(st.integers(0, 29)) == 0
            record[key] = draw(_RECORD_OTHERS if other else _RECORD_FLOATS)
        if draw(st.integers(0, 29)) == 0:
            record.pop(keys[0]) if len(keys) > 1 else record.update(extra=1.0)
        records.append(record)
    return records


_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1]
)
_POINT_LABELS = st.sampled_from(["a", 'q"', "é", 0, 2, True])


@st.composite
def _violation_lists(draw):
    """Lists of `AuditViolation` or of `AxiomViolation` records, as audits
    and axiom checks report them: nearly all finite floats, some nan, ±inf
    or -0.0, some table labels, and witness tuples of two or three points."""

    def value(finite):
        if draw(st.integers(0, 29)) == 0:
            return draw(_RECORD_FLOATS | _POINT_LABELS)
        return draw(_FINITE_FLOATS if finite else _RECORD_FLOATS)

    finite = draw(st.booleans())
    size = draw(st.integers(1, 9))
    if draw(st.booleans()):
        return [iv.AuditViolation(*(value(finite) for _ in range(4))) for _ in range(size)]
    return [
        iv.AxiomViolation(
            draw(st.sampled_from(["D1", "D3", "P4", "nonneg"])),
            tuple(value(finite) for _ in range(draw(st.integers(2, 3)))),
            value(finite),
            value(finite),
        )
        for _ in range(size)
    ]


def _violation_dicts(violations):
    """The dicts the command line once built from violation records."""
    return [
        {"axiom_id": v.axiom_id, "witness": list(v.witness), "lhs": v.lhs, "rhs": v.rhs}
        if isinstance(v, iv.AxiomViolation)
        else {"x": v.x, "y": v.y, "lhs": v.lhs, "rhs": v.rhs}
        for v in violations
    ]


@given(
    _record_lists(),
    _violation_lists(),
    st.sampled_from([1, 3, report.JSON_CHUNK_PARTS]),
)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_record_lists_match_the_recursive_reference(records, violations, chunk):
    # Violation records are written as the dicts they replace, byte for byte.
    dicts = _violation_dicts(violations)
    doc = {"violations": records, "nested": [records, tuple(records)], "audit": violations}
    with mock.patch.object(report, "JSON_CHUNK_PARTS", chunk):
        assert canonical_json(records) == _reference_canonical_json(records)
        assert canonical_json(violations) == _reference_canonical_json(dicts)
        assert canonical_json(tuple(violations)) == canonical_json(dicts)
        text = _reference_canonical_json({**doc, "audit": dicts}) + "\n"
        assert report.emit_report(doc, os.devnull) == text.encode("ascii")


def test_a_record_list_longer_than_a_chunk_matches_the_reference():
    # Three chunks and more, at the real size and at 3; with one nan the
    # list is written value by value.  Violation records write the bytes
    # of their dicts, compared line by line to keep a failure's report short.
    for chunk in (report.JSON_CHUNK_PARTS, 3):
        with mock.patch.object(report, "JSON_CHUNK_PARTS", chunk):
            _check_long_record_lists(chunk)


def _check_long_record_lists(chunk):
    size = 2 * chunk + 3
    records = [{"x": i / 7, "lhs": -i * 1e300, "rhs": 5e-324 * i} for i in range(size)]
    assert canonical_json(records) == _reference_canonical_json(records)
    records[chunk + 1]["rhs"] = math.nan
    assert canonical_json(records) == _reference_canonical_json(records)
    audit = [iv.AuditViolation(i / 7, -0.0, -i * 1e300, 5e-324 * i) for i in range(size)]
    axioms = [
        iv.AxiomViolation("D3", (i / 7, "b", -0.0), -i * 1e300, 5e-324 * i) for i in range(size)
    ]
    audit_inf = audit.copy()
    audit_inf[chunk + 1] = audit[chunk + 1]._replace(rhs=math.inf)
    for violations in (audit, axioms, audit[:1], axioms[:1], audit_inf):
        dicts = _violation_dicts(violations)
        expected = _reference_canonical_json(dicts).splitlines()
        assert canonical_json(violations).splitlines() == expected
        text = _reference_canonical_json({"violations": dicts}) + "\n"
        written = report.emit_report({"violations": violations}, os.devnull)
        assert written.decode("ascii").splitlines(True) == text.splitlines(True)


@pytest.mark.parametrize("value", [object(), {1, 2}, b"x", {"a": [1.0, {"b": complex(1, 2)}]}])
def test_writer_refuses_unsupported_types(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        _reference_canonical_json(value)
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_json(value)


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
# Repeats of one object and equal values held by distinct objects: zeros of
# both signs, alternating and in runs, nan, infinities and a subnormal.
_FRESH = [float(text) for text in ("0.0", "-0.0", "0.0", "-0.0", "nan", "5e-324", "inf")]
_ZERO_RUNS = [0.0, -0.0, 0.0, -0.0, -0.0, -0.0, 0.0, 0.0, *_FRESH, *_FRESH[::-1], 0.0]
_ZERO_RUNS += [math.nan, math.nan, math.inf, math.inf, -math.inf, -math.inf, 5e-324, 5e-324]
_ZERO_RUNS += [*_FRESH[:4], -0.0, -0.0, *_FRESH, 0.0]


# Distinct floats over all exponents, more rows than two chunks hold, with
# signed zeros, subnormals, nan and infinities planted among them.
_ALL_FLOATS = [
    math.ldexp(1.0 + i / 16384, (i * 37) % 2097 - 1074)
    for i in range(2 * report.TRACE_CHUNK_ROWS + 7)
]
_EDGES = cycle((-0.0, math.nan, math.inf, -math.inf, 0.0, 5e-324))
for _at, _value in zip(range(1, len(_ALL_FLOATS), 600), _EDGES):
    _ALL_FLOATS[_at] = _value


class _Tagged(float):
    """A float whose own __format__ marks its cells."""

    def __format__(self, spec):
        return "~" + super().__format__(spec)


def _planted(column, value):
    """All-float columns with `value` in row 5000's cell of one column."""
    columns = [list(_ALL_FLOATS), _ALL_FLOATS[1:], _ALL_FLOATS[2:]]
    columns[column][5000 - (column == 2)] = value
    return tuple(columns)


def _cycled_columns():
    """A T = S = -1.5x orbit: it ends flipping between -5e-324 and 5e-324,
    two distinct rows repeated for more rows than two chunks hold."""
    flip = lambda x: -1.5 * x  # noqa: E731
    maps = iv.MapPair(flip, flip, lambda y: y / -1.5, lambda y: y / -1.5)
    space = iv.abs_metric_space(-2.0, 2.0)
    trace = iv.inverse_orbit(space, maps, 1.0, max_steps=3 * report.TRACE_CHUNK_ROWS)
    assert len(trace.computed_points) + 2 * report.TRACE_CHUNK_ROWS < len(trace.points)
    assert trace.points[-1] == -trace.points[-2] != 0.0
    return trace.points, trace.successive_distances, trace.cauchy.per_step_ratios


def _swap_orbit(tail_rows):
    """A two-label swap orbit with `tail_rows` repeated rows between its
    computed rows and its last row.  One label holds a `%`."""
    labels = ("50%", "b")
    space = iv.table_space(labels, [[0.0, 0.1], [0.1, 3.0]])
    swap = dict(zip(labels, labels[::-1])).__getitem__
    trace = iv.inverse_orbit(space, iv.MapPair(swap, swap, swap, swap), labels[0], tail_rows + 3)
    assert len(trace.computed_points) == 3 and len(trace.points) - 4 == tail_rows
    return trace.points, trace.successive_distances, trace.cauchy.per_step_ratios


# Repeated tails of 0 and 1 rows, and of whole chunks with odd and even
# remainders, at the chunk sizes of 2 rows (the test's 3) and 4096 rows.
_CHUNK = report.TRACE_CHUNK_ROWS
SWAP_TAILS = (0, 1, 8, 9, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 2, 2 * _CHUNK + 3)


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=2000, deadline=None)
@given(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.integers(0, 2**64 - 1).map(_double),
    )
)
def test_percent_17g_equals_format_17g(x):
    # The trace writer formats exact floats with "%"; its cells must stay
    # those of format(x, ".17g"), which the reference writer uses.
    assert "%.17g" % x == format(x, ".17g")


TRACE_CASES = {
    "subnormal_stall": (_SUBNORMAL_STALL, _SUBNORMAL_STALL[1:], [1.0] * 23),
    "signed_zeros": (_SIGNED_ZEROS, _SIGNED_ZEROS[::-1], _SIGNED_ZEROS),
    "non_finite": (_NON_FINITE, _NON_FINITE[1:], _NON_FINITE[2:]),
    "int_vs_float": (_INT_VS_FLOAT, _INT_VS_FLOAT[::-1], _INT_VS_FLOAT[3:]),
    "labels": (_LABELS, _LABELS[2:], _LABELS),
    "short_columns": (_LABELS + _NON_FINITE, [0.5] * 3, [0.25] * 2),
    "long_columns": (_SIGNED_ZEROS, [2e-323] * 12, [4e-323] * 12),
    "empty": ([], [1.0], [1.0]),
    "zero_runs": (_ZERO_RUNS, _ZERO_RUNS[1:] + [-0.0], _ZERO_RUNS[::-1]),
    "all_floats": (_ALL_FLOATS, _ALL_FLOATS[1:], _ALL_FLOATS[2:]),
    "all_floats_ragged": (_ALL_FLOATS, _ALL_FLOATS[::-1], _ALL_FLOATS[5:]),
    "labels_at_scale": (
        _LABELS * (_CHUNK // 3),
        [0.5] * (8 * (_CHUNK // 3) - 1),
        _LABELS * (_CHUNK // 3),
    ),
    "subclass_point": _planted(0, _Tagged(0.1)),
    "subclass_dist": _planted(1, _Tagged(2.5e-310)),
    "subclass_ratio": _planted(2, _Tagged(-0.0)),
    "bool_point": _planted(0, True),
    "int_dist": _planted(1, 10**20),
    "bool_ratio": _planted(2, False),
    "cycled": _cycled_columns(),
    **{f"swap_tail_{rows}": _swap_orbit(rows) for rows in SWAP_TAILS},
}


@pytest.mark.parametrize("points, distances, ratios", TRACE_CASES.values(), ids=TRACE_CASES)
def test_trace_csv_matches_the_csv_writer(tmp_path, points, distances, ratios):
    # The reference reads the full columns; a cycled trace's writer formats
    # its computed rows and repeats one period.  A small chunk size puts
    # chunk boundaries inside every case.
    _reference_trace_csv(points, distances, ratios, tmp_path / "reference.csv")
    expected = (tmp_path / "reference.csv").read_bytes()
    for chunk in (report.TRACE_CHUNK_ROWS, 3):
        with mock.patch.object(report, "TRACE_CHUNK_ROWS", chunk):
            write_trace_csv(points, distances, ratios, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == expected


# Traces whose split row, half their computed rows, falls as named: in
# row 0 (the child writes every row), just after it, on a chunk boundary
# at each chunk size the tests use (chunks start at row 1) and in the
# trailing edge, with float cells and str, int and None label cells.
SPLIT_CASES = {
    "row_0": (([0.5], [], []), 0),
    "after_row_0": ((["a", 7], [0.25], []), 1),
    "labels_after_row_0": (([3, "b,c", None], [1, 0.5], [0.5]), 1),
    "chunk_boundary": (
        (_ALL_FLOATS[: 2 * _CHUNK + 2], _ALL_FLOATS[1:], _ALL_FLOATS[2:]),
        _CHUNK + 1,
    ),
    "small_chunk_boundary": ((_ALL_FLOATS[:32], _ALL_FLOATS[1:32], _ALL_FLOATS[2:32]), 16),
    "labels_on_chunk_boundary": ((_LABELS * 4, [0.5] * 31, _LABELS * 4), 16),
    "trailing_edge": (TRACE_CASES["short_columns"], 7),
}


@pytest.mark.parametrize("case", [*SPLIT_CASES, *TRACE_CASES])
def test_two_process_trace_csv_writes_the_bytes_of_one(tmp_path, split_traces, case):
    # A forked child writes the rows from the split on; the bytes are the
    # csv module's at both chunk sizes, and the part file is gone.
    columns, split = SPLIT_CASES[case] if case in SPLIT_CASES else (TRACE_CASES[case], None)
    rows = len(Cycled.of(columns[0]).values)
    assert split in (None, rows // 2)
    _reference_trace_csv(*columns, tmp_path / "reference.csv")
    expected = (tmp_path / "reference.csv").read_bytes()
    for chunk in (report.TRACE_CHUNK_ROWS, 3):
        with mock.patch.object(report, "TRACE_CHUNK_ROWS", chunk):
            write_trace_csv(*columns, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == expected
    assert len(split_traces) == (2 if rows else 0)
    assert sorted(os.listdir(tmp_path)) == ["new.csv", "reference.csv"]


def _forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", fork)


def _long_float_columns():
    points = [math.ldexp(1.0, -(i % 1000)) for i in range(report.TRACE_SPLIT_ROWS)]
    return points, points[1:], [0.5] * (len(points) - 2)


@pytest.mark.parametrize("setting", ["below_threshold", "one_cpu", "second_thread"])
def test_the_trace_writer_stays_in_one_process(tmp_path, monkeypatch, setting):
    # Below TRACE_SPLIT_ROWS computed rows, with one usable CPU, or while
    # another thread runs (it could hold a lock the child would inherit),
    # one process writes every row.
    points, distances, ratios = _long_float_columns()
    monkeypatch.setattr(report, "_usable_cpus", lambda: 1 if setting == "one_cpu" else 2)
    if setting == "below_threshold":
        points = points[:-1]
    _forbid_fork(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if setting == "second_thread":
        thread.start()
    try:
        write_trace_csv(points, distances, ratios, tmp_path / "one.csv")
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()
    _reference_trace_csv(points, distances, ratios, tmp_path / "reference.csv")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_the_trace_writer_forks_at_its_threshold(tmp_path, monkeypatch):
    # The control for the test above: TRACE_SPLIT_ROWS computed rows, two
    # CPUs and no other thread make the writer fork.
    monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
    _forbid_fork(monkeypatch)
    with pytest.raises(AssertionError, match="os.fork was called"):
        write_trace_csv(*_long_float_columns(), tmp_path / "trace.csv")


_STALL_SOLVE = {
    "space": {"family": "abs_metric"},
    "maps": {"t": {"kind": "linear", "a": 1.02}, "s": {"kind": "linear", "a": 1.02}},
    "hypothesis": {"form": "rl", "r_const": 1.01},
    "run": {"command": "solve", "x0": 1.0, "max_steps": 45_000},
    "assumptions": {"complete": True},
}


def test_a_failed_trace_child_ends_the_run_in_one_error_line(tmp_path, capsys, split_traces):
    # The child raises while it formats its rows; the run ends in exit 1
    # with one error line, and neither a part file nor a report is left.
    parent, write_rows = os.getpid(), report._write_rows

    def failing(*args):
        if os.getpid() != parent:
            raise MemoryError
        return write_rows(*args)

    with mock.patch.object(report, "_write_rows", failing):
        code = run_scenario(_write(tmp_path, "stall.json", _STALL_SOLVE), tmp_path / "out")
    assert code == 1 and len(split_traces) == 1
    assert capsys.readouterr() == (
        "",
        f"error: {tmp_path / 'stall.json'}: ChildProcessError: "
        "the process writing rows 18713 on exited with 1\n",
    )
    assert sorted(os.listdir(tmp_path / "out")) == ["trace.csv"]


def test_a_long_solve_writes_its_trace_from_two_processes(tmp_path, monkeypatch):
    # A stalled orbit of 37,427 computed rows is past TRACE_SPLIT_ROWS:
    # with two CPUs its trace is written by two processes, with the bytes
    # that one process writes.
    scenario = _write(tmp_path, "stall.json", _STALL_SOLVE)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for cpus in (1, 2):
        monkeypatch.setattr(report, "_usable_cpus", lambda: cpus)
        assert run_scenario(scenario, tmp_path / f"cpus{cpus}") == 0
    assert len(forks) == 1
    one, two = tmp_path / "cpus1", tmp_path / "cpus2"
    assert (one / "trace.csv").read_bytes() == (two / "trace.csv").read_bytes()
    assert (one / "report.json").read_bytes() == (two / "report.json").read_bytes()
    assert sorted(os.listdir(two)) == ["report.json", "trace.csv"]


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


def test_sqrt_square_axioms_near_the_largest_float_write_a_report(tmp_path, capsys):
    # (sqrt(x) + sqrt(y))**2 passes the largest double here; it used to
    # raise OverflowError, and the run ended in exit 1.
    doc = {
        "space": {"family": "sqrt_square", "sample_bound": 1.7e308},
        "run": {"command": "axioms", "n_samples": 100, "seed": 1},
        "assumptions": {"complete": True},
    }
    out = tmp_path / "out"
    assert run_scenario(_write(tmp_path, "overflow.json", doc), out) in (0, 2)
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["checked_triples"] == 100


def test_oracle_scenario_passes(tmp_path):
    out = tmp_path / "out"
    assert run_scenario(SCENARIOS / "oracle_sweep.json", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["counterexamples"] == []
    assert report["results"]["instances_checked"] > 0


def test_oracle_report_matches_the_golden(tmp_path):
    out = tmp_path / "out"
    assert run_scenario(SCENARIOS / "oracle_sweep.json", out) == 0
    golden = ROOT / "tests" / "goldens" / "oracle_sweep.report.json"
    assert (out / "report.json").read_bytes() == golden.read_bytes()


# Distances near the largest float: an overflowed right-hand side, and an
# overflowed diagonal residual, each used to count as compliant, so the
# identity pair on two points held the hypothesis.
OVERFLOW_GRIDS = {
    "inf_rhs": ({"entries": [0.0, 1e308], "l_values": [0.0]}, 8, 4, 32),
    "nan_residual": ({"entries": [1e308], "l_values": [1.0]}, 1, 1, 8),
}


@pytest.mark.parametrize(
    "grid, matrices, admitted, instances", OVERFLOW_GRIDS.values(), ids=OVERFLOW_GRIDS.keys()
)
def test_an_overflowing_grid_has_no_holder_on_two_points(
    tmp_path, grid, matrices, admitted, instances
):
    doc = {
        "space": {"family": "two_point_sigma"},
        "run": {"command": "oracle"},
        "oracle": {"sizes": [2], "k_values": [1.0], **grid},
    }
    out = tmp_path / "out"
    assert run_scenario(_write(tmp_path, "overflow.json", doc), out) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert results == {
        "counterexamples": [],
        "hypothesis_holders": 0,
        "instances_checked": instances,
        "matrices_checked": matrices,
        "spaces_admitted": admitted,
    }


def test_an_oracle_grid_past_the_work_bound_is_refused(tmp_path, capsys):
    # 4**15 matrices of 14,400 map pairs each: refused before the walk.
    doc = {
        "space": {"family": "two_point_sigma"},
        "run": {"command": "oracle"},
        "oracle": {"sizes": [5], "n_max": 5},
    }
    path = _write(tmp_path, "big.json", doc)
    assert run_scenario(path, tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        f"error: {path}: the sweep grid holds up to 123,695,058,124,800 instances, "
        "above the limit of 10,000,000\n"
    )
    assert not (tmp_path / "out" / "report.json").exists()


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


@pytest.mark.parametrize(
    "grid",
    [{"l_values": []}, {"r_offsets": [], "r_factors": []}],
    ids=["no_l_values", "no_r_values"],
)
def test_an_oracle_grid_that_checks_no_instance_is_an_error(tmp_path, capsys, grid):
    # Both grids admit 2,877 spaces but pair none with a hypothesis.
    doc = {"space": {"family": "two_point_sigma"}, "run": {"command": "oracle"}, "oracle": grid}
    path = _write(tmp_path, "no_instances.json", doc)
    assert run_scenario(path, tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: the oracle grid checks no instance, so nothing was checked\n"
    )
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "grid, r, k",
    [
        ({"r_offsets": [1e-300]}, "1.0", "1.0"),
        ({"k_values": [1e308], "entries": [0, 1e308]}, "1e+308", "1e+308"),
    ],
    ids=["offset_below_ulp", "offset_at_the_largest_k"],
)
def test_an_oracle_grid_whose_r_rounds_onto_k_is_refused(tmp_path, capsys, grid, r, k):
    # K + offset rounds back onto K.  Both grids used to end mid-sweep,
    # at the first admitted space, with a message that named no grid value.
    doc = {"space": {"family": "two_point_sigma"}, "run": {"command": "oracle"}, "oracle": grid}
    path = _write(tmp_path, "r_onto_k.json", doc)
    assert run_scenario(path, tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: sweep R = {r} does not exceed K = {k}: "
        "an r_offset or r_factor of the grid rounds onto K\n"
    )
    assert not (tmp_path / "out" / "report.json").exists()


# SHA-256 of report.json for two sampled runs, recorded before the samplers
# drew in bulk: a changed draw order or a changed slack test breaks these.
SQUARE_DIFF_K1_AXIOMS = {
    "space": {"family": "square_diff", "k_const": 1.0},
    "run": {"command": "axioms", "n_samples": 2000, "seed": 7},
    "assumptions": {"complete": True},
}
# The rl audit of scenarios/sqrt_square_audit.json (T = 9x, S = identity)
# at 20,000 samples: a report of about 0.5 MB, written in many chunks.
SQRT_SQUARE_AUDIT_20000 = {
    **json.loads((SCENARIOS / "sqrt_square_audit.json").read_text()),
    "run": {"command": "audit", "n_samples": 20000, "seed": 1},
}
INLINE_SAMPLED = {
    "square_diff_k1_axioms": SQUARE_DIFF_K1_AXIOMS,
    "sqrt_square_audit_20000": SQRT_SQUARE_AUDIT_20000,
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
    (
        "sqrt_square_audit_20000",
        "447117d274148772d82094b139741945b04d10fa8473e699ecb2a2ad981080fc",
    ),
]


@pytest.mark.parametrize(
    "name, digest", SAMPLED_REPORT_SHA256, ids=[n for n, _ in SAMPLED_REPORT_SHA256]
)
def test_sampled_reports_are_pinned(tmp_path, name, digest):
    if name == "sqrt_square_audit":
        path = SCENARIOS / "sqrt_square_audit.json"
    else:
        path = _write(tmp_path, f"{name}.json", INLINE_SAMPLED[name])
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    data = (out / "report.json").read_bytes()
    violations = json.loads(data)["results"]["violations"]
    assert len(violations) > 100
    if name == "square_diff_k1_axioms":
        assert all(len(v["witness"]) in (2, 3) for v in violations)
    assert hashlib.sha256(data).hexdigest() == digest


# SHA-256 of an oracle report whose counterexample list is not empty,
# recorded while the command line still copied each counterexample into a
# dict of lists.  At K = 1 an R of 1 + 1e-10 lies within the audit's slack,
# so two-point carriers have holders (the counting lemma of oracle.py).
WITHIN_SLACK_SHA256 = "72b6d7ed23e348027f9c3acb8aab315ad3f7bf57ec8ebaaffd1f23fd93ae02ab"


def test_an_oracle_report_with_counterexamples_is_pinned(tmp_path):
    doc = {
        "space": {"family": "two_point_sigma"},
        "run": {"command": "oracle"},
        "oracle": {"sizes": [1, 2], "k_values": [1.0], "r_offsets": [1e-10]},
    }
    out = tmp_path / "out"
    assert run_scenario(_write(tmp_path, "within_slack.json", doc), out) == 2
    data = (out / "report.json").read_bytes()
    assert len(json.loads(data)["results"]["counterexamples"]) == 111
    assert hashlib.sha256(data).hexdigest() == WITHIN_SLACK_SHA256


# SHA-256 of the outputs of the shipped scenarios that have no golden, in
# `sha256sum` format, with paths in the `--batch` layout: an output
# directory per scenario, named by its file stem.  CI checks the same file
# with `sha256sum -c` against a batch run of the installed console script.
SCENARIO_SHA256 = ROOT / "tests" / "goldens" / "scenarios.sha256"


def test_shipped_scenarios_without_a_golden_are_pinned(tmp_path):
    digests = {}
    for line in SCENARIO_SHA256.read_text().splitlines():
        digest, path = line.split("  ")
        digests[path] = digest
    out = tmp_path / "out"
    codes = {}
    for stem in sorted({path.split("/")[0] for path in digests}):
        codes[stem] = run_scenario(SCENARIOS / f"{stem}.json", out / stem)
    assert codes == {
        "lemmas_sqrt_square": 0,
        "sqrt_square_audit": 2,
        "sqrt_square_axioms": 0,
        "sqrt_square_solve": 0,
    }
    for path, digest in digests.items():
        assert hashlib.sha256((out / path).read_bytes()).hexdigest() == digest, path


# SHA-256 of the outputs of a 75,000-step orbit of T = S = c*x, recorded
# before the orbit loop and the orbit lemmas bound their callables once and
# read a stalled tail once per run of one point.  The orbit stalls on one
# subnormal point after about 38.8k steps, so the sandwich tail is one point.
LONG_ORBIT_C = 1.0194201360826156
LONG_ORBIT_SHA256 = {
    ("solve", "report.json"): "a54855a3f0f4052709df2f9142765bf0bb038efbf1d1fe44ecd65dbbc9d0a60a",
    ("solve", "trace.csv"): "efeadac5eb4f226c396149bb633fc580bb91062189410fc46bc341915e0b9775",
    ("lemmas", "report.json"): "d7b663917e69ecf2923a0fda4ac15bda9d78d7685fa42d9b86341c772493c123",
}
# The other two families of the long_orbit benchmark, on its seed-1 maps and
# starts, recorded before the Cauchy check, the orbit audit and the trace
# writer read a repeated two-step tail once.  Their orbits stall after
# 25,411 and 19,151 steps, so 66% and 74% of each trace is that tail; on
# max_partial the self-distance of the stalled point is the point itself.
OTHER_LONG_ORBITS = {
    "max_partial": (1.0297072879420501, 11.289396549241513),
    "sum_metric_like": (1.0396462985255253, 17.197997990489224),
}
OTHER_LONG_ORBIT_SHA256 = {
    ("max_partial", "solve", "report.json"): "8ef2eaf2d39ec8369d1b3ce97b7c3048a74134f1dcc37b5300fa06ca03fb7944",
    ("max_partial", "solve", "trace.csv"): "9bf94ad035e67fd7438160d34c771fd338407bbe18ef3dabf3e6422c53ce5fbe",
    ("max_partial", "lemmas", "report.json"): "c148962d7f3900e28361524f1b85a0e92e2dd5f553058959d2370d8a739b33a3",
    ("sum_metric_like", "solve", "report.json"): "4bda93d9f81a76611584805ba8ac8da2b1357a8faa557fde231f0be67e229e46",
    ("sum_metric_like", "solve", "trace.csv"): "011d6bccbb5a88a9998471c22677d3feed418a51cdfb430182b7e4f930a42de1",
    ("sum_metric_like", "lemmas", "report.json"): "8541eae857a43e1e95dd136bb8bba769d2f834183823f7d5c00fedcba54122eb",
}


def _long_orbit_outputs(tmp_path, family, c, x0, command):
    """Run a 75,000-step T = S = c*x scenario; return its output directory."""
    linear = {"kind": "linear", "a": c}
    doc = {
        "space": {"family": family},
        "maps": {"t": linear, "s": linear},
        "run": {"command": command, "x0": x0, "max_steps": 75_000, "seed": 803},
        "assumptions": {"complete": True},
    }
    if command == "solve":
        doc["hypothesis"] = {"form": "rl", "r_const": (1.0 + c) / 2.0, "l_const": 0.0}
    out = tmp_path / "out"
    assert run_scenario(_write(tmp_path, f"{command}.json", doc), out) == 0
    assert json.loads((out / "report.json").read_bytes())["results"]["orbit_steps"] == 75_000
    return out


@pytest.mark.parametrize("command", ["solve", "lemmas"])
def test_long_orbit_outputs_are_pinned(tmp_path, command):
    out = _long_orbit_outputs(tmp_path, "abs_metric", LONG_ORBIT_C, 206.3985634044328, command)
    for (cmd, name), digest in LONG_ORBIT_SHA256.items():
        if cmd == command:
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("command", ["solve", "lemmas"])
@pytest.mark.parametrize("family", list(OTHER_LONG_ORBITS))
def test_other_long_orbit_families_are_pinned(tmp_path, family, command):
    out = _long_orbit_outputs(tmp_path, family, *OTHER_LONG_ORBITS[family], command)
    for (fam, cmd, name), digest in OTHER_LONG_ORBIT_SHA256.items():
        if (fam, cmd) == (family, command):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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


def test_quoted_labels_at_scale_match_the_csv_writer(tmp_path):
    # No benchmark trace holds labels.  T = S = a 3-cycle repeats with a
    # period of six steps, found on step 14, so the rows after the computed
    # ones repeat the period's quoted row texts, for more rows than two
    # chunks hold.
    first, second, third = "a,b", 'say "hi"', "c"
    cycle_map = {"kind": "permutation", "table": {first: second, second: third, third: first}}
    steps = 2 * report.TRACE_CHUNK_ROWS + 5
    doc = {
        "space": {
            "family": "table",
            "labels": [first, second, third],
            "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "k_const": 1.0,
            "kind": "b_metric",
        },
        "maps": {"t": cycle_map, "s": cycle_map},
        "hypothesis": {"form": "rl", "r_const": 1.5},
        "run": {"command": "solve", "x0": first, "max_steps": steps},
        "assumptions": {"complete": True},
    }
    path = _write(tmp_path, "labels.json", doc)
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    scenario = load_scenario(path)
    space = build_space(scenario)
    trace = iv.inverse_orbit(space, build_maps(scenario, space), first, max_steps=steps)
    assert (len(trace.computed_points), trace.period, len(trace.points)) == (15, 6, steps + 1)
    columns = (trace.points, trace.successive_distances, trace.cauchy.per_step_ratios)
    _reference_trace_csv(*columns, tmp_path / "reference.csv")
    written = (out / "trace.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b'"say ""hi"""') == (steps + 1) // 3


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


def test_axioms_report_lists_a_nan_distance(tmp_path):
    # A table scenario refuses a nan entry, so the space is swapped in.
    rows = [[0.0, math.nan], [math.nan, 0.0]]
    space = iv.Space(iv.FiniteCarrier((0, 1)), lambda x, y: rows[x][y], 1.0, iv.SpaceKind.B_METRIC)
    out = tmp_path / "out"
    with mock.patch.object(cli, "build_space", lambda scenario: space):
        assert run_scenario(_write(tmp_path, "nan.json", _table_doc([0, 1])), out) == 2
    violations = json.loads((out / "report.json").read_text())["results"]["violations"]
    assert [(v["axiom_id"], v["witness"], v["lhs"]) for v in violations] == [
        ("nonneg", [0, 1], "nan"),
        ("nonneg", [1, 0], "nan"),
    ]


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


class _DiskFullAfterOneChunk:
    """A binary file that takes one chunk, then fails as a full disk does."""

    chunks = 0

    def __init__(self, path, mode):
        self.handle = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        if _DiskFullAfterOneChunk.chunks:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        _DiskFullAfterOneChunk.chunks += 1
        return self.handle.write(data)


def test_a_report_that_fails_mid_write_leaves_no_report(tmp_path, capsys):
    # The report is written chunk by chunk; a write that fails after the
    # first leaves neither a truncated report.json nor its partial file.
    out = tmp_path / "out"
    with (
        mock.patch.object(report, "JSON_CHUNK_PARTS", 1),
        mock.patch.object(_DiskFullAfterOneChunk, "chunks", 0),
        mock.patch.object(report, "open", _DiskFullAfterOneChunk, create=True),
    ):
        code = run_scenario(SCENARIOS / "sqrt_square_axioms.json", out)
        assert _DiskFullAfterOneChunk.chunks == 1
    assert code == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "No space left" in lines[0]
    assert captured.out == ""
    assert list(out.iterdir()) == []
    # Unpatched, the same run writes its whole report and nothing else.
    assert run_scenario(SCENARIOS / "sqrt_square_axioms.json", out) == 0
    assert [path.name for path in out.iterdir()] == ["report.json"]


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

    def fails_on_a(path, overrides=None):
        if Path(path).stem == "a_bad":
            raise TypeError("unhashable thing")
        return real(path, overrides)

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


@pytest.mark.parametrize("files", [1, 2], ids=["serial", "pooled"])
def test_batch_applies_the_command_override(tmp_path, monkeypatch, capsys, files):
    # With two usable CPUs, one file runs in this process and two run on the pool.
    if files > 1 and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the batch pool needs the fork start method")
    names = ("a", "b")[:files]
    batch = tmp_path / "batch"
    batch.mkdir()
    for name in names:
        (batch / f"{name}.json").write_text((SCENARIOS / "sqrt_square_solve.json").read_text())
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    assert main(["--batch", str(batch), "--out", str(out), "--command", "audit"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"audit: violations_found (exit 2) -> {out / name / 'report.json'}" for name in names
    ]
    alone = tmp_path / "alone"
    assert run_scenario(batch / "a.json", alone, command="audit") == 2
    assert (out / "a" / "report.json").read_bytes() == (alone / "report.json").read_bytes()


def test_an_override_applies_to_the_sections_the_file_carries(tmp_path):
    # An axioms file does not echo the maps and hypothesis it carries, yet
    # under --command audit it audits them, as the audit file does.
    doc = json.loads((SCENARIOS / "sqrt_square_audit.json").read_text())
    path = _write(tmp_path, "axioms.json", {**doc, "run": {**doc["run"], "command": "axioms"}})
    assert run_scenario(path, tmp_path / "axioms") == 0
    echoed = json.loads((tmp_path / "axioms" / "report.json").read_text())["scenario"]
    assert set(echoed) == {"space", "run", "assumptions"}
    assert run_scenario(path, tmp_path / "overridden", command="audit") == 2
    assert run_scenario(SCENARIOS / "sqrt_square_audit.json", tmp_path / "audit") == 2
    overridden = (tmp_path / "overridden" / "report.json").read_bytes()
    assert overridden == (tmp_path / "audit" / "report.json").read_bytes()


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


def test_a_seed_override_reruns_an_oracle_scenario_on_the_default_grid(tmp_path):
    # The file is normalized as written, then again with the override; the
    # grid fields it leaves out are filled from the defaults both times.
    doc = {
        "space": {"family": "two_point_sigma"},
        "run": {"command": "oracle"},
        "oracle": {"sizes": [1, 2]},
    }
    out = tmp_path / "out"
    assert run_scenario(_write(tmp_path, "partial_grid.json", doc), out, seed=5) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"]["oracle"] == {**DEFAULT_GRID, "sizes": [1, 2]}
    assert report["results"] == {
        "counterexamples": [],
        "hypothesis_holders": 8,
        "instances_checked": 1456,
        "matrices_checked": 68,
        "spaces_admitted": 97,
    }


def test_an_oracle_grid_with_a_repeated_value_is_an_error(tmp_path, capsys):
    # Swept as given, this grid walked 57 matrices; its distinct values give 10.
    doc = {
        "space": {"family": "abs_metric"},
        "run": {"command": "oracle"},
        "oracle": {"sizes": [1, 2, 2], "entries": [1.0, 1.0, 2.0], "k_values": [1.0, 1.0]},
    }
    path = _write(tmp_path, "repeats.json", doc)
    assert run_scenario(path, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: schema violations:")
    assert [line.split(":")[0] for line in err.splitlines()[1:]] == [
        "$.oracle.entries",
        "$.oracle.k_values",
        "$.oracle.sizes",
    ]
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("x0", [0.0, 5.0])
def test_a_solve_whose_orbit_stops_at_once_still_checks_the_hypothesis(tmp_path, capsys, x0):
    # From 0.0 the orbit has no adjacent pair; R = 0.5 <= K is refused still.
    doc = {
        "space": {"family": "abs_metric"},
        "maps": {"t": {"kind": "linear", "a": 3}, "s": {"kind": "linear", "a": 3}},
        "hypothesis": {"form": "rl", "r_const": 0.5},
        "run": {"command": "solve", "x0": x0},
        "assumptions": {"complete": True},
    }
    path = _write(tmp_path, "low_r.json", doc)
    assert run_scenario(path, tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        f"error: {path}: r_const must exceed the space's k_const\n"
    )
    assert not (tmp_path / "out" / "report.json").exists()


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


@pytest.mark.parametrize("command", ["solve", "lemmas"])
@pytest.mark.parametrize("x0", ["inf", "-inf", "nan", "1e999"])
def test_a_non_finite_start_string_is_rejected(tmp_path, capsys, command, x0):
    doc = json.loads((SCENARIOS / "sqrt_square_solve.json").read_text())
    doc["run"].update(command=command, x0=x0)
    path = _write(tmp_path, "scenario.json", doc)
    assert run_scenario(path, tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {path}: non-finite number {x0}\n"
    assert not (tmp_path / "out" / "report.json").exists()


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


# ---------------------------------------------------------------------------
# names the benchmark reaches
# ---------------------------------------------------------------------------


def test_the_names_the_benchmark_tracer_wraps_resolve():
    # perfbench/spans.py wraps invorbit attributes by name, and its worker
    # imports from invorbit.scenario: deleting or renaming one breaks the
    # benchmark, not an invorbit run.
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _, _ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(f"invorbit.{module}"), attr, None)), (
            f"invorbit.{module}.{attr}"
        )
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "invorbit.scenario"
        for alias in node.names
    ]
    scenario = importlib.import_module("invorbit.scenario")
    assert imported and all(callable(getattr(scenario, name, None)) for name in imported)
