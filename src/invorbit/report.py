"""Deterministic report serialization.

Reports must be byte-identical across runs with the same seed, so floats
are printed with a fixed 17-significant-digit format (enough to round-trip
any double) and object keys are emitted in sorted order.  The stdlib JSON
encoder delegates float formatting to repr, which is shortest-round-trip
rather than fixed, hence the small writer here.  It writes a document in
one pass: text parts go onto a list, and once it holds JSON_CHUNK_PARTS
parts they are joined into a chunk and handed on (`emit_report` writes
each to its file at once), which bounds what is held.  Finite floats are
formatted as they are met; separators, closing lines and the text before
each key are made once per depth and call.  A NamedTuple is written as
the object of its fields.  A list of NamedTuples of one type with finite
float values, such as an audit's violations on an interval, is a list of
float records: its text is formatted JSON_CHUNK_PARTS records at a time by
one `%` call, as `write_trace_csv` formats its float rows.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import threading
from itertools import chain, cycle, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .analysis import Cycled

JSON_CHUNK_PARTS = 4096  # text parts joined, or float records formatted, at a time


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _scalar(value: Any) -> str:
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
    raise TypeError(f"cannot serialize {type(value).__name__}")


_FLOAT_TYPE = {float}


def _floats_only(values: Iterable[Any]) -> bool:
    """Whether every value is of type float exactly, not of a subclass."""
    return {*map(type, values)} <= _FLOAT_TYPE


def _json_text(value: Any, put: Callable[[str], Any]) -> None:
    """Hand `put` the text of `canonical_json(value)`, chunk by chunk.

    A finite float of type float is formatted here; every other scalar
    goes through `_scalar`, the rules the writer has always applied.  A
    NamedTuple is written as the object of its fields, and a list of
    float records by `records`.
    """
    parts: list[str] = []
    add = parts.append
    levels: dict[int, tuple] = {}

    def level(depth: int) -> tuple:
        """(list open, list separator, list close, dict close, key heads)."""
        found = levels.get(depth)
        if found is None:
            pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
            found = levels[depth] = ("[" + inner, "," + inner, pad + "]", pad + "}", {})
        return found

    def new_head(heads: dict, name: str, depth: int) -> tuple:
        """Keep in `heads` the text before key `name` of a dict at `depth`,
        (first, later), and return it; callers look there first."""
        text = "\n" + "  " * (depth + 1) + json.dumps(name) + ": "
        found = heads[name] = ("{" + text, "," + text)
        return found

    def write(value: Any, depth: int) -> None:
        if len(parts) >= JSON_CHUNK_PARTS:
            flush()
        if type(value) is float and value - value == 0.0:
            add(format(value, ".17g"))
        elif isinstance(value, dict):
            if not value:
                add("{}")
                return
            _, _, _, close, heads = level(depth)
            later = 0  # indexes a head: 0 opens the object, 1 follows a value
            for key in sorted(value, key=str):
                name = str(key)
                add((heads.get(name) or new_head(heads, name, depth))[later])
                write(value[key], depth + 1)
                later = 1
            add(close)
        elif isinstance(value, tuple) and hasattr(value, "_fields"):
            write(value._asdict(), depth)
        elif isinstance(value, (list, tuple)):
            if not value:
                add("[]")
                return
            mark, sep, close, _, _ = level(depth)
            if len(value) > 1 and records(value, depth):
                return
            for item in value:
                add(mark)
                write(item, depth + 1)
                mark = sep
            add(close)
        else:
            add(_scalar(value))

    def records(value: list | tuple, depth: int) -> bool:
        """Write `value`, a list at `depth`, as float records; False, with
        nothing written, unless its items are NamedTuples of one type whose
        values are all finite and of type float.

        A record is the text `write` gives such an item, with "%.17g" in
        place of each value and every "%" of its key text doubled.  The
        records are formatted JSON_CHUNK_PARTS at a time, each chunk by one
        `%` call on that text repeated once per record, and handed to
        `put` at once.  "%.17g" % x equals format(x, ".17g") for every
        float, so the bytes are those of the generic path.
        """
        kind = type(value[0])
        fields = getattr(kind, "_fields", None)
        if not (fields and issubclass(kind, tuple) and {*map(type, value)} == {kind}):
            return False
        keys = sorted(fields)
        read = itemgetter(*map(fields.index, keys))

        def floats(items: list | tuple) -> Iterable:
            return map(read, items) if len(keys) == 1 else chain.from_iterable(map(read, items))

        if not (_floats_only(floats(value)) and all(map(math.isfinite, floats(value)))):
            return False
        mark, sep, close, _, _ = level(depth)
        _, _, _, record_close, heads = level(depth + 1)
        record = "".join(
            (heads.get(name) or new_head(heads, name, depth + 1))[later > 0].replace("%", "%%")
            + "%.17g"
            for later, name in enumerate(keys)
        )
        record += record_close
        unit = sep + record
        flush()
        for start in range(0, len(value), JSON_CHUNK_PARTS):
            chunk = value[start : start + JSON_CHUNK_PARTS]
            put((mark + record + unit * (len(chunk) - 1)) % (*floats(chunk),))
            mark = sep
        add(close)
        return True

    def flush() -> None:
        if parts:
            put("".join(parts))
            parts.clear()

    write(value, 0)
    flush()


def canonical_json(value: Any) -> str:
    """JSON text with sorted keys, two-space indentation and .17g floats."""
    chunks: list[str] = []
    _json_text(value, chunks.append)
    return "".join(chunks)


def emit_report(report: dict, path: str | Path) -> bytes:
    """Write `report` as canonical JSON and a newline to `path`, a chunk at
    a time, and return the bytes written."""
    kept = io.BytesIO()
    with open(path, "wb") as handle:

        def put(text: str) -> None:
            data = text.encode("ascii")
            handle.write(data)
            kept.write(data)

        _json_text(report, put)
        put("\n")
    return kept.getvalue()


_NEEDS_QUOTES = re.compile('[,"\r\n]')
TRACE_CHUNK_ROWS = 4096  # trace.csv rows the writer joins per write
# Computed trace rows from which two processes write trace.csv.  A fork,
# the wait and the copy of the part cost about 1.5 ms more than one
# process; on a 2-vCPU Linux VM two processes were faster in 17 of 40
# alternating writes of 4,096 float rows and in 37 of 40 at 8,192.
TRACE_SPLIT_ROWS = 8192
_FLOAT_ROW = "%d,%.17g,%.17g,%.17g\r\n"  # a row whose three cells are floats


def _cells(values: Iterable[Any]) -> Iterator[str]:
    """CSV text of each value: floats as .17g, anything else via str.

    Non-float text is quoted as csv's default dialect would: a cell holding
    a comma, a quote, CR or LF is wrapped in quotes with its quotes doubled.
    """
    for value in values:
        if isinstance(value, float):
            yield format(value, ".17g")  # nan, inf, -inf included
        else:
            cell = str(value)
            if _NEEDS_QUOTES.search(cell):
                cell = '"' + cell.replace('"', '""') + '"'
            yield cell


def _rows_text(steps: range, points: list, dists: list, ratios: list) -> str:
    """The CSV text of consecutive rows; a blank cell is given as ""."""
    if _floats_only(points) and _floats_only(dists) and _floats_only(ratios):
        # One `%` call formats the whole chunk: the row format repeated once per row.
        values = (*chain.from_iterable(zip(steps, points, dists, ratios)),)
        return (_FLOAT_ROW * len(steps)) % values
    cells = map(_cells, (points, dists, ratios))
    return "".join(map("{},{},{},{}\r\n".format, steps, *cells))


def _usable_cpus() -> int:
    """CPUs this process may run on: the `--batch` pool runs a worker on
    each, and the trace writer forks only when there are two or more."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on this platform
        return os.cpu_count() or 1


def _write_rows(write: Callable[[str], Any], points: Cycled, distances, ratios, lo, hi) -> None:
    """Hand `write` the text of trace rows `lo` to `hi` - 1 (see `write_trace_csv`).

    The columns are read from row `lo` on through `islice`, never item by
    item; a range that starts inside the repeated tail starts its template
    at that row's place in the period.
    """
    rows, period, last = len(points.values), points.period, len(points) - 1
    first = min(1, rows)
    full = max(first, min(rows, len(distances), len(ratios) + 1))
    columns = (
        islice(points.values, lo, None),
        islice(chain(distances, repeat("")), lo, None),
        islice(chain(("",), ratios, repeat("")), lo, None),
    )
    for begin, stop in ((0, first), (first, full), (full, rows)):
        stop = min(stop, hi)
        for start in range(max(begin, lo), stop, TRACE_CHUNK_ROWS):
            steps = range(start, min(start + TRACE_CHUNK_ROWS, stop))
            write(_rows_text(steps, *(list(islice(col, len(steps))) for col in columns)))
    if rows > last:
        return
    start, stop = max(lo, rows), min(hi, last)
    if start < stop:
        # From row `rows` on, a row's text after its step is that of the
        # row one period before it.
        cells = (
            _cells((points[n], distances[n], ratios[n - 1])) for n in range(rows - period, rows)
        )
        units = ["%d," + ",".join(row).replace("%", "%%") + "\r\n" for row in cells]
        phase = (start - rows) % period
        units = units[phase:] + units[:phase]  # a chunk starts with row `start`'s unit
        periods = max(1, TRACE_CHUNK_ROWS // period)
        template, span = "".join(units) * periods, period * periods
        for step in range(start, stop, span):
            n = min(span, stop - step)
            text = template if n == span else "".join(islice(cycle(units), n))
            write(text % (*range(step, step + n),))
    if lo <= last < hi:
        write(f"{last},{next(_cells((points[last],)))},,\r\n")


def _other_cpus() -> set[int]:
    """The usable CPUs but the one this process runs on now; empty off Linux.

    A forked child starts on its parent's CPU, and on a 2-vCPU host it was
    seen to stay there for about a second while the other CPU idled, so
    the two halves of a trace took turns instead of running at once.  The
    trace writer's child moves to these CPUs.
    """
    if not hasattr(os, "sched_getaffinity"):
        return set()
    try:
        with open("/proc/self/stat", "rb") as stat:
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])  # field 39, the CPU
    except (OSError, IndexError, ValueError):
        return set()
    return os.sched_getaffinity(0) - {cpu}


def _forkable() -> bool:
    """Whether a forked child may write part of a trace: `os.fork` exists,
    a second CPU is usable, and no other thread runs (a thread holding a
    lock at the fork would leave it held in the child)."""
    return hasattr(os, "fork") and _usable_cpus() > 1 and threading.active_count() == 1


def write_trace_csv(points, distances, ratios, path: str | Path) -> None:
    """Per-step orbit table: step, point, dist_to_next, ratio.

    Row n's ratio is distances[n] / distances[n-1]; the cells are blank
    where a value is undefined (the first row and the trailing edge).
    Rows end in CRLF, as csv's default dialect writes them.

    Rows are written TRACE_CHUNK_ROWS at a time from the columns'
    iterators; row 0, the rows with all three values and the rows with a
    blank cell are chunked apart.  A chunk of floats of type float exactly
    is formatted by one `%` call ("%.17g" % x equals format(x, ".17g")),
    any other by `_cells` and `str.format`.  Past the computed points of
    an orbit's `Cycled` columns, each row but the last repeats the row one
    period before it with another step, so the period's row texts are
    formatted once and repeated after a "%d" each, a chunk per `%` call.

    A trace of TRACE_SPLIT_ROWS computed points or more is written by two
    processes when `_forkable()`: a forked child, moved off this process's
    CPU, writes the rows from the middle computed row on, the repeated
    tail included, to `<path>.part` while this process writes the header
    and the rows before it, then appends the part and deletes it.
    Both halves are formatted as above, so the bytes are those of one
    process.  A child that fails raises ChildProcessError here, and no
    part file is left.
    """
    points = Cycled.of(points)
    rows, end = len(points.values), len(points)
    split = rows // 2 if rows >= TRACE_SPLIT_ROWS and _forkable() else end
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("step,point,dist_to_next,ratio\r\n")
        if split == end:
            _write_rows(handle.write, points, distances, ratios, 0, end)
            return
        part = f"{path}.part"
        others = _other_cpus()
        pid = os.fork()
        if pid == 0:
            # The child writes the second half and leaves by os._exit: it
            # runs no cleanup and flushes none of this process's buffers.
            code = 1
            try:
                if others:
                    with contextlib.suppress(OSError):
                        os.sched_setaffinity(0, others)
                with open(part, "w", encoding="utf-8", newline="") as second:
                    _write_rows(second.write, points, distances, ratios, split, end)
                code = 0
            finally:
                os._exit(code)
        try:
            try:
                _write_rows(handle.write, points, distances, ratios, 0, split)
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                raise ChildProcessError(f"the process writing rows {split} on exited with {code}")
            handle.flush()
            with open(part, "rb") as second:
                shutil.copyfileobj(second, handle.buffer)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(part)
