"""Deterministic report serialization.

Reports must be byte-identical across runs with the same seed, so floats
are printed with a fixed 17-significant-digit format (enough to round-trip
any double) and object keys are emitted in sorted order.  The stdlib JSON
encoder delegates float formatting to repr, which is shortest-round-trip
rather than fixed, hence the small writer here.  It writes a document in
one pass: text parts go onto a list, and once the list holds
JSON_CHUNK_PARTS parts they are joined into a chunk, which bounds the
list; the chunks are joined once.  Finite floats are formatted as they
are met; separators, closing lines and the text before each key are made
once per depth and call.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Any, Iterable, Iterator


JSON_CHUNK_PARTS = 4096  # text parts the report writer joins at a time


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


def _json_chunks(value: Any, indent: int) -> list[str]:
    """The text of `canonical_json(value, indent)`, as chunks to be joined.

    A finite float of type float is formatted here; every other scalar
    goes through `_scalar`, the rules the writer has always applied.
    """
    chunks: list[str] = []
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
                head = heads.get(name)
                if head is None:
                    text = "\n" + "  " * (depth + 1) + json.dumps(name) + ": "
                    head = heads[name] = ("{" + text, "," + text)
                add(head[later])
                write(value[key], depth + 1)
                later = 1
            add(close)
        elif isinstance(value, (list, tuple)):
            if not value:
                add("[]")
                return
            mark, sep, close, _, _ = level(depth)
            for item in value:
                add(mark)
                write(item, depth + 1)
                mark = sep
            add(close)
        else:
            add(_scalar(value))

    def flush() -> None:
        chunks.append("".join(parts))
        parts.clear()

    write(value, indent)
    flush()
    return chunks


def canonical_json(value: Any, indent: int = 0) -> str:
    """JSON text with sorted keys, two-space indentation and .17g floats.

    `indent` is the depth the value starts at: it sets the indentation of
    the value's inner lines and closing bracket, not of its first line.
    """
    return "".join(_json_chunks(value, indent))


def emit_report(report: dict, path: str | Path) -> bytes:
    chunks = _json_chunks(report, 0)
    chunks.append("\n")
    data = "".join(chunks).encode("ascii")
    Path(path).write_bytes(data)
    return data


_NEEDS_QUOTES = re.compile('[,"\r\n]')
TRACE_CHUNK_ROWS = 4096  # trace.csv rows the writer joins per write
_FLOAT_ROW = "%d,%.17g,%.17g,%.17g\r\n"  # a row whose three cells are floats
_FLOAT_TYPE = {float}


def _cells(values: Iterable[Any]) -> Iterator[str]:
    """CSV text of each value: floats as .17g, anything else via str.

    Non-float text is quoted as csv's default dialect would: a cell holding
    a comma, a quote, CR or LF is wrapped in quotes with its quotes doubled.
    A repeated two-step tail is formatted once by `write_trace_csv`.
    """
    for value in values:
        if isinstance(value, float):
            yield format(value, ".17g")  # nan, inf, -inf included
        else:
            cell = str(value)
            if _NEEDS_QUOTES.search(cell):
                cell = '"' + cell.replace('"', '""') + '"'
            yield cell


def _floats_only(values: list) -> bool:
    """Whether every value is of type float exactly, not of a subclass."""
    return {*map(type, values)} <= _FLOAT_TYPE


def _rows_text(steps: range, points: list, dists: list, ratios: list) -> str:
    """The CSV text of consecutive rows; a blank cell is given as ""."""
    if _floats_only(points) and _floats_only(dists) and _floats_only(ratios):
        # One `%` call formats the whole chunk: the row format repeated once per row.
        values = (*chain.from_iterable(zip(steps, points, dists, ratios)),)
        return (_FLOAT_ROW * len(steps)) % values
    cells = map(_cells, (points, dists, ratios))
    return "".join(map("{},{},{},{}\r\n".format, steps, *cells))


def write_trace_csv(
    points, distances, ratios, path: str | Path, cycle_from: int | None = None
) -> None:
    """Per-step orbit table: step, point, dist_to_next, ratio.

    Row n's ratio is distances[n] / distances[n-1]; the cells are blank
    where a value is undefined (the first row and the trailing edge).
    Rows end in CRLF, as csv's default dialect writes them.

    Rows are written TRACE_CHUNK_ROWS at a time, each chunk's values read
    from the three columns' iterators, never from slice copies.  Row 0, the
    rows with all three values and the rows with a blank cell are chunked
    apart.  A chunk whose three value columns hold only floats of type
    float exactly is formatted by one `%` call, since "%.17g" % x equals
    format(x, ".17g") for every float.  Any other chunk has its cells
    formatted by `_cells` and its rows joined by `str.format`.

    `cycle_from` is the trace's (`OrbitTrace.cycle_from`), given with the
    full columns of an orbit.  Rows up to it are written as above.  From
    the next row on, each row but the last is the row two before it with
    another step number, so those rows are the step followed by the text
    of rows cycle_from - 1 and cycle_from, in turn; the last row has only
    its step and point.  Those rows are written in chunks of an even number
    of rows, each formatted by one `%` call on a template that repeats the
    two texts after a "%d" each; the shorter remainder takes a prefix of
    that template.
    """
    rows = len(points) if cycle_from is None else cycle_from + 1
    first = min(1, rows)
    full = max(first, min(rows, len(distances), len(ratios) + 1))
    columns = (
        iter(points),
        chain(distances, repeat("")),
        chain(("",), ratios, repeat("")),
    )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write = handle.write
        write("step,point,dist_to_next,ratio\r\n")
        for lo, hi in ((0, first), (first, full), (full, rows)):
            for start in range(lo, hi, TRACE_CHUNK_ROWS):
                steps = range(start, min(start + TRACE_CHUNK_ROWS, hi))
                write(_rows_text(steps, *(list(islice(col, len(steps))) for col in columns)))
        if cycle_from is not None:
            c, last = cycle_from, len(points) - 1
            period = [
                ",{},{},{}\r\n".format(*_cells((points[n], distances[n], ratios[n - 1])))
                for n in (c - 1, c)
            ]
            span = 2 * max(1, TRACE_CHUNK_ROWS // 2)  # even: each chunk starts with period[0]
            first_text, second_text = (text.replace("%", "%%") for text in period)
            pair = "%d" + first_text + "%d" + second_text
            template = pair * (span // 2)
            for step in range(c + 1, last, span):
                n = min(span, last - step)
                # A prefix of n rows; a full-length slice is `template` itself.
                rows_text = template[: len(pair) * (n // 2) + (2 + len(first_text)) * (n % 2)]
                write(rows_text % (*range(step, step + n),))
            write(f"{last},{next(_cells((points[last],)))},,\r\n")
