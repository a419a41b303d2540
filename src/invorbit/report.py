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
from itertools import chain, count, cycle, islice, repeat
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


def write_trace_csv(
    points, distances, ratios, path: str | Path, cycle_from: int | None = None
) -> None:
    """Per-step orbit table: step, point, dist_to_next, ratio.

    Row n's ratio is distances[n] / distances[n-1]; the cells are blank
    where a value is undefined (the first row and the trailing edge).
    Rows end in CRLF, as csv's default dialect writes them, and are
    streamed, not built up front.

    `cycle_from` is the trace's (`OrbitTrace.cycle_from`), given with the
    full columns of an orbit.  Rows up to it are written as above.  From
    the next row on, each row but the last is the row two before it with
    another step number, so those rows are the step followed by the text
    of rows cycle_from - 1 and cycle_from, in turn; the last row has only
    its step and point.
    """
    row_points = points if cycle_from is None else islice(points, cycle_from + 1)
    dists = chain(_cells(distances), repeat(""))
    ratio_cells = chain(("",), _cells(ratios), repeat(""))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("step,point,dist_to_next,ratio\r\n")
        handle.writelines(
            f"{step},{point},{dist},{ratio}\r\n"
            for step, point, dist, ratio in zip(count(), _cells(row_points), dists, ratio_cells)
        )
        if cycle_from is not None:
            c, last = cycle_from, len(points) - 1
            period = [
                ",{},{},{}\r\n".format(*_cells((points[n], distances[n], ratios[n - 1])))
                for n in (c - 1, c)
            ]
            handle.writelines(map(str.__add__, map(str, range(c + 1, last)), cycle(period)))
            handle.write(f"{last},{next(_cells((points[last],)))},,\r\n")
