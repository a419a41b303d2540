"""Deterministic report serialization.

Reports must be byte-identical across runs with the same seed, so floats
are printed with a fixed 17-significant-digit format (enough to round-trip
any double) and object keys are emitted in sorted order.  The stdlib JSON
encoder delegates float formatting to repr, which is shortest-round-trip
rather than fixed, hence the small writer here.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain, count, cycle, islice, repeat
from pathlib import Path
from typing import Any, Iterable, Iterator


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def canonical_json(value: Any, indent: int = 0) -> str:
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
            f"{inner}{json.dumps(str(k))}: {canonical_json(value[k], indent + 1)}"
            for k in sorted(value, key=str)
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def emit_report(report: dict, path: str | Path) -> bytes:
    data = (canonical_json(report) + "\n").encode("ascii")
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
