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
from itertools import chain, count, repeat
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

    A nonzero float equal to the last float of its column is the same
    double, so that text is reused; zeros are excluded because -0.0 == 0.0.
    Non-float text is quoted as csv's default dialect would: a cell holding
    a comma, a quote, CR or LF is wrapped in quotes with its quotes doubled.
    """
    prev = text = None
    for value in values:
        if isinstance(value, float):
            if value != prev or not value:
                prev = value
                text = format(value, ".17g")  # nan, inf, -inf included
            yield text
        else:
            cell = str(value)
            if _NEEDS_QUOTES.search(cell):
                cell = '"' + cell.replace('"', '""') + '"'
            yield cell


def write_trace_csv(points, distances, ratios, path: str | Path) -> None:
    """Per-step orbit table: step, point, dist_to_next, ratio.

    Row n's ratio is distances[n] / distances[n-1]; the cells are blank
    where a value is undefined (the first row and the trailing edge).
    Rows end in CRLF, as csv's default dialect writes them, and are
    streamed, not built up front.
    """
    dists = chain(_cells(distances), repeat(""))
    ratios = chain(("",), _cells(ratios), repeat(""))
    with open(path, "w", newline="") as handle:
        handle.write("step,point,dist_to_next,ratio\r\n")
        handle.writelines(
            f"{step},{point},{dist},{ratio}\r\n"
            for step, point, dist, ratio in zip(count(), _cells(points), dists, ratios)
        )
