"""Run the invorbit command line with span tracing installed.

The traced twin of `python -m invorbit`: installs the tracer, runs
`invorbit.cli.main` on the remaining arguments, and writes the spans and
the distance-call count as JSON when the command ends.

    python3 perfbench/traced_cli.py --spans FILE --batch DIR --out DIR
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    if sys.argv[1:2] != ["--spans"] or len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    dump_to = Path(sys.argv[2])
    import invorbit.cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        return invorbit.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        recorded, calls = tracer.take()
        dump_to.write_text(json.dumps({"spans": recorded, "dist_calls": calls}))


if __name__ == "__main__":
    raise SystemExit(main())
