"""Run ``python -m repro serve`` with the benchmark's span tracer installed.

Usage: ``serve_traced.py SPANS_JSON serve --store DIR ...`` -- the
arguments after the spans file are the CLI's own.  When the server has
drained (SIGTERM), the spans of every thread and the engine's
simulation/emulation counters are written to ``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans_file = Path(sys.argv[1])
    import repro.__main__ as cli
    import repro.serve  # noqa: F401
    from repro.sweep import engine

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        spans_file.write_text(json.dumps({
            "threads": tracer.spans(),
            "simulated": engine.simulation_count(),
            "emulated": engine.emulation_count(),
        }))


if __name__ == "__main__":
    sys.exit(main())
