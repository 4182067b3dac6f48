"""Run ``repro serve`` with the layer spans installed (the traced run).

Usage: ``python3 perfbench/serve_traced.py TRACE_JSON serve ARGS...``.
The spans are installed before the service is built, then the CLI runs
as usual.  When the server stops (SIGTERM), the trace snapshot is
written to ``TRACE_JSON``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from harness import import_program  # noqa: E402


def main() -> int:
    trace_path = Path(sys.argv[1])
    import_program()
    tracer = tracing.install(tracing.Tracer())
    from repro.cli import main as repro_main

    code = repro_main(sys.argv[2:])
    trace_path.write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
