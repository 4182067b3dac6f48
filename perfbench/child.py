"""Run one workload in this process: set up, measure, check, tear down.

``run.py`` starts one child per measurement because peak RSS is a
high-water mark and ``setup_s`` must include interpreter start, imports
and input generation.  ``setup_s`` is timed from the parent's clock
reading just before it spawned this process (``--spawned-at``,
``time.monotonic``, which is system-wide).  The child prints one
``PERFBENCH_RESULT`` line for the parent to read.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    size: str,
    trace: bool,
    setup_only: bool,
    spawned_at: float,
) -> dict:
    harness.import_program()
    module = importlib.import_module(workload)
    in_self = module.PROGRAM_PROCESS == "self"
    tracer = None
    if trace and in_self:
        import tracing

        tracer = tracing.install(tracing.Tracer())
    workdir = harness.WORK_ROOT / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = module.setup(seed, size, workdir, seconds, trace)
        setup_s = time.monotonic() - spawned_at
        if setup_only:
            module.teardown(state)
            return {"setup_s": setup_s}
        try:
            out = module.measure(state, seconds)
            snapshot = tracer.snapshot() if tracer is not None else None
            module.check(state, out)
        finally:
            module.teardown(state)
        if trace and not in_self:
            snapshot = state.trace  # written by the traced program process
        rss = harness.self_peak_rss_mb() if in_self else harness.children_peak_rss_mb()
        return {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "op_ms": out.op_ms,
            "nodes": out.nodes,
            "elapsed_s": out.elapsed_s,
            "attempted": out.attempted,
            "failed": out.failed,
            "failures": out.failures,
            "extra": out.extra,
            "trace": snapshot,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()
    result = run_child(
        args.workload,
        args.seed,
        args.seconds,
        args.size,
        bool(args.trace),
        args.setup_only,
        args.spawned_at,
    )
    harness.emit_child_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
