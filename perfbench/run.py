"""The repository benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric.  Set-up runs five times,
in fresh processes, and ``setup_s`` is their median.  The last of the
five is the measured run.  ``--trace 1`` runs the workload once
untraced and once with layer spans (see ``tracing.py``).  It prints the
per-layer metrics and the tracing overhead, which is the relative change
of ``op_p50_ms`` between the two runs.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it
(``perfbench report``) records the run environment and every
workload-specific figure under the names README.md uses.  Without the
program in ``<checkout>/src`` the script exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import median  # noqa: E402

#: (name, unit, better, bound) of every end-to-end metric; every workload
#: prints all of them (see README.md for what an operation is per workload)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("nodes_per_s", "1/s", "higher", 0.25),
]
#: set-up samples per untraced run (the last one is the measured run)
SETUP_SAMPLES = 5
#: a whole run must end within 180 s; its children share what is left
RUN_DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    size: str,
    trace: bool,
    setup_only: bool,
    deadline: float,
) -> Dict[str, object]:
    cmd = [
        sys.executable,
        str(harness.BENCH_DIR / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--size", size,
        "--trace", str(int(trace)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    # a session of its own, so a timeout also stops the child's server
    proc = subprocess.Popen(
        cmd,
        cwd=harness.ROOT,
        env=harness.program_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload} child timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child exited with {proc.returncode}")
    try:
        return harness.parse_child_result(stdout)
    except ValueError as exc:
        raise ChildFailed(f"{workload} child: {exc}") from None


def workload_figures(workload: str, run: Dict[str, object]) -> Dict[str, Tuple[float, str]]:
    """Every figure of one measured run under its README name."""
    op_ms: List[float] = run["op_ms"]  # type: ignore[assignment]
    extra: Dict[str, float] = run["extra"]  # type: ignore[assignment]
    figures = {
        "op_count": (float(len(op_ms)), "count"),
        "op_p50_ms": (median(op_ms), "ms"),
        "nodes_per_s": (run["nodes"] / run["elapsed_s"], "1/s"),
        "failed_share": (run["failed"] / max(run["attempted"], 1), "share"),
    }
    if workload == "train_mixed":
        figures["train_nodes_per_s"] = figures["nodes_per_s"]
        figures["epochs"] = (float(extra["epochs"]), "count")
    elif workload == "huge_stream":
        figures["huge_pass_s"] = (median(op_ms) / 1000.0, "s")
    elif workload == "serve_mixed":
        figures["serve_closed_p50_ms"] = figures["op_p50_ms"]
        figures["serve_p50_ms"] = (extra["serve.p50_ms"], "ms")
        figures["serve_p90_ms"] = (extra["serve.p90_ms"], "ms")
        figures["serve_cold_p50_ms"] = (extra["serve.cold_p50_ms"], "ms")
        figures["serve_warm_p50_ms"] = (extra["serve.warm_p50_ms"], "ms")
        figures["serve_completed_qps"] = (extra["serve.completed_qps"], "1/s")
        figures["serve_hit_share"] = (extra["serve.cache_hit_ratio"], "share")
        figures["send_late_p90_ms"] = (extra["serve.send_late_p90_ms"], "ms")
        figures["send_slip_p90_ms"] = (extra["send_slip_p90_ms"], "ms")
        figures["distinct_circuits"] = (float(extra["distinct_circuits"]), "count")
    return figures


def untraced(workload: str, seed: int, seconds: float, size: str, deadline: float):
    setups = [
        run_child(workload, seed, seconds, size, False, True, deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    run = run_child(workload, seed, seconds, size, False, False, deadline)
    setups.append(run["setup_s"])
    figures = workload_figures(workload, run)
    metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "op_p50_ms": figures["op_p50_ms"],
        "nodes_per_s": figures["nodes_per_s"],
    }
    figures.update(metrics)
    return run, metrics, figures


def traced(workload: str, seed: int, seconds: float, size: str, deadline: float):
    import tracing

    plain = run_child(workload, seed, seconds, size, False, False, deadline)
    run = run_child(workload, seed, seconds, size, True, False, deadline)
    base = median(plain["op_ms"])
    overhead = 100.0 * (median(run["op_ms"]) - base) / base
    serve = plain["extra"] if workload == "serve_mixed" else None
    ops = run["extra"].get("requests", len(run["op_ms"]))  # serve: both phases
    layers = tracing.layer_metrics(run["trace"], ops, serve, overhead)
    figures = workload_figures(workload, plain)
    figures["traced_op_p50_ms"] = (median(run["op_ms"]), "ms")
    figures.update(layers)
    run = dict(run, failed=run["failed"] + plain["failed"],
               attempted=run["attempted"] + plain["attempted"],
               failures=plain["failures"] + run["failures"])
    return run, layers, figures


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: seconds-long smoke sizes for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark at {harness.SRC / 'repro'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    mode = traced if args.trace else untraced
    try:
        run, metrics, figures = mode(args.workload, args.seed, args.seconds, args.size, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:  # absent, or another run still uses it
            pass
    for failure in run["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    env_extra = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    if args.workload == "serve_mixed":
        import serve_mixed

        env_extra["serve_rate_qps"] = serve_mixed.SIZES[args.size]["rate"]
        env_extra["serve_connections"] = serve_mixed.CONNECTIONS
    report = {
        "env": harness.run_environment(args.seed, env_extra),
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
    }
    print("perfbench report " + json.dumps(report, sort_keys=True))
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            print(f"perfbench: metric {name} is not finite", file=sys.stderr)
            return 1
    result = {
        "correct": not run["failures"],
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
