"""Shared plumbing for the benchmark: paths, statistics, RSS, run info.

Everything here is stdlib plus NumPy.  The program under test is the
``repro`` package in ``<checkout>/src``; :func:`import_program` puts that
directory first on ``sys.path`` and refuses to run without it, so a
benchmark directory copied away from its checkout fails instead of
measuring some other installed copy.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: the benchmark's own directory and the checkout root above it
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space for checkpoints and server traces (git-ignored)
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("train_mixed", "serve_mixed", "huge_stream")

#: BLAS thread knobs, pinned for every process that runs the program (see
#: README.md: on a 2-core box, BLAS helper threads spinning after each call
#: compete with the program's own Python threads and double the spread)
BLAS_THREADS = "1"
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ProgramMissing(RuntimeError):
    """The checkout has no ``src/repro`` package to benchmark."""


def program_env() -> Dict[str, str]:
    """Environment for subprocesses that import the program."""
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_ENV_VARS})
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def import_program() -> None:
    """Make ``<checkout>/src`` importable and check ``repro`` comes from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise ProgramMissing(f"repro was imported from {origin}, not from {SRC}")


# -- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    data = sorted(values)
    if not data:
        return math.nan
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


# -- memory ----------------------------------------------------------------


def _maxrss_mb(who: int) -> float:
    kb = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":  # bytes there, kilobytes on Linux
        kb /= 1024.0
    return kb / 1024.0


def self_peak_rss_mb() -> float:
    return _maxrss_mb(resource.RUSAGE_SELF)


def children_peak_rss_mb() -> float:
    """Largest peak RSS among waited-for children (the served process)."""
    return _maxrss_mb(resource.RUSAGE_CHILDREN)


# -- run records -----------------------------------------------------------


@dataclass
class Measurement:
    """What one workload's timed window produced.

    ``op_ms`` holds one latency per operation (a train epoch, a served
    request, a windowed training pass); ``nodes`` counts circuit nodes
    processed by completed operations over ``elapsed_s`` of wall time.
    ``failures`` lists human-readable output-check failures; ``failed``
    counts the operations they cost.  ``extra`` carries workload-specific
    figures for the report line and the traced run's per-layer metrics.
    """

    op_ms: List[float]
    nodes: int
    elapsed_s: float
    attempted: int
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.failures.append(message)


def run_environment(seed: int, extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """The facts a reader needs to compare two results."""
    import numpy as np

    blas = "unknown"
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        pass
    env: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: program_env()[k] for k in BLAS_ENV_VARS},
        "platform": platform.platform(),
        "seed": seed,
    }
    env.update(extra or {})
    return env


RESULT_PREFIX = "PERFBENCH_RESULT "


def emit_child_result(payload: Dict[str, object]) -> None:
    """A child's final stdout line, read back by :func:`parse_child_result`."""
    print(RESULT_PREFIX + json.dumps(payload, sort_keys=True), flush=True)


def parse_child_result(stdout: str) -> Dict[str, object]:
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_PREFIX):
            return json.loads(line[len(RESULT_PREFIX):])
    raise ValueError("child process printed no result line")
