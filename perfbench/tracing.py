"""Span timers and counters around each layer's public functions.

The traced run (``--trace 1``) calls :func:`install` before set-up.  It
replaces public functions and methods of the ``repro`` package with
wrappers that time each call as a span.  Spans nest per thread.  Each
span name keeps its *total* time and its *self* time, which is the total
minus the time of spans nested inside it.  Nothing in ``src/`` changes,
and the untraced run never imports this module, so it pays nothing.

Layer metrics are normalised per operation of the workload (a train
epoch, a served request, a windowed pass).  A run that fits more
operations into its time window then still compares with one that fits
fewer.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (name, unit, better) of every per-layer metric, in report order; the
#: traced run prints all of them on every workload, 0 where a layer does
#: no work on that workload
PER_LAYER: List[Tuple[str, str, str]] = [
    ("aig.parse_ms", "ms/op", "lower"),
    ("aig.parse_calls", "1/op", "lower"),
    ("synth.canonicalize_ms", "ms/op", "lower"),
    ("graphdata.featurize_ms", "ms/op", "lower"),
    ("graphdata.prepare_ms", "ms/op", "lower"),
    ("graphdata.compile_ms", "ms/op", "lower"),
    ("graphdata.compile_calls", "1/op", "lower"),
    ("graphdata.window_build_ms", "ms", "lower"),
    ("models.fwd_pass_ms", "ms/op", "lower"),
    ("models.rev_pass_ms", "ms/op", "lower"),
    ("models.pass_calls", "1/op", "lower"),
    ("models.head_ms", "ms/op", "lower"),
    ("statestore.windows", "1/op", "lower"),
    ("statestore.frontier_rows", "1/op", "lower"),
    ("statestore.spills", "count", "lower"),
    ("nn.backward_ms", "ms/op", "lower"),
    ("nn.optim_ms", "ms/op", "lower"),
    ("nn.checkpoint_save_ms", "ms/op", "lower"),
    ("train.loader_wait_ms", "ms/op", "lower"),
    ("train.steps", "count", "higher"),
    ("serve.query_ms", "ms/op", "lower"),
    ("serve.queue_wait_ms", "ms/op", "lower"),
    ("serve.batch_size_mean", "jobs", "higher"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.http_overhead_ms", "ms", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.p90_ms", "ms", "lower"),
    ("serve.cold_p50_ms", "ms", "lower"),
    ("serve.warm_p50_ms", "ms", "lower"),
    ("serve.completed_qps", "1/s", "higher"),
    ("serve.send_late_p90_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    """Process-local span and counter registry, safe across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        # first-call detection for cached builders, and the pass direction
        # of every schedule seen (weak: schedules die with their batch)
        self._seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.directions: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------
    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            nested = stack.pop()
            if stack:
                stack[-1] += duration
            with self._lock:
                self.total_s[name] += duration
                self.self_s[name] += duration - nested
                self.calls[name] += 1

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def first_time(self, obj: object, key: object) -> bool:
        """True the first time ``key`` is seen for ``obj``."""
        with self._lock:
            keys = self._seen.setdefault(obj, set())
            if key in keys:
                return False
            keys.add(key)
            return True

    # -- patching ------------------------------------------------------
    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` for the process."""
        setattr(owner, attr, make(getattr(owner, attr)))

    def span_patch(self, owner: object, attr: str, name: str) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                return self.call(name, original, *args, **kwargs)

            return wrapper

        self.patch(owner, attr, make)

    def snapshot(self) -> Dict[str, object]:
        from repro.models.propagation import get_window_stats

        with self._lock:
            return {
                "total_s": dict(self.total_s),
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "window_stats": get_window_stats(),
            }


class _TimedBatches:
    """A loader epoch whose every ``next`` is the train.loader_wait span."""

    def __init__(self, batches, tracer: Tracer):
        self._batches = iter(batches)
        self._source = batches
        self._tracer = tracer

    def __iter__(self) -> "_TimedBatches":
        return self

    def __next__(self):
        batch = self._tracer.call("train.loader_wait", next, self._batches)
        self._tracer.count("train.steps")
        return batch

    def close(self) -> None:
        close = getattr(self._source, "close", None)
        if close is not None:
            close()


def install(tracer: Tracer) -> Tracer:
    """Wrap every measured layer's public entry points with spans."""
    import repro.graphdata.dataset as dataset_mod
    import repro.models.deepgate as deepgate_mod
    import repro.nn.optim as optim_mod
    import repro.serve.service as service_mod
    import repro.train.trainer as trainer_mod
    from repro.graphdata.batching import CompiledSchedule
    from repro.graphdata.dataset import PreparedBatch
    from repro.graphdata.loader import DataLoader
    from repro.models.propagation import reset_window_stats
    from repro.models.regressor import PerTypeRegressor
    from repro.nn.tensor import Tensor
    from repro.serve.batcher import MicroBatcher

    span = tracer.span_patch
    # aig / synth / graphdata on the serve request path
    span(service_mod, "parse_circuit", "aig.parse")
    span(service_mod, "canonicalize", "synth.canonicalize")
    span(service_mod, "inference_graph", "graphdata.featurize")
    # graphdata on the train path (the loader merges each batch)
    span(dataset_mod, "prepare", "graphdata.prepare")

    def cached_build(name: str, direction: str):
        """Time the first (building) call per batch and arguments only."""

        def make(original):
            def wrapper(batch, *args, **kwargs):
                key = (original.__name__, args, tuple(sorted(kwargs.items())))
                if tracer.first_time(batch, key):
                    schedule = tracer.call(name, original, batch, *args, **kwargs)
                else:
                    schedule = original(batch, *args, **kwargs)
                tracer.directions[schedule] = direction
                return schedule

            return wrapper

        return make

    tracer.patch(PreparedBatch, "compiled_forward_schedule", cached_build("graphdata.compile", "fwd"))
    tracer.patch(PreparedBatch, "compiled_reverse_schedule", cached_build("graphdata.compile", "rev"))
    tracer.patch(PreparedBatch, "windowed_forward_schedule", cached_build("graphdata.window_build", "fwd"))
    tracer.patch(PreparedBatch, "windowed_reverse_schedule", cached_build("graphdata.window_build", "rev"))

    def block(original):
        # the pass-wide block layout is built lazily by the first pass
        def wrapper(schedule):
            if tracer.first_time(schedule, "block"):
                return tracer.call("graphdata.compile", original, schedule)
            return original(schedule)

        return wrapper

    tracer.patch(CompiledSchedule, "block", block)

    # models: each propagation pass as DeepGate calls it, then the head
    def run_pass(original):
        def wrapper(h, schedule, *args, **kwargs):
            direction = tracer.directions.get(schedule, "fwd")
            return tracer.call(f"models.{direction}_pass", original, h, schedule, *args, **kwargs)

        return wrapper

    tracer.patch(deepgate_mod, "run_pass", run_pass)
    span(PerTypeRegressor, "forward", "models.head")

    # nn: autograd, optimizer, checkpoint I/O
    span(Tensor, "backward", "nn.backward")
    span(optim_mod, "clip_grad_norm", "nn.optim")
    span(trainer_mod, "clip_grad_norm", "nn.optim")
    span(optim_mod.Adam, "step", "nn.optim")
    span(trainer_mod.Trainer, "save_checkpoint", "nn.checkpoint_save")

    # train: time each step waits on the (prefetching) loader
    def epoch(original):
        def wrapper(loader, *args, **kwargs):
            return _TimedBatches(original(loader, *args, **kwargs), tracer)

        return wrapper

    tracer.patch(DataLoader, "epoch", epoch)

    # serve: whole query, and queue wait from submit to its batch cycle
    span(service_mod.InferenceService, "query", "serve.query")
    submitted: Dict[int, float] = {}

    def submit(original):
        def wrapper(batcher, job):
            submitted[id(job)] = time.perf_counter()
            return original(batcher, job)

        return wrapper

    def batcher_init(original):
        def wrapper(batcher, run_batch, *args, **kwargs):
            def timed_run_batch(jobs):
                now = time.perf_counter()
                for job in jobs:
                    start = submitted.pop(id(job), None)
                    if start is not None:
                        tracer.sample("serve.queue_wait", now - start)
                tracer.count("serve.cycles")
                tracer.count("serve.cycle_jobs", len(jobs))
                return run_batch(jobs)

            return original(batcher, timed_run_batch, *args, **kwargs)

        return wrapper

    tracer.patch(MicroBatcher, "submit", submit)
    tracer.patch(MicroBatcher, "__init__", batcher_init)

    reset_window_stats()
    return tracer


def layer_metrics(
    snapshot: Dict[str, object],
    ops: int,
    serve: Optional[Dict[str, float]] = None,
    overhead_pct: float = 0.0,
) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``ops`` is the number of workload operations the snapshot covers;
    ``serve`` holds the serve workload's client-side figures (absent on
    the other workloads, whose serve metrics are then 0).
    """
    ops = max(int(ops), 1)
    self_s: Dict[str, float] = snapshot["self_s"]  # type: ignore[assignment]
    total_s: Dict[str, float] = snapshot["total_s"]  # type: ignore[assignment]
    calls: Dict[str, int] = snapshot["calls"]  # type: ignore[assignment]
    counters: Dict[str, float] = snapshot["counters"]  # type: ignore[assignment]
    samples: Dict[str, List[float]] = snapshot["samples"]  # type: ignore[assignment]
    window: Dict[str, int] = snapshot["window_stats"]  # type: ignore[assignment]
    serve = serve or {}

    def ms(name: str) -> float:
        return 1000.0 * self_s.get(name, 0.0) / ops

    waits = samples.get("serve.queue_wait", [])
    cycles = counters.get("serve.cycles", 0)
    values = {
        "aig.parse_ms": ms("aig.parse"),
        "aig.parse_calls": calls.get("aig.parse", 0) / ops,
        "synth.canonicalize_ms": ms("synth.canonicalize"),
        "graphdata.featurize_ms": ms("graphdata.featurize"),
        "graphdata.prepare_ms": ms("graphdata.prepare"),
        "graphdata.compile_ms": ms("graphdata.compile"),
        "graphdata.compile_calls": calls.get("graphdata.compile", 0) / ops,
        "graphdata.window_build_ms": 1000.0 * self_s.get("graphdata.window_build", 0.0),
        "models.fwd_pass_ms": ms("models.fwd_pass"),
        "models.rev_pass_ms": ms("models.rev_pass"),
        "models.pass_calls": (calls.get("models.fwd_pass", 0) + calls.get("models.rev_pass", 0)) / ops,
        "models.head_ms": ms("models.head"),
        "statestore.windows": window.get("windows", 0) / ops,
        "statestore.frontier_rows": window.get("frontier_rows", 0) / ops,
        "statestore.spills": window.get("spills", 0),
        "nn.backward_ms": ms("nn.backward"),
        "nn.optim_ms": ms("nn.optim"),
        "nn.checkpoint_save_ms": ms("nn.checkpoint_save"),
        "train.loader_wait_ms": ms("train.loader_wait"),
        "train.steps": counters.get("train.steps", 0),
        "serve.query_ms": 1000.0 * total_s.get("serve.query", 0.0) / ops,
        "serve.queue_wait_ms": 1000.0 * sum(waits) / ops,
        "serve.batch_size_mean": counters.get("serve.cycle_jobs", 0) / cycles if cycles else 0.0,
        "trace.overhead_pct": overhead_pct,
    }
    for name in (
        "serve.cache_hit_ratio",
        "serve.http_overhead_ms",
        "serve.rejected",
        "serve.p90_ms",
        "serve.cold_p50_ms",
        "serve.warm_p50_ms",
        "serve.completed_qps",
        "serve.send_late_p90_ms",
    ):
        values[name] = float(serve.get(name, 0.0))
    return {name: (float(values[name]), unit) for name, unit, _ in PER_LAYER}
