"""serve_mixed: back-to-back, then open-loop traffic against ``repro serve``.

The inference path.  Set-up saves a seeded DeepGate checkpoint (dim 64,
T=10) with ``save_model_checkpoint`` and starts ``python -m repro serve``
on it in the default ``exact`` batch mode.  It also builds the requests
of two phases.  The circuits come from the four suite pools and pass the
dataset's filters: no constant outputs, at least one AND, depth at most
80, and 50-600 gate-graph nodes.  Each is sent as AIGER or BENCH, three
times: once new and twice as a repeat with its signals renamed, so cache
hits come from the strash key, not from equal text.

The closed-loop phase sends its requests back to back over one
keep-alive connection.  Each is timed from send to receive; these are
the workload's operations.  The open-loop phase then sends
``round(RATE_QPS * seconds)`` requests, on circuits of its own, at due
times with exponential gaps (see ``arrival_times``), over
``CONNECTIONS`` keep-alive connections.  Its latency is timed from each
request's due time, so a stall also counts against the requests queued
behind it; its figures go to the report line.  The load generator has a
CPU of its own (see ``split_cpus``).  Cold requests pay parse, strash,
featurise and compile.  Warm requests skip the compile but still pay
parse and strash.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import BENCH_DIR, ROOT, Measurement, median, percentile, program_env

#: fixed offered load, well below the knee (see README.md)
RATE_QPS = 3.0
#: load comes from one process over at most this many connections
CONNECTIONS = 2
#: every circuit is sent this many times: once new, then as renamed
#: repeats (two thirds of requests repeat an earlier circuit)
SENDS_PER_CIRCUIT = 3
#: gate-graph node window of request circuits, and the dataset's depth cap
MIN_NODES, MAX_NODES = 50, 600
MAX_LEVELS = 80
#: pool circuits drawn per requested circuit, and the pool's fixed seed
#: (see make_requests)
SAMPLE_STRIDE = 8
POOL_SEED = 2024
#: a run whose generator slipped more than this at p90 is rejected
MAX_SEND_SLIP_P90_MS = 50.0

#: the program runs in the served process, a child of this one: RSS and
#: spans are read from it
PROGRAM_PROCESS = "child"

SIZES: Dict[str, Dict[str, float]] = {
    "full": {"dim": 64, "iterations": 10, "rate": RATE_QPS},
    "tiny": {"dim": 8, "iterations": 2, "rate": 20.0},
}

_BANNER = re.compile(r"on http://([^:\s]+):(\d+)")


@dataclass
class Request:
    structure: int  # index of the distinct circuit
    fmt: str
    text: str
    due_s: float  # offset from the start of the window


@dataclass
class Reply:
    status: int = 0
    payload: Optional[dict] = None
    error: str = ""
    due: float = 0.0
    taken: float = 0.0
    sent: float = 0.0
    received: float = 0.0


@dataclass
class State:
    size: Dict[str, float]
    checkpoint: Path
    closed: List[Request]  # sent back to back, one at a time
    requests: List[Request]  # sent open-loop at their due times
    server: subprocess.Popen
    host: str
    port: int
    trace_path: Optional[Path]
    trace: Optional[Dict[str, object]] = None


# -- request generation ----------------------------------------------------


def _circuits(rng: np.random.Generator):
    """Endless stream of ``(aig, depth)`` request circuits that pass the
    dataset's filters (``generate_suite_graphs``) and the size window."""
    from repro.datagen.suites import SUITE_NAMES, suite_pool
    from repro.synth import has_constant_outputs, strip_constant_outputs, synthesize

    pools = [suite_pool(name, rng) for name in SUITE_NAMES]
    while True:
        for pool in pools:
            aig = synthesize(next(pool))
            if has_constant_outputs(aig):
                try:
                    aig = strip_constant_outputs(aig)
                except ValueError:
                    continue
            if aig.num_ands == 0:
                continue
            graph = aig.to_gate_graph()
            if graph.depth() <= MAX_LEVELS and MIN_NODES <= graph.num_nodes <= MAX_NODES:
                yield aig, graph.depth(), graph.num_nodes


def bench_text(aig, rng: np.random.Generator) -> str:
    """``aig`` as BENCH AND/NOT gates under freshly drawn signal names."""
    from repro.aig.graph import lit_is_negated, lit_var

    prefix = "".join(rng.choice(list("abcdefghjkmnpqrstuvwxyz"), size=3))
    ids = rng.permutation(aig.num_vars + aig.num_vars + len(aig.outputs))
    lines: List[str] = []
    inverted: Dict[int, str] = {}

    def net(var: int) -> str:
        return f"{prefix}{ids[var]}"

    def lit_name(lit: int) -> str:
        var = lit_var(lit)
        if not lit_is_negated(lit):
            return net(var)
        if var not in inverted:
            inverted[var] = f"{prefix}{ids[aig.num_vars + var]}"
            lines.append(f"{inverted[var]} = NOT({net(var)})")
        return inverted[var]

    base = 1 + aig.num_pis
    for k in range(aig.num_ands):
        a, b = (lit_name(int(x)) for x in aig.ands[k])
        lines.append(f"{net(base + k)} = AND({a}, {b})")
    outputs = []
    for j, lit in enumerate(aig.outputs):
        name = f"{prefix}{ids[2 * aig.num_vars + j]}"
        lines.append(f"{name} = BUFF({lit_name(int(lit))})")
        outputs.append(name)
    head = [f"INPUT({net(1 + i)})" for i in range(aig.num_pis)]
    head += [f"OUTPUT({name})" for name in outputs]
    return "\n".join(head + lines) + "\n"


def aiger_text(aig, rng: np.random.Generator) -> str:
    """``aig`` as ASCII AIGER under a freshly drawn name (AIGER has no
    other signal names: variables are numbered)."""
    from repro.aig import aiger

    return aiger.dumps(aig.copy(name=f"q{int(rng.integers(1 << 30))}"))


def arrival_times(rng: np.random.Generator, count: int, seconds: float) -> np.ndarray:
    """``count`` open-loop Poisson arrivals ending at ``seconds``.

    The gaps between arrivals are the ``count`` quantiles of an
    exponential distribution, at the midpoints of equal-probability
    strata, in an order ``rng`` shuffles.  So the gaps are exponential
    and independent of their position, as in a Poisson process, while
    every seed has the same number of close and of far-apart arrivals.
    """
    gaps = -np.log1p(-(np.arange(count) + 0.5) / count)
    rng.shuffle(gaps)
    return seconds * np.cumsum(gaps) / gaps.sum()


def make_requests(seed: int, count: int, seconds: float) -> Tuple[List[Request], List[Request]]:
    """The closed-loop and the open-loop requests, ``count`` of each.

    Each phase sends ``count // SENDS_PER_CIRCUIT`` circuits of its own.
    The circuits are fixed, like a benchmark suite: the first
    ``SAMPLE_STRIDE`` times as many circuits as one phase needs of the
    ``POOL_SEED`` stream are sorted by depth (which sets the forward
    cost) and size.  Of every ``SAMPLE_STRIDE`` in that order the
    open-loop phase keeps the middle one and the closed-loop phase its
    lower neighbour, so both span the pool's whole cost range.  In that
    order each phase's circuits are sent alternately as AIGER and BENCH.
    The seed sets the traffic: the request order, the renamings and the
    order of the gaps between arrivals (see ``arrival_times``).  When
    ``count`` is not a multiple of ``SENDS_PER_CIRCUIT`` the seed also
    picks the circuits sent once more.  Apart from those, every seed
    sends the same mix of circuits, formats, cold/warm requests and
    arrival gaps, so a run's latency quantiles move with the program,
    not with the draw.
    """
    rng = np.random.default_rng([seed, 7])
    distinct = max(1, count // SENDS_PER_CIRCUIT)
    stream = _circuits(np.random.default_rng(POOL_SEED))
    pool = sorted(
        (next(stream) for _ in range(SAMPLE_STRIDE * distinct)), key=lambda c: (c[1], c[2])
    )
    middle = SAMPLE_STRIDE // 2
    closed = _traffic(rng, [c[0] for c in pool[middle - 1 :: SAMPLE_STRIDE]], count, 0)
    opened = _traffic(rng, [c[0] for c in pool[middle::SAMPLE_STRIDE]], count, distinct)
    for request, due in zip(opened, arrival_times(rng, count, seconds)):
        request.due_s = float(due)
    return closed, opened


def _traffic(rng: np.random.Generator, circuits: list, count: int, first: int) -> List[Request]:
    """``count`` requests over ``circuits`` in a seeded order; structures
    are numbered from ``first``."""
    distinct = len(circuits)
    formats = ["aiger" if k % 2 == 0 else "bench" for k in range(distinct)]
    repeats = np.full(distinct, count // distinct)
    repeats[rng.permutation(distinct)[: count % distinct]] += 1
    order = np.repeat(np.arange(distinct), repeats)
    rng.shuffle(order)
    requests = []
    for structure in order:
        aig, fmt = circuits[structure], formats[structure]
        text = aiger_text(aig, rng) if fmt == "aiger" else bench_text(aig, rng)
        requests.append(Request(first + int(structure), fmt, text, 0.0))
    return requests


# -- server lifecycle ------------------------------------------------------


def split_cpus() -> Tuple[Optional[set], Optional[set]]:
    """CPUs for the load generator and for the server.

    The generator gets one CPU of its own and the server all the others,
    so neither waits for the other to be scheduled.  With one CPU, or
    without CPU affinity, both are left where the OS puts them.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


def _start_server(
    checkpoint: Path, trace_path: Optional[Path], cpus: Optional[set]
) -> Tuple[subprocess.Popen, str, int]:
    serve_args = ["serve", "--checkpoint", str(checkpoint), "--port", "0"]
    if trace_path is None:
        cmd = [sys.executable, "-m", "repro", *serve_args]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"), str(trace_path), *serve_args]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=program_env(),
        stdout=subprocess.PIPE,
        text=True,
        # set before the server starts, so every thread it makes inherits it
        preexec_fn=None if cpus is None else (lambda: os.sched_setaffinity(0, cpus)),
    )
    lines = []
    for line in proc.stdout:  # the banner follows the checkpoint load
        lines.append(line)
        match = _BANNER.search(line)
        if match:
            host, port = match.group(1), int(match.group(2))
            _get(host, port, "/healthz")
            return proc, host, port
    proc.wait()
    raise RuntimeError(f"repro serve exited ({proc.returncode}) before listening: {''.join(lines)!r}")


def _get(host: str, port: int, path: str) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {resp.status}")
        return json.loads(body)
    finally:
        conn.close()


def _stop_server(state: State) -> None:
    proc = state.server
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def setup(seed: int, size: str, workdir: Path, seconds: float, trace: bool) -> State:
    from repro.models.deepgate import DeepGate
    from repro.nn.serialization import save_model_checkpoint

    cfg = SIZES[size]
    checkpoint = workdir / "serve_mixed.ckpt.npz"
    model = DeepGate(
        dim=int(cfg["dim"]),
        num_iterations=int(cfg["iterations"]),
        rng=np.random.default_rng(seed),
    )
    save_model_checkpoint(model, checkpoint)
    closed, requests = make_requests(seed, max(1, round(cfg["rate"] * seconds)), seconds)
    trace_path = workdir / "serve_trace.json" if trace else None
    generator_cpus, server_cpus = split_cpus()
    server, host, port = _start_server(checkpoint, trace_path, server_cpus)
    if generator_cpus is not None:
        # the connection threads start later and inherit it
        os.sched_setaffinity(0, generator_cpus)
    return State(cfg, checkpoint, closed, requests, server, host, port, trace_path)


# -- load generation -------------------------------------------------------


def _send_all(
    state: State, requests: List[Request], connections: int
) -> Tuple[List[Reply], float]:
    """Send every request at its due time over ``connections``
    connections; returns replies and t0.  A request due at 0 goes out as
    soon as a connection is free."""
    from repro.serve.protocol import QueryRequest

    bodies = [
        QueryRequest(circuit=r.text, fmt=r.fmt).to_json().encode("utf-8")
        for r in requests
    ]
    replies = [Reply() for _ in requests]
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.05

    def connect() -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(state.host, state.port, timeout=120)
        conn.connect()
        # headers and body go out as separate writes; without this,
        # Nagle's algorithm holds the body for the server's delayed ACK
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def worker() -> None:
        conn = connect()
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(requests):
                    return
                reply = replies[i]
                reply.taken = time.perf_counter()
                reply.due = t0 + requests[i].due_s
                wait = reply.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                reply.sent = time.perf_counter()
                try:
                    conn.request(
                        "POST", "/query", bodies[i], {"Content-Type": "application/json"}
                    )
                    resp = conn.getresponse()
                    body = resp.read()
                    reply.received = time.perf_counter()
                    reply.status = resp.status
                    reply.payload = json.loads(body)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    reply.received = time.perf_counter()
                    reply.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = connect()
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies, t0


def measure(state: State, seconds: float) -> Measurement:
    closed_replies, _ = _send_all(state, state.closed, 1)
    replies, t0 = _send_all(state, state.requests, CONNECTIONS)
    stats = _get(state.host, state.port, "/stats")
    return summarize(state.closed, closed_replies, state.requests, replies, t0, stats)


def summarize(
    closed: List[Request],
    closed_replies: List[Reply],
    requests: List[Request],
    replies: List[Reply],
    t0: float,
    stats: Dict[str, object],
) -> Measurement:
    """Operations are the closed-loop requests, timed from send to
    receive; the open-loop figures go to ``extra``."""
    served = [r for r in closed_replies if r.status == 200 and r.payload is not None]
    ok = [r for r in replies if r.status == 200 and r.payload is not None]
    end = max(r.received for r in replies)
    latency = [1000.0 * (r.received - r.due) for r in ok]
    cold = [1000.0 * (r.received - r.due) for r in ok if not r.payload["cache_hit"]]
    warm = [1000.0 * (r.received - r.due) for r in ok if r.payload["cache_hit"]]
    late = [1000.0 * (r.sent - r.due) for r in replies]
    slip = [1000.0 * (r.sent - max(r.due, r.taken)) for r in replies]
    # back to back, where the server's replies wait for delayed ACKs
    overhead = [1000.0 * (r.received - r.sent) - r.payload["elapsed_ms"] for r in served]
    out = Measurement(
        op_ms=[1000.0 * (r.received - r.sent) for r in served],
        nodes=sum(int(r.payload["num_nodes"]) for r in served),
        elapsed_s=(
            max(r.received for r in served) - min(r.sent for r in served) if served else 0.0
        ),
        attempted=len(closed_replies) + len(replies),
        extra={
            "requests": len(closed_replies) + len(replies),
            "serve.p50_ms": median(latency) if latency else 0.0,
            "serve.p90_ms": percentile(latency, 90),
            "serve.cold_p50_ms": median(cold) if cold else 0.0,
            "serve.warm_p50_ms": median(warm) if warm else 0.0,
            "serve.completed_qps": len(ok) / (end - t0),
            "serve.cache_hit_ratio": len(warm) / len(ok) if ok else 0.0,
            "serve.http_overhead_ms": median(overhead) if overhead else 0.0,
            "serve.rejected": float(stats.get("rejected", 0)),
            "serve.send_late_p90_ms": percentile(late, 90),
            "send_slip_p90_ms": percentile(slip, 90),
            "distinct_circuits": len({r.structure for r in requests}),
        },
    )
    for i, (req, r) in enumerate(zip(closed + requests, closed_replies + replies)):
        if r.status != 200 or r.payload is None:
            detail = r.error or (r.payload or {}).get("detail", "")
            out.fail(f"request {i} ({req.fmt}): HTTP {r.status} {detail}")
    if out.extra["send_slip_p90_ms"] > MAX_SEND_SLIP_P90_MS:
        out.fail(
            f"load generator fell behind: p90 send slip "
            f"{out.extra['send_slip_p90_ms']:.1f} ms > {MAX_SEND_SLIP_P90_MS} ms",
            ops=0,
        )
    out.extra["replies"] = closed_replies + replies
    return out


# -- output check ----------------------------------------------------------


def reference_predictions(model, text: str, fmt: str) -> Tuple[str, np.ndarray]:
    """Structural hash and direct ``model.forward`` of the canonical AIG."""
    from repro.aig import aiger, bench
    from repro.graphdata.dataset import PreparedBatch
    from repro.graphdata.features import inference_graph
    from repro.nn.tensor import no_grad
    from repro.synth import (
        has_constant_outputs,
        netlist_to_aig,
        strash,
        strip_constant_outputs,
        structural_hash,
    )

    raw = aiger.loads(text) if fmt == "aiger" else netlist_to_aig(bench.loads(text))
    canonical = strash(raw)
    if has_constant_outputs(canonical):
        canonical = strip_constant_outputs(canonical)
    with no_grad():
        pred = model.forward(PreparedBatch(inference_graph(canonical)))
    return structural_hash(canonical, canonicalize=False), np.asarray(pred.data, dtype=np.float32)


def check_replies(model, requests: List[Request], replies: List[Reply], out: Measurement) -> None:
    """Each distinct structure's responses must equal, bitwise, a direct
    forward of the same checkpoint on its canonical AIG."""
    expected: Dict[str, np.ndarray] = {}
    for i, (req, reply) in enumerate(zip(requests, replies)):
        if reply.status != 200 or reply.payload is None:
            continue
        key = reply.payload["structural_hash"]
        if key not in expected:
            ref_key, expected[key] = reference_predictions(model, req.text, req.fmt)
            if ref_key != key:
                out.fail(f"request {i}: structural hash {key[:12]} != reference {ref_key[:12]}")
                continue
        got = np.asarray(reply.payload["predictions"], dtype=np.float32)
        if got.shape != expected[key].shape or got.tobytes() != expected[key].tobytes():
            out.fail(f"request {i}: predictions differ from a direct forward")


def check(state: State, out: Measurement) -> None:
    from repro.nn.serialization import load_model_checkpoint

    model, _ = load_model_checkpoint(state.checkpoint)
    check_replies(model, state.closed + state.requests, out.extra.pop("replies"), out)


def teardown(state: State) -> None:
    _stop_server(state)
    if state.trace_path is not None and state.trace_path.is_file():
        state.trace = json.loads(state.trace_path.read_text())
        state.trace_path.unlink()
    state.checkpoint.unlink(missing_ok=True)
