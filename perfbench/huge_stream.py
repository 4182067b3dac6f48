"""huge_stream: windowed training passes over one 10^5-gate circuit.

The opposite regime to train_mixed.  The circuit comes from
``datagen.generators.huge_circuit`` and runs under
``use_window_budget(8192)``.  Level groups are wide, so the cost is
GEMM-bound, and the ``StateStore`` frontier and peak RSS are what
matter.  The model is the ``repro bench`` huge suite's DeepGate
(attention, dim 32, T=1).  Set-up builds the windowed schedules once;
the timed window repeats forward + L1 loss + backward + clip + Adam
step.  One operation is one such pass.

The output check runs once, after the timed window.  It checks that
forward predictions at the workload budget are byte-identical to those
at a second budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

import numpy as np

from harness import Measurement

#: the program runs in this process: RSS and spans are read here
PROGRAM_PROCESS = "self"

SIZES: Dict[str, Dict[str, int]] = {
    "full": {"gates": 100_000, "budget": 8192, "check_budget": 3000, "dim": 32, "iterations": 1},
    "tiny": {"gates": 3_000, "budget": 512, "check_budget": 200, "dim": 8, "iterations": 1},
}


@dataclass
class State:
    size: Dict[str, int]
    batch: object
    model: object
    optimizer: object


def setup(seed: int, size: str, workdir: Path, seconds: float, trace: bool) -> State:
    from repro.datagen.generators import huge_circuit
    from repro.graphdata.dataset import PreparedBatch
    from repro.models.deepgate import DeepGate
    from repro.nn.optim import Adam

    cfg = SIZES[size]
    batch = PreparedBatch(huge_circuit(cfg["gates"], seed=seed))
    model = DeepGate(
        dim=cfg["dim"],
        num_iterations=cfg["iterations"],
        rng=np.random.default_rng(seed),
    )
    # compile once: the windowed plans are cached on the batch
    batch.windowed_forward_schedule(cfg["budget"], model.use_skip, model.pe_levels)
    batch.windowed_reverse_schedule(cfg["budget"])
    return State(cfg, batch, model, Adam(model.parameters(), lr=1e-4))


def measure(state: State, seconds: float) -> Measurement:
    from repro.models.propagation import use_window_budget
    from repro.nn import optim
    from repro.nn.functional import l1_loss

    batch, model, optimizer = state.batch, state.model, state.optimizer
    op_ms = []
    failed = []
    with use_window_budget(state.size["budget"]):
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            optimizer.zero_grad()
            loss = l1_loss(model(batch), batch.labels)
            loss.backward()
            optim.clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()
            value = float(loss.item())
            t1 = time.perf_counter()
            op_ms.append(1000.0 * (t1 - t0))
            if not math.isfinite(value):
                failed.append(len(op_ms) - 1)
            if t1 - start >= seconds:
                break
        elapsed = time.perf_counter() - start
    out = Measurement(
        op_ms=op_ms,
        nodes=len(op_ms) * batch.num_nodes,
        elapsed_s=elapsed,
        attempted=len(op_ms),
        extra={"circuit_nodes": batch.num_nodes, "window_budget": state.size["budget"]},
    )
    if failed:
        out.fail(f"non-finite loss at passes {failed[:5]}", ops=len(failed))
    return out


def predictions(state: State, budget: int) -> np.ndarray:
    from repro.models.propagation import use_window_budget
    from repro.nn.tensor import no_grad

    with use_window_budget(budget), no_grad():
        return np.ascontiguousarray(state.model(state.batch).data)


def compare_predictions(a: np.ndarray, b: np.ndarray, out: Measurement) -> None:
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        out.fail("forward predictions differ between window budgets")


def check(state: State, out: Measurement) -> None:
    compare_predictions(
        predictions(state, state.size["budget"]),
        predictions(state, state.size["check_budget"]),
        out,
    )


def teardown(state: State) -> None:
    pass
