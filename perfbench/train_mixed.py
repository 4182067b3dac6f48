"""train_mixed: ``Trainer.fit`` on a seeded mix of Table-I-style circuits.

The paper's training traffic.  The dataset is drawn from all four suite
pools of ``datagen.suites.build_all_suites`` (EPFL, ITC99, IWLS,
OpenCores) and trained with the paper's model (DeepGate, attention, skip
edges, dim 64, T=10).  Training uses Adam, L1 loss, gradient clipping, a
per-epoch reshuffle, the prefetching ``DataLoader`` and a ``Checkpoint``
callback every epoch.  Reshuffling builds a fresh ``PreparedBatch`` each
step, so batch merge and schedule compile are paid on every step.

The circuits are a fixed set, like a benchmark suite, drawn at
``POOL_SEED``.  The seed sets the weight init and the per-epoch
shuffles, so it decides which circuits share a batch.  A seed that also
picked the circuits moved ``nodes_per_s`` with the nodes it happened to
draw (see README.md).  The timed window runs whole epochs until
``seconds`` have passed.  One
operation is one epoch, including its checkpoint save; ``attempted``
counts optimizer steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

from harness import Measurement

#: the program runs in this process: RSS and spans are read here
PROGRAM_PROCESS = "self"

#: workload sizes; ``tiny`` is for the benchmark's own smoke tests
SIZES: Dict[str, Dict[str, int]] = {
    "full": {"per_suite": 20, "dim": 64, "iterations": 10, "batch_size": 16},
    "tiny": {"per_suite": 2, "dim": 8, "iterations": 2, "batch_size": 4},
}
#: the dataset's fixed seed
POOL_SEED = 2024
#: label-simulation patterns per circuit (labels only feed the loss)
NUM_PATTERNS = 2048
#: relative tolerance of the first step's loss against the reference model
LOSS_RTOL = 1e-4


@dataclass
class State:
    seed: int
    size: Dict[str, int]
    dataset: object
    trainer: object
    initial_state: Dict[str, np.ndarray]
    checkpoint_path: Path
    nodes: int


def setup(seed: int, size: str, workdir: Path, seconds: float, trace: bool) -> State:
    from repro.datagen.suites import SUITE_NAMES, build_all_suites
    from repro.graphdata.dataset import CircuitDataset
    from repro.models.deepgate import DeepGate
    from repro.train.trainer import TrainConfig, Trainer

    cfg = SIZES[size]
    suites = build_all_suites(
        {name: cfg["per_suite"] for name in SUITE_NAMES},
        seed=POOL_SEED,
        num_patterns=NUM_PATTERNS,
    )
    graphs = [g for ds in suites.values() for g in ds.graphs]
    dataset = CircuitDataset(graphs, name="train_mixed")
    model = DeepGate(
        dim=cfg["dim"],
        num_iterations=cfg["iterations"],
        rng=np.random.default_rng(seed),
    )
    trainer = Trainer(
        model,
        TrainConfig(epochs=10_000, batch_size=cfg["batch_size"], lr=1e-4, seed=seed),
    )
    return State(
        seed=seed,
        size=cfg,
        dataset=dataset,
        trainer=trainer,
        initial_state={k: v.copy() for k, v in model.state_dict().items()},
        checkpoint_path=workdir / "train_mixed.ckpt.npz",
        nodes=sum(g.num_nodes for g in graphs),
    )


def measure(state: State, seconds: float) -> Measurement:
    import repro.train.trainer as trainer_mod
    from repro.train.callbacks import Callback, Checkpoint

    trainer = state.trainer
    losses: List[float] = []
    epoch_ends: List[float] = []
    l1_loss = trainer_mod.l1_loss

    def recording_loss(pred, target):
        loss = l1_loss(pred, target)
        losses.append(float(loss.item()))
        return loss

    class EpochClock(Callback):
        """Runs after the Checkpoint callback, so an epoch includes its save."""

        def on_epoch_end(self, trainer, epoch, train_loss, eval_error):
            epoch_ends.append(time.perf_counter())
            if epoch_ends[-1] - start >= seconds:
                trainer.request_stop()

    trainer_mod.l1_loss = recording_loss
    try:
        start = time.perf_counter()
        trainer.fit(
            state.dataset,
            callbacks=[Checkpoint(state.checkpoint_path, every=1), EpochClock()],
        )
        elapsed = time.perf_counter() - start
    finally:
        trainer_mod.l1_loss = l1_loss
    out = Measurement(
        op_ms=[1000.0 * (b - a) for a, b in zip([start] + epoch_ends, epoch_ends)],
        nodes=len(epoch_ends) * state.nodes,
        elapsed_s=elapsed,
        attempted=len(losses),
        extra={"epochs": len(epoch_ends), "dataset_nodes": state.nodes},
    )
    check_losses(losses, out)
    out.extra["losses"] = losses
    return out


def check_losses(losses: List[float], out: Measurement) -> None:
    """Every step's loss must be finite."""
    bad = [i for i, loss in enumerate(losses) if not math.isfinite(loss)]
    if bad:
        out.fail(f"non-finite loss at steps {bad[:5]}", ops=len(bad))


def reference_first_loss(state: State) -> float:
    """The first step's loss under the composite reference model."""
    from repro.graphdata.loader import DataLoader
    from repro.models.deepgate import DeepGate
    from repro.nn.functional import l1_loss
    from repro.nn.tensor import no_grad

    cfg = state.size
    reference = DeepGate(
        dim=cfg["dim"],
        num_iterations=cfg["iterations"],
        rng=np.random.default_rng(state.seed),
        compiled=False,
    )
    reference.load_state_dict(state.initial_state)
    tc = state.trainer.config
    loader = DataLoader(state.dataset, tc.batch_size, shuffle=tc.shuffle, seed=tc.seed, prefetch=0)
    first = next(iter(loader.epoch(0)))
    with no_grad():
        return float(l1_loss(reference(first), first.labels).item())


def check(state: State, out: Measurement) -> None:
    """The first step's loss must match the reference model's."""
    losses = out.extra.pop("losses")
    if not losses:
        out.fail("no training step ran", ops=0)
        return
    expected = reference_first_loss(state)
    if not math.isclose(losses[0], expected, rel_tol=LOSS_RTOL):
        out.fail(f"first-step loss {losses[0]!r} != reference {expected!r}")


def teardown(state: State) -> None:
    state.checkpoint_path.unlink(missing_ok=True)
