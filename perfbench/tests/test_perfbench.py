"""The benchmark's own tests: tiny-size smoke runs and output checks.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import huge_stream  # noqa: E402
import run  # noqa: E402
import serve_mixed  # noqa: E402
import tracing  # noqa: E402
import train_mixed  # noqa: E402

harness.import_program()

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = harness.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    report = json.loads(lines[-2][len("perfbench report "):])
    assert report["env"]["seed"] == 3 and report["env"]["nproc"] >= 1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train_mixed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _replies_for(model, requests):
    """Replies a correct server would send for ``requests``."""
    replies = []
    for req in requests:
        key, pred = serve_mixed.reference_predictions(model, req.text, req.fmt)
        payload = {"structural_hash": key, "predictions": [float(p) for p in pred]}
        replies.append(serve_mixed.Reply(status=200, payload=payload))
    return replies


def test_serve_check_catches_a_corrupted_prediction():
    from repro.models.deepgate import DeepGate

    model = DeepGate(dim=8, num_iterations=2, rng=np.random.default_rng(0))
    closed, opened = serve_mixed.make_requests(seed=5, count=6, seconds=1.0)
    requests = closed + opened
    replies = _replies_for(model, requests)
    clean = harness.Measurement(op_ms=[], nodes=0, elapsed_s=1.0, attempted=len(requests))
    serve_mixed.check_replies(model, requests, replies, clean)
    assert clean.failed == 0 and not clean.failures

    preds = replies[-1].payload["predictions"]
    preds[0] = float(np.nextafter(np.float32(preds[0]), np.float32(2.0)))
    corrupted = harness.Measurement(op_ms=[], nodes=0, elapsed_s=1.0, attempted=len(requests))
    serve_mixed.check_replies(model, requests, replies, corrupted)
    assert corrupted.failed == 1
    assert "differ" in corrupted.failures[0]


def test_serve_repeats_hit_the_same_structure_under_new_names():
    from repro.models.deepgate import DeepGate

    closed, opened = serve_mixed.make_requests(seed=2, count=10, seconds=1.0)
    requests = closed + opened
    model = DeepGate(dim=4, num_iterations=1, rng=np.random.default_rng(0))
    keys = {}
    for req in requests:
        key, _ = serve_mixed.reference_predictions(model, req.text, req.fmt)
        keys.setdefault(req.structure, set()).add(key)
    assert all(len(k) == 1 for k in keys.values())
    texts = {}
    for req in requests:
        texts.setdefault(req.structure, set()).add(req.text)
    repeated = [s for s in texts if sum(r.structure == s for r in requests) > 1]
    assert repeated and all(len(texts[s]) > 1 for s in repeated)


def test_serve_seeds_send_the_same_mix_in_another_order():
    def mix(requests):
        return sorted((r.structure, r.fmt) for r in requests)

    closed_a, a = serve_mixed.make_requests(seed=3, count=12, seconds=1.0)
    closed_b, b = serve_mixed.make_requests(seed=4, count=12, seconds=1.0)
    assert mix(a) == mix(b) and mix(closed_a) == mix(closed_b)
    assert [r.structure for r in a] != [r.structure for r in b]
    assert {fmt for _, fmt in mix(a)} == {"aiger", "bench"}
    # the phases send circuits of their own, each new once
    assert not {s for s, _ in mix(a)} & {s for s, _ in mix(closed_a)}
    assert all(r.due_s == 0.0 for r in closed_a)
    gaps_a = np.diff([0.0] + [r.due_s for r in a])
    gaps_b = np.diff([0.0] + [r.due_s for r in b])
    assert np.allclose(np.sort(gaps_a), np.sort(gaps_b))
    assert not np.allclose(gaps_a, gaps_b)
    assert a[-1].due_s == pytest.approx(1.0) and min(gaps_a) > 0


def test_serve_load_generator_and_server_get_disjoint_cpus():
    generator, server = serve_mixed.split_cpus()
    if generator is None:
        assert server is None
    else:
        assert len(generator) == 1 and server and not generator & server


def test_serve_rejects_a_slipping_generator():
    requests = [serve_mixed.Request(0, "aiger", "x", 0.0)]
    reply = serve_mixed.Reply(
        status=200,
        payload={"cache_hit": False, "num_nodes": 1, "elapsed_ms": 1.0},
        due=0.0, taken=0.0, sent=0.2, received=0.3,
    )
    out = serve_mixed.summarize([], [], requests, [reply], 0.0, {})
    assert out.failures and "fell behind" in out.failures[0]


def test_huge_check_catches_a_corrupted_prediction():
    pred = np.linspace(0, 1, 50, dtype=np.float32)
    clean = harness.Measurement(op_ms=[], nodes=0, elapsed_s=1.0, attempted=1)
    huge_stream.compare_predictions(pred, pred.copy(), clean)
    assert not clean.failures
    bad = pred.copy()
    bad[7] = np.nextafter(bad[7], np.float32(2.0))
    corrupted = harness.Measurement(op_ms=[], nodes=0, elapsed_s=1.0, attempted=1)
    huge_stream.compare_predictions(pred, bad, corrupted)
    assert corrupted.failed == 1


def test_train_checks_catch_bad_losses(tmp_path):
    out = harness.Measurement(op_ms=[], nodes=0, elapsed_s=1.0, attempted=3)
    train_mixed.check_losses([0.2, float("nan"), 0.1], out)
    assert out.failed == 1

    state = train_mixed.setup(1, "tiny", tmp_path, 1.0, False)
    expected = train_mixed.reference_first_loss(state)
    good = harness.Measurement(op_ms=[], nodes=0, elapsed_s=1.0, attempted=1, extra={"losses": [expected]})
    train_mixed.check(state, good)
    assert not good.failures
    wrong = harness.Measurement(op_ms=[], nodes=0, elapsed_s=1.0, attempted=1,
                                extra={"losses": [expected * 1.01]})
    train_mixed.check(state, wrong)
    assert wrong.failed == 1


def test_tracer_keeps_self_time():
    import types

    mod = types.SimpleNamespace()

    def inner():
        return 1

    def outer():
        return mod.inner() + 1

    mod.inner, mod.outer = inner, outer
    tracer = tracing.Tracer()
    tracer.span_patch(mod, "inner", "inner")
    tracer.span_patch(mod, "outer", "outer")
    assert mod.outer() == 2
    assert tracer.calls == {"inner": 1, "outer": 1}
    nested_out = tracer.total_s["outer"] - tracer.total_s["inner"]
    assert math.isclose(tracer.self_s["outer"], nested_out, abs_tol=1e-12)
    assert tracer.self_s["inner"] == tracer.total_s["inner"]
