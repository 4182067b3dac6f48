"""The native whole-pass attention kernel (repro.nn.native).

* forward outputs match the numpy reference to a float32 tolerance, and
  gradients match it and a finite-difference probe, across the
  fixed_x/init_only input modes with and without skip-edge attributes;
* windowed forwards are bitwise equal to the full pass at every window
  budget, and spill/reload keeps the gradients;
* a hidden compiler falls back to numpy, logged once;
* concurrent first builds leave one valid cache entry;
* bad arrays raise :class:`NativeKernelError` before any call;
* loading the library leaves the process's floating-point mode alone.
"""

import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datagen.generators import parity, ripple_adder
from repro.graphdata import from_aig, prepare
from repro.models import DeepGate
from repro.models.propagation import (
    AggregateCombineStep,
    get_window_stats,
    reset_window_stats,
    run_pass,
    use_window_budget,
)
from repro.nn import Tensor, backends, native, no_grad
from repro.nn.backends import get_backend, use_backend
from repro.nn.native import NativeKernelError
from repro.synth import synthesize

SRC = Path(__file__).resolve().parents[2] / "src"

#: float32 tolerance for native vs numpy: both follow the same formulas,
#: so they differ by a few ulp per pass (exp polynomial, dot-product and
#: GEMV summation order)
RTOL, ATOL = 1e-5, 1e-6

MODES = [
    (mode, skip) for mode in ("fixed_x", "init_only") for skip in (True, False)
]
MODE_IDS = [f"{m}-{'skip' if s else 'noskip'}" for m, s in MODES]


@pytest.fixture
def kernel():
    lib = native.library()
    if lib is None:
        pytest.skip(f"native kernel unavailable: {native.load_error()}")
    return lib


def make_batch():
    g1 = from_aig(synthesize(ripple_adder(6)), num_patterns=256, seed=0)
    g2 = from_aig(synthesize(parity(5)), num_patterns=256, seed=1)
    return prepare([g1, g2])


def make_model(mode="fixed_x", skip=True, dim=8):
    return DeepGate(
        dim=dim, num_iterations=2, rng=np.random.default_rng(0),
        compiled=True, input_mode=mode, use_skip=skip,
    )


def run(model, batch, backend, budget=None, weights=None):
    """Predictions and parameter gradients of a weighted-sum loss."""
    for p in model.parameters():
        p.grad = None
    with use_backend(backend), use_window_budget(budget):
        out = model(batch)
        w = weights if weights is not None else Tensor(
            np.linspace(-1.0, 1.0, batch.num_nodes).astype(np.float32)
        )
        (out * w).sum().backward()
    grads = {
        name: np.array(p.grad)
        for name, p in model.named_parameters()
        if p.grad is not None
    }
    return out.data, grads


@pytest.mark.parametrize("mode,skip", MODES, ids=MODE_IDS)
class TestMatchesNumpy:
    def test_forward_within_float32_tolerance(self, kernel, mode, skip):
        batch = make_batch()
        model = make_model(mode, skip)
        with no_grad():
            with use_backend("numpy"):
                expected = model(batch).data
            with use_backend("native"):
                actual = model(batch).data
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)

    def test_gradients_match_numpy(self, kernel, mode, skip):
        batch = make_batch()
        model = make_model(mode, skip)
        _, expected = run(model, batch, "numpy")
        _, actual = run(model, batch, "native")
        assert actual.keys() == expected.keys()
        for name in expected:
            np.testing.assert_allclose(
                actual[name], expected[name], rtol=1e-4, atol=1e-5,
                err_msg=name,
            )

    @pytest.mark.parametrize("budget", [None, 4], ids=["full", "windowed"])
    def test_finite_difference(self, kernel, mode, skip, budget):
        g = from_aig(synthesize(ripple_adder(3)), num_patterns=128, seed=0)
        batch = prepare([g])
        model = make_model(mode, skip, dim=6)
        weights = Tensor(
            np.linspace(0.2, 1.0, batch.num_nodes).astype(np.float32)
        )
        _, grads = run(model, batch, "native", budget, weights)

        def loss_value() -> float:
            with use_backend("native"), use_window_budget(budget), no_grad():
                return float((model(batch).data * weights.data).sum())

        rng = np.random.default_rng(7)
        eps = 2e-3
        for name, p in model.named_parameters():
            flat = p.data.reshape(-1)
            for idx in rng.choice(flat.size, min(3, flat.size), False):
                orig = flat[idx]
                flat[idx] = orig + eps
                fp = loss_value()
                flat[idx] = orig - eps
                fm = loss_value()
                flat[idx] = orig
                numeric = (fp - fm) / (2.0 * eps)
                np.testing.assert_allclose(
                    grads[name].reshape(-1)[idx], numeric,
                    atol=2e-2, rtol=8e-2, err_msg=f"{name}[{idx}]",
                )


class TestWindowed:
    @pytest.mark.parametrize("budget", [1, 7, 64, 10**9])
    def test_forward_bits_match_full(self, kernel, budget):
        batch = make_batch()
        model = make_model()
        with use_backend("native"), no_grad():
            expected = model(batch).data
            with use_window_budget(budget):
                actual = model(batch).data
        assert actual.tobytes() == expected.tobytes()

    def test_spill_reload_keeps_gradients(self, kernel, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_STORE_BUDGET_MB", "0.0003")
        batch = make_batch()
        model = make_model()
        out_full, g_full = run(model, batch, "native")
        reset_window_stats()
        out_win, g_win = run(model, batch, "native", budget=7)
        stats = get_window_stats()
        assert stats["spills"] > 0 and stats["reloads"] > 0
        assert out_win.tobytes() == out_full.tobytes()
        for name in g_full:
            np.testing.assert_allclose(
                g_win[name], g_full[name], rtol=2e-4, atol=2e-5,
                err_msg=name,
            )
        assert list(tmp_path.iterdir()) == []


class TestFloatingPoint:
    def test_load_keeps_subnormals(self, kernel):
        # a library built with -ffast-math would have switched the process
        # to flush-to-zero when it was loaded
        tiny = np.array([1e-39], np.float32) * np.float32(0.5)
        assert tiny[0] != 0.0

    def test_non_finite_state_propagates_like_numpy(self, kernel):
        batch = make_batch()
        model = make_model()
        h0 = model.initial_state(batch).data.copy()
        h0[3, 0] = np.nan
        h0[5, 1] = np.inf
        fwd = batch.compiled_forward_schedule(model.use_skip, model.pe_levels)
        step = AggregateCombineStep(
            model.fwd_aggregate, model.fwd_combine, fixed_x=True,
            use_edge_attr=True,
        )
        with no_grad(), np.errstate(invalid="ignore", over="ignore"):
            with use_backend("numpy"):
                expected = run_pass(Tensor(h0), fwd, step).data
            with use_backend("native"):
                actual = run_pass(Tensor(h0), fwd, step).data
        np.testing.assert_array_equal(np.isnan(actual), np.isnan(expected))
        finite = np.isfinite(expected)
        np.testing.assert_array_equal(np.isfinite(actual), finite)
        np.testing.assert_allclose(
            actual[finite], expected[finite], rtol=RTOL, atol=ATOL
        )


class TestArgumentChecks:
    def _args(self, batch, model):
        fwd = batch.compiled_forward_schedule(model.use_skip, model.pe_levels)
        plan = fwd.native()
        n, d = batch.num_nodes, model.dim
        n_w, n_e = len(plan.dst), len(plan.src)
        f32 = np.float32
        return dict(
            plan=plan,
            work=np.zeros((n, d), f32),
            qs=np.zeros(n_w, f32),
            wk=np.zeros(d, f32),
            q=np.zeros((n_w, d), f32),
            gh=np.zeros((n_w, 3 * d), f32),
            gi_static=None,
            b_ih=np.zeros(3 * d, f32),
            w_ih=np.zeros((d, 3 * d), f32),
            alpha=np.zeros(n_e, f32),
        )

    def test_valid_call_runs(self, kernel):
        batch = make_batch()
        args = self._args(batch, make_model(skip=False))
        args["q"][:] = 1.0
        kernel.forward(**args)
        # zero weights and state: r = z = 0.5 and n = 0, so each written
        # row becomes z * h = 0.5 and every other row stays 0
        written = args["plan"].dst
        assert (args["work"][written] == 0.5).all()
        args["work"][written] = 0.0
        assert not args["work"].any()

    def test_wrong_dtype_is_named_error(self, kernel):
        batch = make_batch()
        args = self._args(batch, make_model(skip=False))
        args["work"] = args["work"].astype(np.float64)
        with pytest.raises(NativeKernelError, match="work: dtype float64"):
            kernel.forward(**args)

    def test_non_contiguous_is_named_error(self, kernel):
        batch = make_batch()
        args = self._args(batch, make_model(skip=False))
        args["q"] = np.zeros((args["q"].shape[1], len(args["q"])), np.float32).T
        with pytest.raises(NativeKernelError, match="q: .*not C-contiguous"):
            kernel.forward(**args)

    def test_wrong_shape_is_named_error(self, kernel):
        batch = make_batch()
        args = self._args(batch, make_model(skip=False))
        args["gh"] = args["gh"][:, :5].copy()
        with pytest.raises(NativeKernelError, match="gh: shape"):
            kernel.forward(**args)

    def test_out_of_range_rows_are_named_error(self, kernel):
        batch = make_batch()
        args = self._args(batch, make_model(skip=False))
        args["work"] = args["work"][:3].copy()
        with pytest.raises(NativeKernelError, match="row indices"):
            kernel.forward(**args)


class TestBuildAndFallback:
    @pytest.fixture
    def fresh(self, monkeypatch):
        """Forget the loaded library and the resolved backend, and put
        both back afterwards."""
        previous = backends._active
        monkeypatch.delenv(backends.BACKEND_ENV_VAR, raising=False)
        native._reset()
        backends._active = None
        yield
        native._reset()
        backends._active = previous

    def test_hidden_compiler_falls_back_to_numpy(
        self, fresh, monkeypatch, caplog
    ):
        monkeypatch.setattr(native, "_compiler", lambda: None)
        with caplog.at_level(logging.WARNING, logger="repro.nn.native"):
            assert get_backend().name == "numpy"
            assert native.library() is None
            assert native.library() is None
        assert "gcc" in native.load_error()
        warnings = [r for r in caplog.records if r.name == "repro.nn.native"]
        assert len(warnings) == 1
        # the explicitly selected native backend still runs, on numpy hooks
        batch = make_batch()
        model = make_model()
        with no_grad():
            with use_backend("numpy"):
                expected = model(batch).data
            with use_backend("native"):
                actual = model(batch).data
        assert actual.tobytes() == expected.tobytes()

    def test_unusable_cache_dir_falls_back(self, fresh, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setattr(native, "cache_dir", lambda: blocker / "native")
        assert get_backend().name == "numpy"
        assert native.library() is None
        assert native.load_error()

    def test_concurrent_builds_leave_one_valid_entry(self, tmp_path):
        if native._compiler() is None:
            pytest.skip("no C compiler")
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        code = (
            "from repro.nn import native\n"
            "k = native.library()\n"
            "assert k is not None, native.load_error()\n"
            "print(k.path)\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outputs = [p.communicate(timeout=300) for p in procs]
        for p, (out, err) in zip(procs, outputs):
            assert p.returncode == 0, err
        paths = {out.strip() for out, _ in outputs}
        assert len(paths) == 1
        entries = list((tmp_path / "repro" / "native").iterdir())
        assert [e.name for e in entries] == [Path(paths.pop()).name]
        # and the surviving entry loads in a third process
        check = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert check.returncode == 0, check.stderr
