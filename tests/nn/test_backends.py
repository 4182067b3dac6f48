"""Tests for the pluggable GEMM backend seam (repro.nn.backends)."""

import numpy as np
import pytest

from repro.nn import backends, native
from repro.nn.backends import (
    BACKEND_ENV_VAR,
    KernelBackend,
    KernelBackendError,
    NumpyBackend,
    ThreadedBackend,
    available_backends,
    get_backend,
    matmul,
    set_backend,
    use_backend,
)


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = backends._active
    yield
    backends._active = previous


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert {"native", "numpy", "threaded"} <= set(names)

    def test_default_is_native_when_it_loads_else_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        backends._active = None
        expected = "native" if native.library() is not None else "numpy"
        assert get_backend().name == expected

    def test_env_forces_numpy_reference(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        backends._active = None
        assert get_backend().name == "numpy"
        assert get_backend().pass_kernel() is None

    def test_native_matmul_is_numpy_matmul(self):
        assert backends._REGISTRY["native"].matmul is np.matmul

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "threaded")
        backends._active = None
        assert get_backend().name == "threaded"

    def test_unknown_env_backend_raises_named_error(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "cuda")
        backends._active = None
        with pytest.raises(KernelBackendError) as err:
            get_backend()
        message = str(err.value)
        assert "cuda" in message
        for name in available_backends():
            assert name in message

    def test_unknown_set_backend_raises(self):
        with pytest.raises(KernelBackendError, match="no-such-backend"):
            set_backend("no-such-backend")

    def test_use_backend_restores_on_error(self):
        set_backend("numpy")
        with pytest.raises(RuntimeError):
            with use_backend("threaded"):
                assert get_backend().name == "threaded"
                raise RuntimeError("boom")
        assert get_backend().name == "numpy"

    def test_register_custom_backend(self):
        class Doubling(KernelBackend):
            name = "doubling-test"

            def matmul(self, a, b):
                return 2.0 * np.matmul(a, b)

        backends.register_backend(Doubling())
        try:
            assert "doubling-test" in available_backends()
            with use_backend("doubling-test"):
                out = matmul(np.eye(2, dtype=np.float32),
                             np.eye(2, dtype=np.float32))
            np.testing.assert_allclose(out, 2.0 * np.eye(2))
        finally:
            backends._REGISTRY.pop("doubling-test", None)


class TestThreadedMatchesNumpy:
    SHAPES = [
        ((3, 4), (4, 5)),          # small: below the split threshold
        ((5000, 8), (8, 16)),      # tall: row-chunked across the pool
        ((16,), (16, 4)),          # vector @ matrix
        ((2, 5, 7), (7, 3)),       # stacked 3-D falls through
    ]

    @pytest.mark.parametrize("sa,sb", SHAPES, ids=[str(s) for s, _ in SHAPES])
    def test_matches_numpy(self, sa, sb):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(sa).astype(np.float32)
        b = rng.standard_normal(sb).astype(np.float32)
        # force the pool path even on single-core machines
        threaded = ThreadedBackend(num_threads=3, min_rows=64)
        np.testing.assert_allclose(
            threaded.matmul(a, b), NumpyBackend().matmul(a, b),
            rtol=1e-5, atol=1e-6,
        )

    def test_transposed_view_input(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((32, 4096)).astype(np.float32)
        b = rng.standard_normal((32, 8)).astype(np.float32)
        threaded = ThreadedBackend(num_threads=2, min_rows=128)
        np.testing.assert_allclose(
            threaded.matmul(a.T, b), np.matmul(a.T, b),
            rtol=1e-5, atol=1e-5,
        )

    def test_numpy_backend_byte_deterministic(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((64, 32)).astype(np.float32)
        b = rng.standard_normal((32, 48)).astype(np.float32)
        with use_backend("numpy"):
            first = matmul(a, b)
            second = matmul(a, b)
        assert first.tobytes() == second.tobytes()
