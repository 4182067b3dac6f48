"""Pluggable kernel backends: the kernel layer's matmul and pass seam.

Every matrix multiply in the compiled fast path — the closed-form kernels
of :mod:`repro.nn.kernels`, the whole-pass runner's batched input
transforms, and the fused regressor epilogue — goes through
:func:`matmul` instead of calling ``np.matmul`` directly.  A backend may
also supply a whole-pass kernel (:meth:`KernelBackend.pass_kernel`),
which the propagation runner uses in place of its per-group numpy hooks.
Which backend runs is a per-process choice:

* ``native`` (the default whenever its library loads) — ``np.matmul``
  for GEMMs, plus the C whole-pass attention kernel of
  :mod:`repro.nn.native`, built with ``gcc`` on first use.  When it
  cannot be built or loaded the default falls back to ``numpy``.
* ``numpy`` — plain ``np.matmul`` and the numpy pass hooks.  This is
  the canonical reference implementation: byte-deterministic run to
  run, and the oracle every other backend must match.
* ``threaded`` — splits tall 2-D products row-wise across a small thread
  pool.  numpy releases the GIL inside BLAS, so chunks genuinely overlap;
  small products (below ``min_rows``) fall through to ``np.matmul``
  unchanged, which keeps deep-circuit passes (many tiny GEMMs) on the
  zero-overhead path and only parallelises wide batches.

Selection:

* environment — ``REPRO_KERNEL_BACKEND=numpy`` (or any registered
  name) before the process starts (read lazily on first use);
* code/CLI — :func:`set_backend` (``repro bench run --backend`` /
  ``repro serve --backend`` call it during startup);
* tests — the :func:`use_backend` context manager restores the previous
  backend on exit.

An unknown name raises :class:`KernelBackendError` listing the
registered backends.  New backends plug in via :func:`register_backend`.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Dict, Optional, Tuple, Union

import numpy as np

__all__ = [
    "BACKEND_ENV_VAR",
    "KernelBackend",
    "KernelBackendError",
    "NativeBackend",
    "NumpyBackend",
    "ThreadedBackend",
    "available_backends",
    "register_backend",
    "get_backend",
    "set_backend",
    "use_backend",
    "matmul",
]

BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"


class KernelBackendError(ValueError):
    """Unknown kernel backend name; the message lists the valid ones."""


class KernelBackend:
    """One GEMM provider.  Subclasses implement :meth:`matmul`.

    ``matmul`` must accept everything ``np.matmul`` does on float arrays
    (1-D vectors, 2-D matrices, stacked 3-D batches, transposed views)
    and agree with it to float round-off; the numpy backend is the
    equivalence oracle the test matrix checks every registration against.
    """

    #: registry key; subclasses must override
    name: str = "abstract"

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def pass_kernel(self):
        """A whole-pass kernel (see :class:`repro.nn.native.PassKernel`),
        or ``None`` to run passes on the numpy hooks."""
        return None


class NativeBackend(KernelBackend):
    """``np.matmul`` plus the native whole-pass attention kernel."""

    name = "native"
    matmul = staticmethod(np.matmul)

    def pass_kernel(self):
        # imported on first use, which keeps ctypes and the build
        # machinery out of every process's start-up
        from . import native

        return native.library()


class NumpyBackend(KernelBackend):
    """The canonical reference: ``np.matmul``, byte-deterministic."""

    name = "numpy"

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.matmul(a, b)


class ThreadedBackend(KernelBackend):
    """Row-chunked 2-D matmul over a shared thread pool.

    Only products with at least ``min_rows`` left-hand rows are split;
    everything else (small matrices, vectors, 3-D stacks) runs through
    ``np.matmul`` directly.  The pool is created lazily on the first
    large product and shared for the life of the process.
    """

    name = "threaded"

    def __init__(
        self, num_threads: Optional[int] = None, min_rows: int = 4096
    ):
        self.num_threads = num_threads or min(4, os.cpu_count() or 1)
        self.min_rows = min_rows
        self._pool = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self):
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    from concurrent.futures import ThreadPoolExecutor

                    self._pool = ThreadPoolExecutor(
                        max_workers=self.num_threads,
                        thread_name_prefix="repro-mm",
                    )
        return self._pool

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if (
            self.num_threads < 2
            or a.ndim != 2
            or b.ndim != 2
            or a.shape[0] < self.min_rows
        ):
            return np.matmul(a, b)
        pool = self._ensure_pool()
        out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
        bounds = np.linspace(
            0, a.shape[0], self.num_threads + 1, dtype=np.int64
        )
        futures = [
            pool.submit(np.matmul, a[lo:hi], b, out=out[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        for f in futures:
            f.result()
        return out


_REGISTRY: Dict[str, KernelBackend] = {}
_active: Optional[KernelBackend] = None
_resolve_lock = threading.Lock()


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add ``backend`` to the registry (last registration wins per name)."""
    _REGISTRY[backend.name] = backend
    return backend


register_backend(NativeBackend())
register_backend(NumpyBackend())
register_backend(ThreadedBackend())


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def _lookup(name: str, source: str) -> KernelBackend:
    backend = _REGISTRY.get(name)
    if backend is None:
        raise KernelBackendError(
            f"unknown kernel backend {name!r} (from {source}); "
            f"valid backends: {', '.join(available_backends())}"
        )
    return backend


def get_backend() -> KernelBackend:
    """The process's active backend, resolving it on first use: the env
    var if set, else ``native`` when its library loads, else ``numpy``."""
    global _active
    if _active is None:
        with _resolve_lock:
            if _active is None:
                name = os.environ.get(BACKEND_ENV_VAR, "").strip()
                if name:
                    _active = _lookup(name, f"${BACKEND_ENV_VAR}")
                else:
                    native = _REGISTRY["native"]
                    _active = (
                        native
                        if native.pass_kernel() is not None
                        else _REGISTRY["numpy"]
                    )
    return _active


def set_backend(backend: Union[str, KernelBackend]) -> KernelBackend:
    """Activate a backend by name (or instance); returns it."""
    global _active
    if isinstance(backend, str):
        backend = _lookup(backend, "set_backend")
    _active = backend
    return backend


@contextmanager
def use_backend(backend: Union[str, KernelBackend]):
    """Temporarily activate a backend; restores the previous one on exit."""
    global _active
    previous = _active
    try:
        yield set_backend(backend)
    finally:
        _active = previous


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product through the active backend."""
    return get_backend().matmul(a, b)
