"""Build, load and call the native whole-pass attention kernel.

``native_pass.c`` (next to this module) runs a whole block-layout
attention + GRU propagation pass in one C call: the forward over the
written nodes in schedule order, and the reverse walk.  It is compiled
with the machine's ``gcc`` on first use -- never at import -- and loaded
through stdlib :mod:`ctypes`:

* the shared object lives in ``$XDG_CACHE_HOME/repro/native`` (default
  ``~/.cache/repro/native``), named by the sha256 of the source, the
  compiler flags, ``gcc``'s version and the CPU features ``-march=native``
  targets, so a new compiler, CPU or source builds afresh;
* a build writes to a temporary file in that directory and renames it
  into place, so processes building at once (dist workers, a server, a
  test run) each leave a complete file and the last rename wins;
* with no compiler, or a build or load that fails, :func:`library`
  returns ``None`` and logs the reason once; callers then stay on the
  numpy pass hooks.

``CDLL`` releases the GIL for the duration of each call, so other Python
threads (the serve handlers parsing requests) keep running during a pass.
:class:`PassKernel` checks dtype, contiguity and shape of every array
before a pointer reaches C and raises :class:`NativeKernelError`
otherwise.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "NativeKernelError",
    "PassKernel",
    "cache_dir",
    "library",
    "load_error",
]

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("native_pass.c")

#: no -ffast-math: it links crtfastmath.o, which turns on flush-to-zero
#: for the whole process at load; no -ffinite-math-only: non-finite
#: values must reach the loss
FLAGS = (
    "-O3", "-march=native", "-fno-math-errno", "-std=gnu11",
    "-fPIC", "-shared",
)

#: bumped with any change to the C entry points' signatures
ABI_VERSION = 3


class NativeKernelError(ValueError):
    """An array handed to the native kernel has the wrong dtype, memory
    layout or shape."""


class NativeBuildError(RuntimeError):
    """The native kernel could not be compiled or loaded."""


_lock = threading.Lock()
_resolved = False
_kernel: Optional["PassKernel"] = None
_error: Optional[str] = None


def _compiler() -> Optional[str]:
    """Path of the C compiler, or ``None`` when there is none."""
    return shutil.which("gcc")


def cache_dir() -> Path:
    """Directory holding the built shared objects."""
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro" / "native"


def _target_signature(cc: str) -> str:
    """``gcc``'s version plus the target options ``-march=native`` expands
    to on this CPU (from the ``cc1`` line of a verbose preprocess)."""
    proc = subprocess.run(
        [cc, "-march=native", "-E", "-v", "-x", "c", os.devnull,
         "-o", os.devnull],
        capture_output=True, text=True, timeout=60,
    )
    lines = proc.stderr.splitlines()
    version = [ln for ln in lines if "version" in ln][:1]
    target = [
        tok
        for ln in lines if "cc1" in ln
        for tok in ln.split()
        if tok.startswith(("-m", "--param", "l1-", "l2-"))
    ]
    return "\n".join(version + target)


def _build(cc: str) -> Path:
    source = SOURCE.read_bytes()
    digest = hashlib.sha256()
    for part in (source, " ".join(FLAGS).encode(),
                 _target_signature(cc).encode()):
        digest.update(part)
        digest.update(b"\0")
    out_dir = cache_dir()
    target = out_dir / f"native_pass-{digest.hexdigest()[:24]}.so"
    if target.is_file():
        return target
    out_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=out_dir)
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            raise NativeBuildError(
                f"gcc exited {proc.returncode}: {proc.stderr.strip()[:2000]}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


_P = ctypes.c_void_p
_I = ctypes.c_int64


def _declare(lib: ctypes.CDLL) -> None:
    lib.repro_native_abi.argtypes = []
    lib.repro_native_abi.restype = ctypes.c_int
    lib.repro_attn_gru_forward.argtypes = [_I, _I, _I] + [_P] * 17
    lib.repro_attn_gru_forward.restype = None
    lib.repro_attn_gru_backward.argtypes = [_I, _I] + [_P] * 18
    lib.repro_attn_gru_backward.restype = None


def _load() -> "PassKernel":
    cc = _compiler()
    if cc is None:
        raise NativeBuildError("no C compiler (gcc) on PATH")
    path = _build(cc)
    lib = ctypes.CDLL(str(path))
    _declare(lib)
    abi = lib.repro_native_abi()
    if abi != ABI_VERSION:
        raise NativeBuildError(f"{path} has ABI {abi}, expected {ABI_VERSION}")
    return PassKernel(lib, path)


def library() -> Optional["PassKernel"]:
    """The loaded kernel, building it on first use; ``None`` when it
    cannot be built or loaded (the reason is logged once and kept in
    :func:`load_error`)."""
    global _resolved, _kernel, _error
    if not _resolved:
        with _lock:
            if not _resolved:
                try:
                    _kernel = _load()
                except Exception as exc:  # noqa: BLE001
                    # any failure (no compiler, a failed build, an unusable
                    # cache directory, a library that will not load) falls
                    # back to the numpy hooks
                    _error = f"{type(exc).__name__}: {exc}"
                    log.warning(
                        "native pass kernel unavailable, using numpy: %s",
                        _error,
                    )
                _resolved = True
    return _kernel


def load_error() -> Optional[str]:
    """Why the kernel did not load (``None`` if it did or was not tried)."""
    return _error


def _reset() -> None:
    """Forget the load result so the next :func:`library` call retries
    (for tests)."""
    global _resolved, _kernel, _error
    with _lock:
        _resolved, _kernel, _error = False, None, None


# ---------------------------------------------------------------------------
# argument checks and calls
# ---------------------------------------------------------------------------

_F32 = np.dtype(np.float32)
_I64 = np.dtype(np.int64)


def _ptr(name: str, arr, dtype: np.dtype, shape: tuple,
         writable: bool = False) -> int:
    if not isinstance(arr, np.ndarray):
        raise NativeKernelError(
            f"{name}: expected a numpy array, got {type(arr).__name__}"
        )
    if arr.dtype != dtype:
        raise NativeKernelError(f"{name}: dtype {arr.dtype}, expected {dtype}")
    if not arr.flags.c_contiguous:
        raise NativeKernelError(f"{name}: array is not C-contiguous")
    if arr.shape != shape:
        raise NativeKernelError(f"{name}: shape {arr.shape}, expected {shape}")
    if writable and not arr.flags.writeable:
        raise NativeKernelError(f"{name}: array is read-only")
    return arr.ctypes.data


def _opt(name, arr, dtype, shape, writable=False) -> Optional[int]:
    return None if arr is None else _ptr(name, arr, dtype, shape, writable)


def _width(work) -> int:
    if not isinstance(work, np.ndarray) or work.ndim != 2:
        raise NativeKernelError("work: expected a 2-D numpy array")
    return work.shape[1]


def _check_rows(name: str, idx: np.ndarray, num_rows: int) -> None:
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= num_rows):
        raise NativeKernelError(
            f"{name}: row indices outside [0, {num_rows})"
        )


class PassKernel:
    """The loaded library's two entry points, with argument checks.

    ``plan`` arguments are :class:`~repro.graphdata.batching.NativePlan`
    objects: ``groups``/``starts`` are position/edge offsets, ``src``/
    ``dst`` index rows of ``work`` and ``edge_attr`` is in the same
    target-sorted edge order as ``src``.
    """

    def __init__(self, lib: ctypes.CDLL, path: Path):
        self._lib = lib
        self.path = path

    def _plan_ptrs(self, plan, work: np.ndarray):
        n_w, n_e = len(plan.dst), len(plan.src)
        n_g = len(plan.groups) - 1
        ptrs = (
            _ptr("groups", plan.groups, _I64, (n_g + 1,)),
            _ptr("dst", plan.dst, _I64, (n_w,)),
            _ptr("starts", plan.starts, _I64, (n_w + 1,)),
            _ptr("src", plan.src, _I64, (n_e,)),
        )
        for name, offsets, total in (
            ("groups", plan.groups, n_w), ("starts", plan.starts, n_e)
        ):
            if (
                offsets[0] != 0
                or offsets[-1] != total
                or (np.diff(offsets) < 0).any()
            ):
                raise NativeKernelError(
                    f"{name}: must rise from 0 to {total}"
                )
        _check_rows("src", plan.src, work.shape[0])
        _check_rows("dst", plan.dst, work.shape[0])
        return n_g, n_w, n_e, ptrs

    def forward(self, plan, work, qs, wk, q, gh, gi_static, b_ih, w_ih,
                alpha, we=None, m=None, gates=None) -> None:
        """Forward pass over ``plan``; writes the new rows into ``work``
        and, when given, the saved ``m``/``gates`` for the backward."""
        d = _width(work)
        n_g, n_w, n_e, (p_groups, p_dst, p_starts, p_src) = self._plan_ptrs(
            plan, work
        )
        p_work = _ptr("work", work, _F32, work.shape, writable=True)
        pa = 0
        p_attr = p_we = None
        if we is not None:
            attr = plan.edge_attr
            if attr is None or attr.ndim != 2:
                raise NativeKernelError("edge_attr: missing for attention")
            pa = attr.shape[1]
            p_attr = _ptr("edge_attr", attr, _F32, (n_e, pa))
            p_we = _ptr("we", we, _F32, (pa,))
        args = (
            n_g, d, pa, p_groups,
            p_work, p_dst, p_starts, p_src, p_attr, p_we,
            _ptr("qs", qs, _F32, (n_w,)),
            _ptr("wk", wk, _F32, (d,)),
            _ptr("q", q, _F32, (n_w, d)),
            _ptr("gh", gh, _F32, (n_w, 3 * d)),
            _opt("gi_static", gi_static, _F32, (n_w, 3 * d)),
            _ptr("b_ih", b_ih, _F32, (3 * d,)),
            _ptr("w_ih", w_ih, _F32, (d, 3 * d)),
            _ptr("alpha", alpha, _F32, (n_e,), writable=True),
            _opt("m", m, _F32, (n_w, d), writable=True),
            _opt("gates", gates, _F32, (n_w, 3 * d), writable=True),
        )
        self._lib.repro_attn_gru_forward(*args)

    def backward(self, plan, work, gwork, wk, q, gh, w_ih_t, alpha, gates,
                 dgi, dgh, dq, ds, h_e, dqs) -> None:
        """Reverse walk over ``plan``: fills the pass-wide sinks and adds
        every source gradient to ``gwork``.  ``w_ih_t`` is ``W_ih[:d].T``
        (contiguous)."""
        d = _width(work)
        n_g, n_w, n_e, (p_groups, p_dst, p_starts, p_src) = self._plan_ptrs(
            plan, work
        )
        args = (
            n_g, d, p_groups,
            _ptr("work", work, _F32, work.shape),
            _ptr("gwork", gwork, _F32, work.shape, writable=True),
            p_dst, p_starts, p_src,
            _ptr("wk", wk, _F32, (d,)),
            _ptr("q", q, _F32, (n_w, d)),
            _ptr("gh", gh, _F32, (n_w, 3 * d)),
            _ptr("w_ih_t", w_ih_t, _F32, (3 * d, d)),
            _ptr("alpha", alpha, _F32, (n_e,)),
            _ptr("gates", gates, _F32, (n_w, 3 * d)),
            _ptr("dgi", dgi, _F32, (n_w, 3 * d), writable=True),
            _ptr("dgh", dgh, _F32, (n_w, 3 * d), writable=True),
            _ptr("dq", dq, _F32, (n_w, d), writable=True),
            _ptr("ds", ds, _F32, (n_e,), writable=True),
            _ptr("h", h_e, _F32, (n_e, d), writable=True),
            _ptr("dqs", dqs, _F32, (n_w,), writable=True),
        )
        self._lib.repro_attn_gru_backward(*args)
