"""The native fused iSet kernel: compile, cache, load, bind.

``_iset_kernel.c`` does one iSet's whole block lookup in one call: the
stacked RQ-RMI route, a binary search confined to ``[predicted - error,
predicted + error]``, the multi-field check of the one candidate and the
best-key update.  :meth:`~repro.core.nuevomatch.ISetIndex.lookup_block` runs
it whenever no trace counters are asked for; its numpy body stays the
reference, the traced path and the fallback.

The library is built with the C compiler on ``PATH`` the first time a lookup
needs it, never at import.  It is cached in this package's ``__pycache__``
under a name keyed by a hash of the source, the flags and the platform
(or, when that directory is not ours to write, in a private
``tempfile.mkdtemp()``), written to a temporary file and moved into place
with ``os.replace`` so concurrent processes race safely.  If the compiler is
missing or fails, or numpy arrays do not have the layout the kernel reads,
the process keeps the numpy path and does not try again.  There is no
option: :func:`kernel_name` says which path lookups take.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from repro.core.submodel import OUTPUT_EPSILON

__all__ = ["IsetKernel", "kernel_name", "library"]

SOURCE = Path(__file__).with_name("_iset_kernel.c")
#: No fused multiply-add and no reassociation: the kernel must compute
#: ``route`` bit for bit.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_pointer = ctypes.c_void_p


class _Model(ctypes.Structure):
    """``iset_model`` in ``_iset_kernel.c``, field for field."""

    _fields_ = [
        ("num_stages", ctypes.c_int64),
        ("widths", _pointer),
        ("hidden", _pointer),
        ("weights", _pointer),
        ("bounds", _pointer),
        ("domain", ctypes.c_double),
        ("output_max", ctypes.c_double),
        ("num_ranges", ctypes.c_int64),
        ("range_lo", _pointer),
        ("range_hi", _pointer),
        ("dim", ctypes.c_int64),
        ("fields", ctypes.c_int64),
        ("rule_lo", _pointer),
        ("rule_hi", _pointer),
        ("rule_key", _pointer),
    ]


#: The loaded library; ``None`` until a lookup first asks, ``False`` once
#: building or loading it failed (the numpy path for the rest of the process).
_library: ctypes.CDLL | bool | None = None


def _cache_dir() -> Path:
    """Where the built library lives: this package's ``__pycache__`` when it
    is ours to write and not world-writable, else a fresh private directory."""
    cache = Path(__file__).with_name("__pycache__")
    try:
        cache.mkdir(exist_ok=True)
        mode = cache.stat().st_mode
        if os.access(cache, os.W_OK) and not mode & stat.S_IWOTH:
            return cache
    except OSError:
        pass
    return Path(tempfile.mkdtemp(prefix="repro-iset-kernel-"))


def _build(target: Path) -> None:
    """Compile :data:`SOURCE` into ``target`` through a temporary file."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise OSError("no C compiler on PATH")
    fd, scratch = tempfile.mkstemp(dir=target.parent, suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *FLAGS, "-o", scratch, str(SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(scratch, target)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _load() -> ctypes.CDLL:
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(
        b"\0".join([source, " ".join(FLAGS).encode(), sysconfig.get_platform().encode()])
    ).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"_iset_kernel.{digest}.so"
    if not target.exists():
        _build(target)
    lib = ctypes.CDLL(str(target))
    model = ctypes.POINTER(_Model)
    lib.array_data.argtypes = [ctypes.py_object]
    lib.array_data.restype = _pointer
    probe = np.arange(3)
    if lib.array_data(probe) != probe.ctypes.data:
        raise OSError("numpy arrays do not have the layout the kernel reads")
    lib.iset_lookup.argtypes = [model, ctypes.c_int64, ctypes.py_object, ctypes.py_object]
    lib.iset_lookup.restype = None
    lib.rqrmi_route.argtypes = [model, ctypes.c_int64, _pointer, _pointer, _pointer]
    lib.rqrmi_route.restype = None
    return lib


def library() -> ctypes.CDLL | None:
    """The kernel library, built and loaded on the first call; ``None`` when
    it cannot be (that is decided once per process)."""
    global _library
    if _library is None:
        try:
            _library = _load()
        except (OSError, subprocess.SubprocessError):
            _library = False
    return _library or None


def kernel_name() -> str:
    """``"native"`` when untraced iSet lookups run the compiled kernel,
    ``"numpy"`` when they run the array body."""
    return "native" if library() is not None else "numpy"


class IsetKernel:
    """One iSet's kernel call: the model and rule arrays laid out once, as
    the C struct points at them, and kept alive here."""

    def __init__(self, lib: ctypes.CDLL, model, rules, dim: int):
        stacked = model.stacked
        self._arrays = arrays = {
            "widths": np.array([stage.width for stage in stacked], dtype=np.int64),
            "hidden": np.array([stage.hidden_units for stage in stacked], dtype=np.int64),
            "weights": np.concatenate([
                np.column_stack((w1, b1, w2, b2)).ravel()
                for w1, b1, w2, b2 in stacked
            ]).astype(np.float64),
            "bounds": np.ascontiguousarray(model.error_bounds, dtype=np.int64),
            "range_lo": np.ascontiguousarray(model.ranges.lo, dtype=np.float64),
            "range_hi": np.ascontiguousarray(model.ranges.hi, dtype=np.float64),
            "rule_lo": np.ascontiguousarray(rules.lo, dtype=np.int64),
            "rule_hi": np.ascontiguousarray(rules.hi, dtype=np.int64),
            "rule_key": np.ascontiguousarray(rules.key, dtype=np.int64),
        }
        self.fields = int(arrays["rule_lo"].shape[1])
        self._model = _Model(
            num_stages=len(stacked),
            domain=float(model.ranges.domain_size),
            output_max=1.0 - OUTPUT_EPSILON,
            num_ranges=len(model.ranges),
            dim=dim,
            fields=self.fields,
            **{name: array.ctypes.data for name, array in arrays.items()},
        )
        self._model_ref = ctypes.byref(self._model)
        self._lookup = lib.iset_lookup
        self._walk = lib.rqrmi_route

    def lookup(self, values: np.ndarray, best_keys: np.ndarray) -> bool:
        """Lower ``best_keys`` in place by the iSet's matches for the
        ``(n, fields)`` block ``values``.  Does nothing and returns false
        unless ``best_keys`` is an aligned, writable, C-contiguous int64
        array of ``n`` keys and the block has the iSet's fields — the
        layout the kernel reads and writes."""
        values = np.ascontiguousarray(values, dtype=np.int64)
        if not (
            best_keys.dtype == np.int64
            and best_keys.flags.carray
            and best_keys.shape == (values.shape[0],)
            and values.shape[1:] == (self.fields,)
        ):
            return False
        self._lookup(self._model_ref, len(values), values, best_keys)
        return True

    def route(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The compiled walk over every stage: ``(slots, outputs)`` as
        :func:`repro.core.rqrmi.route` gives them (for tests)."""
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        slots = np.zeros(len(xs), dtype=np.int64)
        outputs = np.zeros(len(xs), dtype=np.float64)
        self._walk(self._model_ref, len(xs), xs.ctypes.data, slots.ctypes.data,
                    outputs.ctypes.data)
        return slots, outputs
