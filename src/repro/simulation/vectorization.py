"""Vectorised submodel inference cost model (Table 1).

Each RQ-RMI submodel is a 1×8×1 ReLU network; its inference is a handful of
fused multiply-adds that map directly onto SIMD lanes (§4, Table 1).  The
paper measures 126 ns per inference with scalar code, 62 ns with SSE (4 floats
per instruction) and 49 ns with AVX (8 floats).  This module provides:

* an analytic model calibrated to those measurements (a fixed per-inference
  overhead plus a per-scalar-operation cost divided by the vector width), and
* a wall-clock measurement helper that times the lookup's own inference —
  :func:`repro.core.rqrmi.route` over a trained model's stacked stages — at
  different effective widths, to show the same trend on the host running the
  benchmarks.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.rqrmi import RQRMI, route

__all__ = [
    "SUBMODEL_SCALAR_OPS",
    "inference_time_ns",
    "table1_model",
    "measure_inference_ns",
    "VECTOR_WIDTHS",
]

#: Scalar floating-point operations in one 1×8×1 submodel inference:
#: 8 multiplies + 8 adds (hidden pre-activation), 8 ReLUs, 8 multiply-adds
#: (output layer) — the "handful of vector instructions" of §4.
SUBMODEL_SCALAR_OPS = 32

#: Vector widths of Table 1: scalar, SSE (4 floats), AVX (8 floats).
VECTOR_WIDTHS = {"Serial": 1, "SSE": 4, "AVX": 8}

#: Calibration constants fitted to Table 1 (126 / 62 / 49 ns).
_NS_PER_SCALAR_OP = 2.67
_FIXED_OVERHEAD_NS = 40.6


def inference_time_ns(
    vector_width: int,
    scalar_ops: int = SUBMODEL_SCALAR_OPS,
    ns_per_op: float = _NS_PER_SCALAR_OP,
    overhead_ns: float = _FIXED_OVERHEAD_NS,
) -> float:
    """Modelled single-submodel inference time for a given vector width."""
    if vector_width < 1:
        raise ValueError("vector_width must be at least 1")
    return scalar_ops / vector_width * ns_per_op + overhead_ns


def table1_model() -> dict[str, float]:
    """The modelled Table 1 row: instruction set → inference time (ns)."""
    return {name: inference_time_ns(width) for name, width in VECTOR_WIDTHS.items()}


def measure_inference_ns(
    model: RQRMI,
    lanes: int = 1,
    iterations: int = 2000,
    seed: int = 0,
) -> float:
    """Wall-clock inference time of ``model``, in ns per key per stage.

    Times :func:`~repro.core.rqrmi.route` — the lookup's walk over the
    stacked stages — on ``lanes`` random keys per call.  Evaluating ``lanes``
    independent keys in one vectorised numpy call mimics packing more floats
    per instruction; the per-key time dropping with ``lanes`` is the
    Python-level analogue of Table 1's SIMD trend.
    """
    keys = np.random.default_rng(seed).random(lanes)
    stages, widths = model.stacked, model.stage_widths
    route(stages, widths, keys)  # warm up
    start = time.perf_counter()
    for _ in range(iterations):
        route(stages, widths, keys)
    elapsed = time.perf_counter() - start
    return elapsed / iterations / lanes / model.num_stages * 1e9
