"""Performance substrate: cache model, cost model and evaluation harness."""

from repro.simulation.cache import CacheHierarchy, CacheLevel
from repro.simulation.cost_model import CostModel, LatencyBreakdown
from repro.simulation.perf import (
    PerfReport,
    evaluate_classifier,
    evaluate_nuevomatch,
    evaluate_sharded,
    speedup,
)
from repro.simulation.vectorization import (
    SUBMODEL_SCALAR_OPS,
    VECTOR_WIDTHS,
    inference_time_ns,
    measure_inference_ns,
    table1_model,
)

__all__ = [
    "CacheHierarchy",
    "CacheLevel",
    "CostModel",
    "LatencyBreakdown",
    "PerfReport",
    "evaluate_classifier",
    "evaluate_nuevomatch",
    "evaluate_sharded",
    "speedup",
    "SUBMODEL_SCALAR_OPS",
    "VECTOR_WIDTHS",
    "inference_time_ns",
    "measure_inference_ns",
    "table1_model",
]
