"""Performance evaluation harness: classifiers × traces → latency / throughput.

This is the module the benchmark files use to reproduce the paper's
performance figures.  It runs a classifier over a trace, converts every
lookup's :class:`~repro.classifiers.base.LookupTrace` into nanoseconds via the
:class:`~repro.simulation.cost_model.CostModel`, and aggregates into the same
quantities the paper reports: average per-packet latency and throughput in
packets per second, for single-core and two-core execution models:

* **Baselines, two cores** (§5.1): two independent instances split the input
  evenly — throughput doubles, per-packet latency is unchanged.
* **NuevoMatch, two cores**: the RQ-RMIs run on one core and the remainder
  classifier on the other; per-packet latency is the maximum of the two paths
  plus a small synchronisation overhead (amortised over 128-packet batches).
* **NuevoMatch, single core**: iSets and remainder run sequentially with the
  early-termination optimisation (§4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

import numpy as np

from repro.classifiers.base import (
    NO_FLOOR,
    TRACE_FIELDS,
    Classifier,
    LookupTrace,
    trace_from_row,
)
from repro.core.nuevomatch import NuevoMatch
from repro.simulation.cost_model import CostModel, LatencyBreakdown
from repro.traffic.packet import Trace

__all__ = [
    "PerfReport",
    "evaluate_classifier",
    "evaluate_nuevomatch",
    "evaluate_sharded",
    "speedup",
]

#: Per-packet synchronisation overhead of the two-core NuevoMatch pipeline,
#: amortised over the paper's 128-packet batches.
SYNC_OVERHEAD_NS = 5.0


@dataclass
class PerfReport:
    """Latency/throughput estimate for one classifier on one trace."""

    classifier: str
    trace: str
    cores: int
    packets: int
    avg_latency_ns: float
    throughput_pps: float
    breakdown: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    extra: dict = field(default_factory=dict)

    def as_row(self) -> dict[str, object]:
        return {
            "classifier": self.classifier,
            "trace": self.trace,
            "cores": self.cores,
            "latency_ns": round(self.avg_latency_ns, 1),
            "throughput_Mpps": round(self.throughput_pps / 1e6, 3),
        }


#: Rows per ``classify_block`` call of a modelled run; bounds the trace
#: out-array and — the cost model being linear in the counters — changes no
#: number.
_CHUNK_ROWS = 1024


def _trace_block(trace: Trace | Iterable, max_packets: int | None) -> np.ndarray:
    """The first ``max_packets`` packets of ``trace`` as the ``(n, fields)``
    uint64 block ``classify_block`` takes (zero-length for an empty trace)."""
    packets = [tuple(packet) for packet in islice(trace, max_packets)]
    return np.array(packets, dtype=np.uint64)


def _price(
    cost_model: CostModel, classifier: Classifier, counters: np.ndarray
) -> LatencyBreakdown:
    """Latency of the lookups whose trace rows sum to ``counters``, priced in
    one call against ``classifier``'s own footprint — where every block-path
    run meets the :class:`CostModel`."""
    return cost_model.classifier_lookup_latency(classifier, trace_from_row(counters))


def evaluate_classifier(
    classifier: Classifier,
    trace: Trace | Iterable,
    cost_model: CostModel | None = None,
    cores: int = 1,
    max_packets: int | None = None,
) -> PerfReport:
    """Evaluate a (baseline) classifier on a trace.

    The trace runs through ``classify_block`` and the summed trace counters
    are priced once — the cost model is linear in them, so this is the
    average of the per-packet latencies with no per-packet objects built.
    With ``cores > 1`` the standard replication model applies: throughput
    scales linearly, per-packet latency does not change (§5.1,
    "Multi-core implementation").
    """
    cost_model = cost_model or CostModel()
    block = _trace_block(trace, max_packets)
    counters = np.zeros(len(TRACE_FIELDS), dtype=np.int64)
    for start in range(0, len(block), _CHUNK_ROWS):
        chunk = block[start : start + _CHUNK_ROWS]
        traces = np.zeros((len(chunk), len(TRACE_FIELDS)), dtype=np.int64)
        classifier.classify_block(chunk, traces=traces)
        counters += traces.sum(axis=0)
    breakdown = _price(cost_model, classifier, counters).scaled(
        1.0 / max(len(block), 1)
    )
    avg_latency = breakdown.total_ns
    throughput = cores / (avg_latency * 1e-9) if avg_latency > 0 else 0.0
    return PerfReport(
        classifier=classifier.name,
        trace=getattr(trace, "name", "trace"),
        cores=cores,
        packets=len(block),
        avg_latency_ns=avg_latency,
        throughput_pps=throughput,
        breakdown=breakdown,
    )


def evaluate_nuevomatch(
    nm: NuevoMatch,
    trace: Trace | Iterable,
    cost_model: CostModel | None = None,
    mode: str = "parallel",
    max_packets: int | None = None,
) -> PerfReport:
    """Evaluate NuevoMatch in the paper's two execution modes.

    The trace runs through the block path in ``_CHUNK_ROWS`` chunks: one
    ``lookup_block`` pass over the iSets gives the iSet core's trace rows
    and, in single mode, the Figure-14 ``avg_breakdown``.

    Args:
        nm: A built NuevoMatch classifier.
        trace: Input packets.
        cost_model: Latency model (defaults to the Xeon Silver hierarchy).
        mode: ``"parallel"`` — iSets and remainder on separate cores (2-core,
            Figure 8), each packet priced at the slower of its two rows;
            ``"single"`` — both on one core with early termination (Figure 9).
        max_packets: Optionally cap the number of evaluated packets.
    """
    if mode not in ("parallel", "single"):
        raise ValueError("mode must be 'parallel' or 'single'")
    cost_model = cost_model or CostModel()
    block = _trace_block(trace, max_packets)

    rqrmi_bytes = nm.rqrmi_size_bytes()
    value_array_bytes = nm.value_array_bytes()
    remainder_fp = nm.remainder.memory_footprint()
    rule_bytes = nm.memory_footprint().rule_bytes

    total = LatencyBreakdown()
    counters = np.zeros(len(TRACE_FIELDS), dtype=np.int64)
    iset_counters = np.zeros(len(TRACE_FIELDS), dtype=np.int64)
    for start in range(0, len(block), _CHUNK_ROWS):
        chunk = block[start : start + _CHUNK_ROWS]
        values = chunk.astype(np.int64)
        best_keys = np.full(len(chunk), NO_FLOOR, dtype=np.int64)
        iset_traces = np.zeros((len(chunk), len(TRACE_FIELDS)), dtype=np.int64)
        for iset in nm.isets:
            iset.lookup_block(values, best_keys, traces=iset_traces)
        traces = np.zeros_like(iset_traces)
        if mode == "parallel":
            nm.remainder.classify_block(chunk, traces=traces)
            # Priced row by row (the max is not linear in the counters):
            # ``lookup_latency`` is elementwise, so trace columns price the
            # whole chunk in one call.
            iset_rows = cost_model.lookup_latency(
                LookupTrace(*iset_traces.T), value_array_bytes, rule_bytes,
                model_bytes=rqrmi_bytes,
            )
            remainder_rows = cost_model.lookup_latency(
                LookupTrace(*traces.T), remainder_fp.index_bytes, remainder_fp.rule_bytes
            )
            slower = iset_rows.total_ns >= remainder_rows.total_ns
            total = total.merge(LatencyBreakdown(**{
                name: float(np.where(slower, rows, getattr(remainder_rows, name)).sum())
                for name, rows in vars(iset_rows).items()
            }))
            total = total.merge(LatencyBreakdown(hash_ns=SYNC_OVERHEAD_NS * len(chunk)))
        else:
            # Linear in the counters: priced once on the sums, as in
            # ``evaluate_classifier``.
            nm.classify_block(chunk, traces=traces)
            counters += traces.sum(axis=0)
            iset_counters += iset_traces.sum(axis=0)
    if mode == "single":
        total = _price(cost_model, nm, counters)
    breakdown = total.scaled(1.0 / max(len(block), 1))
    avg_latency = breakdown.total_ns
    throughput = 1.0 / (avg_latency * 1e-9) if avg_latency > 0 else 0.0
    extra = {
        "coverage": nm.coverage,
        "num_isets": nm.num_isets,
        "rqrmi_bytes": rqrmi_bytes,
        "remainder_index_bytes": remainder_fp.index_bytes,
        "mode": mode,
    }
    if mode == "single" and len(block):
        index, rule, _model, compute, _hash = iset_counters
        remainder_index, remainder_rule = (counters - iset_counters)[:2]
        extra["avg_breakdown"] = {
            "inference_ops": (compute - block.shape[1] * rule) / len(block),
            "search_accesses": index / len(block),
            "validation_accesses": rule / len(block),
            "remainder_accesses": (remainder_index + remainder_rule) / len(block),
        }
    return PerfReport(
        classifier=f"nm({nm.remainder.name})",
        trace=getattr(trace, "name", "trace"),
        cores=2 if mode == "parallel" else 1,
        packets=len(block),
        avg_latency_ns=avg_latency,
        throughput_pps=throughput,
        breakdown=breakdown,
        extra=extra,
    )


def evaluate_sharded(
    sharded,
    trace: Trace | Iterable,
    cost_model: CostModel | None = None,
    batch_size: int = 128,
    max_packets: int | None = None,
) -> PerfReport:
    """Evaluate a :class:`~repro.serving.ShardedEngine` on a trace.

    Shards run on separate cores, so a batch's modelled latency is the
    *maximum* over the shards' batch latencies (each priced on the column sums
    of that shard's ``classify_block_per_shard`` trace block, against that
    shard's structures) plus the
    same per-packet synchronisation overhead as the two-core NuevoMatch
    pipeline.  Throughput is packets over total time — the shard-count
    scaling knob the paper's multi-core evaluation turns.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    cost_model = cost_model or CostModel()
    block = _trace_block(trace, max_packets)
    shard_classifiers = [
        shard.engine.classifier for shard in sharded._shards
    ]
    total = LatencyBreakdown()
    num_batches = 0
    for start in range(0, len(block), batch_size):
        chunk = block[start : start + batch_size]
        per_shard = sharded.classify_block_per_shard(chunk, want_traces=True)
        slowest = max(
            (
                _price(cost_model, classifier, traces.sum(axis=0))
                for classifier, (_ids, _priorities, traces) in zip(
                    shard_classifiers, per_shard
                )
            ),
            key=lambda latency: latency.total_ns,
        )
        total = total.merge(slowest).merge(
            LatencyBreakdown(hash_ns=SYNC_OVERHEAD_NS * len(chunk))
        )
        num_batches += 1
    breakdown = total.scaled(1.0 / max(len(block), 1))
    avg_latency = breakdown.total_ns
    throughput = 1.0 / (avg_latency * 1e-9) if avg_latency > 0 else 0.0
    return PerfReport(
        classifier=f"sharded[{sharded.num_shards}]",
        trace=getattr(trace, "name", "trace"),
        cores=sharded.num_shards,
        packets=len(block),
        avg_latency_ns=avg_latency,
        throughput_pps=throughput,
        breakdown=breakdown,
        extra={
            "batch_size": batch_size,
            "num_batches": num_batches,
            "num_shards": sharded.num_shards,
            "shard_sizes": sharded.shard_sizes(),
        },
    )


def speedup(nm_report: PerfReport, baseline_report: PerfReport) -> dict[str, float]:
    """Latency and throughput speedups of NuevoMatch over a baseline."""
    latency_speedup = (
        baseline_report.avg_latency_ns / nm_report.avg_latency_ns
        if nm_report.avg_latency_ns > 0
        else 0.0
    )
    throughput_speedup = (
        nm_report.throughput_pps / baseline_report.throughput_pps
        if baseline_report.throughput_pps > 0
        else 0.0
    )
    return {"latency": latency_speedup, "throughput": throughput_speedup}
