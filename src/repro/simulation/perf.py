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

from repro.classifiers.base import TRACE_FIELDS, Classifier, trace_from_row
from repro.core.nuevomatch import LookupBreakdown, NuevoMatch
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


def _average_breakdown(parts: list[LatencyBreakdown]) -> LatencyBreakdown:
    if not parts:
        return LatencyBreakdown()
    total = LatencyBreakdown()
    for part in parts:
        total = total.merge(part)
    return total.scaled(1.0 / len(parts))


#: Rows per ``classify_block`` call of a modelled run; bounds the trace
#: out-array and — the cost model being linear in the counters — changes no
#: number.
_CHUNK_ROWS = 1024


def _trace_block(trace: Trace | Iterable, max_packets: int | None) -> np.ndarray:
    """The first ``max_packets`` packets of ``trace`` as the ``(n, fields)``
    uint64 block ``classify_block`` takes (zero-length for an empty trace)."""
    packets = [tuple(packet) for packet in islice(trace, max_packets or None)]
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

    Args:
        nm: A built NuevoMatch classifier.
        trace: Input packets.
        cost_model: Latency model (defaults to the Xeon Silver hierarchy).
        mode: ``"parallel"`` — iSets and remainder on separate cores (2-core,
            Figure 8); ``"single"`` — both on one core with early termination
            (Figure 9).
        max_packets: Optionally cap the number of evaluated packets.
    """
    if mode not in ("parallel", "single"):
        raise ValueError("mode must be 'parallel' or 'single'")
    cost_model = cost_model or CostModel()
    packets = list(trace)[: max_packets or None]

    rqrmi_bytes = nm.rqrmi_size_bytes()
    value_array_bytes = nm.value_array_bytes()
    remainder_fp = nm.remainder.memory_footprint()
    rule_bytes = nm.memory_footprint().rule_bytes

    latencies: list[LatencyBreakdown] = []
    breakdown_totals = LookupBreakdown()

    for packet in packets:
        if mode == "parallel":
            _best, iset_trace = nm.classify_isets_only(packet)
            remainder_result = nm.remainder.classify_traced(packet)
            iset_latency = cost_model.lookup_latency(
                iset_trace, value_array_bytes, rule_bytes, model_bytes=rqrmi_bytes
            )
            remainder_latency = cost_model.lookup_latency(
                remainder_result.trace,
                remainder_fp.index_bytes,
                remainder_fp.rule_bytes,
            )
            if iset_latency.total_ns >= remainder_latency.total_ns:
                packet_latency = iset_latency
            else:
                packet_latency = remainder_latency
            packet_latency = packet_latency.merge(
                LatencyBreakdown(hash_ns=SYNC_OVERHEAD_NS)
            )
            latencies.append(packet_latency)
        else:
            result, lookup_breakdown = nm.classify_detailed(packet)
            breakdown_totals = breakdown_totals.merge(lookup_breakdown)
            latencies.append(
                cost_model.lookup_latency(
                    result.trace,
                    remainder_fp.index_bytes,
                    rule_bytes,
                    model_bytes=rqrmi_bytes,
                )
            )

    breakdown = _average_breakdown(latencies)
    avg_latency = breakdown.total_ns if latencies else 0.0
    throughput = 1.0 / (avg_latency * 1e-9) if avg_latency > 0 else 0.0
    extra = {
        "coverage": nm.coverage,
        "num_isets": nm.num_isets,
        "rqrmi_bytes": rqrmi_bytes,
        "remainder_index_bytes": remainder_fp.index_bytes,
        "mode": mode,
    }
    if mode == "single" and packets:
        extra["avg_breakdown"] = {
            "inference_ops": breakdown_totals.inference_ops / len(packets),
            "search_accesses": breakdown_totals.search_accesses / len(packets),
            "validation_accesses": breakdown_totals.validation_accesses / len(packets),
            "remainder_accesses": breakdown_totals.remainder_accesses / len(packets),
        }
    return PerfReport(
        classifier=f"nm({nm.remainder.name})",
        trace=getattr(trace, "name", "trace"),
        cores=2 if mode == "parallel" else 1,
        packets=len(packets),
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
