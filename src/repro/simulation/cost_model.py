"""Memory-access cost model: lookup traces → nanoseconds.

Every classifier reports, per lookup, how many dependent accesses it made to
its index structure, how many rule entries it touched and how much compute it
performed (:class:`~repro.classifiers.base.LookupTrace`).  The cost model
combines those counts with the structure footprints and a
:class:`~repro.simulation.cache.CacheHierarchy` to produce a latency estimate:

* index accesses pay the latency of the cache level the index fits into,
* rule accesses pay the latency of the (much larger) rule storage,
* RQ-RMI model accesses pay L1 latency (the models are L1-resident by design),
* compute is charged per vector operation, scaled by the SIMD width,
* hash computations have a small fixed cost.

This is deliberately a *placement* model, not a cycle-accurate simulator: the
paper's speedups come from which cache level each structure occupies and how
many dependent accesses a lookup performs, and those are exactly the inputs
here.  Batched serving prices a whole batch with one call by aggregating the
per-packet traces first (:meth:`LookupTrace.aggregate
<repro.classifiers.base.LookupTrace.aggregate>`); the trace-replay harness
additionally mixes in the flow-cache hit cost at the cache footprint's
hierarchy level (:mod:`repro.workloads.replay`).  See docs/ARCHITECTURE.md
for where the model sits in the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classifiers.base import Classifier, LookupTrace, MemoryFootprint
from repro.simulation.cache import CacheHierarchy

__all__ = ["LatencyBreakdown", "CostModel"]


@dataclass
class LatencyBreakdown:
    """Latency of one lookup split by component (all in nanoseconds)."""

    model_ns: float = 0.0
    index_ns: float = 0.0
    rule_ns: float = 0.0
    compute_ns: float = 0.0
    hash_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        return self.model_ns + self.index_ns + self.rule_ns + self.compute_ns + self.hash_ns

    def merge(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        return LatencyBreakdown(
            self.model_ns + other.model_ns,
            self.index_ns + other.index_ns,
            self.rule_ns + other.rule_ns,
            self.compute_ns + other.compute_ns,
            self.hash_ns + other.hash_ns,
        )

    def scaled(self, factor: float) -> "LatencyBreakdown":
        return LatencyBreakdown(
            self.model_ns * factor,
            self.index_ns * factor,
            self.rule_ns * factor,
            self.compute_ns * factor,
            self.hash_ns * factor,
        )


@dataclass
class CostModel:
    """Converts lookup traces into latency estimates.

    Attributes:
        cache: The cache hierarchy (defaults to the paper's Xeon Silver 4116).
        vector_width: SIMD lanes available to the inference/validation compute
            (8 = AVX, as used by the paper's implementation).
        ns_per_scalar_op: Cost of one scalar arithmetic operation.
        hash_ns: Cost of one hash computation.
        access_overhead_ns: Instruction-processing overhead charged per
            dependent index/rule access (pointer chasing, comparisons, branch
            handling) on top of the pure memory latency.
        locality: Fraction of accesses hitting a hot, L1-resident working set;
            0 for uniform traffic, rising with trace skew (Figure 12).
    """

    cache: CacheHierarchy | None = None
    vector_width: int = 8
    ns_per_scalar_op: float = 0.5
    hash_ns: float = 3.0
    access_overhead_ns: float = 2.0
    locality: float = 0.0

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = CacheHierarchy.xeon_silver_4116()

    # -- core conversion -------------------------------------------------------

    def lookup_latency(
        self,
        trace: LookupTrace,
        index_bytes: int,
        rule_bytes: int,
        model_bytes: int = 0,
    ) -> LatencyBreakdown:
        """Latency of a single lookup described by ``trace``."""
        assert self.cache is not None
        index_latency = (
            self.cache.access_latency_ns(index_bytes, self.locality)
            + self.access_overhead_ns
        )
        rule_latency = (
            self.cache.access_latency_ns(rule_bytes + index_bytes, self.locality)
            + self.access_overhead_ns
        )
        model_latency = self.cache.access_latency_ns(max(model_bytes, 1), self.locality)
        compute_ns = (
            trace.compute_ops / self.vector_width
        ) * self.ns_per_scalar_op
        return LatencyBreakdown(
            model_ns=trace.model_accesses * model_latency,
            index_ns=trace.index_accesses * index_latency,
            rule_ns=trace.rule_accesses * rule_latency,
            compute_ns=compute_ns,
            hash_ns=trace.hash_ops * self.hash_ns,
        )

    def classifier_lookup_latency(
        self, classifier: Classifier, trace: LookupTrace
    ) -> LatencyBreakdown:
        """Latency of one lookup of ``classifier`` using its own footprint."""
        footprint = classifier.memory_footprint()
        model_bytes = footprint.breakdown.get("rqrmi", 0)
        index_bytes = footprint.index_bytes - model_bytes
        return self.lookup_latency(
            trace, index_bytes, footprint.rule_bytes, model_bytes=model_bytes
        )

    def with_locality(self, locality: float) -> "CostModel":
        """A copy of this model with a different locality estimate."""
        return CostModel(
            cache=self.cache,
            vector_width=self.vector_width,
            ns_per_scalar_op=self.ns_per_scalar_op,
            hash_ns=self.hash_ns,
            access_overhead_ns=self.access_overhead_ns,
            locality=locality,
        )
