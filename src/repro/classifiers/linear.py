"""Linear-search classifier.

The simplest possible classifier: scan every rule in priority order and return
the first match.  It is used as the correctness oracle in tests and as the
degenerate baseline in benchmarks; its lookup cost grows linearly with the
rule-set, which is exactly why the paper's algorithms exist.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.classifiers.base import (
    ClassificationResult,
    Classifier,
    LookupTrace,
    MemoryFootprint,
    RULE_ENTRY_BYTES,
)
from repro.classifiers.registry import register
from repro.rules.rule import Packet, RuleSet

__all__ = ["LinearSearchClassifier"]

#: Packets per chunk in the columnar block path; bounds the (chunk × rules ×
#: fields) boolean intermediate to a few MB.
_BATCH_CHUNK = 512

#: Rules per chunk in the columnar block path: packets whose first match lands
#: in an early chunk drop out of the scan, so the common (skewed-traffic) case
#: never touches the tail of the rule array.
_RULE_CHUNK = 512


@register("linear", aliases=("linear-search",))
class LinearSearchClassifier(Classifier):
    """Priority-ordered linear scan over the rule array."""

    name = "linear"

    def __init__(self, ruleset: RuleSet):
        super().__init__(ruleset)
        #: The rules best-priority first (equal priorities keep rule order).
        self._ordered = ruleset.take(np.argsort(ruleset.priority, kind="stable"))

    def classify_traced(self, packet: Packet | Sequence[int]) -> ClassificationResult:
        return self.classify_with_floor(packet, None)

    def classify_block(
        self,
        block: np.ndarray,
        traces: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar scan: allocation-free, bit-identical to :meth:`classify_traced`.

        Rules are scanned in :data:`_RULE_CHUNK` slices; packets resolved by an
        early chunk drop out of later ones, so trace semantics stay those of
        the sequential first-match scan (``rule_accesses`` is the 1-based
        position of the winning rule, or the full rule count on a miss).
        """
        block = np.asarray(block)
        n = block.shape[0]
        num_rules = len(self._ordered)
        num_fields = self._ordered.lo.shape[1]
        rule_ids = np.full(n, -1, dtype=np.int64)
        priorities = np.zeros(n, dtype=np.int64)
        if num_rules == 0 or n == 0:
            if traces is not None:
                traces[:n] = 0
            return rule_ids, priorities
        values = block.astype(np.int64, copy=False)
        for start in range(0, n, _BATCH_CHUNK):
            chunk = values[start : start + _BATCH_CHUNK]
            size = len(chunk)
            first = np.full(size, num_rules, dtype=np.int64)
            alive = np.arange(size)
            for rule_start in range(0, num_rules, _RULE_CHUNK):
                sub = chunk[alive]
                lo = self._ordered.lo[rule_start : rule_start + _RULE_CHUNK]
                hi = self._ordered.hi[rule_start : rule_start + _RULE_CHUNK]
                matched = np.all(
                    (sub[:, None, :] >= lo[None, :, :])
                    & (sub[:, None, :] <= hi[None, :, :]),
                    axis=2,
                )
                any_match = matched.any(axis=1)
                if any_match.any():
                    resolved = alive[any_match]
                    first[resolved] = rule_start + np.argmax(
                        matched[any_match], axis=1
                    )
                    alive = alive[~any_match]
                    if alive.size == 0:
                        break
            hits = first < num_rules
            winners = first[hits]
            out = slice(start, start + size)
            rule_ids[out][hits] = self._ordered.rule_id[winners]
            priorities[out][hits] = self._ordered.priority[winners]
            if traces is not None:
                scanned = np.where(hits, first + 1, np.int64(num_rules))
                trace_chunk = traces[out]
                trace_chunk[:, 0] = 0
                trace_chunk[:, 1] = scanned
                trace_chunk[:, 2] = 0
                trace_chunk[:, 3] = scanned * num_fields
                trace_chunk[:, 4] = 0
        return rule_ids, priorities

    def classify_with_floor(
        self, packet: Packet | Sequence[int], priority_floor: Optional[int]
    ) -> ClassificationResult:
        values = packet.values if isinstance(packet, Packet) else tuple(packet)
        trace = LookupTrace()
        for rule in self._ordered:
            if priority_floor is not None and rule.priority >= priority_floor:
                break  # rules are priority-ordered; nothing below can win
            trace.rule_accesses += 1
            trace.compute_ops += len(values)
            if rule.matches(values):
                return ClassificationResult(rule, trace)
        return ClassificationResult(None, trace)

    def memory_footprint(self) -> MemoryFootprint:
        rule_bytes = len(self._ordered) * RULE_ENTRY_BYTES
        return MemoryFootprint(
            index_bytes=0,
            rule_bytes=rule_bytes,
            breakdown={"rule_array": rule_bytes},
        )
