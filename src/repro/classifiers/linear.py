"""Linear-search classifier.

The simplest possible classifier: scan every rule in the one rule order
(:meth:`RuleSet.best_first <repro.rules.rule.RuleSet.best_first>`, smallest
order key first) and return the first match.  It is used as the correctness
oracle in tests and as the degenerate baseline in benchmarks; its lookup cost
grows linearly with the rule-set, which is exactly why the paper's algorithms
exist.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import Classifier, MemoryFootprint, RULE_ENTRY_BYTES
from repro.classifiers.registry import register
from repro.rules.rule import RuleSet

__all__ = ["LinearSearchClassifier"]

#: ``(rows × rules × fields)`` cells one compare of the block path may touch:
#: the rule array is scanned in slices this wide for the block at hand, which
#: bounds the boolean intermediates to a few MB at any block size.
_CHUNK_CELLS = 1 << 20


@register("linear", aliases=("linear-search",))
class LinearSearchClassifier(Classifier):
    """Key-ordered linear scan over the rule array."""

    name = "linear"

    def __init__(self, ruleset: RuleSet):
        super().__init__(ruleset)
        self._ordered = ruleset.best_first()
        # Fields-first copies of the bounds for the block scan.
        self._lo = np.ascontiguousarray(self._ordered.lo.T)
        self._hi = np.ascontiguousarray(self._ordered.hi.T)

    def classify_block_with_floors(
        self,
        block: np.ndarray,
        floors: Optional[np.ndarray],
        traces: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Floored columnar scan (contract:
        :meth:`Classifier.classify_block_with_floors
        <repro.classifiers.base.Classifier.classify_block_with_floors>`).

        A row scans the rules whose key is below its floor —
        ``searchsorted(key, floor)`` of them, its limit — in order, slice by
        slice, and leaves the scan at its first match; a first match at or
        past the limit is a miss.  ``rule_accesses`` is the 1-based position
        of a hit, or the limit on a miss.
        """
        ordered = self._ordered
        values = np.asarray(block).astype(np.int64, copy=False)
        n, fields = values.shape
        limit = (
            np.full(n, len(ordered), dtype=np.int64) if floors is None
            else np.searchsorted(ordered.key, floors)
        )
        first = limit.copy()  # the first match, or the limit on a miss
        alive = np.arange(n)
        width = max(1, _CHUNK_CELLS // max(1, n * fields))
        columns = values.T[:, :, None]  # fields first: rules are the inner axis
        for start in range(0, len(ordered), width):
            alive = alive[limit[alive] > start]
            if alive.size == 0:
                break
            packets = columns[:, alive]
            matched = (
                (packets >= self._lo[:, None, start : start + width])
                & (packets <= self._hi[:, None, start : start + width])
            ).all(axis=0)
            hit = matched.any(axis=1)
            first[alive[hit]] = start + matched[hit].argmax(axis=1)
            alive = alive[~hit]
        hits = first < limit
        rule_ids = np.full(n, -1, dtype=np.int64)
        priorities = np.zeros(n, dtype=np.int64)
        rule_ids[hits] = ordered.rule_id[first[hits]]
        priorities[hits] = ordered.priority[first[hits]]
        if traces is not None:
            scanned = np.where(hits, first + 1, limit)
            traces[:n, 1] += scanned
            traces[:n, 3] += scanned * fields
        return rule_ids, priorities

    def memory_footprint(self) -> MemoryFootprint:
        rule_bytes = len(self._ordered) * RULE_ENTRY_BYTES
        return MemoryFootprint(
            index_bytes=0,
            rule_bytes=rule_bytes,
            breakdown={"rule_array": rule_bytes},
        )
