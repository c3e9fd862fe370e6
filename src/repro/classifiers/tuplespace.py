"""Tuple Space Search (TSS) classifier.

Srinivasan, Suri and Varghese's Tuple Space Search [SIGCOMM 1999] partitions
the rule-set by the *tuple* of prefix lengths used in each field; all rules of
one tuple can be stored in a single hash table keyed by the masked field
values.  A lookup masks the packet with every tuple's lengths and probes every
table; a secondary check eliminates false positives and priority decides among
the survivors.

Range handling: exact values and prefix ranges map to their natural prefix
length; arbitrary (non-prefix) ranges are treated as a wildcard in the tuple
(length 0) and verified during the secondary check.  This mirrors the common
"range-to-nesting-level" simplification used by software TSS implementations
(including Open vSwitch) and avoids rule replication.

This module also holds the one implementation of the hash family:
:class:`TupleHashClassifier` owns the tables, their best-priority-first probe
order and the §4 early-termination lookup, and a named baseline is the
``_place`` policy that decides which table a rule goes into — here "the table
of its exact tuple", in :mod:`repro.classifiers.tuplemerge` "the first
compatible table with room".  A built classifier is immutable; online updates
are the engine's overlay (:class:`repro.engine.ClassificationEngine`).
"""

from __future__ import annotations

from abc import abstractmethod
from collections import defaultdict
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.classifiers.base import (
    ClassificationResult,
    Classifier,
    HASH_ENTRY_BYTES,
    HASH_TABLE_OVERHEAD,
    LookupTrace,
    MemoryFootprint,
    NO_FLOOR,
    RULE_ENTRY_BYTES,
)
from repro.classifiers.registry import register
from repro.rules.fields import prefix_length_of_range
from repro.rules.rule import Packet, Rule, RuleSet

__all__ = ["TupleHashClassifier", "TupleSpaceSearchClassifier", "rule_tuple", "mask_value"]


def rule_tuple(rule: Rule, field_bits: Sequence[int]) -> tuple[int, ...]:
    """The tuple of effective prefix lengths of ``rule``.

    Prefix-expressible ranges get their true prefix length; other ranges are
    treated as wildcards (length 0).
    """
    lengths = []
    for (lo, hi), bits in zip(rule.ranges, field_bits):
        length = prefix_length_of_range(lo, hi, bits)
        lengths.append(length if length is not None else 0)
    return tuple(lengths)


def mask_value(value: int, prefix_len: int, bits: int) -> int:
    """Keep the ``prefix_len`` most significant bits of ``value``."""
    if prefix_len <= 0:
        return 0
    if prefix_len >= bits:
        return value
    return value & (((1 << prefix_len) - 1) << (bits - prefix_len))


class _HashTable:
    """One hash table: rules keyed by their values masked to ``lengths``."""

    def __init__(self, lengths: tuple[int, ...], field_bits: Sequence[int]):
        self.lengths = lengths
        self.field_bits = tuple(field_bits)
        self.buckets: dict[tuple[int, ...], list[Rule]] = defaultdict(list)
        #: Numerically smallest priority stored; set by the first :meth:`add`
        #: (a placement policy never leaves a table empty).
        self.max_priority: int | None = None

    def key_for_values(self, values: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            mask_value(value, length, bits)
            for value, length, bits in zip(values, self.lengths, self.field_bits)
        )

    def key_for_rule(self, rule: Rule) -> tuple[int, ...]:
        return tuple(
            mask_value(lo, length, bits)
            for (lo, _hi), length, bits in zip(rule.ranges, self.lengths, self.field_bits)
        )

    def add(self, rule: Rule) -> None:
        bucket = self.buckets[self.key_for_rule(rule)]
        bucket.append(rule)
        # Priority-ordered buckets let a lookup stop at the first match.
        bucket.sort(key=lambda r: r.priority)
        if self.max_priority is None or rule.priority < self.max_priority:
            self.max_priority = rule.priority

    @property
    def num_rules(self) -> int:
        return sum(len(bucket) for bucket in self.buckets.values())

    def max_bucket_size(self) -> int:
        return max((len(bucket) for bucket in self.buckets.values()), default=0)


class TupleHashClassifier(Classifier):
    """The hash family: rules in masked-key hash tables, probed best table first.

    A subclass is a placement policy: ``_place(rule, tables)`` puts one rule
    into one of ``tables`` (keyed by mask lengths, in creation order), adding
    a table when it has to, and its constructor hands the rules to
    :meth:`_place_all` in the order it wants them placed.  Everything a lookup
    or a report does with the tables lives here.
    """

    def __init__(self, ruleset: RuleSet):
        super().__init__(ruleset)
        self._field_bits = [spec.bits for spec in ruleset.schema]
        self._tables: list[_HashTable] = []

    @abstractmethod
    def _place(self, rule: Rule, tables: dict[tuple[int, ...], _HashTable]) -> None:
        """Insert ``rule`` into one table of ``tables``."""

    def _place_all(self, rules: Iterable[Rule]) -> None:
        tables: dict[tuple[int, ...], _HashTable] = {}
        for rule in rules:
            self._place(rule, tables)
        # Probe order, fixed here because nothing mutates a table afterwards:
        # best (numerically smallest) priority first, so a lookup stops at the
        # first table that cannot win.
        self._tables = sorted(tables.values(), key=lambda table: table.max_priority)

    # -- lookup ------------------------------------------------------------------

    def classify_traced(self, packet: Packet | Sequence[int]) -> ClassificationResult:
        return self.classify_with_floor(packet, None)

    def classify_with_floor(
        self, packet: Packet | Sequence[int], priority_floor: Optional[int]
    ) -> ClassificationResult:
        """The scalar, paper-faithful reference the columnar loop is tested against."""
        values = packet.values if isinstance(packet, Packet) else tuple(packet)
        trace = LookupTrace()
        best: Rule | None = None
        best_priority = priority_floor
        for table in self._tables:
            if best_priority is not None and table.max_priority >= best_priority:
                # Tables are sorted by best priority; nothing further can win.
                break
            trace.hash_ops += 1
            trace.index_accesses += 1
            bucket = table.buckets.get(table.key_for_values(values))
            if not bucket:
                continue
            for rule in bucket:
                if best_priority is not None and rule.priority >= best_priority:
                    break  # bucket is priority-sorted; nothing better remains
                trace.rule_accesses += 1
                trace.compute_ops += len(values)
                if rule.matches(values):
                    best = rule
                    best_priority = rule.priority
                    break
        return ClassificationResult(best, trace)

    def classify_block_with_floors(
        self,
        block: np.ndarray,
        floors: Optional[np.ndarray],
        traces: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Floored columnar lookup without per-row result objects (contract:
        :meth:`Classifier.classify_block_with_floors
        <repro.classifiers.base.Classifier.classify_block_with_floors>`); a
        row only reports a match strictly better than its floor.

        Row-for-row identical to :meth:`classify_with_floor` (same table
        order, same early breaks, same counters) but allocation-free: no
        :class:`ClassificationResult`/:class:`LookupTrace` objects are built.
        """
        n = len(block)
        rule_ids = np.full(n, -1, dtype=np.int64)
        priorities = np.zeros(n, dtype=np.int64)
        tables = self._tables
        for row in range(n):
            values = tuple(int(v) for v in block[row])
            best_priority = NO_FLOOR if floors is None else int(floors[row])
            best_id = -1
            index_accesses = rule_accesses = compute_ops = hash_ops = 0
            for table in tables:
                if table.max_priority >= best_priority:
                    break
                hash_ops += 1
                index_accesses += 1
                bucket = table.buckets.get(table.key_for_values(values))
                if not bucket:
                    continue
                for rule in bucket:
                    if rule.priority >= best_priority:
                        break  # bucket is priority-sorted; nothing better remains
                    rule_accesses += 1
                    compute_ops += len(values)
                    if rule.matches(values):
                        best_id = rule.rule_id
                        best_priority = rule.priority
                        break
            if best_id >= 0:
                rule_ids[row] = best_id
                priorities[row] = best_priority
            if traces is not None:
                traces[row, 0] += index_accesses
                traces[row, 1] += rule_accesses
                traces[row, 3] += compute_ops
                traces[row, 4] += hash_ops
        return rule_ids, priorities

    # -- introspection -------------------------------------------------------------

    def memory_footprint(self) -> MemoryFootprint:
        entries = sum(table.num_rules for table in self._tables)
        buckets = sum(len(table.buckets) for table in self._tables)
        breakdown = {
            "tables": len(self._tables) * HASH_TABLE_OVERHEAD,
            "buckets": buckets * HASH_ENTRY_BYTES,
            "entries": entries * HASH_ENTRY_BYTES,
        }
        return MemoryFootprint(
            index_bytes=sum(breakdown.values()),
            rule_bytes=len(self.ruleset) * RULE_ENTRY_BYTES,
            breakdown=breakdown,
        )

    def statistics(self) -> dict[str, object]:
        stats = super().statistics()
        stats.update(
            num_tables=len(self._tables),
            max_bucket=max((t.max_bucket_size() for t in self._tables), default=0),
        )
        return stats

    @property
    def num_tables(self) -> int:
        return len(self._tables)


@register("tss", aliases=("tuplespace",))
class TupleSpaceSearchClassifier(TupleHashClassifier):
    """Classic Tuple Space Search: a rule goes in the table of its exact tuple."""

    name = "tss"

    def __init__(self, ruleset: RuleSet):
        super().__init__(ruleset)
        self._place_all(ruleset.rules)

    def _place(self, rule: Rule, tables: dict[tuple[int, ...], _HashTable]) -> None:
        lengths = rule_tuple(rule, self._field_bits)
        if lengths not in tables:
            tables[lengths] = _HashTable(lengths, self._field_bits)
        tables[lengths].add(rule)
