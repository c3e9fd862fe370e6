"""TupleMerge classifier.

TupleMerge [Daly et al., ToN 2019] improves Tuple Space Search by *merging*
compatible tuples into a single hash table with relaxed masks: a rule whose
per-field prefix lengths are all at least the table's lengths can be hashed
under the table's (shorter) masks.  This reduces the number of tables probed
per lookup dramatically, at the cost of more false-positive candidates per
bucket; a per-bucket *collision limit* (40 in the paper and here) bounds that
cost, triggering the creation of a more specific table when exceeded.

TupleMerge keeps TSS's O(1)-ish update behaviour, which is why the paper uses
it as the update-capable remainder classifier for NuevoMatch.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence

import numpy as np

from repro.classifiers.base import (
    ClassificationResult,
    HASH_ENTRY_BYTES,
    HASH_TABLE_OVERHEAD,
    LookupTrace,
    MemoryFootprint,
    NO_FLOOR,
    RULE_ENTRY_BYTES,
    UpdatableClassifier,
)
from repro.classifiers.registry import register
from repro.classifiers.tuplespace import mask_value, rule_tuple
from repro.rules.rule import Packet, Rule, RuleSet

__all__ = ["TupleMergeClassifier"]

#: Default per-bucket collision limit, as recommended by the TupleMerge paper.
DEFAULT_COLLISION_LIMIT = 40

#: Coarse IP prefix-length grids used when seeding new tables.  The first
#: (coarser) grid is tried first so that many tuples merge into few tables;
#: when the collision limit forces a more specific table, the finer grid and
#: finally the rule's own tuple are used.
_IP_GRIDS = ((0, 16), (0, 8, 16, 24, 32))


class _MergedTable:
    """A hash table with relaxed masks holding rules from several tuples."""

    def __init__(self, lengths: tuple[int, ...], field_bits: Sequence[int]):
        self.lengths = lengths
        self.field_bits = tuple(field_bits)
        self.buckets: dict[tuple[int, ...], list[Rule]] = defaultdict(list)
        self.max_priority: int | None = None

    def compatible(self, tuple_lengths: tuple[int, ...]) -> bool:
        """True if a rule with ``tuple_lengths`` can be stored in this table."""
        return all(
            rule_len >= table_len
            for rule_len, table_len in zip(tuple_lengths, self.lengths)
        )

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

    def bucket_size_after_insert(self, rule: Rule) -> int:
        return len(self.buckets[self.key_for_rule(rule)]) + 1

    def insert(self, rule: Rule) -> None:
        bucket = self.buckets[self.key_for_rule(rule)]
        bucket.append(rule)
        # Buckets are kept in priority order so a lookup can stop at the first
        # matching candidate.
        bucket.sort(key=lambda r: r.priority)
        if self.max_priority is None or rule.priority < self.max_priority:
            self.max_priority = rule.priority

    def remove(self, rule_id: int) -> bool:
        for key, bucket in list(self.buckets.items()):
            for index, rule in enumerate(bucket):
                if rule.rule_id == rule_id:
                    del bucket[index]
                    if not bucket:
                        del self.buckets[key]
                    self._recompute_max_priority()
                    return True
        return False

    def _recompute_max_priority(self) -> None:
        priorities = [rule.priority for bucket in self.buckets.values() for rule in bucket]
        self.max_priority = min(priorities) if priorities else None

    @property
    def num_rules(self) -> int:
        return sum(len(bucket) for bucket in self.buckets.values())

    def max_bucket_size(self) -> int:
        return max((len(bucket) for bucket in self.buckets.values()), default=0)


def _relaxed_lengths(
    tuple_lengths: tuple[int, ...], field_bits: Sequence[int], grid_index: int
) -> tuple[int, ...]:
    """Relax a rule's tuple to seed a new merged table.

    ``grid_index`` selects how coarse the relaxation is: 0 and 1 snap IP
    lengths down onto :data:`_IP_GRIDS`; anything larger returns the rule's
    own tuple (no relaxation).
    """
    if grid_index >= len(_IP_GRIDS):
        return tuple(tuple_lengths)
    grid = _IP_GRIDS[grid_index]
    relaxed = []
    for length, bits in zip(tuple_lengths, field_bits):
        if bits >= 32:  # IP-like field: snap down to the grid.
            snapped = max((g for g in grid if g <= length), default=0)
            relaxed.append(snapped)
        else:
            # Ports/protocol: either "exact" or "wildcard" hashing.
            relaxed.append(bits if length == bits else 0)
    return tuple(relaxed)


@register("tm", aliases=("tuplemerge",))
class TupleMergeClassifier(UpdatableClassifier):
    """TupleMerge: merged tuple-space hash tables with a collision limit."""

    name = "tm"

    def __init__(self, ruleset: RuleSet, collision_limit: int = DEFAULT_COLLISION_LIMIT):
        super().__init__(ruleset)
        if collision_limit < 1:
            raise ValueError("collision_limit must be at least 1")
        self.collision_limit = collision_limit
        self._field_bits = [spec.bits for spec in ruleset.schema]
        self._tables: list[_MergedTable] = []
        # Inserting more-specific rules first produces fewer, better tables;
        # the original implementation sorts by tuple specificity as well.
        for rule in sorted(
            ruleset.rules,
            key=lambda r: -sum(rule_tuple(r, self._field_bits)),
        ):
            self._insert_into_tables(rule)

    @classmethod
    def build(
        cls, ruleset: RuleSet, collision_limit: int = DEFAULT_COLLISION_LIMIT, **params
    ) -> "TupleMergeClassifier":
        classifier = cls(ruleset, collision_limit=collision_limit)
        classifier.build_params = {"collision_limit": collision_limit}
        return classifier

    # -- construction / updates -----------------------------------------------

    def _insert_into_tables(self, rule: Rule) -> None:
        lengths = rule_tuple(rule, self._field_bits)
        for table in self._tables:
            if table.compatible(lengths) and (
                table.bucket_size_after_insert(rule) <= self.collision_limit
            ):
                table.insert(rule)
                return
        # No compatible table with room: seed a new table, coarsest grid first;
        # if a table with those exact lengths already exists (it must have been
        # full), fall back to a finer grid and finally to the rule's own tuple.
        existing = {table.lengths for table in self._tables}
        for grid_index in range(len(_IP_GRIDS) + 1):
            relaxed = _relaxed_lengths(lengths, self._field_bits, grid_index)
            if relaxed not in existing:
                table = _MergedTable(relaxed, self._field_bits)
                table.insert(rule)
                self._tables.append(table)
                return
        # Every candidate tuple already has a (full) table: accept the
        # collision-limit overflow in the most specific one.
        for table in self._tables:
            if table.lengths == lengths:
                table.insert(rule)
                return
        table = _MergedTable(lengths, self._field_bits)
        table.insert(rule)
        self._tables.append(table)

    def insert(self, rule: Rule) -> None:
        self._insert_into_tables(rule)

    def remove(self, rule_id: int) -> bool:
        for index, table in enumerate(self._tables):
            if table.remove(rule_id):
                if table.num_rules == 0:
                    del self._tables[index]
                return True
        return False

    # -- lookup -----------------------------------------------------------------

    def _ordered_tables(self) -> list[_MergedTable]:
        return sorted(
            self._tables,
            key=lambda table: table.max_priority if table.max_priority is not None else 1 << 60,
        )

    def classify_traced(self, packet: Packet | Sequence[int]) -> ClassificationResult:
        return self.classify_with_floor(packet, None)

    def classify_with_floor(
        self, packet: Packet | Sequence[int], priority_floor: Optional[int]
    ) -> ClassificationResult:
        values = packet.values if isinstance(packet, Packet) else tuple(packet)
        trace = LookupTrace()
        best: Rule | None = None
        best_priority = priority_floor
        for table in self._ordered_tables():
            if (
                best_priority is not None
                and table.max_priority is not None
                and table.max_priority >= best_priority
            ):
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

    def classify_block(
        self,
        block: np.ndarray,
        traces: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar lookup writing straight into result arrays.

        Row-for-row identical to :meth:`classify_traced` (same table order,
        same early breaks, same counters) but allocation-free: no
        :class:`ClassificationResult`/:class:`LookupTrace` objects are built.
        """
        if traces is not None:
            traces[: len(block)] = 0
        return self.classify_block_with_floors(block, None, traces=traces)

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
        """
        n = len(block)
        rule_ids = np.full(n, -1, dtype=np.int64)
        priorities = np.zeros(n, dtype=np.int64)
        tables = self._ordered_tables()
        for row in range(n):
            values = tuple(int(v) for v in block[row])
            best_priority = NO_FLOOR if floors is None else int(floors[row])
            best_id = -1
            index_accesses = rule_accesses = compute_ops = hash_ops = 0
            for table in tables:
                table_max = table.max_priority
                if table_max is not None and table_max >= best_priority:
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

    # -- introspection ------------------------------------------------------------

    def memory_footprint(self) -> MemoryFootprint:
        entries = sum(table.num_rules for table in self._tables)
        buckets = sum(len(table.buckets) for table in self._tables)
        index_bytes = (
            len(self._tables) * HASH_TABLE_OVERHEAD
            + buckets * HASH_ENTRY_BYTES
            + entries * HASH_ENTRY_BYTES
        )
        rule_bytes = len(self.ruleset) * RULE_ENTRY_BYTES
        return MemoryFootprint(
            index_bytes=index_bytes,
            rule_bytes=rule_bytes,
            breakdown={
                "tables": len(self._tables) * HASH_TABLE_OVERHEAD,
                "buckets": buckets * HASH_ENTRY_BYTES,
                "entries": entries * HASH_ENTRY_BYTES,
            },
        )

    def statistics(self) -> dict[str, object]:
        stats = super().statistics()
        stats.update(
            num_tables=len(self._tables),
            collision_limit=self.collision_limit,
            max_bucket=max((t.max_bucket_size() for t in self._tables), default=0),
        )
        return stats

    @property
    def num_tables(self) -> int:
        return len(self._tables)
