"""Tuple Space Search (TSS) classifier.

Srinivasan, Suri and Varghese's Tuple Space Search [SIGCOMM 1999] partitions
the rule-set by the *tuple* of prefix lengths used in each field; all rules of
one tuple can be stored in a single hash table keyed by the masked field
values.  A lookup masks the packet with every tuple's lengths and probes every
table; a secondary check eliminates false positives and the rule order decides
among the survivors.

Range handling: exact values and prefix ranges map to their natural prefix
length; arbitrary (non-prefix) ranges are treated as a wildcard in the tuple
(length 0) and verified during the secondary check.  This mirrors the common
"range-to-nesting-level" simplification used by software TSS implementations
(including Open vSwitch) and avoids rule replication.

This module also holds the one implementation of the hash family:
:class:`TupleHashClassifier` owns the tables, their best-key-first probe order
and the one lookup, and a named baseline is the
``_place`` policy that decides which table a rule goes into — here "the table
of its exact tuple", in :mod:`repro.classifiers.tuplemerge` "the first
compatible table with room".  Buckets and tables are ordered by rule order key
(:func:`~repro.rules.rule.order_key`) and every prune compares keys, so ties
in priority go to the lower rule id.  A built classifier is immutable; online
updates are the engine's overlay (:class:`repro.engine.ClassificationEngine`).

The lookup is one kernel over every table at once, built on a flat probe
index made once after placement (:class:`_ProbeIndex`): the buckets of all
tables sorted by a 64-bit hash of ``(table, masked key)``, each with its
stored masked key and an offset list into one flat array of its key-sorted
rules, plus a prefix table that maps a hash's top bits to the first bucket
that could hold it.  A block is masked to every table's lengths and hashed;
each hash's prefix entry, then a fixed ``depth - 1`` steps over the buckets
that share its prefix, find its bucket without a search.  Comparing the
stored key makes the probe exact, and the candidate scan the forest's
leaves share (:func:`~repro.classifiers.base.scan_candidates`) gives each
bucket's first match below the row's floor, ``fm[row, table]``.  §4's early
termination — probe the tables best key first, stop at the first table that
cannot beat the row's best key so far, and stop inside a bucket at the first
match or the first rule that cannot win — then becomes counters: the running
best key before table *t* is the cumulative minimum of the row's floor and
``fm[row, :t]``, and because tables are sorted by best key and that running
minimum only falls, "table *t* is probed" is exactly ``best_key[t] <
running[t]``.  Within a probed bucket the lookup touches the rules below the
running key up to the first match.  A table that cannot win never lowers the
minimum, so the answer is ``min(floor, fm.min())`` whichever tables were
probed.
"""

from __future__ import annotations

from abc import abstractmethod
from collections import defaultdict
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.classifiers.base import (
    Classifier,
    HASH_ENTRY_BYTES,
    HASH_TABLE_OVERHEAD,
    MemoryFootprint,
    NO_FLOOR,
    RULE_ENTRY_BYTES,
    scan_candidates,
)
from repro.classifiers.registry import register
from repro.rules.fields import prefix_length_of_range
from repro.rules.rule import Rule, RuleSet, split_keys

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
    return value & _field_mask(prefix_len, bits)


def _field_mask(prefix_len: int, bits: int) -> int:
    """The mask keeping the ``prefix_len`` most significant of ``bits`` bits
    (``-1``, all ones, for a full-length prefix)."""
    if prefix_len <= 0:
        return 0
    if prefix_len >= bits:
        return -1
    return ((1 << prefix_len) - 1) << (bits - prefix_len)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place on a uint64 array."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _hash(masked: np.ndarray, multipliers: np.ndarray, salts: np.ndarray) -> np.ndarray:
    """64-bit hash of masked keys laid out fields first: each field times its
    table's random odd multiplier, summed, plus the table's salt, mixed.
    ``masked`` is overwritten with the products: a block's keys are the
    kernel's largest array, and a second one costs more than the multiply."""
    products = masked.view(np.uint64)
    products *= multipliers
    hashed = np.add.reduce(products, axis=0, dtype=np.uint64)
    hashed += salts
    return _mix(hashed)


def _constants(count: int, seed: int) -> np.ndarray:
    """``count`` fixed pseudo-random odd 64-bit constants (splitmix64)."""
    weyl = np.arange(seed, seed + count, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return _mix(weyl) | np.uint64(1)


class _HashTable:
    """One hash table: rules keyed by their values masked to ``lengths``."""

    def __init__(self, lengths: tuple[int, ...], field_bits: Sequence[int]):
        self.lengths = lengths
        self.field_bits = tuple(field_bits)
        self.buckets: dict[tuple[int, ...], list[Rule]] = defaultdict(list)
        #: Smallest order key stored (a placement policy never leaves a table
        #: empty, so this is a real key once built).
        self.best_key = NO_FLOOR

    def key_for_rule(self, rule: Rule) -> tuple[int, ...]:
        return tuple(
            mask_value(lo, length, bits)
            for (lo, _hi), length, bits in zip(rule.ranges, self.lengths, self.field_bits)
        )

    def add(self, rule: Rule) -> None:
        bucket = self.buckets[self.key_for_rule(rule)]
        bucket.append(rule)
        # Key-ordered buckets let a lookup stop at the first match.
        bucket.sort(key=lambda r: r.key)
        self.best_key = min(self.best_key, rule.key)


class _ProbeIndex:
    """Every table's buckets as one flat, sorted probe index (built once).

    Per table (fields first, so a block's rows are the contiguous axis):
    ``masks`` ``(fields, tables, 1)``, the hash's ``multipliers`` and
    ``salts`` and ``best_key`` ``(tables, 1)``.  Per bucket, sorted by
    ``hashes``: the ``owner`` table, the stored masked ``keys``
    ``(fields, buckets)`` and its ``first`` slot and ``count`` (never 0) in
    ``lo``/``hi``/``key``, the rule-set's columns gathered bucket by bucket,
    key-sorted within each.  A last guard bucket (maximal hash, owner ``-1``,
    no slots, at ``last``) keeps every probe slot in range until the exact
    confirm drops it.  ``start[hash >> shift]`` is the first bucket at or
    above a hash's prefix (8-16 prefixes per bucket); its bucket, if any, is
    ``< depth`` past it.
    """

    def __init__(self, tables: Sequence[_HashTable], ruleset: RuleSet):
        count, fields = len(tables), ruleset.num_fields
        self.masks = np.array(
            [[_field_mask(*pair) for pair in zip(t.lengths, t.field_bits)] for t in tables],
            dtype=np.int64,
        ).reshape(count, fields).T[:, :, None]
        self.multipliers = _constants(fields * count, 1).reshape(fields, count, 1)
        self.salts = _constants(count, fields * count + 1)[:, None]
        self.best_key = np.array([t.best_key for t in tables], dtype=np.int64)[:, None]
        owners, keys, buckets = [], [], []
        for number, table in enumerate(tables):
            for key, bucket in table.buckets.items():
                if bucket:  # a placement probe can leave an empty bucket behind
                    owners.append(number)
                    keys.append(key)
                    buckets.append([ruleset.row_of[rule.rule_id] for rule in bucket])
        owners = np.array(owners, dtype=np.int64)
        keys = np.array(keys, dtype=np.int64).reshape(len(buckets), fields).T
        hashes = _hash(keys.copy(), self.multipliers[:, owners, 0], self.salts[owners, 0])
        order = np.argsort(hashes)
        hashes = hashes[order]
        if (hashes[1:] == hashes[:-1]).any():
            raise ValueError(f"{ruleset.name}: two buckets share a probe hash")
        buckets = [buckets[slot] for slot in order.tolist()]
        self.count = np.array([len(bucket) for bucket in buckets], dtype=np.int64)
        self.first = self.count.cumsum() - self.count
        entries = np.array([row for bucket in buckets for row in bucket], dtype=np.int64)
        self.lo, self.hi, self.key = ruleset.lo[entries], ruleset.hi[entries], ruleset.key[entries]
        self.hashes = np.append(hashes, np.uint64(np.iinfo(np.uint64).max))
        bits = (8 * len(self.hashes)).bit_length()
        self.shift = np.uint64(64 - bits)
        prefixes = np.arange(2**bits, dtype=np.uint64) << self.shift
        self.start = np.searchsorted(self.hashes, prefixes)
        self.last = len(self.hashes) - 1
        self.depth = int(np.bincount((self.hashes >> self.shift).view(np.int64)).max())
        self.owner = np.append(owners[order], -1)
        self.keys = np.hstack((keys[:, order], np.zeros((fields, 1), dtype=np.int64)))


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
        # smallest best key first, so a lookup stops at the first table that
        # cannot win.
        self._tables = sorted(tables.values(), key=lambda table: table.best_key)
        self._index = _ProbeIndex(self._tables, self.ruleset)

    # -- lookup ------------------------------------------------------------------

    def classify_block_with_floors(
        self,
        block: np.ndarray,
        floors: Optional[np.ndarray],
        traces: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Floored columnar lookup (contract:
        :meth:`Classifier.classify_block_with_floors
        <repro.classifiers.base.Classifier.classify_block_with_floors>`); a
        row only reports a match whose key is below its floor.

        One probe of the flat index for every ``(row, table)`` pair, one scan
        of the buckets hit, then §4's early breaks replayed as counters
        (module docstring), in a fixed number of array operations per block
        (the probe's ``depth - 1`` steps depend on the index, not the rows).
        """
        index = self._index
        values = np.asarray(block, dtype=np.int64)
        n, fields = values.shape
        floor = (
            np.full(n, NO_FLOOR, dtype=np.int64) if floors is None
            else np.asarray(floors, dtype=np.int64)
        )
        # Every (table, row) key, hashed and looked up; equal hashes are then
        # confirmed field by field, so the probe is exact.
        columns = np.ascontiguousarray(values.T)
        hashed = _hash(index.masks & columns[:, None, :], index.multipliers, index.salts)
        home = slots = index.start[(hashed >> index.shift).view(np.int64)]
        for step in range(1, index.depth):
            later = np.minimum(home + step, index.last)
            slots = np.where(index.hashes[later] == hashed, later, slots)
        tables, rows = (index.hashes[slots] == hashed).nonzero()
        slots = slots[tables, rows]
        exact = (index.owner[slots] == tables) & np.logical_and.reduce(
            index.keys[:, slots] == (index.masks[:, tables, 0] & columns[:, rows]), axis=0
        )
        tables, rows, slots = tables[exact], rows[exact], slots[exact]
        # Each hit bucket's first match below the row's floor; the best wins.
        hit_key, scanned_below = scan_candidates(
            values, rows, index.first[slots], index.count[slots],
            index.lo, index.hi, index.key, floor[rows],
        )
        best = floor.copy()
        np.minimum.at(best, rows, hit_key)
        if traces is not None:
            # running[t] is each row's best key before table t.
            first_key = np.full(hashed.shape, NO_FLOOR, dtype=np.int64)
            first_key[tables, rows] = hit_key
            running = np.minimum.accumulate(np.vstack((floor, first_key)), axis=0)
            probed = index.best_key < running[:-1]
            probes = probed.sum(axis=0)
            scanned = np.zeros(hashed.shape, dtype=np.int64)
            scanned[tables, rows] = scanned_below(running[tables, rows])
            rule_accesses = (scanned * probed).sum(axis=0)
            traces[:n, 0] += probes
            traces[:n, 1] += rule_accesses
            traces[:n, 3] += rule_accesses * fields
            traces[:n, 4] += probes
        return split_keys(np.where(best < floor, best, NO_FLOOR))

    # -- introspection -------------------------------------------------------------

    def memory_footprint(self) -> MemoryFootprint:
        entries = len(self._index.key)
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
            max_bucket=int(self._index.count.max(initial=0)),
            probe_table_entries=len(self._index.start),
            probe_depth=self._index.depth,
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
