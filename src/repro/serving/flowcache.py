"""Exact-match flow caching: :class:`FlowCache` and :class:`CachedEngine`.

The paper's skewed-traffic evaluation (§5.1.1, Figure 12) draws traces where
the 3% most frequent flows carry 80–95% of the packets.  In that regime the
classic software fast path is an exact-match *flow cache*: the first packet of
a flow pays the full classification (RQ-RMI inference + remainder search), and
every later packet of the same five-tuple is answered by one hash probe.
This module provides that layer for the serving stack:

* :class:`FlowCache` — a purely columnar LRU mapping five-tuple keys to the
  winner's ``(rule_id, priority)``; it holds no :class:`Rule` objects.  Probe
  and fill operate on whole blocks, eviction removes the least-recently-used
  entries in bulk, and invalidation is a vectorized range-containment scan
  over the key matrix.
* :class:`CachedEngine` — fronts an engine stack
  (:class:`~repro.engine.ClassificationEngine` or
  :class:`~repro.serving.ShardedEngine`) with a :class:`FlowCache`: probe the
  block, classify only the missed flows (each distinct missed flow once), fill,
  and return results in arrival order — identical matches to the uncached
  engine.  Object results come from the shared
  :class:`~repro.engine.stack.EngineStack` materializer.

Consistency contract (eviction before ack)
------------------------------------------

A cached result may never outlive the rule-set state it was computed from.
:class:`CachedEngine` therefore registers an invalidation listener with the
wrapped engine's :class:`~repro.serving.updates.UpdateQueue` (or applies the
same policy inline for a plain :class:`~repro.engine.ClassificationEngine`):

* ``insert(rule)`` evicts every cached flow whose five-tuple lies inside the
  new rule's hyper-rectangle (the new rule may now win for those flows, and
  cached *no-match* entries inside it are stale too), plus any entry cached
  for a previous version of the same ``rule_id``.
* ``remove(rule_id)`` evicts every cached flow whose winner was that rule.

Both run *before the update call returns*: once ``insert``/``remove`` is
acknowledged, a subsequent ``classify`` cannot serve a pre-update cached
result.  A slow-path fill that raced an update cannot resurrect pre-update
state either: :class:`CachedEngine` snapshots the cache's invalidation
*epoch* before classifying misses, and :meth:`FlowCache.fill_block` drops the
fill if any invalidation landed in between.  Results already *returned*
before the ack reflect the old state, exactly as a lookup that raced the
update would — callers needing a fence must order their lookups after the
update call returns (the same contract the update queue documents for
overlays).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.classifiers.base import HASH_TABLE_OVERHEAD, POINTER_BYTES
from repro.engine.stack import EngineStack, validate_block
from repro.rules.rule import Rule

__all__ = ["DEFAULT_CACHE_CAPACITY", "CacheStats", "FlowCache", "CachedEngine"]

#: Default entry count for CLI/benchmark front-ends (a 4K-flow cache keys
#: 5 × 8-byte fields per entry, ~224 KB — L2-resident on the paper's machine).
DEFAULT_CACHE_CAPACITY = 4096

#: ``rule_id`` sentinel stored for a cached *no-match* result.
_NO_MATCH = -1


@dataclass
class CacheStats:
    """Aggregate probe/fill/eviction counters of a :class:`FlowCache`."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    dropped_fills: int = 0

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from the cache (0.0 when unused)."""
        return self.hits / self.probes if self.probes else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "dropped_fills": self.dropped_fills,
        }


def _row_bytes(keys: np.ndarray) -> list[bytes]:
    """Per-row dict keys for a contiguous key matrix, via one ``tobytes``.

    One serialization of the whole matrix plus per-row slicing beats a
    ``tobytes`` call per row, and ``bytes`` keys hash/compare faster than
    numpy void scalars (which are unhashable on recent numpy anyway).
    """
    raw = keys.tobytes()
    stride = keys.shape[1] * keys.itemsize
    return [raw[start : start + stride] for start in range(0, len(raw), stride)]


class FlowCache:
    """An exact-match five-tuple → ``(rule_id, priority)`` LRU cache.

    Entries live in fixed, slot-parallel storage: a ``(capacity, num_fields)``
    uint64 key matrix, winner ``rule_id`` and priority vectors and a last-used
    clock vector (all numpy), plus a bytes-key → slot dict for exact probes.
    Batch fills evict the *k* least-recently-used entries in one
    ``argpartition``; invalidation scans the key matrix with vectorized range
    containment, so update cost does not depend on rule count.

    No-match results are cached too (``rule_id`` sentinel −1): skewed traces
    repeat unmatched flows as often as matched ones, and the insert-side
    invalidation evicts any cached no-match the new rule now covers.

    A ``capacity`` of 0 disables the cache: probes always miss, fills are
    dropped.

    Thread safety: probe, fill, invalidation and clear serialize on an
    internal lock, so listener-driven invalidation (which runs on the
    updater's thread) cannot corrupt the slot bookkeeping or hand a probe
    another flow's entry; the epoch check in :meth:`fill_block` additionally
    fences fills whose winners were computed before an invalidation landed.
    """

    def __init__(self, capacity: int, num_fields: int = 5):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if num_fields < 1:
            raise ValueError("num_fields must be >= 1")
        self.capacity = capacity
        self.num_fields = num_fields
        self.stats = CacheStats()
        self._keys = np.zeros((capacity, num_fields), dtype=np.uint64)
        self._rule_ids = np.full(capacity, _NO_MATCH, dtype=np.int64)
        self._priorities = np.zeros(capacity, dtype=np.int64)
        self._last_used = np.zeros(capacity, dtype=np.int64)
        self._occupied = np.zeros(capacity, dtype=bool)
        self._slot_keys: list[bytes | None] = [None] * capacity
        self._index: dict[bytes, int] = {}
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        self._clock = 0
        self._epoch = 0
        # Windowed hit/miss deltas for the cache tuner (drained by
        # take_hit_window); aggregate history stays in ``stats``.
        self._window_hits = 0
        self._window_misses = 0
        # Serializes probe/fill against listener-driven invalidation: the
        # UpdateQueue notifies from the updater's thread, and an unlocked
        # probe racing _drop_slot/_store could read another flow's slot.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    @property
    def epoch(self) -> int:
        """Invalidation epoch: bumped by every invalidate/clear call.

        Snapshot it before computing results on the slow path and pass it to
        :meth:`fill_block`: a fill whose epoch is stale (an update was
        acknowledged while the results were being computed) is dropped rather
        than re-caching state from before the update.
        """
        return self._epoch

    # -------------------------------------------------------------- probe/fill

    def probe_block(
        self, keys: np.ndarray, row_bytes: Sequence[bytes] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar probe: ``(rule_ids, priorities, hit_mask)``, no objects.

        ``rule_ids``/``priorities`` are int64 ``(n,)`` in the one columnar
        miss encoding (``-1``/``0``); a *cached no-match* is a hit row with
        ``rule_id == -1`` — the mask is what separates it from a cold miss.
        Hit slots' LRU clocks advance together.  ``row_bytes`` lets a caller
        that already serialized the rows (the :class:`CachedEngine` hot path
        reuses them for miss dedup) skip the per-row ``tobytes``.
        """
        n = len(keys)
        rule_ids = np.full(n, _NO_MATCH, dtype=np.int64)
        priorities = np.zeros(n, dtype=np.int64)
        mask = np.zeros(n, dtype=bool)
        if row_bytes is None:
            row_bytes = _row_bytes(keys)
        with self._lock:
            if not self._index:
                self.stats.misses += n
                self._window_misses += n
                return rule_ids, priorities, mask
            hit_rows: list[int] = []
            hit_slots: list[int] = []
            index = self._index
            for row in range(n):
                slot = index.get(row_bytes[row])
                if slot is not None:
                    hit_rows.append(row)
                    hit_slots.append(slot)
            if hit_slots:
                self._clock += 1
                self._last_used[hit_slots] = self._clock
                rule_ids[hit_rows] = self._rule_ids[hit_slots]
                priorities[hit_rows] = self._priorities[hit_slots]
                mask[hit_rows] = True
            self.stats.hits += len(hit_slots)
            self.stats.misses += n - len(hit_slots)
            self._window_hits += len(hit_slots)
            self._window_misses += n - len(hit_slots)
        return rule_ids, priorities, mask

    def fill_block(
        self,
        keys: np.ndarray,
        rule_ids: np.ndarray,
        priorities: np.ndarray,
        epoch: int | None = None,
        row_bytes: Sequence[bytes] | None = None,
    ) -> None:
        """Cache ``(key row, rule_id, priority)`` triples, bulk-evicting LRU
        entries as needed.

        ``rule_id == -1`` rows cache as no-match entries.  Duplicate keys
        within the block collapse to one entry; keys already cached are
        refreshed in place.  When the block brings more new flows than
        ``capacity``, only the last ``capacity`` of them are kept (they are
        the most recent fills).

        ``epoch`` is the :attr:`epoch` snapshot taken before the winners were
        computed.  If an invalidation landed in between, the whole fill is
        dropped (counted in ``stats.dropped_fills``): the winners may predate
        an acknowledged update, and caching them would let a post-ack lookup
        observe pre-update state.
        """
        if self.capacity == 0 or not len(keys):
            return
        if row_bytes is None:
            row_bytes = _row_bytes(keys)
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                self.stats.dropped_fills += 1
                return
            fresh: dict[bytes, int] = {}
            for row, key in enumerate(row_bytes):
                slot = self._index.get(key)
                if slot is not None:
                    self._store(slot, keys[row], key, rule_ids[row], priorities[row])
                else:
                    fresh[key] = row
            if len(fresh) > self.capacity:
                fresh = dict(list(fresh.items())[-self.capacity:])
            overflow = len(fresh) - len(self._free)
            if overflow > 0:
                self._evict_lru(overflow)
            for key, row in fresh.items():
                slot = self._free.pop()
                self._store(slot, keys[row], key, rule_ids[row], priorities[row])
                self._index[key] = slot
                self.stats.insertions += 1

    def _store(self, slot: int, row: np.ndarray, key: bytes, rule_id, priority) -> None:
        self._keys[slot] = row
        self._rule_ids[slot] = rule_id
        self._priorities[slot] = priority if rule_id >= 0 else 0
        self._slot_keys[slot] = key
        self._occupied[slot] = True
        self._clock += 1
        self._last_used[slot] = self._clock

    def _evict_lru(self, count: int) -> None:
        occupied = np.flatnonzero(self._occupied)
        count = min(count, len(occupied))
        if count == 0:
            return
        if count < len(occupied):
            oldest = occupied[
                np.argpartition(self._last_used[occupied], count - 1)[:count]
            ]
        else:
            oldest = occupied
        for slot in oldest:
            self._drop_slot(int(slot))
            self.stats.evictions += 1

    def _drop_slot(self, slot: int) -> None:
        key = self._slot_keys[slot]
        assert key is not None
        del self._index[key]
        self._slot_keys[slot] = None
        self._rule_ids[slot] = _NO_MATCH
        self._priorities[slot] = 0
        self._occupied[slot] = False
        self._free.append(slot)

    # ------------------------------------------------------------ invalidation

    def invalidate_insert(self, rule: Rule) -> int:
        """Evict entries a newly inserted/replaced ``rule`` could change.

        Every cached flow inside the rule's hyper-rectangle (vectorized
        containment over the key matrix) plus any entry whose winner carries
        the same ``rule_id`` (a stale previous version).  Returns the number
        of evicted entries.
        """
        with self._lock:
            self._epoch += 1
            if not self._index:
                return 0
            lows = np.array([lo for lo, _hi in rule.ranges], dtype=np.uint64)
            highs = np.array([hi for _lo, hi in rule.ranges], dtype=np.uint64)
            stale = self._occupied & (
                ((self._keys >= lows) & (self._keys <= highs)).all(axis=1)
                | (self._rule_ids == rule.rule_id)
            )
            return self._drop_mask(stale)

    def invalidate_remove(self, rule_id: int) -> int:
        """Evict entries whose cached winner is the removed rule."""
        with self._lock:
            self._epoch += 1
            if not self._index:
                return 0
            stale = self._occupied & (self._rule_ids == rule_id)
            return self._drop_mask(stale)

    def _drop_mask(self, stale: np.ndarray) -> int:
        slots = np.flatnonzero(stale)
        for slot in slots:
            self._drop_slot(int(slot))
        self.stats.invalidations += len(slots)
        return len(slots)

    def handle_update(self, op: str, payload) -> None:
        """:class:`~repro.serving.updates.UpdateQueue` listener entry point."""
        if op == "insert":
            self.invalidate_insert(payload)
        elif op == "remove":
            self.invalidate_remove(payload)
        else:  # pragma: no cover - future-proofing
            raise ValueError(f"unknown update op {op!r}")

    def clear(self) -> int:
        """Drop every entry (counted as invalidations); returns the count."""
        with self._lock:
            self._epoch += 1
            return self._drop_mask(self._occupied.copy())

    # ---------------------------------------------------------------- resizing

    def resize(self, capacity: int) -> int:
        """Change capacity in place, keeping the most-recently-used entries.

        Shrinking below the current occupancy evicts the LRU overflow first
        (counted in ``stats.evictions``); surviving entries keep their LRU
        clocks and winners.  The invalidation epoch is *not* bumped — a
        resize changes no rule state, so an in-flight slow-path fill remains
        valid and is not dropped.  Returns the number of entries evicted.
        """
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        with self._lock:
            if capacity == self.capacity:
                return 0
            evicted = 0
            overflow = len(self._index) - capacity
            if overflow > 0:
                before = self.stats.evictions
                self._evict_lru(overflow)
                evicted = self.stats.evictions - before
            survivors = np.flatnonzero(self._occupied)
            keys = self._keys[survivors].copy()
            rule_ids = self._rule_ids[survivors].copy()
            priorities = self._priorities[survivors].copy()
            last_used = self._last_used[survivors].copy()
            slot_keys = [self._slot_keys[int(slot)] for slot in survivors]
            self.capacity = capacity
            self._keys = np.zeros((capacity, self.num_fields), dtype=np.uint64)
            self._rule_ids = np.full(capacity, _NO_MATCH, dtype=np.int64)
            self._priorities = np.zeros(capacity, dtype=np.int64)
            self._last_used = np.zeros(capacity, dtype=np.int64)
            self._occupied = np.zeros(capacity, dtype=bool)
            self._slot_keys = [None] * capacity
            self._index = {}
            count = len(survivors)
            if count:
                self._keys[:count] = keys
                self._rule_ids[:count] = rule_ids
                self._priorities[:count] = priorities
                self._last_used[:count] = last_used
                self._occupied[:count] = True
                for slot in range(count):
                    key = slot_keys[slot]
                    assert key is not None
                    self._slot_keys[slot] = key
                    self._index[key] = slot
            self._free = list(range(capacity - 1, count - 1, -1))
            return evicted

    def take_hit_window(self) -> tuple[int, int]:
        """Drain and return ``(hits, misses)`` accumulated since the last call.

        The :class:`~repro.serving.control.CacheTuner` consumes one window per
        control interval; aggregate counters in :attr:`stats` are unaffected.
        """
        with self._lock:
            window = (self._window_hits, self._window_misses)
            self._window_hits = 0
            self._window_misses = 0
            return window

    # ----------------------------------------------------------- introspection

    def footprint_bytes(self) -> int:
        """Size of the cache structures, for cache-hierarchy placement.

        Key matrix + winner ids + winner priorities + LRU clocks + one
        index entry per slot, plus a fixed table overhead — the quantity the
        replay harness feeds to
        :meth:`repro.simulation.CacheHierarchy.access_latency_ns` to price a
        hit.
        """
        per_entry = self.num_fields * 8 + 8 + 8 + 8 + POINTER_BYTES
        return HASH_TABLE_OVERHEAD + self.capacity * per_entry

    def statistics(self) -> dict[str, object]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._index),
                "footprint_bytes": self.footprint_bytes(),
                **self.stats.as_dict(),
            }


class CachedEngine(EngineStack):
    """A flow cache fronting an engine stack.

    ``classify_block`` probes the cache, classifies each *distinct* missed
    five-tuple once through the wrapped engine, fills the cache and returns
    per-packet results in arrival order.  Matches are identical to the
    uncached engine; hit rows carry the cache's own trace (one hash + one
    index access) instead of the full lookup's.

    If the wrapped engine exposes an ``updates``
    :class:`~repro.serving.updates.UpdateQueue` (the
    :class:`~repro.serving.ShardedEngine` does), an invalidation listener is
    registered so *any* update path — including direct calls on the wrapped
    engine — evicts stale entries before the update is acknowledged.  For a
    plain :class:`~repro.engine.ClassificationEngine`, route updates through
    :meth:`insert`/:meth:`remove` on this wrapper, which applies the same
    eviction-before-ack ordering inline.
    """

    def __init__(self, engine, capacity: int = DEFAULT_CACHE_CAPACITY):
        self.engine = engine
        self.cache = FlowCache(capacity, len(engine.schema))
        self._queue = getattr(engine, "updates", None)
        if self._queue is not None:
            self._queue.add_listener(self.cache.handle_update)

    # ------------------------------------------------------------------ serve

    @property
    def ruleset(self):
        return self.engine.ruleset

    @property
    def schema(self):
        return self.engine.schema

    def rules_by_id(self, refresh: bool = False) -> dict[int, Rule]:
        """``rule_id -> Rule`` over the wrapped engine's live rules."""
        return self.engine.rules_by_id(refresh=refresh)

    def classify_block(
        self, block, traces: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar lookup through the cache: probe → classify misses → fill.

        The validated block *is* the cache's key matrix, so the hot path is
        one ``tobytes`` plus dict probes — no :class:`~repro.rules.rule.Packet`,
        :class:`~repro.classifiers.base.ClassificationResult` or
        :class:`~repro.classifiers.base.LookupTrace` objects are created.
        Distinct missed flows classify once through the wrapped engine's
        ``classify_block``; in-batch duplicates copy the first occurrence's
        columnar result.  Misses carry ``rule_id == -1`` and ``priority ==
        0``; ``traces`` rows are the hit trace (one hash + one index access)
        for cache and in-batch duplicate hits, the wrapped engine's trace
        otherwise.
        """
        block = validate_block(block)
        n = block.shape[0]
        if traces is not None:
            traces[:n] = 0
        if n == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        row_bytes = _row_bytes(block)
        rule_ids, priorities, hit_mask = self.cache.probe_block(
            block, row_bytes=row_bytes
        )
        if traces is not None:
            traces[hit_mask, 0] = 1
            traces[hit_mask, 4] = 1
        miss_rows = np.flatnonzero(~hit_mask)
        if miss_rows.size:
            # Classify each distinct missed flow once: under skewed traffic a
            # batch repeats hot flows, and duplicates resolve to the same rule.
            first_row: dict[bytes, int] = {}
            for row in miss_rows:
                first_row.setdefault(row_bytes[row], int(row))
            unique_rows = np.array(sorted(first_row.values()), dtype=np.int64)
            # The epoch snapshot predates the slow-path classification: if an
            # update was acknowledged meanwhile, the fill is dropped so no
            # post-ack lookup can hit pre-update results.
            epoch = self.cache.epoch
            sub_block = block[unique_rows]
            sub_traces = (
                np.zeros((len(unique_rows), traces.shape[1]), dtype=np.int64)
                if traces is not None
                else None
            )
            sub_ids, sub_pris = self.engine.classify_block(
                sub_block, traces=sub_traces
            )
            rule_ids[unique_rows] = sub_ids
            priorities[unique_rows] = sub_pris
            if traces is not None:
                traces[unique_rows] = sub_traces
            if len(unique_rows) < miss_rows.size:
                # In-batch duplicates of a missed flow resolve from the batch
                # dedup and carry the hit trace (the engine's one lookup is
                # not counted per copy).
                src = np.array(
                    [first_row[row_bytes[row]] for row in miss_rows],
                    dtype=np.int64,
                )
                dup = src != miss_rows
                dup_rows = miss_rows[dup]
                rule_ids[dup_rows] = rule_ids[src[dup]]
                priorities[dup_rows] = priorities[src[dup]]
                if traces is not None:
                    traces[dup_rows] = 0
                    traces[dup_rows, 0] = 1
                    traces[dup_rows, 4] = 1
            self.cache.fill_block(
                sub_block,
                sub_ids,
                sub_pris,
                epoch=epoch,
                row_bytes=[row_bytes[row] for row in unique_rows],
            )
        return rule_ids, priorities

    # ----------------------------------------------------------------- update

    def insert(self, rule: Rule) -> None:
        """Insert a rule; stale cache entries are evicted before this returns."""
        self.engine.insert(rule)
        if getattr(self.engine, "updates", None) is None:
            self.cache.invalidate_insert(rule)

    def remove(self, rule_id: int) -> bool:
        """Remove a rule; stale cache entries are evicted before this returns."""
        removed = self.engine.remove(rule_id)
        if removed and getattr(self.engine, "updates", None) is None:
            self.cache.invalidate_remove(rule_id)
        return removed

    def resize_cache(self, capacity: int) -> int:
        """Resize the flow cache in place (MRU entries survive; see
        :meth:`FlowCache.resize`).  The hook the server's cache tuner uses."""
        return self.cache.resize(capacity)

    # ----------------------------------------------------------- introspection

    def hit_rate(self) -> float:
        return self.cache.stats.hit_rate

    def statistics(self) -> dict[str, object]:
        return {
            "name": "cached",
            "cache": self.cache.statistics(),
            "engine": self.engine.statistics(),
        }

    def close(self) -> None:
        if self._queue is not None:
            self._queue.remove_listener(self.cache.handle_update)
            self._queue = None
        self.engine.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CachedEngine({self.engine!r}, capacity={self.cache.capacity}, "
            f"entries={len(self.cache)})"
        )
