"""The per-packet baseline walks, kept frozen as test references.

Every baseline serves through its one lookup, ``classify_block_with_floors``:
linear search's floored columnar scan, the hash family's flat-index probe
and the forest's per-row tree walk.  This module holds the scalar walks the
first two replaced — linear search's key-ordered rule scan and the hash
family's best-table-first bucket probe — and the forest's walk over
``DecisionTree.lookup``, moved here unedited apart from methods becoming free
functions that take the classifier, plus the per-row loop that joined them
into a block lookup.  The block paths are checked against it row for row:
matched rule, priority and every :data:`~repro.classifiers.base.TRACE_FIELDS`
counter.  It also holds the engine's update-overlay pass as it was before the
overlay became a linear-search remainder (:func:`adjust_block`, its two
broadcasting containment scans unedited apart from the method becoming a free
function that takes the engine).  It is not shipped and nothing under
``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.classifiers.base import (
    NO_FLOOR,
    TRACE_FIELDS,
    ClassificationResult,
    LookupTrace,
)
from repro.classifiers.dtree import ForestClassifier
from repro.classifiers.linear import LinearSearchClassifier
from repro.classifiers.tuplespace import TupleHashClassifier, mask_value
from repro.rules.rule import Packet, Rule, RuleSet, result_keys


def linear_walk(
    classifier, packet: Packet | Sequence[int], floor: Optional[int]
) -> ClassificationResult:
    values = packet.values if isinstance(packet, Packet) else tuple(packet)
    trace = LookupTrace()
    for rule in classifier._ordered:
        if floor is not None and rule.key >= floor:
            break  # rules are key-ordered; nothing below can win
        trace.rule_accesses += 1
        trace.compute_ops += len(values)
        if rule.matches(values):
            return ClassificationResult(rule, trace)
    return ClassificationResult(None, trace)


def key_for_values(table, values: Sequence[int]) -> tuple[int, ...]:
    return tuple(
        mask_value(value, length, bits)
        for value, length, bits in zip(values, table.lengths, table.field_bits)
    )


def hash_walk(
    classifier, packet: Packet | Sequence[int], floor: Optional[int]
) -> ClassificationResult:
    """The scalar, paper-faithful reference the columnar loop is tested against."""
    values = packet.values if isinstance(packet, Packet) else tuple(packet)
    trace = LookupTrace()
    best: Rule | None = None
    best_key = NO_FLOOR if floor is None else floor
    for table in classifier._tables:
        if table.best_key >= best_key:
            break  # tables are sorted by best key; nothing further can win
        trace.hash_ops += 1
        trace.index_accesses += 1
        bucket = table.buckets.get(key_for_values(table, values))
        if not bucket:
            continue
        for rule in bucket:
            if rule.key >= best_key:
                break  # bucket is key-sorted; nothing better remains
            trace.rule_accesses += 1
            trace.compute_ops += len(values)
            if rule.matches(values):
                best, best_key = rule, rule.key
                break
    return ClassificationResult(best, trace)


def forest_walk(
    classifier, packet: Packet | Sequence[int], floor: Optional[int]
) -> ClassificationResult:
    values = packet.values if isinstance(packet, Packet) else tuple(packet)
    trace = LookupTrace()
    best: Rule | None = None
    best_key = NO_FLOOR if floor is None else floor
    for tree in classifier._walk_order:
        if tree.root.best_key >= best_key:
            break
        rule = tree.lookup(values, trace, best_key)
        if rule is not None:  # the walk only returns a key below best_key
            best, best_key = rule, rule.key
    return ClassificationResult(best, trace)


def classify_with_floor(
    classifier, packet: Packet | Sequence[int], floor: Optional[int]
) -> ClassificationResult:
    """The frozen walk of ``classifier``'s family: only a match whose key is
    below ``floor`` (``None``: any match)."""
    for family, walk in (
        (LinearSearchClassifier, linear_walk),
        (TupleHashClassifier, hash_walk),
        (ForestClassifier, forest_walk),
    ):
        if isinstance(classifier, family):
            return walk(classifier, packet, floor)
    raise TypeError(f"no scalar reference for {type(classifier).__name__}")


def classify_block_with_floors(
    classifier,
    block: np.ndarray,
    floors: Optional[np.ndarray],
    traces: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-row loop over :func:`classify_with_floor`, with the contract of
    ``Classifier.classify_block_with_floors`` (``traces`` accumulate)."""
    n = len(block)
    rule_ids = np.full(n, -1, dtype=np.int64)
    priorities = np.zeros(n, dtype=np.int64)
    for row in range(n):
        floor = None if floors is None or floors[row] == NO_FLOOR else int(floors[row])
        result = classify_with_floor(
            classifier, tuple(int(value) for value in block[row]), floor
        )
        if result.rule is not None:
            rule_ids[row] = result.rule.rule_id
            priorities[row] = result.rule.priority
        if traces is not None:
            for column, name in enumerate(TRACE_FIELDS):
                traces[row, column] += getattr(result.trace, name)
    return rule_ids, priorities


def adjust_block(
    engine,
    block: np.ndarray,
    rule_ids: np.ndarray,
    priorities: np.ndarray,
    traces: np.ndarray | None = None,
) -> None:
    """Apply the update overlay to the built classifier's results, in place.

    ``rule_ids``/``priorities`` are the built structure's columnar results
    for ``block`` — computed here by :meth:`classify_block`, or by a shard
    worker that holds a snapshot of the built structure only.  A masked
    winner costs a rescan of every live built rule (one rule access +
    ``num_fields`` compute ops each); overlay rules are then probed
    best-first, one access each, until one matches or the current winner's
    order key is below the next one's.  Both scans run over
    :meth:`RuleSet.best_first <repro.rules.rule.RuleSet.best_first>`, so a
    first containment is the best match.  With an empty overlay this is
    one check.
    """
    if not engine._inserted and not engine._removed:
        return
    with engine._lock:
        overlay = [rule for _seq, rule in engine._inserted.values()]
        removed = list(engine._removed)
    values = block.astype(np.int64, copy=False)
    num_fields = values.shape[1]
    if removed:
        removed_ids = np.array(removed, dtype=np.int64)
        affected = np.flatnonzero(np.isin(rule_ids, removed_ids))
        if affected.size:
            # The built structure returned masked rules: rescan the live
            # built rules for the runner-up, vectorized over the (rare)
            # affected rows (masked rules vanish for good at the next
            # rebuild).
            built = engine.ruleset.best_first()
            live = ~np.isin(built.rule_id, removed_ids)
            scanned = int(live.sum())
            rows = values[affected]
            contained = (
                (rows[:, None, :] >= built.lo[None, :, :])
                & (rows[:, None, :] <= built.hi[None, :, :])
            ).all(axis=2) & live[None, :]
            hit = contained.any(axis=1)
            first = np.where(hit, contained.argmax(axis=1), 0)
            rule_ids[affected] = np.where(hit, built.rule_id[first], -1)
            priorities[affected] = np.where(hit, built.priority[first], 0)
            if traces is not None:
                traces[affected, 1] += scanned
                traces[affected, 3] += scanned * num_fields
    if overlay:
        count = len(overlay)
        inserted = RuleSet(overlay, engine.schema).best_first()
        o_pris, o_ids = inserted.priority, inserted.rule_id
        # Overlay rules are probed best-first until the current winner's
        # key is below the next rule's: the cutoff is how many overlay
        # keys the winner's key (NO_FLOOR on a miss) does not beat.
        stop = np.searchsorted(
            inserted.key, result_keys(rule_ids, priorities), side="right"
        )
        match = (
            (values[:, None, :] >= inserted.lo[None, :, :])
            & (values[:, None, :] <= inserted.hi[None, :, :])
        ).all(axis=2)
        eligible = match & (np.arange(count)[None, :] < stop[:, None])
        hit = eligible.any(axis=1)
        first = np.where(hit, eligible.argmax(axis=1), 0)
        if traces is not None:
            probed = np.where(hit, first + 1, stop)
            traces[: len(values), 1] += probed
            traces[: len(values), 3] += probed * num_fields
        rule_ids[hit] = o_ids[first[hit]]
        priorities[hit] = o_pris[first[hit]]
