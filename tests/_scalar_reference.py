"""The per-packet baseline walks, kept frozen as test references.

Every baseline serves through its one lookup, ``classify_block_with_floors``:
linear search's floored columnar scan, the hash family's flat-index probe
and the forest's level-synchronous walk over its node arrays.  This module
holds the scalar walks they replaced — linear search's key-ordered rule
scan, the hash family's best-table-first bucket probe and the forest's
best-tree-first walk over ``DecisionTree.lookup`` — plus the per-row loop
that joined them into a block lookup.  The block paths are checked against
it row for row: matched rule, priority and every
:data:`~repro.classifiers.base.TRACE_FIELDS` counter.

The tree walk reads node objects, so the node classes it read moved here
too, with :func:`nodes_from_flat` rebuilding them from the forest's own
node arrays: :func:`forest_walk` walks exactly the structure the block
lookup walks.  Both moved unedited apart from methods becoming free
functions, and one documented change: a cut's child is the one whose
``child_space`` holds the value (``CutNode.child_index`` used to compute
``(value - lo) * num_cuts // span``, which sends a value that starts a
child to the child before it whenever ``span % num_cuts != 0``).

:func:`searchsorted_block_with_floors` is the hash family's columnar kernel
as it was while it found each ``(row, table)`` bucket with one
``np.searchsorted`` over the sorted bucket hashes and compared each bucket's
rule rows padded to the widest bucket, with the key hash (:func:`_hash`) it
called then, which left its input intact; both are unedited apart from the
method becoming a free function that takes the classifier and reading the
padded rows, which the index no longer holds, from :func:`padded_buckets`.
The direct-addressed probe and the offset-list bucket scan that replaced
them must give the same answers and counters, and run faster.

It also holds the engine's update-overlay pass as it was before the
overlay became a linear-search remainder (:func:`adjust_block`, its two
broadcasting containment scans unedited apart from the method becoming a free
function that takes the engine).  It is not shipped and nothing under
``src/`` imports it.
"""

from __future__ import annotations

import weakref
from typing import Optional, Sequence

import numpy as np

from repro.classifiers.base import (
    NO_FLOOR,
    TRACE_FIELDS,
    ClassificationResult,
    LookupTrace,
)
from repro.classifiers.dtree import DecisionTree, ForestClassifier, Space
from repro.classifiers.linear import LinearSearchClassifier
from repro.classifiers.tuplespace import TupleHashClassifier, _mix, mask_value
from repro.rules.rule import Packet, Rule, RuleSet, result_keys, split_keys


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


class TreeNode:
    """Base class for tree nodes; tracks the smallest order key in the
    subtree (:data:`NO_FLOOR` when it holds no rule)."""

    __slots__ = ("best_key",)

    def __init__(self, best_key: int = NO_FLOOR) -> None:
        self.best_key = best_key


class LeafNode(TreeNode):
    __slots__ = ("rules",)

    def __init__(self, rules: list[Rule]):
        self.rules = sorted(rules, key=lambda rule: rule.key)
        super().__init__(self.rules[0].key if self.rules else NO_FLOOR)


class CutNode(TreeNode):
    __slots__ = ("dim", "num_cuts", "lo", "hi", "children")

    def __init__(self, dim: int, num_cuts: int, lo: int, hi: int, children: list[TreeNode]):
        super().__init__(min((child.best_key for child in children), default=NO_FLOOR))
        self.dim = dim
        self.num_cuts = num_cuts
        self.lo = lo
        self.hi = hi
        self.children = children

    def child_index(self, value: int) -> int:
        # The one change: the child whose ``child_space`` holds ``value``
        # (clamped to the first or last child outside ``[lo, hi]``).
        for index in range(self.num_cuts):
            if value <= self.child_space(index)[1]:
                return index
        return self.num_cuts - 1

    def child_space(self, index: int) -> tuple[int, int]:
        span = self.hi - self.lo + 1
        lo = self.lo + (span * index) // self.num_cuts
        hi = self.lo + (span * (index + 1)) // self.num_cuts - 1
        return lo, hi


class SplitNode(TreeNode):
    __slots__ = ("dim", "threshold", "left", "right")

    def __init__(self, dim: int, threshold: int, left: TreeNode, right: TreeNode):
        super().__init__(min(left.best_key, right.best_key))
        self.dim = dim
        self.threshold = threshold
        self.left = left
        self.right = right


def lookup(
    root: TreeNode,
    values: Sequence[int],
    trace: LookupTrace,
    floor: int = NO_FLOOR,
) -> Optional[Rule]:
    """Walk the tree for ``values``; returns the best matching rule whose
    order key is below ``floor``.

    ``floor`` enables the paper's early-termination optimisation: subtrees
    whose best key cannot beat the floor are not entered.
    """
    node = root
    while True:
        trace.index_accesses += 1
        if node.best_key >= floor:
            return None
        if isinstance(node, LeafNode):
            for rule in node.rules:
                if rule.key >= floor:
                    return None  # leaf rules are key-sorted
                trace.rule_accesses += 1
                trace.compute_ops += len(values)
                if rule.matches(values):
                    return rule
            return None
        if isinstance(node, CutNode):
            node = node.children[node.child_index(values[node.dim])]
        elif isinstance(node, SplitNode):
            node = node.left if values[node.dim] <= node.threshold else node.right
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown node type {type(node)!r}")


def nodes_from_flat(tree: DecisionTree, node: int, space: Space, rule_of) -> TreeNode:
    """The node objects of ``tree``'s subtree at ``node``, whose box is
    ``space`` (``rule_of``: rule id -> :class:`Rule`).  A two-child node is
    a :class:`SplitNode` at its second child's lower bound minus one, a
    wider one a :class:`CutNode` over the node's range — and its
    ``child_space`` must reproduce the stored children's ranges, as every
    rebuilt node's best key must equal the stored one."""
    first, count, dim = int(tree.first[node]), int(tree.count[node]), int(tree.dim[node])
    if dim < 0:
        rebuilt = LeafNode([rule_of(int(rule_id)) for rule_id in tree.rules[first : first + count]])
    else:
        lo, hi = space[dim]
        bounds = [int(bound) for bound in tree.lower[first : first + count]]
        ranges = list(zip(bounds, [bound - 1 for bound in bounds[1:]] + [hi]))
        assert bounds[0] == lo, (node, bounds, lo)
        children = [
            nodes_from_flat(
                tree,
                first + index,
                tuple(ranges[index] if d == dim else space[d] for d in range(len(space))),
                rule_of,
            )
            for index in range(count)
        ]
        if count == 2:
            rebuilt = SplitNode(dim, bounds[1] - 1, *children)
        else:
            rebuilt = CutNode(dim, count, lo, hi, children)
            assert [rebuilt.child_space(index) for index in range(count)] == ranges
    assert rebuilt.best_key == int(tree.best_key[node]), node
    return rebuilt


#: classifier -> its trees' rebuilt roots, in walk order.
_ROOTS: "weakref.WeakKeyDictionary[ForestClassifier, list[TreeNode]]" = (
    weakref.WeakKeyDictionary()
)


def forest_roots(classifier: ForestClassifier) -> list[TreeNode]:
    """The node objects of ``classifier``'s forest, one root per tree in its
    walk order (rebuilt once per classifier)."""
    if classifier not in _ROOTS:
        by_id = classifier.ruleset.by_id()
        space = classifier.ruleset.schema.full_ranges()
        _ROOTS[classifier] = [
            nodes_from_flat(classifier._forest, root, space, by_id.__getitem__)
            for root, _levels in classifier._walk_order
        ]
    return _ROOTS[classifier]


def forest_walk(
    classifier, packet: Packet | Sequence[int], floor: Optional[int]
) -> ClassificationResult:
    values = packet.values if isinstance(packet, Packet) else tuple(packet)
    trace = LookupTrace()
    best: Rule | None = None
    best_key = NO_FLOOR if floor is None else floor
    for root in forest_roots(classifier):
        if root.best_key >= best_key:
            break
        rule = lookup(root, values, trace, best_key)
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


def _hash(masked: np.ndarray, multipliers: np.ndarray, salts: np.ndarray) -> np.ndarray:
    """64-bit hash of masked keys laid out fields first: each field times its
    table's random odd multiplier, summed, plus the table's salt, mixed."""
    hashed = (masked.view(np.uint64) * multipliers).sum(axis=0, dtype=np.uint64)
    hashed += salts
    return _mix(hashed)


_PADDED: "weakref.WeakKeyDictionary[TupleHashClassifier, tuple]" = weakref.WeakKeyDictionary()


def padded_buckets(classifier: TupleHashClassifier) -> tuple[np.ndarray, ...]:
    """``(rows, lo, hi, key)`` as the frozen kernel read them from its index:
    each bucket's key-sorted rule rows, in the index's bucket order, padded to
    the widest bucket plus one, and the rule-set's columns plus a padding
    row that matches every packet with key ``NO_FLOOR``.  Built from the
    classifier's tables and its index's ``owner``/``keys`` (not from the
    bucket layout the lookup scans), once per classifier object."""
    padded = _PADDED.get(classifier)
    if padded is None:
        index, ruleset = classifier._index, classifier.ruleset
        slot_of = {
            (owner, tuple(key)): slot
            for slot, (owner, key) in enumerate(zip(index.owner.tolist(), index.keys.T.tolist()))
        }
        buckets = [
            (slot_of[number, key], [ruleset.row_of[rule.rule_id] for rule in bucket])
            for number, table in enumerate(classifier._tables)
            for key, bucket in table.buckets.items()
            if bucket
        ]
        width = max((len(bucket) for _, bucket in buckets), default=0) + 1
        rows = np.full((len(index.hashes), width), len(ruleset), dtype=np.int64)
        for slot, bucket in buckets:
            rows[slot, : len(bucket)] = bucket
        fields = ruleset.num_fields
        padded = _PADDED[classifier] = (
            rows,
            np.vstack((ruleset.lo, np.zeros((1, fields), dtype=np.int64))),
            np.vstack((ruleset.hi, np.full((1, fields), NO_FLOOR, dtype=np.int64))),
            np.append(ruleset.key, NO_FLOOR),
        )
    return padded


def searchsorted_block_with_floors(
    classifier: TupleHashClassifier,
    block: np.ndarray,
    floors: Optional[np.ndarray],
    traces: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The hash family's block lookup with its ``searchsorted`` probe and its
    padded bucket compare (over :func:`padded_buckets`)."""
    index = classifier._index
    padded_rows, padded_lo, padded_hi, padded_key = padded_buckets(classifier)
    values = np.asarray(block).astype(np.int64, copy=False)
    n, fields = values.shape
    floor = (
        np.full(n, NO_FLOOR, dtype=np.int64) if floors is None
        else np.asarray(floors, dtype=np.int64)
    )
    # Every (table, row) key, hashed and looked up; equal hashes are then
    # confirmed field by field, so the probe is exact.
    masked = index.masks & values.T[:, None, :]  # (fields, tables, rows)
    hashed = _hash(masked, index.multipliers, index.salts)
    slots = np.searchsorted(index.hashes, hashed)
    tables, rows = np.nonzero(index.hashes[slots] == hashed)
    slots = slots[tables, rows]
    exact = (index.owner[slots] == tables) & (
        index.keys[:, slots] == masked[:, tables, rows]
    ).all(axis=0)
    tables, rows, slots = tables[exact], rows[exact], slots[exact]
    # Each bucket hit's padded rule rows against its packet in one compare;
    # the padding row matches everything, so argmax is the first match.
    entries = padded_rows[slots]
    probe = values[rows, None, :]
    first = (
        (probe >= padded_lo[entries]) & (probe <= padded_hi[entries])
    ).all(axis=2).argmax(axis=1)
    first_key = np.full(hashed.shape, NO_FLOOR, dtype=np.int64)
    first_key[tables, rows] = padded_key[entries[np.arange(len(first)), first]]
    # running[t] is each row's best key before table t; running[-1] is
    # the answer.
    running = np.minimum.accumulate(np.vstack((floor, first_key)), axis=0)
    best = running[-1]
    if traces is not None:
        probed = index.best_key < running[:-1]
        probes = probed.sum(axis=0)
        scanned = np.zeros(hashed.shape, dtype=np.int64)
        scanned[tables, rows] = (
            (padded_key[entries] < running[tables, rows][:, None])
            & (np.arange(entries.shape[1]) <= first[:, None])
        ).sum(axis=1)
        rule_accesses = (scanned * probed).sum(axis=0)
        traces[:n, 0] += probes
        traces[:n, 1] += rule_accesses
        traces[:n, 3] += rule_accesses * fields
        traces[:n, 4] += probes
    return split_keys(np.where(best < floor, best, NO_FLOOR))


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
