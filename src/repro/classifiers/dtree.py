"""The tree family: a decision-tree builder and one flat forest walk.

HiCuts, CutSplit and the NeuroCuts-style classifier all build trees over the
multi-dimensional rule space.  An internal node partitions one dimension into
consecutive ranges — a *cut* into equal sub-ranges, a *split* at a chosen
point — and a leaf holds the rules that meet its box, at most ``binth`` of
them unless nothing separates them.  Every node records the smallest rule
order key (:func:`~repro.rules.rule.order_key`) below it, the bound §4's
early termination prunes with (:data:`~repro.rules.rule.NO_FLOOR` when it
holds no rule).

:func:`build_tree` recurses with a per-node policy and writes each node
straight into the arrays of a :class:`DecisionTree`: its dimension, best key,
first child and child count, its lower bound on its parent's dimension, and
for a leaf a slice of a key-sorted array of rule ids.  A node's children are
consecutive, and their lower bounds — computed once, by the builder — are the
only definition of the partition: a value goes to the last child whose lower
bound it reaches.  Statistics and the memory footprint, which counts rule
replication, are reductions over those arrays.

:class:`ForestClassifier` is the one implementation of the family.  It
concatenates its trees into one node array and answers a block with one
level-synchronous walk: tree by tree, smallest root key first, every row
still below the tree's root key steps down one level per iteration until it
leaves at a node that cannot beat its best key or scans its leaf (with
:func:`~repro.classifiers.base.scan_candidates`, the hash family's bucket
scan too).  A baseline is how it groups the rules into trees and the
per-node policy it builds each tree with.  A built forest is immutable;
online updates are the engine's overlay (:class:`repro.engine.ClassificationEngine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.classifiers.base import (
    Classifier,
    MemoryFootprint,
    NODE_HEADER_BYTES,
    POINTER_BYTES,
    RULE_ENTRY_BYTES,
    scan_candidates,
)
from repro.rules.rule import NO_FLOOR, Rule, RuleSet, split_keys

__all__ = [
    "Space",
    "CutAction",
    "SplitAction",
    "LeafAction",
    "DecisionTree",
    "ForestClassifier",
    "build_tree",
    "TreeStats",
]

#: A hyper-rectangle: one inclusive (lo, hi) per dimension.
Space = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CutAction:
    """Cut dimension ``dim`` of the node's space into ``num_cuts`` equal parts."""

    dim: int
    num_cuts: int

    def partition(self, space: Space) -> tuple[int, list[int]]:
        """The cut dimension and its parts' lower bounds.  Python ints:
        ``span * index`` overflows int64 on a 63-bit field."""
        lo, hi = space[self.dim]
        span = hi - lo + 1
        num_cuts = max(2, min(self.num_cuts, span))
        return self.dim, [lo + span * index // num_cuts for index in range(num_cuts)]


@dataclass(frozen=True)
class SplitAction:
    """Split dimension ``dim`` at ``threshold``: values <= threshold go left."""

    dim: int
    threshold: int

    def partition(self, space: Space) -> tuple[int, list[int]]:
        """The split dimension and its two sides' lower bounds."""
        lo, hi = space[self.dim]
        return self.dim, [lo, min(max(self.threshold, lo), hi - 1) + 1]


@dataclass(frozen=True)
class LeafAction:
    """No partition of the policy's own: the builder tries its median
    endpoint split and keeps a leaf when that cannot separate the rules."""

    def partition(self, space: Space) -> tuple[int, list[int]]:
        return 0, []


#: A policy maps (space, rules, depth) to the action to take at that node.
Policy = Callable[[Space, list[Rule], int], CutAction | SplitAction | LeafAction]


@dataclass
class TreeStats:
    """Structural statistics of a built tree."""

    num_nodes: int = 0
    num_leaves: int = 0
    max_depth: int = 0
    total_leaf_rule_slots: int = 0   # counts replication
    max_leaf_size: int = 0


@dataclass(frozen=True)
class DecisionTree:
    """A built tree as node arrays (int64, one entry per node; node 0 is the
    root, a node's children are consecutive)."""

    #: The dimension an internal node partitions; -1 at a leaf.
    dim: np.ndarray
    #: The smallest order key in the node's subtree.
    best_key: np.ndarray
    #: An internal node's first child; a leaf's first slot in ``rules``.
    first: np.ndarray
    #: An internal node's children; a leaf's rules.
    count: np.ndarray
    #: The node's lower bound on its parent's dimension (the root's is 0).
    lower: np.ndarray
    #: Leaf slots: rule ids, key-sorted within each leaf.
    rules: np.ndarray
    #: Depth of the deepest node (the root is at 0).
    depth: int

    def stats(self) -> TreeStats:
        leaf = self.dim < 0
        sizes = self.count[leaf]
        return TreeStats(
            num_nodes=len(self.dim),
            num_leaves=int(leaf.sum()),
            max_depth=self.depth,
            total_leaf_rule_slots=int(sizes.sum()),
            max_leaf_size=int(sizes.max(initial=0)),
        )

    def footprint(self) -> MemoryFootprint:
        """Index bytes: a header per node, a pointer per child and per leaf
        rule slot (so replication costs memory)."""
        leaf = self.dim < 0
        internal = int((~leaf).sum()) * NODE_HEADER_BYTES + int(
            self.count[~leaf].sum()
        ) * POINTER_BYTES
        leaves = int(leaf.sum()) * NODE_HEADER_BYTES
        pointers = int(self.count[leaf].sum()) * POINTER_BYTES
        return MemoryFootprint(
            index_bytes=internal + leaves + pointers,
            breakdown={
                "internal_nodes": internal,
                "leaves": leaves,
                "leaf_rule_pointers": pointers,
            },
        )


def _rules_intersecting(rules: list[Rule], dim: int, lo: int, hi: int) -> list[Rule]:
    out = []
    for rule in rules:
        rlo, rhi = rule.ranges[dim]
        if rhi >= lo and rlo <= hi:
            out.append(rule)
    return out


def build_tree(
    rules: list[Rule],
    space: Space,
    policy: Policy,
    binth: int = 8,
    max_depth: int = 32,
) -> DecisionTree:
    """Recursively build a decision tree using ``policy`` at every node.

    The builder guards against non-progress: a partition makes progress when
    some child holds fewer rules than the node and the children hold at most
    twice as many in total.  A policy action that makes none (a
    :class:`LeafAction` partitions nothing) falls back to a median endpoint
    split on the most discriminating dimension, and the node becomes a leaf
    only if that split makes no progress either.
    """
    # One entry per node, the root's first; _build fills a node's entries.
    dims, best_keys, firsts, counts, lowers = [0], [0], [0], [0], [0]
    slots: list[int] = []
    depth_reached = 0

    def _fallback_split(node_space: Space, node_rules: list[Rule]):
        """Median endpoint split used when the policy's action makes no progress.

        Large nodes are evaluated on a sample of their rules: the split point
        only needs to be a reasonable median, and sampling keeps construction
        time linear in the rule count.
        """
        sample = node_rules if len(node_rules) <= 256 else node_rules[:: len(node_rules) // 256]
        best: SplitAction | None = None
        best_score: tuple[int, int] | None = None
        for dim, (lo, hi) in enumerate(node_space):
            if hi <= lo:
                continue
            endpoints = sorted(
                {
                    rule.ranges[dim][1]
                    for rule in sample
                    if lo <= rule.ranges[dim][1] < hi
                }
            )
            if not endpoints:
                continue
            threshold = endpoints[len(endpoints) // 2]
            left = sum(1 for rule in sample if rule.ranges[dim][0] <= threshold)
            right = sum(1 for rule in sample if rule.ranges[dim][1] > threshold)
            if max(left, right) >= len(sample):
                continue
            # Prefer the split that replicates the fewest rules, then balance.
            score = (left + right, max(left, right))
            if best_score is None or score < best_score:
                best = SplitAction(dim, threshold)
                best_score = score
        if best_score is not None and best_score[0] > 1.3 * len(sample):
            return None  # heavy replication: let the caller keep a leaf
        return best

    def _children(action, node_space: Space, node_rules: list[Rule]):
        """``action``'s dimension and its children's ``(lo, hi)`` ranges and
        rules, or ``None`` when the partition makes no progress."""
        dim, bounds = action.partition(node_space)
        ranges = list(zip(bounds, [bound - 1 for bound in bounds[1:]] + [node_space[dim][1]]))
        children = [(lo, hi, _rules_intersecting(node_rules, dim, lo, hi)) for lo, hi in ranges]
        sizes = [len(child_rules) for _lo, _hi, child_rules in children]
        if min(sizes, default=len(node_rules)) >= len(node_rules):
            return None  # no child is smaller: pure replication
        if sum(sizes) > 2 * len(node_rules):
            # Replicating the rules more than 2x (wildcard-heavy inputs)
            # explodes both memory and build time: prefer a split.
            return None
        return dim, children

    def _leaf(node: int, node_rules: list[Rule]) -> None:
        ordered = sorted(node_rules, key=lambda rule: rule.key)
        dims[node], firsts[node], counts[node] = -1, len(slots), len(ordered)
        best_keys[node] = ordered[0].key if ordered else NO_FLOOR
        slots.extend(rule.rule_id for rule in ordered)

    def _build(node: int, node_rules: list[Rule], node_space: Space, depth: int) -> None:
        nonlocal depth_reached
        depth_reached = max(depth_reached, depth)
        if len(node_rules) <= binth or depth >= max_depth:
            return _leaf(node, node_rules)
        partition = _children(policy(node_space, node_rules, depth), node_space, node_rules)
        if partition is None:
            fallback = _fallback_split(node_space, node_rules)
            partition = fallback and _children(fallback, node_space, node_rules)
            if partition is None:
                return _leaf(node, node_rules)
        dim, children = partition
        first = len(dims)
        dims[node], firsts[node], counts[node] = dim, first, len(children)
        for column in (dims, best_keys, firsts, counts):
            column.extend([0] * len(children))
        lowers.extend(lo for lo, _hi, _rules in children)
        for index, (lo, hi, child_rules) in enumerate(children):
            child_space = tuple(
                (lo, hi) if d == dim else node_space[d] for d in range(len(node_space))
            )
            _build(first + index, child_rules, child_space, depth + 1)
        best_keys[node] = min(best_keys[first : first + len(children)])

    _build(0, list(rules), space, 0)
    columns = (dims, best_keys, firsts, counts, lowers, slots)
    return DecisionTree(
        *(np.array(column, dtype=np.int64) for column in columns), depth=depth_reached
    )


class ForestClassifier(Classifier):
    """The tree family: one decision tree per rule group, best tree first.

    A subclass groups the rules, builds one :class:`DecisionTree` per group
    with its per-node policy and hands the trees over; everything a lookup or
    a report does with them lives here.
    """

    def __init__(self, ruleset: RuleSet, trees: list[DecisionTree]):
        super().__init__(ruleset)
        #: Index bytes per tree, in group order — the order footprints report in.
        self._tree_bytes = [tree.footprint().index_bytes for tree in trees]
        # Walk order, fixed here because nothing mutates a tree afterwards:
        # smallest root key first, so a lookup stops at the first tree that
        # cannot win.  The trees are concatenated in that order, each one's
        # node and slot indices shifted past the trees before it.
        walk = sorted(trees, key=lambda tree: int(tree.best_key[0]))
        roots = np.cumsum([0] + [len(tree.dim) for tree in walk]).tolist()
        slots = np.cumsum([0] + [len(tree.rules) for tree in walk]).tolist()

        def joined(columns) -> np.ndarray:
            return np.concatenate([np.zeros(0, dtype=np.int64), *columns])

        self._forest = forest = DecisionTree(
            dim=joined(tree.dim for tree in walk),
            best_key=joined(tree.best_key for tree in walk),
            first=joined(
                tree.first + np.where(tree.dim < 0, slot, root)
                for tree, root, slot in zip(walk, roots, slots)
            ),
            count=joined(tree.count for tree in walk),
            lower=joined(tree.lower for tree in walk),
            rules=joined(tree.rules for tree in walk),
            depth=max((tree.depth for tree in walk), default=0),
        )
        #: ``(root node, levels)`` per tree, in walk order.
        self._walk_order = [(root, tree.depth + 1) for tree, root in zip(walk, roots)]
        #: The widest node's children past its first.
        self._later = np.arange(1, int(forest.count[forest.dim >= 0].max(initial=2)))
        # The leaf slots' rules, as the block compare reads them.
        rows = np.argsort(ruleset.rule_id)
        rows = rows[np.searchsorted(ruleset.rule_id, forest.rules, sorter=rows)]
        self._slot_lo, self._slot_hi = ruleset.lo[rows], ruleset.hi[rows]
        self._slot_key = ruleset.key[rows]

    # -- lookup --------------------------------------------------------------------

    def classify_block_with_floors(
        self,
        block: np.ndarray,
        floors: Optional[np.ndarray],
        traces: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Floored lookup (contract: :meth:`Classifier.classify_block_with_floors
        <repro.classifiers.base.Classifier.classify_block_with_floors>`): the
        trees are walked smallest root key first, each floored by the row's
        best key so far; a row skips a tree whose root key it already beats
        (§4), so it stops at the first tree that cannot win.

        Inside a tree the frontier of rows steps down one level at a time.
        Every row on it visits its node (one index access) and leaves if the
        node's best key does not beat its own; at an internal node it takes
        the last child whose lower bound its value reaches, and at a leaf it
        scans the key-sorted rules below its best key in one compare and
        keeps the first match — one rule access and one compute op per field
        for each rule scanned, exactly as a per-packet walk would.
        """
        forest = self._forest
        values = np.asarray(block).astype(np.int64, copy=False)
        n, fields = values.shape
        floor = (
            np.full(n, NO_FLOOR, dtype=np.int64) if floors is None
            else np.asarray(floors, dtype=np.int64)
        )
        best = floor.copy()
        visited = np.zeros(n, dtype=np.int64)
        scanned = np.zeros(n, dtype=np.int64)
        for root, levels in self._walk_order:
            rows = np.flatnonzero(best > forest.best_key[root])
            if not rows.size:
                continue
            nodes = np.full(rows.size, root)
            at_leaf: list[np.ndarray] = []
            leaves: list[np.ndarray] = []
            for _level in range(levels):
                visited[rows] += 1
                dim = forest.dim[nodes]
                live = forest.best_key[nodes] < best[rows]
                leaf, inner = live & (dim < 0), live & (dim >= 0)
                at_leaf.append(rows[leaf])
                leaves.append(nodes[leaf])
                rows, nodes, dim = rows[inner], nodes[inner], dim[inner]
                if not rows.size:
                    break
                # One step down: the last child whose lower bound is reached.
                first = forest.first[nodes]
                reached = (self._later < forest.count[nodes][:, None]) & (
                    forest.lower.take(first[:, None] + self._later, mode="clip")
                    <= values[rows, dim][:, None]
                )
                nodes = first + reached.sum(axis=1)
            # The tree's floor does not move until it is done: scan its
            # reached leaves once.
            rows, leaves = np.concatenate(at_leaf), np.concatenate(leaves)
            bound = best[rows]
            hit_key, scanned_below = scan_candidates(
                values, rows, forest.first[leaves], forest.count[leaves],
                self._slot_lo, self._slot_hi, self._slot_key, bound,
            )
            best[rows] = np.minimum(bound, hit_key)
            scanned[rows] += scanned_below(bound)
        if traces is not None:
            traces[:n, 0] += visited
            traces[:n, 1] += scanned
            traces[:n, 3] += scanned * fields
        return split_keys(np.where(best < floor, best, NO_FLOOR))

    # -- introspection -----------------------------------------------------------------

    def memory_footprint(self) -> MemoryFootprint:
        breakdown = {f"tree_{index}": size for index, size in enumerate(self._tree_bytes)}
        return MemoryFootprint(
            index_bytes=sum(breakdown.values()),
            rule_bytes=len(self.ruleset) * RULE_ENTRY_BYTES,
            breakdown=breakdown,
        )

    def statistics(self) -> dict[str, object]:
        stats = super().statistics()
        forest = self._forest.stats()
        stats.update(
            num_trees=self.num_trees,
            max_depth=forest.max_depth,
            num_nodes=forest.num_nodes,
            num_leaves=forest.num_leaves,
            leaf_rule_slots=forest.total_leaf_rule_slots,
            replication=forest.total_leaf_rule_slots / max(1, len(self.ruleset)),
        )
        return stats

    @property
    def num_trees(self) -> int:
        return len(self._walk_order)
