"""Shared decision-tree machinery for the cutting-based classifiers.

HiCuts, CutSplit and the NeuroCuts-style classifier all build trees over the
multi-dimensional rule space: internal nodes *cut* one dimension into equal
sub-ranges or *split* it at a chosen point, and leaves hold at most ``binth``
rules scanned linearly.  This module provides the node types, a generic
recursive builder parameterised by a per-node policy, the traced tree walk, the
early-termination bookkeeping (per-node best order key, §4 of the paper), and
memory-footprint accounting that reflects rule replication.  Leaves, node
bounds and the walk order all use the rule order key
(:func:`~repro.rules.rule.order_key`); an empty subtree's key is
:data:`~repro.rules.rule.NO_FLOOR`.

It also holds the one implementation of the tree family:
:class:`ForestClassifier` owns a list of trees, the best-key-first floored
walk over them, the summed footprint and the common statistics; a named
baseline is how it groups the rules into trees and the per-node policy it
builds each tree with.  A built forest is immutable; online updates are the
engine's overlay (:class:`repro.engine.ClassificationEngine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.classifiers.base import (
    TRACE_FIELDS,
    Classifier,
    LookupTrace,
    MemoryFootprint,
    NODE_HEADER_BYTES,
    POINTER_BYTES,
    RULE_ENTRY_BYTES,
)
from repro.rules.rule import NO_FLOOR, Rule, RuleSet, split_keys

__all__ = [
    "Space",
    "CutAction",
    "SplitAction",
    "LeafAction",
    "TreeNode",
    "LeafNode",
    "CutNode",
    "SplitNode",
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


@dataclass(frozen=True)
class SplitAction:
    """Split dimension ``dim`` at ``threshold``: values <= threshold go left."""

    dim: int
    threshold: int


@dataclass(frozen=True)
class LeafAction:
    """Stop partitioning and store the node's rules in a leaf."""


#: A policy maps (space, rules, depth) to the action to take at that node.
Policy = Callable[[Space, list[Rule], int], CutAction | SplitAction | LeafAction]


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
        span = self.hi - self.lo + 1
        index = (value - self.lo) * self.num_cuts // span
        return min(max(index, 0), self.num_cuts - 1)

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


@dataclass
class TreeStats:
    """Structural statistics of a built tree."""

    num_nodes: int = 0
    num_leaves: int = 0
    num_cut_nodes: int = 0
    num_split_nodes: int = 0
    max_depth: int = 0
    total_leaf_rule_slots: int = 0   # counts replication
    max_leaf_size: int = 0


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
) -> TreeNode:
    """Recursively build a decision tree using ``policy`` at every node.

    The builder guards against non-progress: if a cut fails to reduce the rule
    count in every child (pure replication), it falls back to a median
    endpoint split on the most discriminating dimension, and only becomes a
    leaf if that split cannot separate the rules either.
    """

    def _fallback_split(node_space: Space, node_rules: list[Rule]):
        """Median endpoint split used when an equal cut makes no progress.

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

    def _build(node_rules: list[Rule], node_space: Space, depth: int) -> TreeNode:
        if len(node_rules) <= binth or depth >= max_depth:
            return LeafNode(node_rules)
        action = policy(node_space, node_rules, depth)
        if isinstance(action, LeafAction):
            fallback = _fallback_split(node_space, node_rules)
            if fallback is None:
                return LeafNode(node_rules)
            action = fallback

        if isinstance(action, CutAction):
            dim, num_cuts = action.dim, action.num_cuts
            lo, hi = node_space[dim]
            span = hi - lo + 1
            num_cuts = max(2, min(num_cuts, span))
            probe = CutNode(dim, num_cuts, lo, hi, [])
            child_rule_lists: list[tuple[tuple[int, int], list[Rule]]] = []
            progress = False
            total_child_slots = 0
            for index in range(num_cuts):
                child_lo, child_hi = probe.child_space(index)
                child_rules = _rules_intersecting(node_rules, dim, child_lo, child_hi)
                child_rule_lists.append(((child_lo, child_hi), child_rules))
                total_child_slots += len(child_rules)
                if len(child_rules) < len(node_rules):
                    progress = True
            # A cut that replicates the node's rules more than 2x (wildcard-heavy
            # inputs) explodes both memory and build time: prefer a split.
            excessive_replication = total_child_slots > 2 * len(node_rules)
            if not progress or excessive_replication:
                # The cut only replicated the rules: try a split instead, and
                # keep a (larger) leaf when no split helps either.
                fallback = _fallback_split(node_space, node_rules)
                if fallback is None:
                    return LeafNode(node_rules)
                action = fallback
            if isinstance(action, CutAction):
                children = []
                for (child_lo, child_hi), child_rules in child_rule_lists:
                    child_space = tuple(
                        (child_lo, child_hi) if d == dim else node_space[d]
                        for d in range(len(node_space))
                    )
                    children.append(_build(child_rules, child_space, depth + 1))
                return CutNode(dim, num_cuts, lo, hi, children)

        if isinstance(action, SplitAction):
            dim, threshold = action.dim, action.threshold
            lo, hi = node_space[dim]
            threshold = min(max(threshold, lo), hi - 1)
            left_rules = _rules_intersecting(node_rules, dim, lo, threshold)
            right_rules = _rules_intersecting(node_rules, dim, threshold + 1, hi)
            if len(left_rules) == len(node_rules) and len(right_rules) == len(node_rules):
                return LeafNode(node_rules)
            left_space = tuple(
                (lo, threshold) if d == dim else node_space[d]
                for d in range(len(node_space))
            )
            right_space = tuple(
                (threshold + 1, hi) if d == dim else node_space[d]
                for d in range(len(node_space))
            )
            left = _build(left_rules, left_space, depth + 1)
            right = _build(right_rules, right_space, depth + 1)
            return SplitNode(dim, threshold, left, right)

        raise TypeError(f"unknown policy action: {action!r}")

    return _build(list(rules), space, 0)


class DecisionTree:
    """A built tree plus traced lookup, statistics and footprint accounting."""

    def __init__(self, root: TreeNode):
        self.root = root

    # -- lookup ------------------------------------------------------------------

    def lookup(
        self,
        values: Sequence[int],
        trace: LookupTrace,
        floor: int = NO_FLOOR,
    ) -> Optional[Rule]:
        """Walk the tree for ``values``; returns the best matching rule whose
        order key is below ``floor``.

        ``floor`` enables the paper's early-termination optimisation: subtrees
        whose best key cannot beat the floor are not entered.
        """
        node = self.root
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

    # -- statistics -----------------------------------------------------------------

    def stats(self) -> TreeStats:
        stats = TreeStats()

        def _walk(node: TreeNode, depth: int) -> None:
            stats.num_nodes += 1
            stats.max_depth = max(stats.max_depth, depth)
            if isinstance(node, LeafNode):
                stats.num_leaves += 1
                stats.total_leaf_rule_slots += len(node.rules)
                stats.max_leaf_size = max(stats.max_leaf_size, len(node.rules))
            elif isinstance(node, CutNode):
                stats.num_cut_nodes += 1
                for child in node.children:
                    _walk(child, depth + 1)
            elif isinstance(node, SplitNode):
                stats.num_split_nodes += 1
                _walk(node.left, depth + 1)
                _walk(node.right, depth + 1)

        _walk(self.root, 0)
        return stats

    def footprint(self, num_distinct_rules: int) -> MemoryFootprint:
        stats = self.stats()
        index_bytes = 0
        index_bytes += stats.num_leaves * NODE_HEADER_BYTES
        index_bytes += stats.total_leaf_rule_slots * POINTER_BYTES

        def _walk(node: TreeNode) -> int:
            if isinstance(node, LeafNode):
                return 0
            if isinstance(node, CutNode):
                size = NODE_HEADER_BYTES + node.num_cuts * POINTER_BYTES
                return size + sum(_walk(child) for child in node.children)
            if isinstance(node, SplitNode):
                size = NODE_HEADER_BYTES + 2 * POINTER_BYTES
                return size + _walk(node.left) + _walk(node.right)
            return 0

        index_bytes += _walk(self.root)
        rule_bytes = num_distinct_rules * RULE_ENTRY_BYTES
        return MemoryFootprint(
            index_bytes=index_bytes,
            rule_bytes=rule_bytes,
            breakdown={
                "internal_nodes": index_bytes
                - stats.num_leaves * NODE_HEADER_BYTES
                - stats.total_leaf_rule_slots * POINTER_BYTES,
                "leaves": stats.num_leaves * NODE_HEADER_BYTES,
                "leaf_rule_pointers": stats.total_leaf_rule_slots * POINTER_BYTES,
            },
        )


class ForestClassifier(Classifier):
    """The tree family: one decision tree per rule group, best tree first.

    A subclass groups the rules, builds one :class:`DecisionTree` per group
    with its per-node policy and hands the trees over; everything a lookup or
    a report does with them lives here.
    """

    def __init__(self, ruleset: RuleSet, trees: list[DecisionTree]):
        super().__init__(ruleset)
        #: In group order — the order footprints and statistics report in.
        self._trees = trees
        # Walk order, fixed here because nothing mutates a tree afterwards:
        # smallest root key first, so a lookup stops at the first tree that
        # cannot win.
        self._walk_order = sorted(trees, key=lambda tree: tree.root.best_key)

    # -- lookup --------------------------------------------------------------------

    def classify_block_with_floors(
        self,
        block: np.ndarray,
        floors: Optional[np.ndarray],
        traces: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Floored lookup (contract: :meth:`Classifier.classify_block_with_floors
        <repro.classifiers.base.Classifier.classify_block_with_floors>`): a row
        walks the trees smallest root key first, each walk floored by the
        row's best key so far, and stops at the first tree that cannot beat
        it (§4)."""
        floor = (
            np.full(len(block), NO_FLOOR, dtype=np.int64) if floors is None
            else np.asarray(floors, dtype=np.int64)
        )
        best = floor.copy()
        # One row at a time: the trees are node objects until they are
        # flattened for a level-synchronous block walk (ROADMAP 5(c)).
        for row, values in enumerate(np.asarray(block).tolist()):
            trace, best_key = LookupTrace(), int(best[row])
            for tree in self._walk_order:
                if tree.root.best_key >= best_key:
                    break
                rule = tree.lookup(values, trace, best_key)
                if rule is not None:  # the walk only returns a key below best_key
                    best_key = rule.key
            best[row] = best_key
            if traces is not None:
                traces[row] += [getattr(trace, name) for name in TRACE_FIELDS]
        return split_keys(np.where(best < floor, best, NO_FLOOR))

    # -- introspection -----------------------------------------------------------------

    def memory_footprint(self) -> MemoryFootprint:
        breakdown = {
            f"tree_{index}": tree.footprint(0).index_bytes
            for index, tree in enumerate(self._trees)
        }
        return MemoryFootprint(
            index_bytes=sum(breakdown.values()),
            rule_bytes=len(self.ruleset) * RULE_ENTRY_BYTES,
            breakdown=breakdown,
        )

    def statistics(self) -> dict[str, object]:
        stats = super().statistics()
        tree_stats = [tree.stats() for tree in self._trees]
        leaf_rule_slots = sum(t.total_leaf_rule_slots for t in tree_stats)
        stats.update(
            num_trees=len(self._trees),
            max_depth=max((t.max_depth for t in tree_stats), default=0),
            num_nodes=sum(t.num_nodes for t in tree_stats),
            num_leaves=sum(t.num_leaves for t in tree_stats),
            leaf_rule_slots=leaf_rule_slots,
            replication=leaf_rule_slots / max(1, len(self.ruleset)),
        )
        return stats

    @property
    def num_trees(self) -> int:
        return len(self._trees)
