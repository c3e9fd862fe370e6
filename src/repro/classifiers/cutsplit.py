"""CutSplit classifier.

CutSplit [Li et al., INFOCOM 2018] tames the rule-replication problem of
single-tree cutting algorithms with two ideas:

1. **Pre-partitioning**: rules are grouped by which of their IP fields are
   "small" (more specific than a threshold prefix length).  Rules with small
   source and destination prefixes, only a small source, only a small
   destination, or neither, go into separate groups; each group gets its own
   tree, so a wildcard field never forces replication in a tree that cuts it.
2. **Cut then split**: within a group the tree first applies equal-sized cuts
   (FiCuts) on the small fields — cheap, balanced, replication-free for that
   group — and switches to binary *splitting* at rule-range endpoints (in the
   spirit of HyperSplit) once the node is small enough, terminating with
   ``binth`` rules per leaf (8 in the paper and here).

A lookup queries every group tree and returns the best-priority match; the
trees are visited best-priority-first so the early-termination optimisation
can skip trees that cannot win.
"""

from __future__ import annotations

from repro.classifiers.dtree import (
    CutAction,
    ForestClassifier,
    LeafAction,
    Space,
    build_tree,
)
from repro.classifiers.registry import register
from repro.rules.rule import Rule, RuleSet

__all__ = ["CutSplitClassifier"]

#: A field is "small" when the rule covers at most 2**(bits - threshold) values,
#: i.e. the rule's prefix is at least ``threshold`` bits long.
DEFAULT_SMALL_PREFIX_THRESHOLD = 16


def _is_small(rule: Rule, dim: int, bits: int, threshold: int) -> bool:
    span = rule.field_span(dim)
    return span <= (1 << (bits - threshold))


def _cutsplit_policy(cut_dims: list[int], ficuts_rule_threshold: int, num_cuts: int):
    """Per-node policy implementing the FiCuts-then-split strategy."""

    def policy(space: Space, rules: list[Rule], depth: int):
        # FiCuts phase: equal cuts on the group's small dimensions while the
        # node is still large.
        if len(rules) > ficuts_rule_threshold and cut_dims:
            dim = cut_dims[depth % len(cut_dims)]
            lo, hi = space[dim]
            if hi - lo + 1 >= num_cuts:
                return CutAction(dim, num_cuts)
        # Split phase: the builder's median endpoint split (HyperSplit-style,
        # on a rule sample), which keeps one oversized leaf where the rules
        # overlap too heavily to split without replicating them down the
        # subtree — CutSplit's tolerance for pathological subsets.
        return LeafAction()

    return policy


@register("cs", aliases=("cutsplit",))
class CutSplitClassifier(ForestClassifier):
    """CutSplit: pre-partitioned FiCuts + HyperSplit-style trees, binth=8."""

    name = "cs"

    def __init__(
        self,
        ruleset: RuleSet,
        binth: int = 8,
        small_prefix_threshold: int = DEFAULT_SMALL_PREFIX_THRESHOLD,
        ficuts_rule_threshold: int = 64,
        num_cuts: int = 8,
        max_depth: int = 28,
    ):
        self.binth = binth
        self.small_prefix_threshold = small_prefix_threshold
        schema = ruleset.schema
        # Identify the IP-like dimensions eligible for the small/large grouping.
        ip_dims = [dim for dim, spec in enumerate(schema) if spec.bits >= 32]
        if not ip_dims:
            ip_dims = [0]

        groups: dict[tuple[int, ...], list[Rule]] = {}
        for rule in ruleset:
            key = tuple(
                dim
                for dim in ip_dims
                if _is_small(rule, dim, schema[dim].bits, small_prefix_threshold)
            )
            groups.setdefault(key, []).append(rule)

        space = schema.full_ranges()
        #: The small IP dimensions of each group, in tree order.
        self._group_keys = list(groups)
        trees = []
        for key, rules in groups.items():
            policy = _cutsplit_policy(list(key), ficuts_rule_threshold, num_cuts)
            trees.append(build_tree(rules, space, policy, binth=binth, max_depth=max_depth))
        super().__init__(ruleset, trees)

    def statistics(self) -> dict[str, object]:
        stats = super().statistics()
        stats["group_keys"] = [list(key) for key in self._group_keys]
        return stats
