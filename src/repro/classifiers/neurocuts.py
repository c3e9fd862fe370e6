"""NeuroCuts-style classifier: a decision tree with a search-optimised policy.

NeuroCuts [Liang et al., SIGCOMM 2019] uses deep reinforcement learning to
choose, node by node, which dimension to cut and into how many parts (plus an
optional top-level partitioning), optimising a global objective — tree depth
(classification time) or memory footprint.  Crucially, the RL is purely an
*offline construction* device: the artefact the paper's evaluation consumes is
the resulting decision tree, whose lookup behaviour is ordinary tree traversal.

Reproduction substitution: we keep the same action space
(top-level partitioning by wildcard pattern, then per-node ``(dimension,
number-of-cuts)`` choices) and the same objective, but optimise it with
randomised sampling / hill-climbing over candidate trees instead of RL.  The
best tree under the chosen objective is kept.  This produces trees of the same
family with comparable depth/footprint trade-offs at a tiny fraction of the
36-hour training cost, which is all the lookup-time experiments need.
"""

from __future__ import annotations

import random

from repro.classifiers.dtree import (
    CutAction,
    DecisionTree,
    ForestClassifier,
    LeafAction,
    Space,
    build_tree,
)
from repro.classifiers.registry import register
from repro.rules.rule import Rule, RuleSet

__all__ = ["NeuroCutsClassifier"]

_CUT_CHOICES = (2, 4, 8, 16, 32)


def _sampled_policy(rng: random.Random, depth_penalty: float):
    """A randomised cut policy: mostly greedy, sometimes exploratory.

    With high probability the node cuts the dimension with the most distinct
    projections (the action an RL agent converges to for balanced rule-sets);
    with some probability it explores another dimension / cut count, which is
    what lets the outer search find better global trees.
    """

    def policy(space: Space, rules: list[Rule], depth: int):
        candidates = []
        for dim, (lo, hi) in enumerate(space):
            if hi <= lo:
                continue
            distinct = len({rule.ranges[dim] for rule in rules})
            if distinct > 1:
                candidates.append((distinct, dim))
        if not candidates:
            return LeafAction()
        candidates.sort(reverse=True)
        if rng.random() < 0.8:
            _, dim = candidates[0]
        else:
            _, dim = candidates[rng.randrange(len(candidates))]
        # Deeper nodes get fewer cuts when optimising for memory.
        max_cuts = _CUT_CHOICES[-1]
        if depth_penalty > 0:
            max_cuts = max(2, int(max_cuts / (1 + depth_penalty * depth)))
        choices = [c for c in _CUT_CHOICES if c <= max_cuts] or [2]
        num_cuts = rng.choice(choices)
        return CutAction(dim, num_cuts)

    return policy


def _partition_by_wildcards(ruleset: RuleSet, threshold: float) -> list[list[Rule]]:
    """Top-level partitioning: group rules by their wildcard pattern.

    NeuroCuts' "top-mode" partitioning separates rules that wildcard a field
    from those that constrain it, so each subtree can cut its constrained
    dimensions freely.  ``threshold`` is the minimum fraction of the domain a
    range must cover to count as a wildcard.
    """
    groups: dict[tuple[bool, ...], list[Rule]] = {}
    schema = ruleset.schema
    for rule in ruleset:
        pattern = tuple(
            rule.field_span(dim) >= threshold * schema[dim].domain_size
            for dim in range(len(schema))
        )
        groups.setdefault(pattern, []).append(rule)
    return list(groups.values())


@register("nc", aliases=("neurocuts",))
class NeuroCutsClassifier(ForestClassifier):
    """Search-optimised decision-tree classifier (NeuroCuts stand-in)."""

    name = "nc"

    def __init__(
        self,
        ruleset: RuleSet,
        binth: int = 8,
        num_candidates: int = 4,
        objective: str = "memory",
        top_partition: bool = True,
        wildcard_threshold: float = 0.5,
        max_depth: int = 24,
        seed: int = 0,
    ):
        if objective not in ("memory", "depth"):
            raise ValueError("objective must be 'memory' or 'depth'")
        self.binth = binth
        self.objective = objective
        rng = random.Random(seed)
        space = ruleset.schema.full_ranges()

        if top_partition and len(ruleset.schema) > 1:
            groups = _partition_by_wildcards(ruleset, wildcard_threshold)
        else:
            groups = [list(ruleset.rules)]

        trees: list[DecisionTree] = []
        for group in groups:
            best_tree: DecisionTree | None = None
            best_score: float | None = None
            for attempt in range(max(1, num_candidates)):
                depth_penalty = rng.choice([0.0, 0.1, 0.25, 0.5])
                policy = _sampled_policy(
                    random.Random(rng.randrange(1 << 30)), depth_penalty
                )
                root = build_tree(group, space, policy, binth=binth, max_depth=max_depth)
                tree = DecisionTree(root)
                stats = tree.stats()
                if objective == "memory":
                    score = tree.footprint(0).index_bytes + stats.max_depth
                else:
                    score = stats.max_depth * 1_000_000 + tree.footprint(0).index_bytes
                if best_score is None or score < best_score:
                    best_score = score
                    best_tree = tree
            assert best_tree is not None
            trees.append(best_tree)
        super().__init__(ruleset, trees)

    def statistics(self) -> dict[str, object]:
        stats = super().statistics()
        stats["objective"] = self.objective
        return stats
