"""HiCuts decision-tree classifier.

HiCuts [Gupta & McKeown 2000] recursively cuts the rule space with equal-sized
cuts along one dimension per node, chosen heuristically, until leaves hold at
most ``binth`` rules.  It is an early decision-tree classifier that suffers
from rule replication on large rule-sets — the very problem CutSplit and
NeuroCuts (and NuevoMatch) address — and serves here as a substrate baseline
and as the starting point of the tree family.
"""

from __future__ import annotations

import math

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

__all__ = ["HiCutsClassifier"]


def _distinct_projections(rules: list[Rule], dim: int) -> int:
    return len({rule.ranges[dim] for rule in rules})


def hicuts_policy(space_factor: float = 2.0, max_cuts: int = 16):
    """Return the HiCuts per-node policy.

    The dimension with the most distinct rule projections is cut; the number
    of cuts grows with the node's rule count but is capped by ``max_cuts`` and
    by the dimension's span (the ``spfac`` space-measure heuristic of the
    original paper, simplified).
    """

    def policy(space: Space, rules: list[Rule], depth: int):
        best_dim = None
        best_score = -1
        for dim, (lo, hi) in enumerate(space):
            if hi <= lo:
                continue
            score = _distinct_projections(rules, dim)
            if score > best_score:
                best_score = score
                best_dim = dim
        if best_dim is None or best_score <= 1:
            return LeafAction()
        desired = int(space_factor * math.sqrt(len(rules)))
        num_cuts = max(2, min(max_cuts, desired))
        # Round to a power of two, matching typical implementations.
        num_cuts = 1 << (num_cuts - 1).bit_length()
        num_cuts = min(num_cuts, max_cuts)
        return CutAction(best_dim, num_cuts)

    return policy


@register("hicuts")
class HiCutsClassifier(ForestClassifier):
    """Single-tree HiCuts classifier: a forest of one tree over all the rules."""

    name = "hicuts"

    def __init__(
        self,
        ruleset: RuleSet,
        binth: int = 8,
        space_factor: float = 2.0,
        max_cuts: int = 16,
        max_depth: int = 24,
    ):
        self.binth = binth
        root = build_tree(
            list(ruleset.rules),
            ruleset.schema.full_ranges(),
            hicuts_policy(space_factor, max_cuts),
            binth=binth,
            max_depth=max_depth,
        )
        super().__init__(ruleset, [DecisionTree(root)])
