"""Rule-set structure metrics: diversity and centrality (§3.7).

These metrics predict how well a rule-set lends itself to iSet partitioning:

* **Diversity** of a field is the number of unique values/ranges in that field
  divided by the number of rules; it upper-bounds the fraction of rules the
  largest iSet over that field can cover.
* **Centrality** is the largest number of rules that pairwise overlap (all
  share a common point in the multi-dimensional space); it lower-bounds the
  number of iSets needed for full coverage.
"""

from __future__ import annotations

import random

import numpy as np

from repro.rules.rule import RuleSet

__all__ = ["field_diversity", "ruleset_diversity", "ruleset_centrality", "partition_quality"]


def field_diversity(ruleset: RuleSet, dim: int) -> float:
    """Unique ranges in field ``dim`` divided by the number of rules."""
    return ruleset.field_diversity(dim)


def ruleset_diversity(ruleset: RuleSet) -> dict[str, float]:
    """Per-field diversity, keyed by field name."""
    return ruleset.diversity()


def _stabbing_count(ruleset: RuleSet, point: np.ndarray) -> int:
    return int(((ruleset.lo <= point) & (point <= ruleset.hi)).all(axis=1).sum())


def ruleset_centrality(ruleset: RuleSet, sample_points: int = 256, seed: int = 0) -> int:
    """Estimate the rule-set centrality (a lower bound, §3.7).

    Rules that all contain one common point pairwise overlap, so the maximum
    *stabbing number* over a set of candidate points lower-bounds centrality.
    Candidate points are the lower corners of (a sample of) the rules — the
    stabbing number over a box arrangement is always attained at a corner —
    plus a few random packets.  Exact centrality is a maximum-clique problem;
    this estimator is what the analysis benchmarks report.
    """
    if len(ruleset) == 0:
        return 0
    rng = random.Random(seed)
    rows = range(len(ruleset))
    if len(rows) > sample_points:
        rows = rng.sample(rows, sample_points)
    best = max(_stabbing_count(ruleset, ruleset.lo[row]) for row in rows)
    for _ in range(min(sample_points, 64)):
        row = rng.randrange(len(ruleset))
        bounds = zip(ruleset.lo[row].tolist(), ruleset.hi[row].tolist())
        packet = np.array([rng.randint(lo, hi) for lo, hi in bounds])
        best = max(best, _stabbing_count(ruleset, packet))
    return best


def partition_quality(ruleset: RuleSet, num_isets: int = 4) -> dict[str, object]:
    """Summary of how amenable ``ruleset`` is to iSet partitioning.

    Combines diversity, estimated centrality and the cumulative coverage of
    the first ``num_isets`` iSets into one report (used by the coverage
    analyses and Table 2 / Table 3 benchmarks).
    """
    from repro.core.isets import partition_isets

    partition = partition_isets(ruleset, max_isets=num_isets)
    return {
        "diversity": ruleset_diversity(ruleset),
        "max_diversity": max(ruleset_diversity(ruleset).values()) if len(ruleset) else 0.0,
        "centrality_lower_bound": ruleset_centrality(ruleset),
        "cumulative_coverage": partition.cumulative_coverage(),
        "remainder_fraction": 1.0 - partition.coverage,
    }
