"""Rule-set partitioning strategies for sharded serving.

The paper scales NuevoMatch's throughput by splitting the rule-set across
cores; :func:`partition_for_shards` reproduces that split.  Strategies
(:data:`PARTITIONERS`):

* ``"isets"`` — keep each iSet whole on one shard (via
  :func:`repro.core.isets.partition_shards`: large iSets are chunked, then
  groups are balanced LPT-style by rule count), preserving the non-overlap
  property each shard's RQ-RMIs rely on;
* ``"round-robin"`` — deal rules out cyclically, ignoring structure;
* ``"auto"`` (default) — the iSet-aware split, which is round-robin when the
  rule-set yields no usable iSets (every rule is remainder, dealt out one by
  one).

Every rule lands on exactly one shard, so a sharded engine queries all
shards and merges winners by ``(priority, rule_id)`` — exactly how
NuevoMatch's selector merges its iSets (see docs/ARCHITECTURE.md).
"""

from __future__ import annotations

from repro.core.isets import PartitionResult, partition_shards
from repro.rules.rule import RuleSet

__all__ = ["PARTITIONERS", "partition_for_shards"]

#: Accepted strategy names: ``"auto"`` tries iSet-aware partitioning and falls
#: back to round-robin; the other two force one strategy.
PARTITIONERS = ("auto", "isets", "round-robin")


def partition_for_shards(
    ruleset: RuleSet, num_shards: int, strategy: str = "auto"
) -> list[RuleSet]:
    """Split ``ruleset`` into ``num_shards`` disjoint sub-rule-sets.

    Every rule lands in exactly one shard; a sharded engine therefore queries
    all shards and merges by priority, exactly like NuevoMatch's selector
    merges its iSets.

    Args:
        ruleset: The input rules.
        num_shards: Number of shards, ``1 <= num_shards <= len(ruleset)``.
        strategy: One of :data:`PARTITIONERS`.
    """
    if strategy not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {strategy!r}; expected one of {PARTITIONERS}"
        )
    # Round-robin is the split with no iSets: topping up the smallest shard rule
    # by rule deals cyclically.  "auto" needs no choice for the same reason — a
    # rule-set without usable iSets is all remainder.
    everything = PartitionResult([], ruleset, len(ruleset))
    return partition_shards(
        ruleset, num_shards, partition=everything if strategy == "round-robin" else None
    )
