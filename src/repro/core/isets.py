"""iSet partitioning (§3.6).

NuevoMatch handles multi-field classification with overlapping ranges by
splitting the rule-set into *independent sets* (iSets): each iSet is a group
of rules whose ranges do **not** overlap in one chosen field, so a single
one-dimensional RQ-RMI can index them.  The partitioning heuristic (§3.6.1)
repeatedly finds the largest iSet over any field — using the classical
interval-scheduling maximisation algorithm per field — removes its rules and
continues; iSets that remain too small are merged into the *remainder set*
handled by an external classifier.

It all runs on the :class:`~repro.rules.rule.RuleSet` columns: an iSet is one
stable ``argsort`` of a field's upper bounds plus one scan, and iSets, the
remainder and the shard groups are rule-sets made from row indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rules.rule import RuleSet

__all__ = [
    "ISet",
    "PartitionResult",
    "max_independent_set",
    "partition_isets",
    "partition_shards",
]


@dataclass
class ISet:
    """One independent set: rules that do not overlap in field ``dim``.

    ``rules`` are sorted by their range lower bound in ``dim`` — the order of
    the value array the RQ-RMI predicts indices into.
    """

    dim: int
    rules: RuleSet
    total_rules: int

    @property
    def coverage(self) -> float:
        """Fraction of the original rule-set this iSet holds."""
        return len(self.rules) / self.total_rules if self.total_rules else 0.0

    def __len__(self) -> int:
        return len(self.rules)

    def ranges(self) -> np.ndarray:
        """The (disjoint) ``(lo, hi)`` ranges of the rules in field ``dim``,
        sorted: an ``(rules, 2)`` int64 array."""
        lo, hi = self.rules.lo[:, self.dim], self.rules.hi[:, self.dim]
        return np.stack((lo, hi), axis=1)


@dataclass
class PartitionResult:
    """Outcome of iSet partitioning."""

    isets: list[ISet]
    remainder: RuleSet
    total_rules: int

    @property
    def coverage(self) -> float:
        """Fraction of the rule-set covered by the kept iSets."""
        covered = sum(len(iset) for iset in self.isets)
        return covered / self.total_rules if self.total_rules else 0.0

    def cumulative_coverage(self) -> list[float]:
        """Coverage after 1, 2, ... iSets (Table 2 rows)."""
        out: list[float] = []
        covered = 0
        for iset in self.isets:
            covered += len(iset)
            out.append(covered / self.total_rules if self.total_rules else 0.0)
        return out


def max_independent_set(ruleset: RuleSet, dim: int) -> np.ndarray:
    """Rows of the largest subset of ``ruleset`` with pairwise non-overlapping
    ranges in ``dim``, in ascending range order.

    Classical interval-scheduling maximisation: sort by the range upper bound
    (stably: equal bounds keep rule order) and greedily take every range that
    starts after the last accepted one ends, which also leaves them sorted by
    lower bound.  The greedy solution is optimal for this one-dimensional problem.
    """
    order = np.argsort(ruleset.hi[:, dim], kind="stable")
    bounds = zip(ruleset.lo[order, dim].tolist(), ruleset.hi[order, dim].tolist())
    chosen: list[int] = []
    last_hi = -1
    for row, (lo, hi) in zip(order.tolist(), bounds):
        if lo > last_hi:
            chosen.append(row)
            last_hi = hi
    return np.array(chosen, dtype=np.int64)


def partition_isets(
    ruleset: RuleSet,
    max_isets: int | None = None,
    min_coverage: float = 0.0,
) -> PartitionResult:
    """Greedy iSet construction (§3.6.1).

    Repeatedly builds the largest iSet over every field at most 53 bits
    wide (the widest whose keys an RQ-RMI indexes exactly), keeps the largest
    among them, removes its rules and continues until the input is exhausted,
    ``max_isets`` iSets have been produced, or the next iSet would fall below
    ``min_coverage`` (as a fraction of the *original* rule-set).  Rules not
    covered by the kept iSets form the remainder.

    Args:
        ruleset: The input rules.
        max_isets: Optional upper bound on the number of iSets returned.
        min_coverage: Minimum coverage fraction for an iSet to be kept
            (0.25 or 0.05 in the paper's experiments, depending on the
            remainder classifier).

    Returns:
        A :class:`PartitionResult` with iSets ordered largest-first.
    """
    total = len(ruleset)
    remaining = np.arange(total)  # rows of ``ruleset`` not yet in an iSet
    isets: list[ISet] = []
    # An RQ-RMI scales keys to float64, which holds every key of a field at
    # most 53 bits wide exactly; wider fields' adjacent ranges would collapse.
    dims = [dim for dim, spec in enumerate(ruleset.schema) if spec.bits <= 53]

    while remaining.size and dims:
        if max_isets is not None and len(isets) >= max_isets:
            break
        candidates = ruleset.take(remaining)
        found = {dim: max_independent_set(candidates, dim) for dim in dims}
        best_dim = max(dims, key=lambda dim: len(found[dim]))  # first largest
        best = found[best_dim]
        if len(best) / total < min_coverage:
            break
        isets.append(ISet(dim=best_dim, rules=candidates.take(best), total_rules=total))
        remaining = np.delete(remaining, best)

    remainder = ruleset.take(remaining, name=f"{ruleset.name}-remainder")
    return PartitionResult(isets=isets, remainder=remainder, total_rules=total)


def partition_shards(
    ruleset: RuleSet,
    num_shards: int,
    min_coverage: float = 0.0,
    partition: PartitionResult | None = None,
) -> list[RuleSet]:
    """Split a rule-set into ``num_shards`` balanced, iSet-aware groups.

    The paper scales NuevoMatch by distributing iSets (and the remainder)
    across cores; this helper reproduces that split at the rule level so each
    shard can build its own classifier.  iSets from :func:`partition_isets`
    are cut into contiguous chunks no larger than the per-shard target size —
    any subset of an iSet is still an iSet (pairwise non-overlap is preserved),
    so chunking keeps the property each shard's RQ-RMI relies on while
    avoiding one giant shard.  Chunks are then assigned to the currently
    smallest shard (longest-processing-time greedy bin packing, largest chunk
    first) and remainder rules top up the smallest shards one by one.

    Every rule lands in exactly one shard; the union of the shards is the
    input rule-set.

    Args:
        ruleset: The input rules.
        num_shards: Number of groups, ``1 <= num_shards <= len(ruleset)``.
        min_coverage: Forwarded to :func:`partition_isets`.
        partition: A precomputed :func:`partition_isets` result over
            ``ruleset``; passing one skips the (expensive) recomputation when
            the caller already partitioned the rules.  ``min_coverage`` is
            ignored in that case.

    Returns:
        ``num_shards`` non-empty rule-sets named ``<name>-shard<index>``.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if num_shards > len(ruleset):
        raise ValueError(
            f"cannot split {len(ruleset)} rules into {num_shards} shards"
        )
    if num_shards == 1:
        return [ruleset.take(np.arange(len(ruleset)), name=f"{ruleset.name}-shard0")]

    if partition is None:
        partition = partition_isets(ruleset, min_coverage=min_coverage)
    # Groups are rows of one pool: the iSets' rules, then the remainder.
    pool = RuleSet.concat([iset.rules for iset in partition.isets] + [partition.remainder])
    shards: list[list[int]] = [[] for _ in range(num_shards)]
    target = -(-len(ruleset) // num_shards)  # ceil division

    chunks: list[range] = []
    offset = 0
    for iset in partition.isets:
        num_chunks = -(-len(iset) // target)
        chunk_size = -(-len(iset) // num_chunks)
        for start in range(0, len(iset), chunk_size):
            chunks.append(range(offset + start, offset + min(start + chunk_size, len(iset))))
        offset += len(iset)

    def smallest() -> list[int]:
        return min(shards, key=len)

    for chunk in sorted(chunks, key=len, reverse=True):
        smallest().extend(chunk)
    for row in range(offset, len(pool)):
        smallest().append(row)

    # Tiny inputs can leave a shard empty (e.g. one giant iSet and no
    # remainder); rebalance by stealing single rules from the largest shard.
    for shard in shards:
        while not shard:
            donor = max(shards, key=len)
            if len(donor) <= 1:
                break
            shard.append(donor.pop())
    return [
        pool.take(np.array(rows, dtype=np.int64), name=f"{ruleset.name}-shard{index}")
        for index, rows in enumerate(shards)
    ]
