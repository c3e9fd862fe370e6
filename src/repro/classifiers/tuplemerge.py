"""TupleMerge classifier.

TupleMerge [Daly et al., ToN 2019] improves Tuple Space Search by *merging*
compatible tuples into a single hash table with relaxed masks: a rule whose
per-field prefix lengths are all at least the table's lengths can be hashed
under the table's (shorter) masks.  This reduces the number of tables probed
per lookup dramatically, at the cost of more false-positive candidates per
bucket; a per-bucket *collision limit* (40 in the paper and here) bounds that
cost, triggering the creation of a more specific table when exceeded.

The tables, their probe order and the lookups are the hash family's
(:class:`~repro.classifiers.tuplespace.TupleHashClassifier`); this module is
the placement policy.  The paper pairs NuevoMatch with TupleMerge as the
update-capable remainder classifier; here a built classifier is immutable and
online updates are the engine's overlay
(:class:`repro.engine.ClassificationEngine`), for every remainder alike.
"""

from __future__ import annotations

from typing import Sequence

from repro.classifiers.registry import register
from repro.classifiers.tuplespace import TupleHashClassifier, _HashTable, rule_tuple
from repro.rules.rule import Rule, RuleSet

__all__ = ["TupleMergeClassifier"]

#: Default per-bucket collision limit, as recommended by the TupleMerge paper.
DEFAULT_COLLISION_LIMIT = 40

#: Coarse IP prefix-length grids used when seeding new tables.  The first
#: (coarser) grid is tried first so that many tuples merge into few tables;
#: when the collision limit forces a more specific table, the finer grid and
#: finally the rule's own tuple are used.
_IP_GRIDS = ((0, 16), (0, 8, 16, 24, 32))


def _relaxed_lengths(
    tuple_lengths: tuple[int, ...], field_bits: Sequence[int], grid_index: int
) -> tuple[int, ...]:
    """Relax a rule's tuple to seed a new merged table.

    ``grid_index`` selects how coarse the relaxation is: 0 and 1 snap IP
    lengths down onto :data:`_IP_GRIDS`; anything larger returns the rule's
    own tuple (no relaxation).
    """
    if grid_index >= len(_IP_GRIDS):
        return tuple(tuple_lengths)
    grid = _IP_GRIDS[grid_index]
    relaxed = []
    for length, bits in zip(tuple_lengths, field_bits):
        if bits >= 32:  # IP-like field: snap down to the grid.
            snapped = max((g for g in grid if g <= length), default=0)
            relaxed.append(snapped)
        else:
            # Ports/protocol: either "exact" or "wildcard" hashing.
            relaxed.append(bits if length == bits else 0)
    return tuple(relaxed)


@register("tm", aliases=("tuplemerge",))
class TupleMergeClassifier(TupleHashClassifier):
    """TupleMerge: a rule goes in the first compatible table whose bucket has
    room under the collision limit, else seeds a table with relaxed masks."""

    name = "tm"

    def __init__(self, ruleset: RuleSet, collision_limit: int = DEFAULT_COLLISION_LIMIT):
        super().__init__(ruleset)
        if collision_limit < 1:
            raise ValueError("collision_limit must be at least 1")
        self.collision_limit = collision_limit
        # Inserting more-specific rules first produces fewer, better tables;
        # the original implementation sorts by tuple specificity as well.
        self._place_all(
            sorted(ruleset.rules, key=lambda r: -sum(rule_tuple(r, self._field_bits)))
        )

    def _place(self, rule: Rule, tables: dict[tuple[int, ...], _HashTable]) -> None:
        lengths = rule_tuple(rule, self._field_bits)
        for table in tables.values():
            # A rule fits a table whose masks are no longer than its own, if
            # its bucket there has room.  (Indexing the defaultdict allocates
            # the probed bucket, and the footprint counts allocated buckets.)
            if all(own >= masked for own, masked in zip(lengths, table.lengths)) and (
                len(table.buckets[table.key_for_rule(rule)]) < self.collision_limit
            ):
                table.add(rule)
                return
        # No compatible table with room: seed a new table, coarsest grid first;
        # if a table with those exact lengths already exists (it must have been
        # full), fall back to a finer grid and finally to the rule's own tuple.
        for grid_index in range(len(_IP_GRIDS) + 1):
            relaxed = _relaxed_lengths(lengths, self._field_bits, grid_index)
            if relaxed not in tables:
                tables[relaxed] = _HashTable(relaxed, self._field_bits)
                tables[relaxed].add(rule)
                return
        # Every candidate tuple already has a (full) table: accept the
        # collision-limit overflow in the most specific one.
        tables[lengths].add(rule)

    def statistics(self) -> dict[str, object]:
        stats = super().statistics()
        stats["collision_limit"] = self.collision_limit
        return stats
