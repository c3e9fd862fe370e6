"""Rule, Packet and RuleSet data model.

A :class:`Rule` matches a packet when every packet field value falls inside
the rule's inclusive range for that field.  When several rules match, the one
with the *highest priority* wins; following the paper (Figure 2) lower
numeric priority values denote higher priority (priority 1 beats priority 5).

A :class:`RuleSet` is an ordered collection of rules sharing one
:class:`~repro.rules.fields.FieldSchema`, with helpers used throughout the
library: linear-search ground truth, per-field projections, sampling of
matching packets, and structural statistics (diversity, overlap).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.rules.fields import FIVE_TUPLE, FieldSchema

__all__ = ["Packet", "Rule", "RuleSet"]


@dataclass(frozen=True)
class Packet:
    """An immutable packet header: one integer value per schema field."""

    values: tuple[int, ...]

    def __getitem__(self, dim: int) -> int:
        return self.values[dim]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)


@dataclass(frozen=True)
class Rule:
    """A multi-field classification rule.

    Attributes:
        ranges: One inclusive ``(lo, hi)`` range per field.
        priority: Lower values win (priority 1 beats priority 2).
        action: Opaque action identifier returned to the caller on a match.
        rule_id: Stable identifier, unique within a rule-set.
    """

    ranges: tuple[tuple[int, int], ...]
    priority: int
    action: str = ""
    rule_id: int = -1

    def matches(self, packet: Packet | Sequence[int]) -> bool:
        """Return True if every packet field lies inside the rule's range."""
        values = packet.values if isinstance(packet, Packet) else packet
        for (lo, hi), value in zip(self.ranges, values):
            if value < lo or value > hi:
                return False
        return True

    def matches_field(self, dim: int, value: int) -> bool:
        """Return True if ``value`` lies in the rule's range for field ``dim``."""
        lo, hi = self.ranges[dim]
        return lo <= value <= hi

    def field_span(self, dim: int) -> int:
        """Number of values matched in field ``dim``."""
        lo, hi = self.ranges[dim]
        return hi - lo + 1

    def is_exact(self, dim: int) -> bool:
        """True if the rule matches a single value in field ``dim``."""
        lo, hi = self.ranges[dim]
        return lo == hi

    def is_wildcard(self, dim: int, schema: FieldSchema) -> bool:
        """True if the rule matches the whole domain of field ``dim``."""
        return self.ranges[dim] == schema[dim].full_range()

    def overlaps(self, other: "Rule") -> bool:
        """True if the two rules' hyper-rectangles intersect in every field."""
        for (alo, ahi), (blo, bhi) in zip(self.ranges, other.ranges):
            if ahi < blo or bhi < alo:
                return False
        return True

    def overlaps_field(self, other: "Rule", dim: int) -> bool:
        """True if the two rules' ranges intersect in field ``dim``."""
        alo, ahi = self.ranges[dim]
        blo, bhi = other.ranges[dim]
        return not (ahi < blo or bhi < alo)

    def sample_packet(self, rng: random.Random | None = None) -> Packet:
        """Return a uniformly random packet matching this rule."""
        rng = rng or random
        return Packet(tuple(rng.randint(lo, hi) for lo, hi in self.ranges))

    def with_id(self, rule_id: int) -> "Rule":
        """Return a copy of the rule with a new ``rule_id``."""
        return Rule(self.ranges, self.priority, self.action, rule_id)

    def with_priority(self, priority: int) -> "Rule":
        """Return a copy of the rule with a new ``priority``."""
        return Rule(self.ranges, priority, self.action, self.rule_id)


class RuleSet:
    """An ordered set of rules sharing one field schema.

    Rules are stored in the order given; ``rule_id`` is assigned to the
    position in the set when not already set, and priorities default to the
    position as well (earlier rules win), matching ClassBench convention.
    """

    def __init__(
        self,
        rules: Iterable[Rule],
        schema: FieldSchema = FIVE_TUPLE,
        name: str = "ruleset",
    ):
        self.schema = schema
        self.name = name
        normalized: list[Rule] = []
        for position, rule in enumerate(rules):
            schema.validate_ranges(rule.ranges)
            rule_id = rule.rule_id if rule.rule_id >= 0 else position
            priority = rule.priority if rule.priority >= 0 else position
            normalized.append(Rule(tuple(rule.ranges), priority, rule.action, rule_id))
        self._rules = normalized

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __getitem__(self, index: int) -> Rule:
        return self._rules[index]

    @property
    def rules(self) -> list[Rule]:
        return self._rules

    @property
    def num_fields(self) -> int:
        return len(self.schema)

    # -- ground truth --------------------------------------------------------------

    def match(self, packet: Packet | Sequence[int]) -> Rule | None:
        """Linear-search ground truth: highest-priority matching rule or None."""
        best: Rule | None = None
        for rule in self._rules:
            if rule.matches(packet):
                if best is None or rule.priority < best.priority:
                    best = rule
        return best

    def all_matches(self, packet: Packet | Sequence[int]) -> list[Rule]:
        """Every rule matching the packet, sorted by priority (best first)."""
        hits = [rule for rule in self._rules if rule.matches(packet)]
        hits.sort(key=lambda rule: rule.priority)
        return hits

    # -- derived sets --------------------------------------------------------------

    def subset(self, rules: Iterable[Rule], name: str | None = None) -> "RuleSet":
        """A new RuleSet over the same schema containing ``rules`` as-is."""
        return RuleSet(list(rules), self.schema, name or self.name)

    def without(self, rule_ids: Iterable[int], name: str | None = None) -> "RuleSet":
        """A new RuleSet with the rules whose ids are in ``rule_ids`` removed."""
        excluded = set(rule_ids)
        kept = [rule for rule in self._rules if rule.rule_id not in excluded]
        return RuleSet(kept, self.schema, name or self.name)

    def filter(self, predicate: Callable[[Rule], bool]) -> "RuleSet":
        """A new RuleSet containing only rules satisfying ``predicate``."""
        return RuleSet(
            [rule for rule in self._rules if predicate(rule)], self.schema, self.name
        )

    def by_id(self) -> dict[int, Rule]:
        """Mapping from rule_id to rule."""
        return {rule.rule_id: rule for rule in self._rules}

    # -- sampling ------------------------------------------------------------------

    def sample_matching_packet(
        self, rng: random.Random | None = None, rule: Rule | None = None
    ) -> Packet:
        """A random packet matching a (given or random) rule in the set."""
        rng = rng or random
        if rule is None:
            rule = rng.choice(self._rules)
        return rule.sample_packet(rng)

    def sample_packets(self, count: int, seed: int = 0) -> list[Packet]:
        """``count`` packets each matching a uniformly chosen rule."""
        rng = random.Random(seed)
        return [self.sample_matching_packet(rng) for _ in range(count)]

    # -- structural statistics -----------------------------------------------------

    def field_diversity(self, dim: int) -> float:
        """Rule-set diversity of field ``dim`` (§3.7).

        The number of unique values (for exact-match fields we use the range
        low bound as the value) divided by the number of rules.  It upper
        bounds the fraction of rules the largest iSet on that field can hold.
        """
        if not self._rules:
            return 0.0
        unique = {rule.ranges[dim] for rule in self._rules}
        return len(unique) / len(self._rules)

    def diversity(self) -> dict[str, float]:
        """Per-field diversity keyed by field name."""
        return {
            spec.name: self.field_diversity(dim)
            for dim, spec in enumerate(self.schema)
        }

    def wildcard_fraction(self, dim: int) -> float:
        """Fraction of rules that wildcard field ``dim``."""
        if not self._rules:
            return 0.0
        full = self.schema[dim].full_range()
        count = sum(1 for rule in self._rules if rule.ranges[dim] == full)
        return count / len(self._rules)

    def stats(self) -> dict[str, object]:
        """Summary statistics used by reports and tests."""
        return {
            "name": self.name,
            "num_rules": len(self._rules),
            "num_fields": self.num_fields,
            "diversity": self.diversity(),
            "wildcards": {
                spec.name: self.wildcard_fraction(dim)
                for dim, spec in enumerate(self.schema)
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuleSet({self.name!r}, {len(self._rules)} rules, {self.num_fields} fields)"
