"""Rule, Packet and RuleSet data model, and the one rule order.

A :class:`Rule` matches a packet when every packet field value falls inside
the rule's inclusive range for that field.  When several rules match, the one
with the *highest priority* wins; following the paper (Figure 2) lower
numeric priority values denote higher priority (priority 1 beats priority 5).
Equal priorities go to the lower ``rule_id``.  This module alone knows that
order: :func:`order_key` packs it into one int64 (smaller wins, below
:data:`NO_FLOOR`), and every other layer sorts by and compares those keys —
:attr:`Rule.key`, :attr:`RuleSet.key`, :meth:`RuleSet.best_first`, and
:func:`result_keys` / :func:`split_keys` for columnar results.

A :class:`RuleSet` is an ordered collection of rules sharing one
:class:`~repro.rules.fields.FieldSchema`, and the library's one rule store:
the rules *are* read-only int64 columns (``lo``/``hi`` of shape ``(rules,
fields)``, ``priority`` and ``rule_id`` of shape ``(rules,)``) plus the action
strings.  Every layer that needs arrays slices them, and sub-rule-sets are made
by :meth:`RuleSet.take` and joined by :meth:`RuleSet.concat`.  :class:`Rule`
objects are materialised on first use, for the object views of a lookup
and the tree and hash builders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.rules.fields import FIVE_TUPLE, FieldSchema

__all__ = ["NO_FLOOR", "Packet", "Rule", "RuleSet", "check_order_inputs",
           "first_duplicate", "order_key", "result_keys", "split_keys"]

#: The "no match / no floor" key, int64 max: above every :func:`order_key`.
#: A floored lookup (``classify_block_with_floors``) reports only a match
#: whose key is below its row's floor; this one prunes nothing.
NO_FLOOR = int(np.iinfo(np.int64).max)


def order_key(priority, rule_id):
    """The one rule order as one integer, ``priority << 32 | rule_id``: the
    smaller key wins (lower priority, then lower id).  Ints or int64 arrays."""
    return priority << 32 | rule_id


def split_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columnar ``(rule_ids, priorities)`` of int64 ``keys``; a
    :data:`NO_FLOOR` key is the miss ``(-1, 0)``."""
    hit = keys < NO_FLOOR
    return np.where(hit, keys & 0xFFFFFFFF, -1), np.where(hit, keys >> 32, 0)


def result_keys(rule_ids: np.ndarray, priorities: np.ndarray) -> np.ndarray:
    """The keys of columnar results (inverse of :func:`split_keys`)."""
    return np.where(rule_ids >= 0, order_key(priorities, rule_ids), NO_FLOOR)


def check_order_inputs(priority, rule_id) -> None:
    """Raise ``ValueError`` unless ``0 <= priority < 2**31 - 1`` and
    ``0 <= rule_id < 2**32`` (ints, or arrays row by row): then every
    :func:`order_key` is below :data:`NO_FLOOR`."""
    priority, rule_id = np.atleast_1d(priority), np.atleast_1d(rule_id)
    negative = (priority < 0) | (rule_id < 0)
    bad = negative | (priority >= 2**31 - 1) | (rule_id >= 2**32)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            f"rule {rule_id[row]} has negative priority {priority[row]} or a negative "
            "id; online inserts need an explicit priority and id >= 0"
            if negative[row]
            else f"rule {rule_id[row]} has priority {priority[row]}: an order key "
            "needs priority < 2**31 - 1 and rule id < 2**32"
        )


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
        key: ``order_key(priority, rule_id)``, stored at construction for the
            scalar lookup loops (not compared, hashed or shown).
    """

    ranges: tuple[tuple[int, int], ...]
    priority: int
    action: str = ""
    rule_id: int = -1
    key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", order_key(self.priority, self.rule_id))

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


def first_duplicate(values: np.ndarray) -> int | None:
    """The smallest value that ``values`` holds more than once, or ``None``."""
    ordered = np.sort(values)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    return int(repeated[0]) if len(repeated) else None


class RuleSet:
    """An ordered set of rules sharing one field schema, stored as columns.

    Rules keep the order given; ``rule_id`` is assigned to the position in the
    set when not already set, and priorities default to the position as well
    (earlier rules win), matching ClassBench convention.  Construction checks
    that every range fits the schema, that rule ids are unique, that no
    field is wider than 63 bits (the columns are int64) and that every
    priority and id fits an order key (:func:`check_order_inputs`).

    Attributes:
        lo, hi: Inclusive range bounds, read-only int64 ``(rules, fields)``.
        priority, rule_id: Read-only int64 ``(rules,)``.
        actions: The action strings, read-only object ``(rules,)``.
    """

    def __init__(
        self,
        rules: Iterable[Rule],
        schema: FieldSchema = FIVE_TUPLE,
        name: str = "ruleset",
    ):
        rules = list(rules)
        try:
            bounds = np.array([rule.ranges for rule in rules], dtype=np.int64)
            bounds = bounds.reshape(len(rules), len(schema), 2)
        except (ValueError, OverflowError):
            # Ragged or beyond int64: the per-rule check names the offender.
            for rule in rules:
                schema.validate_ranges(rule.ranges)
            raise
        self._adopt(
            bounds[:, :, 0],
            bounds[:, :, 1],
            [rule.priority for rule in rules],
            [rule.rule_id for rule in rules],
            [rule.action for rule in rules],
            schema,
            name,
        )

    @classmethod
    def from_columns(
        cls, lo, hi, priority, rule_id, actions, schema=FIVE_TUPLE, name="ruleset"
    ) -> "RuleSet":
        """A rule-set from ``(rules, fields)`` bounds and ``(rules,)`` columns,
        copied, normalised and validated exactly as the constructor does."""
        return cls.__new__(cls)._adopt(lo, hi, priority, rule_id, actions, schema, name)

    def _adopt(self, lo, hi, priority, rule_id, actions, schema, name) -> "RuleSet":
        lo, hi = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
        if lo.ndim != 2 or lo.shape != hi.shape or lo.shape[1] != len(schema):
            raise ValueError(
                f"expected (rules, {len(schema)}) bounds, got {lo.shape} and {hi.shape}"
            )
        if any(spec.bits > 63 for spec in schema):
            raise ValueError(f"{schema}: a field wider than 63 bits does not fit int64")
        limits = np.array([spec.max_value for spec in schema])
        bad = ((lo > hi) | (lo < 0) | (hi > limits)).any(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            schema.validate_ranges(list(zip(lo[row].tolist(), hi[row].tolist())))
        positions = np.arange(len(lo))
        priority = np.array(priority, dtype=np.int64).reshape(len(lo))
        rule_id = np.array(rule_id, dtype=np.int64).reshape(len(lo))
        rule_id = np.where(rule_id >= 0, rule_id, positions)
        if (duplicate := first_duplicate(rule_id)) is not None:
            raise ValueError(f"rule id {duplicate} appears more than once in the rule-set")
        priority = np.where(priority >= 0, priority, positions)
        check_order_inputs(priority, rule_id)
        actions = np.array(actions, dtype=object).reshape(len(lo))
        return self._freeze((lo, hi, priority, rule_id, actions), schema, name)

    def _freeze(self, columns, schema: FieldSchema, name: str) -> "RuleSet":
        for column in columns:
            column.setflags(write=False)
        self.lo, self.hi, self.priority, self.rule_id, self.actions = columns
        self._columns = tuple(columns)
        self.schema = schema
        self.name = name
        return self

    # -- row operations ------------------------------------------------------------

    def take(self, rows, name: str | None = None) -> "RuleSet":
        """The sub-rule-set of ``rows`` (an index array or a boolean mask), in
        that order.  Rows are copied as they are: nothing is validated again."""
        taken = [column[rows] for column in self._columns]
        return RuleSet.__new__(RuleSet)._freeze(taken, self.schema, name or self.name)

    @staticmethod
    def concat(parts: Sequence["RuleSet"], name: str | None = None) -> "RuleSet":
        """The rows of ``parts`` (one schema, disjoint rule ids), part after part."""
        if any(part.schema != parts[0].schema for part in parts):
            raise ValueError("cannot concatenate rule-sets over different schemas")
        joined = [np.concatenate(column) for column in zip(*(p._columns for p in parts))]
        if (duplicate := first_duplicate(joined[3])) is not None:  # the rule_id column
            raise ValueError(f"rule id {duplicate} appears in more than one part")
        return RuleSet.__new__(RuleSet)._freeze(
            joined, parts[0].schema, name or parts[0].name
        )

    @cached_property
    def row_of(self) -> dict[int, int]:
        """``rule_id -> row``, made on first use."""
        return {rule_id: row for row, rule_id in enumerate(self.rule_id.tolist())}

    @cached_property
    def key(self) -> np.ndarray:
        """The rows' :func:`order_key` column, read-only int64, made on first use."""
        key = order_key(self.priority, self.rule_id)
        key.setflags(write=False)
        return key

    def best_first(self) -> "RuleSet":
        """The rows in the one rule order, best first: ``take(argsort(key))``,
        made once per rule-set (its rows never change)."""
        return self._ranked

    @cached_property
    def _ranked(self) -> "RuleSet":
        return self.take(np.argsort(self.key))

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.rule_id)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __getitem__(self, index: int) -> Rule:
        return self.rules[index]

    @cached_property
    def rules(self) -> list[Rule]:
        """The rows as :class:`Rule` objects, materialised on first use."""
        bounds = np.stack((self.lo, self.hi), axis=2).tolist()
        return [
            Rule(tuple(map(tuple, ranges)), priority, action, rule_id)
            for ranges, priority, action, rule_id in zip(
                bounds, self.priority.tolist(), self.actions.tolist(), self.rule_id.tolist()
            )
        ]

    @property
    def num_fields(self) -> int:
        return len(self.schema)

    # -- ground truth --------------------------------------------------------------

    def match(self, packet: Packet | Sequence[int]) -> Rule | None:
        """Linear-search ground truth: the matching rule with the smallest
        :attr:`~Rule.key` (highest priority, then lowest id), or None."""
        return next((rule for rule in self.best_first() if rule.matches(packet)), None)

    def all_matches(self, packet: Packet | Sequence[int]) -> list[Rule]:
        """Every rule matching the packet, best key first."""
        return [rule for rule in self.best_first() if rule.matches(packet)]

    # -- derived sets --------------------------------------------------------------

    def subset(self, rules: Iterable[Rule], name: str | None = None) -> "RuleSet":
        """A new RuleSet over the same schema containing ``rules`` as-is."""
        return RuleSet(rules, self.schema, name or self.name)

    def without(self, rule_ids: Iterable[int], name: str | None = None) -> "RuleSet":
        """A new RuleSet with the rules whose ids are in ``rule_ids`` removed."""
        return self.take(~np.isin(self.rule_id, list(rule_ids)), name)

    def filter(self, predicate: Callable[[Rule], bool]) -> "RuleSet":
        """A new RuleSet containing only rules satisfying ``predicate``."""
        return self.take([row for row, rule in enumerate(self.rules) if predicate(rule)])

    def by_id(self) -> dict[int, Rule]:
        """Mapping from rule_id to rule."""
        return {rule.rule_id: rule for rule in self.rules}

    # -- sampling ------------------------------------------------------------------

    def sample_packets(self, count: int, seed: int = 0) -> list[Packet]:
        """``count`` packets each matching a uniformly chosen rule."""
        rng = random.Random(seed)
        return [rng.choice(self.rules).sample_packet(rng) for _ in range(count)]

    # -- structural statistics -----------------------------------------------------

    def field_diversity(self, dim: int) -> float:
        """Rule-set diversity of field ``dim`` (§3.7).

        The number of unique values (for exact-match fields we use the range
        low bound as the value) divided by the number of rules.  It upper
        bounds the fraction of rules the largest iSet on that field can hold.
        """
        if not len(self):
            return 0.0
        ranges = np.stack((self.lo[:, dim], self.hi[:, dim]), axis=1)
        return len(np.unique(ranges, axis=0)) / len(self)

    def diversity(self) -> dict[str, float]:
        """Per-field diversity keyed by field name."""
        return {
            spec.name: self.field_diversity(dim)
            for dim, spec in enumerate(self.schema)
        }

    def wildcard_fraction(self, dim: int) -> float:
        """Fraction of rules that wildcard field ``dim``."""
        if not len(self):
            return 0.0
        lo, hi = self.schema[dim].full_range()
        full = (self.lo[:, dim] == lo) & (self.hi[:, dim] == hi)
        return int(np.count_nonzero(full)) / len(self)

    def stats(self) -> dict[str, object]:
        """Summary statistics used by reports and tests."""
        return {
            "name": self.name,
            "num_rules": len(self),
            "num_fields": self.num_fields,
            "diversity": self.diversity(),
            "wildcards": {
                spec.name: self.wildcard_fraction(dim)
                for dim, spec in enumerate(self.schema)
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuleSet({self.name!r}, {len(self)} rules, {self.num_fields} fields)"
