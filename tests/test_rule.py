"""Unit tests for the Rule / Packet / RuleSet data model."""

import random

import numpy as np
import pytest

from repro.rules.fields import FIVE_TUPLE, FORWARDING, FieldSchema, FieldSpec
from repro.rules.rule import NO_FLOOR, Packet, Rule, RuleSet, order_key, split_keys

from _helpers import fast_nm_config


def make_rule(src=(0, 0xFFFFFFFF), dst=(0, 0xFFFFFFFF), sport=(0, 65535),
              dport=(0, 65535), proto=(0, 255), priority=0, rule_id=0):
    return Rule((src, dst, sport, dport, proto), priority=priority,
                action=f"a{rule_id}", rule_id=rule_id)


class TestRule:
    def test_matches_inside_ranges(self):
        rule = make_rule(src=(10, 20), dport=(80, 80))
        assert rule.matches((15, 0, 0, 80, 6))
        assert not rule.matches((9, 0, 0, 80, 6))
        assert not rule.matches((15, 0, 0, 81, 6))

    def test_matches_accepts_packet_object(self):
        rule = make_rule()
        assert rule.matches(Packet((1, 2, 3, 4, 5)))

    def test_matches_field(self):
        rule = make_rule(dst=(100, 200))
        assert rule.matches_field(1, 150)
        assert not rule.matches_field(1, 201)

    def test_field_span_and_exact(self):
        rule = make_rule(sport=(5, 5), dport=(10, 19))
        assert rule.field_span(2) == 1
        assert rule.field_span(3) == 10
        assert rule.is_exact(2)
        assert not rule.is_exact(3)

    def test_is_wildcard(self):
        rule = make_rule()
        assert rule.is_wildcard(0, FIVE_TUPLE)
        narrowed = make_rule(src=(0, 10))
        assert not narrowed.is_wildcard(0, FIVE_TUPLE)

    def test_overlaps(self):
        a = make_rule(src=(0, 10), dst=(0, 10))
        b = make_rule(src=(5, 20), dst=(8, 30))
        c = make_rule(src=(11, 20), dst=(0, 10))
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)

    def test_overlaps_field(self):
        a = make_rule(src=(0, 10))
        b = make_rule(src=(10, 20))
        c = make_rule(src=(11, 20))
        assert a.overlaps_field(b, 0)
        assert not a.overlaps_field(c, 0)

    def test_sample_packet_always_matches(self):
        rule = make_rule(src=(100, 200), dst=(5, 5), sport=(10, 20))
        rng = random.Random(0)
        for _ in range(50):
            assert rule.matches(rule.sample_packet(rng))

    def test_with_id_and_priority(self):
        rule = make_rule(priority=3, rule_id=7)
        assert rule.with_id(9).rule_id == 9
        assert rule.with_priority(1).priority == 1
        assert rule.with_id(9).priority == 3


class TestRuleSet:
    def test_priority_semantics_lowest_wins(self):
        # Figure 2 of the paper: the packet matches R3 and R4; R3 has the
        # higher priority (lower number) and is returned.
        rules = [
            make_rule(src=(0, 99), priority=4, rule_id=3),
            make_rule(src=(50, 50), priority=5, rule_id=4),
        ]
        rs = RuleSet(rules, FIVE_TUPLE)
        match = rs.match((50, 0, 0, 0, 0))
        assert match is not None and match.rule_id == 3

    def test_match_returns_none_when_nothing_matches(self):
        rs = RuleSet([make_rule(src=(10, 20))], FIVE_TUPLE)
        assert rs.match((30, 0, 0, 0, 0)) is None

    def test_all_matches_sorted_by_priority(self):
        rules = [
            make_rule(priority=5, rule_id=0),
            make_rule(priority=1, rule_id=1),
            make_rule(src=(1, 1), priority=0, rule_id=2),
        ]
        rs = RuleSet(rules, FIVE_TUPLE)
        hits = rs.all_matches((9, 0, 0, 0, 0))
        assert [r.rule_id for r in hits] == [1, 0]

    def test_schema_validation_on_construction(self):
        with pytest.raises(ValueError):
            RuleSet([Rule(((0, 10),), 0)], FIVE_TUPLE)

    def test_subset_and_without(self):
        rules = [make_rule(rule_id=i, priority=i) for i in range(10)]
        rs = RuleSet(rules, FIVE_TUPLE)
        sub = rs.subset(rules[:3])
        assert len(sub) == 3
        rest = rs.without([0, 1, 2])
        assert len(rest) == 7
        assert all(rule.rule_id >= 3 for rule in rest)

    def test_filter(self):
        rules = [make_rule(sport=(i, i), rule_id=i, priority=i) for i in range(10)]
        rs = RuleSet(rules, FIVE_TUPLE)
        even = rs.filter(lambda r: r.ranges[2][0] % 2 == 0)
        assert len(even) == 5

    def test_by_id(self):
        rules = [make_rule(rule_id=i, priority=i) for i in range(5)]
        rs = RuleSet(rules, FIVE_TUPLE)
        assert set(rs.by_id()) == set(range(5))

    def test_sample_packets_match_some_rule(self):
        rules = [make_rule(src=(i * 100, i * 100 + 50), rule_id=i, priority=i) for i in range(20)]
        rs = RuleSet(rules, FIVE_TUPLE)
        for packet in rs.sample_packets(50, seed=1):
            assert rs.match(packet) is not None

    def test_field_diversity(self):
        rules = [make_rule(src=(i, i), dst=(0, 0), rule_id=i, priority=i) for i in range(10)]
        rs = RuleSet(rules, FIVE_TUPLE)
        assert rs.field_diversity(0) == 1.0
        assert rs.field_diversity(1) == pytest.approx(0.1)

    def test_wildcard_fraction(self):
        rules = [make_rule(rule_id=0), make_rule(src=(0, 10), rule_id=1, priority=1)]
        rs = RuleSet(rules, FIVE_TUPLE)
        assert rs.wildcard_fraction(0) == pytest.approx(0.5)

    def test_stats_keys(self):
        rs = RuleSet([make_rule()], FIVE_TUPLE, name="tiny")
        stats = rs.stats()
        assert stats["name"] == "tiny"
        assert stats["num_rules"] == 1
        assert set(stats["diversity"]) == set(FIVE_TUPLE.names)

    def test_single_field_schema(self):
        rules = [Rule(((0, 100),), priority=0, rule_id=0)]
        rs = RuleSet(rules, FORWARDING)
        assert rs.match((50,)).rule_id == 0
        assert rs.match((200,)) is None


class TestRuleStore:
    """``RuleSet`` is the one rule store: validated read-only columns."""

    def test_duplicate_rule_id_is_refused(self):
        # The second rule's id defaults to its position, 1, which the first took:
        # partition_isets would otherwise drop a rule when it removes by id.
        wide, narrow = make_rule().ranges, make_rule(src=(0, 10)).ranges
        with pytest.raises(ValueError, match="rule id 1 appears more than once"):
            RuleSet([Rule(wide, 0, "a", rule_id=1), Rule(narrow, 1, "b")], FIVE_TUPLE)
        first = RuleSet([make_rule(rule_id=4)], FIVE_TUPLE)
        with pytest.raises(ValueError, match="rule id 4"):
            RuleSet.concat([first, first])

    def test_field_wider_than_63_bits_is_refused(self):
        schema = FieldSchema([FieldSpec("wide", 64)])
        with pytest.raises(ValueError, match="wide.*63 bits"):
            RuleSet([Rule(((0, 1),), 0, rule_id=0)], schema)
        # 63 bits is the widest that fits; a bound past the domain is still a
        # ValueError naming the field, not an OverflowError from a converter.
        schema = FieldSchema([FieldSpec("edge", 63)])
        assert len(RuleSet([Rule(((0, (1 << 63) - 1),), 0, rule_id=0)], schema)) == 1
        with pytest.raises(ValueError, match="edge"):
            RuleSet([Rule(((0, 1 << 63),), 0, rule_id=0)], schema)

    def test_columns_are_read_only(self):
        rs = RuleSet([make_rule(rule_id=i, priority=i) for i in range(3)], FIVE_TUPLE)
        for column in (rs.lo, rs.hi, rs.priority, rs.rule_id, rs.actions):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
        assert rs.lo.shape == rs.hi.shape == (3, 5) and rs.priority.shape == (3,)

    def test_from_columns_validates_like_the_constructor(self):
        schema = FieldSchema([FieldSpec("a", 4), FieldSpec("b", 4)])
        rs = RuleSet.from_columns([[0, 5]], [[9, 5]], [-1], [-1], ["x"], schema)
        assert rs.rules == [Rule(((0, 9), (5, 5)), 0, "x", 0)]
        with pytest.raises(ValueError, match="a: empty range"):
            RuleSet.from_columns([[3, 0]], [[2, 0]], [0], [0], [""], schema)
        with pytest.raises(ValueError, match="expected"):
            RuleSet.from_columns([[0, 0]], [[1, 1]], [0], [0], [""])

    def test_one_order_key_priority_then_id(self):
        rules = [
            make_rule(priority=2, rule_id=0),
            make_rule(priority=1, rule_id=9),
            make_rule(priority=1, rule_id=3),
        ]
        rs = RuleSet(rules, FIVE_TUPLE)
        assert rs.key.tolist() == [order_key(2, 0), order_key(1, 9), order_key(1, 3)]
        assert [rule.key for rule in rs] == rs.key.tolist()
        assert not rs.key.flags.writeable
        assert rs.best_first().rule_id.tolist() == [3, 9, 0]
        assert rs.best_first() is rs.best_first()
        assert rs.match((0, 0, 0, 0, 0)).rule_id == 3
        assert [rule.rule_id for rule in rs.all_matches((0, 0, 0, 0, 0))] == [3, 9, 0]
        ids, priorities = split_keys(np.array([order_key(1, 9), NO_FLOOR]))
        assert (ids.tolist(), priorities.tolist()) == ([9, -1], [1, 0])

    def test_order_key_inputs_are_bounded(self):
        """``0 <= priority < 2**31 - 1`` and ``0 <= rule_id < 2**32``, checked
        once after the negative -> position rewrite, so every key is below
        ``NO_FLOOR``; an engine insert runs the same check and changes nothing
        when it fails."""
        from repro.engine import ClassificationEngine

        wide = make_rule().ranges
        largest = RuleSet([Rule(wide, 2**31 - 2, rule_id=2**32 - 1)], FIVE_TUPLE)
        assert 0 < largest.key[0] < NO_FLOOR
        engine = ClassificationEngine.build(
            RuleSet([make_rule(rule_id=i, priority=i) for i in range(4)], FIVE_TUPLE),
            classifier="linear",
        )
        for priority, rule_id in ((2**31 - 1, 0), (0, 2**32)):
            with pytest.raises(ValueError, match="order key"):
                RuleSet([Rule(wide, priority, rule_id=rule_id)], FIVE_TUPLE)
            with pytest.raises(ValueError, match="order key"):
                RuleSet.from_columns([[0] * 5], [[0] * 5], [priority], [rule_id], ["x"])
            with pytest.raises(ValueError, match="order key"):
                engine.insert(Rule(wide, priority, rule_id=rule_id))
        with pytest.raises(ValueError, match="negative priority"):
            engine.insert(Rule(wide, -1, rule_id=7))
        assert engine.update_statistics()["overlay_inserted"] == 0
        assert engine.live_size() == 4

    def test_array_paths_construct_no_rule_objects(self, monkeypatch):
        from repro.classifiers.linear import LinearSearchClassifier
        from repro.core.isets import partition_isets, partition_shards
        from repro.core.nuevomatch import NuevoMatch
        from repro.engine import ClassificationEngine
        from repro.rules import generate_classbench
        from repro.serving import ShardedEngine

        source = generate_classbench("acl1", 600, seed=2)
        rules = RuleSet.from_columns(
            source.lo, source.hi, source.priority, source.rule_id, source.actions
        )
        inserted = Rule(source[0].ranges, priority=0, action="new", rule_id=9_000)
        block = source.lo[:64].astype(np.uint64)
        built: list[Rule] = []
        construct = Rule.__init__

        def counting(rule, *args, **kwargs):
            built.append(rule)
            construct(rule, *args, **kwargs)

        monkeypatch.setattr(Rule, "__init__", counting)
        assert partition_isets(rules).isets
        LinearSearchClassifier(rules).classify_block(block)
        nm = NuevoMatch.build(rules, remainder_classifier="linear", config=fast_nm_config())
        best = np.full(len(block), NO_FLOOR, dtype=np.int64)
        nm.isets[0].lookup_block(block.astype(np.int64), best)
        assert (best < NO_FLOOR).any()
        engine = ClassificationEngine(nm)
        engine.insert(inserted)
        assert engine.remove(int(rules.rule_id[3]))
        assert len(engine.live_ruleset()) == len(rules)
        groups = partition_shards(rules, 2)
        sharded = ShardedEngine(
            [ClassificationEngine.build(group, classifier="linear") for group in groups]
        )
        assert sharded.ruleset.rule_id.tolist() == sorted(rules.rule_id.tolist())
        assert built == []
        assert len(rules.rules) == len(built) == len(rules)  # the counter does count
