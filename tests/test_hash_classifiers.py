"""Tests specific to the hash-based classifiers (TSS and TupleMerge)."""

import pytest

from repro.classifiers.tuplemerge import TupleMergeClassifier
from repro.classifiers.tuplespace import (
    TupleSpaceSearchClassifier,
    mask_value,
    rule_tuple,
)
from repro.rules.fields import FIVE_TUPLE
from repro.rules.rule import Rule, RuleSet


class TestTupleHelpers:
    def test_mask_value(self):
        assert mask_value(0xDEADBEEF, 0, 32) == 0
        assert mask_value(0xDEADBEEF, 32, 32) == 0xDEADBEEF
        assert mask_value(0xFFFFFFFF, 16, 32) == 0xFFFF0000
        assert mask_value(0xFF, 4, 8) == 0xF0

    def test_rule_tuple_prefix_and_wildcard(self):
        rule = Rule(
            ((0, 0xFF), (0, 0xFFFFFFFF), (80, 80), (10, 20), (6, 6)),
            priority=0,
            rule_id=0,
        )
        bits = [spec.bits for spec in FIVE_TUPLE]
        lengths = rule_tuple(rule, bits)
        assert lengths[0] == 24          # a /24 prefix
        assert lengths[1] == 0           # full wildcard
        assert lengths[2] == 16          # exact port
        assert lengths[3] == 0           # arbitrary range treated as wildcard
        assert lengths[4] == 8           # exact protocol


class TestTupleSpaceSearch:
    def test_one_table_per_tuple(self, acl_small):
        tss = TupleSpaceSearchClassifier.build(acl_small)
        bits = [spec.bits for spec in acl_small.schema]
        distinct_tuples = {rule_tuple(rule, bits) for rule in acl_small}
        assert tss.num_tables == len(distinct_tuples)


class TestTupleMerge:
    def test_fewer_tables_than_tss(self, acl_medium):
        tss = TupleSpaceSearchClassifier.build(acl_medium)
        tm = TupleMergeClassifier.build(acl_medium)
        assert tm.num_tables < tss.num_tables

    def test_collision_limit_respected_for_mergeable_tables(self, acl_medium):
        tm = TupleMergeClassifier.build(acl_medium, collision_limit=8)
        stats = tm.statistics()
        # The limit is a soft bound (the most specific table may overflow as a
        # last resort), but typical buckets must stay near it.
        assert stats["max_bucket"] <= 8 * 4

    def test_collision_limit_validation(self, acl_small):
        with pytest.raises(ValueError):
            TupleMergeClassifier(acl_small, collision_limit=0)

    def test_lower_collision_limit_creates_more_tables(self, acl_medium):
        loose = TupleMergeClassifier.build(acl_medium, collision_limit=40)
        tight = TupleMergeClassifier.build(acl_medium, collision_limit=2)
        assert tight.num_tables >= loose.num_tables

    def test_empty_ruleset(self):
        empty = RuleSet([], FIVE_TUPLE)
        tm = TupleMergeClassifier.build(empty)
        assert tm.classify((1, 2, 3, 4, 5)) is None
        assert tm.memory_footprint().index_bytes >= 0
