"""Tests specific to the decision-tree classifiers and the shared tree builder."""

import pytest

from repro.classifiers.cutsplit import CutSplitClassifier
from repro.classifiers.dtree import (
    CutAction,
    CutNode,
    DecisionTree,
    LeafAction,
    LeafNode,
    SplitAction,
    SplitNode,
    build_tree,
)
from repro.classifiers.hicuts import HiCutsClassifier
from repro.classifiers.neurocuts import NeuroCutsClassifier
from repro.classifiers.base import LookupTrace
from repro.rules.fields import FIVE_TUPLE
from repro.rules.rule import Rule, RuleSet, order_key


def simple_rules(count=20):
    rules = []
    for i in range(count):
        rules.append(
            Rule(
                ((i * 100, i * 100 + 50), (0, 0xFFFFFFFF), (0, 65535), (0, 65535), (0, 255)),
                priority=i,
                rule_id=i,
            )
        )
    return rules


class TestTreeBuilder:
    def test_small_input_becomes_leaf(self):
        rules = simple_rules(4)
        root = build_tree(rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: CutAction(0, 4), binth=8)
        assert isinstance(root, LeafNode)
        assert len(root.rules) == 4

    def test_cut_action_partitions(self):
        rules = simple_rules(40)
        root = build_tree(rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: CutAction(0, 8), binth=4)
        assert isinstance(root, CutNode)
        assert len(root.children) == 8

    def test_split_action(self):
        rules = simple_rules(40)
        root = build_tree(
            rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: SplitAction(0, 2000), binth=4
        )
        assert isinstance(root, SplitNode)

    def test_leaf_action_respected_when_unsplittable(self):
        # All rules identical: nothing can separate them; must become a leaf.
        rules = [
            Rule(((0, 10), (0, 10), (0, 10), (0, 10), (0, 10)), priority=i, rule_id=i)
            for i in range(20)
        ]
        root = build_tree(rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: LeafAction(), binth=4)
        assert isinstance(root, LeafNode)
        assert len(root.rules) == 20

    def test_max_depth_bounds_recursion(self):
        rules = simple_rules(60)
        root = build_tree(
            rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: CutAction(0, 2), binth=1, max_depth=3
        )
        stats = DecisionTree(root).stats()
        assert stats.max_depth <= 3

    def test_best_key_propagates(self):
        rules = simple_rules(40)
        root = build_tree(rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: CutAction(0, 8), binth=4)
        assert root.best_key == order_key(0, 0)

    def test_lookup_finds_best_priority_match(self):
        rules = simple_rules(40)
        tree = DecisionTree(
            build_tree(rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: CutAction(0, 8), binth=4)
        )
        ruleset = RuleSet(rules, FIVE_TUPLE)
        for packet in ruleset.sample_packets(100, seed=1):
            trace = LookupTrace()
            found = tree.lookup(tuple(packet), trace)
            expected = ruleset.match(packet)
            assert found is not None and expected is not None
            assert found.rule_id == expected.rule_id
            assert trace.index_accesses >= 1

    def test_lookup_with_floor_prunes(self):
        rules = simple_rules(40)
        tree = DecisionTree(
            build_tree(rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: CutAction(0, 8), binth=4)
        )
        packet = (105, 0, 0, 0, 0)  # matches rule 1
        trace = LookupTrace()
        assert tree.lookup(packet, trace, floor=order_key(1, 0)) is None

    def test_stats_and_footprint(self):
        rules = simple_rules(60)
        tree = DecisionTree(
            build_tree(rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: CutAction(0, 8), binth=4)
        )
        stats = tree.stats()
        assert stats.num_nodes == stats.num_leaves + stats.num_cut_nodes + stats.num_split_nodes
        assert stats.total_leaf_rule_slots >= 60  # replication can only add
        footprint = tree.footprint(60)
        assert footprint.index_bytes > 0
        assert footprint.rule_bytes == 60 * 48


class TestHiCuts:
    def test_builds_and_classifies(self, acl_small):
        hicuts = HiCutsClassifier.build(acl_small, binth=8)
        hicuts.verify(acl_small.sample_packets(100, seed=1))

    def test_statistics_report_replication(self, acl_small):
        hicuts = HiCutsClassifier.build(acl_small)
        stats = hicuts.statistics()
        assert stats["replication"] >= 1.0
        assert stats["max_depth"] >= 1


class TestCutSplit:
    def test_groups_by_small_fields(self, acl_small):
        cs = CutSplitClassifier.build(acl_small)
        assert 1 <= cs.num_trees <= 4

    def test_binth_respected_in_most_leaves(self, acl_small):
        cs = CutSplitClassifier.build(acl_small, binth=8)
        stats = cs.statistics()
        # Replication stays modest thanks to pre-partitioning.
        assert stats["replication"] < 3.0

    def test_classifies_wildcard_heavy_ruleset(self, fw_small):
        cs = CutSplitClassifier.build(fw_small)
        cs.verify(fw_small.sample_packets(100, seed=2))

    def test_small_threshold_parameter(self, acl_small):
        strict = CutSplitClassifier.build(acl_small, small_prefix_threshold=24)
        relaxed = CutSplitClassifier.build(acl_small, small_prefix_threshold=8)
        strict.verify(acl_small.sample_packets(50, seed=3))
        relaxed.verify(acl_small.sample_packets(50, seed=3))


class TestNeuroCuts:
    def test_objective_validation(self, acl_small):
        with pytest.raises(ValueError):
            NeuroCutsClassifier(acl_small, objective="speed")

    def test_memory_objective_produces_smaller_trees(self, acl_medium):
        memory = NeuroCutsClassifier.build(
            acl_medium, objective="memory", num_candidates=3, seed=1
        )
        depth = NeuroCutsClassifier.build(
            acl_medium, objective="depth", num_candidates=3, seed=1
        )
        # The depth-optimised tree must not be deeper than the memory-optimised
        # one; footprints typically go the other way.
        assert depth.statistics()["max_depth"] <= memory.statistics()["max_depth"] + 1

    def test_deterministic_given_seed(self, acl_small):
        a = NeuroCutsClassifier.build(acl_small, seed=3)
        b = NeuroCutsClassifier.build(acl_small, seed=3)
        assert a.statistics()["num_nodes"] == b.statistics()["num_nodes"]

    def test_top_partition_can_be_disabled(self, acl_small):
        single = NeuroCutsClassifier.build(acl_small, top_partition=False)
        assert single.num_trees == 1
        single.verify(acl_small.sample_packets(50, seed=4))
