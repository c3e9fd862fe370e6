"""Tests specific to the decision-tree classifiers and the shared tree builder."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.classifiers import build_classifier
from repro.classifiers.base import NO_FLOOR, TRACE_FIELDS
from repro.classifiers.cutsplit import CutSplitClassifier
from repro.classifiers.dtree import (
    CutAction,
    ForestClassifier,
    LeafAction,
    SplitAction,
    build_tree,
)
from repro.classifiers.hicuts import HiCutsClassifier
from repro.classifiers.neurocuts import NeuroCutsClassifier
from repro.rules.fields import FIVE_TUPLE, FieldSchema, FieldSpec
from repro.rules.rule import Rule, RuleSet, order_key

import _scalar_reference as reference
from _helpers import block_of, tied_ruleset
from test_conformance import _packets_for


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


def forest_of(rules, policy, schema=FIVE_TUPLE, **params):
    """A one-tree ``ForestClassifier`` over ``rules``, built with ``policy``."""
    tree = build_tree(rules, schema.full_ranges(), policy, **params)
    return ForestClassifier(RuleSet(rules, schema), [tree])


def lookup(forest, packets, floors=None):
    """``(rule_ids, traces)`` of the forest's block lookup, checked row for
    row against the frozen per-packet walk over the same nodes."""
    block = np.array(packets, dtype=np.int64)
    traces = np.zeros((len(block), len(TRACE_FIELDS)), dtype=np.int64)
    rule_ids, priorities = forest.classify_block_with_floors(block, floors, traces=traces)
    expected = np.zeros_like(traces)
    expected_ids, expected_priorities = reference.classify_block_with_floors(
        forest, block, floors, traces=expected
    )
    np.testing.assert_array_equal(rule_ids, expected_ids)
    np.testing.assert_array_equal(priorities, expected_priorities)
    np.testing.assert_array_equal(traces, expected)
    return rule_ids, traces


class TestTreeBuilder:
    def test_small_input_becomes_leaf(self):
        rules = simple_rules(4)
        tree = build_tree(rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: CutAction(0, 4), binth=8)
        assert tree.dim.tolist() == [-1]  # the root is a leaf
        assert tree.count[0] == 4 and sorted(tree.rules.tolist()) == [0, 1, 2, 3]

    def test_cut_action_partitions(self):
        rules = simple_rules(40)
        tree = build_tree(rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: CutAction(0, 8), binth=4)
        assert tree.dim[0] == 0 and tree.count[0] == 8
        first = tree.first[0]
        # The children's lower bounds are the equal cuts of dimension 0.
        assert tree.lower[first : first + 8].tolist() == [
            (1 << 32) * index // 8 for index in range(8)
        ]

    def test_split_action(self):
        rules = simple_rules(40)
        tree = build_tree(
            rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: SplitAction(0, 2000), binth=4
        )
        assert tree.dim[0] == 0 and tree.count[0] == 2
        first = tree.first[0]
        assert tree.lower[first : first + 2].tolist() == [0, 2001]

    def test_leaf_action_respected_when_unsplittable(self):
        # All rules identical: nothing can separate them; must become a leaf.
        rules = [
            Rule(((0, 10), (0, 10), (0, 10), (0, 10), (0, 10)), priority=i, rule_id=i)
            for i in range(20)
        ]
        tree = build_tree(rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: LeafAction(), binth=4)
        assert tree.dim.tolist() == [-1]
        assert tree.count[0] == 20

    def test_max_depth_bounds_recursion(self):
        rules = simple_rules(60)
        tree = build_tree(
            rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: CutAction(0, 2), binth=1, max_depth=3
        )
        assert tree.stats().max_depth <= 3

    def test_best_key_propagates(self):
        rules = simple_rules(40)
        tree = build_tree(rules, FIVE_TUPLE.full_ranges(), lambda s, r, d: CutAction(0, 8), binth=4)
        assert tree.best_key[0] == order_key(0, 0)
        # Every internal node's best key is its children's smallest.
        for node in np.flatnonzero(tree.dim >= 0):
            first, count = tree.first[node], tree.count[node]
            assert tree.best_key[node] == tree.best_key[first : first + count].min()

    def test_lookup_finds_best_priority_match(self):
        rules = simple_rules(40)
        forest = forest_of(rules, lambda s, r, d: CutAction(0, 8), binth=4)
        ruleset = forest.ruleset
        packets = [tuple(packet) for packet in ruleset.sample_packets(100, seed=1)]
        rule_ids, traces = lookup(forest, packets)
        assert rule_ids.tolist() == [ruleset.match(packet).rule_id for packet in packets]
        assert (traces[:, 0] >= 1).all()

    def test_lookup_with_floor_prunes(self):
        rules = simple_rules(40)
        forest = forest_of(rules, lambda s, r, d: CutAction(0, 8), binth=4)
        packet = (105, 0, 0, 0, 0)  # matches rule 1
        floors = np.array([order_key(1, 0), NO_FLOOR], dtype=np.int64)
        rule_ids, _traces = lookup(forest, [packet, packet], floors)
        assert rule_ids.tolist() == [-1, 1]

    def test_stats_and_footprint(self):
        rules = simple_rules(60)
        forest = forest_of(rules, lambda s, r, d: CutAction(0, 8), binth=4)
        tree = forest._forest
        stats = tree.stats()
        assert stats.num_nodes == stats.num_leaves + int((tree.dim >= 0).sum())
        assert stats.total_leaf_rule_slots >= 60  # replication can only add
        footprint = tree.footprint()
        assert footprint.index_bytes == sum(footprint.breakdown.values()) > 0
        assert forest.memory_footprint().index_bytes == footprint.index_bytes
        assert forest.memory_footprint().rule_bytes == 60 * 48


class TestCutBoundaries:
    """A value that starts a cut's child goes to that child — the child the
    builder assigned the rules starting there to."""

    def test_a_cut_child_starts_at_its_lower_bound(self):
        """Split dim 0 at 179, then cut [0, 179] into 8: ``180 % 8 != 0``, and
        port 22 starts the second child ([22, 44]), which holds rule 0.  The
        old lookup computed ``22 * 8 // 180 == 0`` and answered rule 2 from
        the first child ([0, 21]) — a lower-priority match."""
        full = FIVE_TUPLE.full_ranges()[1:]
        rules = [Rule(((22, 30), *full), priority=0, rule_id=0)]
        rules += [
            Rule(((20 * (i - 1), 20 * (i - 1) + 5), *full), priority=i, rule_id=i)
            for i in range(1, 10)
        ]
        rules += [Rule(((200 + j, 300), *full), priority=20 + j, rule_id=20 + j) for j in range(3)]
        forest = forest_of(
            rules,
            lambda space, rules, depth: SplitAction(0, 179) if depth == 0 else CutAction(0, 8),
            binth=2,
        )
        rule_ids, _traces = lookup(forest, [(22, 0, 0, 0, 0)])
        assert rule_ids.tolist() == [0]
        corners = [(lo, 0, 0, 0, 0) for lo in forest._forest.lower.tolist()]
        rule_ids, _traces = lookup(forest, corners)
        assert rule_ids.tolist() == [
            -1 if match is None else match.rule_id
            for match in map(forest.ruleset.match, corners)
        ]

    def test_cuts_of_a_63_bit_field_are_exact(self):
        """``span * index`` overflows int64 on a 63-bit field: bounds are
        Python ints, and every bound, its predecessor and ``2**63 - 1`` go
        where linear search says."""
        schema = FieldSchema([FieldSpec("wide", 63), FieldSpec("narrow", 8)])
        top = (1 << 63) - 1
        thirds = [(1 << 63) * index // 3 for index in range(3)]
        rules = [
            Rule(((lo, lo), (0, 255)), priority=index, rule_id=index)
            for index, lo in enumerate(thirds[1:] + [top])
        ]
        rules += [
            Rule(((lo, top), (0, 255)), priority=10 + index, rule_id=10 + index)
            for index, lo in enumerate(thirds)
        ]
        forest = forest_of(rules, lambda s, r, d: CutAction(0, 3), schema=schema, binth=1)
        assert forest._forest.lower[1:4].tolist() == thirds
        values = sorted({max(0, v + delta) for v in [*thirds, top] for delta in (-1, 0)})
        packets = [(value, 7) for value in values]
        rule_ids, _traces = lookup(forest, packets)
        assert rule_ids.tolist() == [forest.ruleset.match(packet).rule_id for packet in packets]


#: Recorded at e6b21f6, the commit before the flat forest, where the trees
#: were node objects walked one packet at a time: ``name/rule-set -> (sha256
#: of statistics(), of memory_footprint(), of classify_block's rule_ids ‖
#: priorities ‖ traces over test_conformance._packets_for)``.  The corners
#: those packets include never met a cut boundary the old lookup got wrong.
PARENT_PINS = {
    "hicuts/acl_small": (
        "78cbde71b5c9728ff42ec8fc3389cebf4ffc725bb8a2e8b19009926595001f7e",
        "a403434d2f6c169e48e68bcdee600427335947402e70a1f093be9f6620b5a0de",
        "99f30681289bb5838eccb90f6d2b27939fae7343c37b1946638659907377ec7b",
    ),
    "cs/acl_small": (
        "af4c61c0d41bfa7d4817aace790478d46de82951a885eb65b644ece1f36e60b2",
        "2103a793a38817a75946a46078029fb73925ac65d81af57d29127c961f70d346",
        "7fca72fc59398ba9e19a32e9b13cdadf5836eeee7552fc9c98bf8bc228932825",
    ),
    "nc/acl_small": (
        "c63fc56698de8ecbfe17b347ee33157bdf38be7c191edb26ae06938515b04a3c",
        "705d60b4fbcc33ff1e48616d66a00274a59508f84a22d285abd02268dfbcfa59",
        "93869968514765cb077c1e8afe895cb7367364bed1342c06201c6c7f2e734aeb",
    ),
    "hicuts/fw_small": (
        "3fb677bca0a8aaed870e4e9e20cf56b7f59394c2171e87e2533c5946656d80c0",
        "4c6dba3090624df4073f6c62d87dada84777b904333f0ac6b2bb9a7526cfa99a",
        "4e8b7ca1b39c399717d43ce75ef8f16d6e65c4b6eb33e155597f335fcee8932d",
    ),
    "cs/fw_small": (
        "6fe37cae676aa73063dc90a6547280f0f1db77ca60dfee9827311575e8512f7d",
        "a0cd204bee59f3caaadc97e272c50f22b10fdce3bc6022edb3ef6e12e6090e66",
        "d0d236b7cf3b094b7c7a8159ca912078b0b9b4a73edab278b3e7a82bdc087f7d",
    ),
    "nc/fw_small": (
        "c4dffe1256de926cb50fd9a9fc15a838e7a37b9c4975136de388f695de524aeb",
        "ef47a26a17acb77160b81b68230589a64220f87d27b07f4c3c7b195cd3353cae",
        "4eb628255effa65317b1c9d46820f2a8b29452027a4d2c452522e6f10100ca17",
    ),
    "hicuts/ipc_small": (
        "3784f5f7d574d86823394fe5bf05770d24a11dc2f3453422cd20f108a8298f92",
        "b5022fa68ed9b2d53464db6efa77093d38b45f10847baf59b6fb1ec181689913",
        "25ff5320642f47203a05041e42926ce2e75b8185c294ad32f51266dba49e7734",
    ),
    "cs/ipc_small": (
        "1733147abc3bcc2c7b41a5b2d6bf209941f9e9efc5489764009289970360fe6a",
        "958baa1f32170dab2dc751582cc2ed25a7cd158258c92b5d7959be40d70d2886",
        "70572428d8da9aeaff1001a4090b8c6695b8036ec0fe35adba811dc7e41153b8",
    ),
    "nc/ipc_small": (
        "1fd1c79efae1d4c24e5afa13a1ba658d105c08cb033493198b1fbdabd6738bd5",
        "b828ab59521c1e3afa95d930dfdf3c4d473a0ffdc8b0c4bec7970a4211f18cb3",
        "67e99663d2e055aff122f34e9712576cbdf2dd7ba965616c2f408a4ee1f50cd7",
    ),
    "hicuts/tied": (
        "d6984d72ad462057dc47a16d08d6ab66478378b89ff257c335e5b40765b16190",
        "83ca5ed526ecd9b6a0f9e047c8007812b67f1bab826b328767a206ac47d59621",
        "e8b71510c0b1b5556c4b8f723c9b6770e9a425304a2824487c90f82f87c9786e",
    ),
    "cs/tied": (
        "623bd589d5b571b2142e650236dc6cd8a1a1409adc01f3f6cbfa6b82808e02e6",
        "824a98e1538de66a1c5e37d11ddfae5746e881807b32a3291ac3dfd1b1bdab14",
        "7d799f11917f1b5feb63a23a3a9616a00a357265097c1b454c57be6abe248795",
    ),
    "nc/tied": (
        "72b5a3be9f41eae06eb2a1d837eb5a3a5e47f48fa821d699605b3d4869fc84f6",
        "9afda87867747b9f81c6a155b4761a9699286bc37c7efc05add75d4fff95f738",
        "00a054e4fbbdaadac9977e3ab6d908946c76012a62455519f1d19090d0891ed6",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", list(PARENT_PINS))
def test_forest_reproduces_the_parent(key, request):
    name, _, source = key.partition("/")
    rules = tied_ruleset() if source == "tied" else request.getfixturevalue(source)
    classifier = build_classifier(name, rules)
    block = block_of(_packets_for(rules))
    traces = np.zeros((len(block), len(TRACE_FIELDS)), dtype=np.int64)
    rule_ids, priorities = classifier.classify_block(block, traces=traces)
    digest = hashlib.sha256()
    for array in (rule_ids, priorities, traces):
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    assert (
        _sha256(json.dumps(classifier.statistics(), sort_keys=True)),
        _sha256(json.dumps(dataclasses.asdict(classifier.memory_footprint()), sort_keys=True)),
        digest.hexdigest(),
    ) == PARENT_PINS[key]


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
