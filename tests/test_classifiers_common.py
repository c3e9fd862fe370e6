"""Cross-classifier behaviour tests.

Every classifier must agree with the linear-search oracle on packets sampled
from the rule-set, report a sensible memory footprint, honour the
early-termination contract of ``classify_block_with_floors`` and serve the
object views the base class derives from its one lookup.
"""

import numpy as np
import pytest

from repro.classifiers import (
    CutSplitClassifier,
    HiCutsClassifier,
    LinearSearchClassifier,
    NeuroCutsClassifier,
    TupleMergeClassifier,
    TupleSpaceSearchClassifier,
    UnknownClassifierError,
    available_classifiers,
    build_classifier,
    classifier_aliases,
    resolve_classifier,
)
from repro.rules.rule import NO_FLOOR

from _helpers import block_of, fast_nm_config

ALL_CLASSIFIERS = [
    LinearSearchClassifier,
    TupleSpaceSearchClassifier,
    TupleMergeClassifier,
    HiCutsClassifier,
    CutSplitClassifier,
    NeuroCutsClassifier,
]


@pytest.fixture(scope="module", params=ALL_CLASSIFIERS, ids=lambda cls: cls.name)
def built_classifier(request, acl_small):
    return request.param.build(acl_small)


class TestRegistry:
    def test_registry_names(self):
        assert {"linear", "tss", "tm", "hicuts", "cs", "nc", "nm"} <= set(
            available_classifiers()
        )

    def test_registry_classes_match_names(self):
        for name in available_classifiers():
            assert resolve_classifier(name).name == name

    def test_aliases_resolve_to_same_class(self):
        for name, aliases in classifier_aliases().items():
            for alias in aliases:
                assert resolve_classifier(alias) is resolve_classifier(name)

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownClassifierError, match="tm \\(aka tuplemerge\\)"):
            resolve_classifier("bogus")

    def test_build_classifier_forwards_params(self, acl_small):
        clf = build_classifier("tuplemerge", acl_small, collision_limit=10)
        assert clf.name == "tm"
        assert clf.collision_limit == 10
        assert clf.build_params == {"collision_limit": 10}

    @pytest.mark.parametrize("name", available_classifiers())
    def test_unknown_build_parameter_is_a_type_error(self, name, acl_small):
        """No classifier swallows a parameter it does not take: a misspelled
        one raises, naming it, instead of silently building with the default
        (``nm`` hands what it does not take itself to its remainder)."""
        with pytest.raises(TypeError, match="colision_limit"):
            build_classifier(name, acl_small, colision_limit=3)


class TestAgainstOracle:
    def test_matches_linear_search_on_matching_packets(self, built_classifier, acl_small):
        packets = acl_small.sample_packets(200, seed=2)
        assert built_classifier.verify(packets) == 200

    def test_matches_linear_search_on_random_packets(self, built_classifier, acl_small):
        import random

        rng = random.Random(3)
        packets = [
            tuple(rng.randint(0, spec.max_value) for spec in acl_small.schema)
            for _ in range(100)
        ]
        assert built_classifier.verify(packets) == 100

    @pytest.mark.parametrize("cls", ALL_CLASSIFIERS, ids=lambda c: c.name)
    def test_firewall_ruleset(self, cls, fw_small):
        classifier = cls.build(fw_small)
        classifier.verify(fw_small.sample_packets(150, seed=4))

    @pytest.mark.parametrize("cls", ALL_CLASSIFIERS, ids=lambda c: c.name)
    def test_single_field_ruleset(self, cls, forwarding_small):
        classifier = cls.build(forwarding_small)
        classifier.verify(forwarding_small.sample_packets(150, seed=5))


class TestTraces:
    def test_traced_lookup_counts_accesses(self, built_classifier, acl_small):
        packet = acl_small.sample_packets(1, seed=7)[0]
        result = built_classifier.classify_traced(packet)
        assert result.trace.total_accesses >= 0
        if built_classifier.name != "nm":
            # Every non-trivial classifier touches at least one structure or rule.
            assert result.trace.total_accesses + result.trace.compute_ops > 0

    def test_classification_result_fields(self, built_classifier, acl_small):
        packet = acl_small.sample_packets(1, seed=8)[0]
        result = built_classifier.classify_traced(packet)
        assert result.matched == (result.rule is not None)
        if result.matched:
            assert result.action == result.rule.action


class TestEarlyTermination:
    """``classify_block_with_floors`` on sampled packets, each row's floor a
    key: ``NO_FLOOR`` or ``None``, the best match's own key, one above it."""

    def _floored(self, classifier, packets, floors):
        return classifier.classify_block_with_floors(
            block_of(packets), None if floors is None else np.array(floors, dtype=np.int64)
        )

    def test_no_floor_equals_plain_lookup(self, built_classifier, acl_small):
        packets = acl_small.sample_packets(50, seed=9)
        plain_ids, plain_priorities = built_classifier.classify_block(block_of(packets))
        for floors in (None, [NO_FLOOR] * len(packets)):
            ids, priorities = self._floored(built_classifier, packets, floors)
            np.testing.assert_array_equal(ids, plain_ids)
            np.testing.assert_array_equal(priorities, plain_priorities)

    def test_floor_prunes_but_never_returns_worse(self, built_classifier, acl_small):
        packets = acl_small.sample_packets(50, seed=10)
        best = [acl_small.match(packet) for packet in packets]
        floors = [NO_FLOOR if rule is None else rule.key for rule in best]
        # Nothing with a smaller key than the best match exists.
        ids, _priorities = self._floored(built_classifier, packets, floors)
        assert (ids == -1).all()

    def test_floor_allows_finding_better_rules(self, built_classifier, acl_small):
        packets = acl_small.sample_packets(50, seed=11)
        best = [acl_small.match(packet) for packet in packets]
        floors = [NO_FLOOR if rule is None else rule.key + 1 for rule in best]
        ids, _priorities = self._floored(built_classifier, packets, floors)
        assert ids.tolist() == [-1 if rule is None else rule.rule_id for rule in best]


@pytest.mark.parametrize("name", available_classifiers())
def test_object_views_take_no_packets_and_blocks(name, acl_small):
    """``classify_batch`` of no packets is ``[]``, and a 2-d ndarray block is
    a batch whose rows are packets: the same results as the tuples."""
    params = {"config": fast_nm_config()} if name == "nm" else {}
    classifier = build_classifier(name, acl_small, **params)
    assert classifier.classify_batch([]) == []
    packets = acl_small.sample_packets(20, seed=12)
    from_block = classifier.classify_batch(block_of(packets))
    assert from_block == classifier.classify_batch(packets)
    assert [result.rule for result in from_block] == [
        acl_small.match(packet) for packet in packets
    ]


class TestFootprint:
    def test_footprint_nonnegative_and_consistent(self, built_classifier):
        footprint = built_classifier.memory_footprint()
        assert footprint.index_bytes >= 0
        assert footprint.rule_bytes >= 0
        assert footprint.total_bytes == footprint.index_bytes + footprint.rule_bytes

    def test_statistics_contain_basics(self, built_classifier, acl_small):
        stats = built_classifier.statistics()
        assert stats["num_rules"] == len(acl_small)
        assert stats["index_bytes"] == built_classifier.memory_footprint().index_bytes

    def test_footprint_grows_with_rules(self, acl_small, acl_medium):
        for cls in (TupleMergeClassifier, CutSplitClassifier):
            small = cls.build(acl_small).memory_footprint().index_bytes
            big = cls.build(acl_medium).memory_footprint().index_bytes
            assert big > small
