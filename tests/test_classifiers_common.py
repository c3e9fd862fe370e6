"""Cross-classifier behaviour tests.

Every classifier must agree with the linear-search oracle on packets sampled
from the rule-set, report a sensible memory footprint, and honour the
early-termination contract of ``classify_with_floor``.
"""

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
        for packet in packets:
            expected = acl_small.match(packet)
            actual = built_classifier.classify(packet)
            assert (expected is None) == (actual is None)
            if expected is not None:
                assert actual.rule_id == expected.rule_id

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
    def test_floor_none_equals_plain_lookup(self, built_classifier, acl_small):
        for packet in acl_small.sample_packets(50, seed=9):
            plain = built_classifier.classify(packet)
            floored = built_classifier.classify_with_floor(packet, None).rule
            assert (plain is None) == (floored is None)
            if plain is not None:
                assert plain.rule_id == floored.rule_id

    def test_floor_prunes_but_never_returns_worse(self, built_classifier, acl_small):
        for packet in acl_small.sample_packets(50, seed=10):
            best = acl_small.match(packet)
            if best is None:
                continue
            floor = best.key  # nothing with a smaller key exists
            result = built_classifier.classify_with_floor(packet, floor)
            if result.rule is not None:
                assert result.rule.key < floor

    def test_floor_allows_finding_better_rules(self, built_classifier, acl_small):
        for packet in acl_small.sample_packets(50, seed=11):
            best = acl_small.match(packet)
            if best is None:
                continue
            result = built_classifier.classify_with_floor(packet, best.key + 1)
            assert result.rule is not None
            assert result.rule.rule_id == best.rule_id


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
