"""End-to-end tests for the NuevoMatch classifier."""

import numpy as np
import pytest

from repro.classifiers import CutSplitClassifier, TupleMergeClassifier
from repro.classifiers.base import TRACE_FIELDS
from repro.core.config import NuevoMatchConfig, RQRMIConfig
from repro.core.nuevomatch import NuevoMatch
from repro.rules.rule import NO_FLOOR, split_keys
from repro.simulation import evaluate_nuevomatch
from _helpers import block_of, fast_nm_config

#: Every test runs on both iSet lookup paths (``conftest.iset_kernel``).
pytestmark = pytest.mark.usefixtures("iset_kernel")

MODEL_ACCESSES = TRACE_FIELDS.index("model_accesses")


class TestBuild:
    def test_builds_with_registry_name(self, acl_small):
        nm = NuevoMatch.build(acl_small, remainder_classifier="tm", config=fast_nm_config())
        assert nm.remainder.name == "tm"

    def test_builds_with_class(self, acl_small):
        nm = NuevoMatch.build(
            acl_small, remainder_classifier=CutSplitClassifier, config=fast_nm_config()
        )
        assert nm.remainder.name == "cs"

    def test_unknown_remainder_name_rejected(self, acl_small):
        with pytest.raises(ValueError):
            NuevoMatch.build(acl_small, remainder_classifier="bogus")

    def test_coverage_plus_remainder_is_total(self, nm_acl_medium, acl_medium):
        covered = sum(len(iset) for iset in nm_acl_medium.isets)
        assert covered + len(nm_acl_medium.partition.remainder) == len(acl_medium)
        assert nm_acl_medium.coverage == pytest.approx(covered / len(acl_medium))

    def test_min_coverage_threshold_limits_isets(self, acl_medium):
        strict = NuevoMatch.build(
            acl_medium, remainder_classifier="tm", config=fast_nm_config(min_coverage=0.25)
        )
        for iset in strict.isets:
            assert iset.coverage >= 0.25

    def test_max_isets_zero_falls_back_to_remainder_only(self, acl_small):
        config = fast_nm_config()
        config.max_isets = 0
        nm = NuevoMatch.build(acl_small, remainder_classifier="tm", config=config)
        assert nm.num_isets == 0
        assert nm.coverage == 0.0
        nm.verify(acl_small.sample_packets(50, seed=1))

    def test_remainder_params_forwarded(self, acl_small):
        nm = NuevoMatch.build(
            acl_small,
            remainder_classifier="tm",
            config=fast_nm_config(),
            collision_limit=10,
        )
        assert nm.remainder.collision_limit == 10

    def test_misspelled_remainder_parameter_raises_before_training(
        self, acl_small, monkeypatch
    ):
        # The remainder classifier is built before the iSets are trained.
        def no_training(*args, **kwargs):
            raise AssertionError("training started before the remainder was built")

        monkeypatch.setattr("repro.core.nuevomatch.train_rqrmi", no_training)
        with pytest.raises(TypeError, match="colision_limit"):
            NuevoMatch.build(acl_small, remainder_classifier="tm", colision_limit=10)


class TestCorrectness:
    def test_agrees_with_oracle_on_matching_packets(self, nm_acl_medium, acl_medium):
        assert nm_acl_medium.verify(acl_medium.sample_packets(300, seed=2)) == 300

    def test_agrees_with_oracle_on_random_packets(self, nm_acl_medium, acl_medium):
        import random

        rng = random.Random(3)
        for _ in range(150):
            packet = tuple(rng.randint(0, spec.max_value) for spec in acl_medium.schema)
            expected = acl_medium.match(packet)
            actual = nm_acl_medium.classify(packet)
            assert (expected is None) == (actual is None)
            if expected is not None:
                assert actual.rule_id == expected.rule_id

    def test_firewall_ruleset(self, fw_small):
        nm = NuevoMatch.build(fw_small, remainder_classifier="tm", config=fast_nm_config())
        nm.verify(fw_small.sample_packets(150, seed=4))

    def test_forwarding_ruleset(self, forwarding_small):
        nm = NuevoMatch.build(
            forwarding_small, remainder_classifier="tm", config=fast_nm_config(max_isets=3)
        )
        nm.verify(forwarding_small.sample_packets(150, seed=5))
        assert nm.coverage > 0.5


class TestWideFields:
    def test_a_63_bit_field_answers_like_linear_search(self):
        """Adjacent 63-bit ranges scale to one float64; an iSet over them
        answered the catch-all for 199 of these 200 packets."""
        from repro.classifiers import LinearSearchClassifier
        from repro.rules.fields import FieldSpec
        from repro.rules.rule import Rule, RuleSet

        schema = [FieldSpec("wide", 63), FieldSpec("narrow", 8)]
        rules = [
            Rule(((2**62 + i, 2**62 + i), (0, 255)), priority=i + 1, rule_id=i)
            for i in range(200)
        ] + [Rule(((0, 2**63 - 1), (0, 255)), priority=1000, rule_id=999)]
        ruleset = RuleSet(rules, schema)
        nm = NuevoMatch.build(
            ruleset,
            remainder_classifier="tm",
            config=NuevoMatchConfig(
                max_isets=1,
                min_iset_coverage=0.05,
                rqrmi=RQRMIConfig(stage_widths=[1, 4]),
            ),
        )
        block = np.array([(2**62 + i, 7) for i in range(200)], dtype=np.uint64)
        rule_ids, _ = nm.classify_block(block)
        assert rule_ids.tolist() == list(range(200))
        expected, _ = LinearSearchClassifier.build(ruleset).classify_block(block)
        assert rule_ids.tolist() == expected.tolist()


class TestLookupDetails:
    def test_detailed_breakdown_populated(self, nm_acl_medium, acl_medium):
        packets = acl_medium.sample_packets(1, seed=7)
        report = evaluate_nuevomatch(nm_acl_medium, packets, mode="single")
        breakdown = report.extra["avg_breakdown"]
        assert breakdown["inference_ops"] > 0
        assert breakdown["search_accesses"] >= nm_acl_medium.num_isets
        traces = np.zeros((1, len(TRACE_FIELDS)), dtype=np.int64)
        nm_acl_medium.classify_block(block_of(packets), traces=traces)
        assert traces[0, MODEL_ACCESSES] >= nm_acl_medium.num_isets

    def test_isets_only_lookup(self, nm_acl_medium, acl_medium):
        packets = acl_medium.sample_packets(100, seed=8)
        best_keys = np.full(len(packets), NO_FLOOR, dtype=np.int64)
        traces = np.zeros((len(packets), len(TRACE_FIELDS)), dtype=np.int64)
        values = block_of(packets).astype(np.int64)
        for iset in nm_acl_medium.isets:
            iset.lookup_block(values, best_keys, traces=traces)
        assert (traces[:, MODEL_ACCESSES] > 0).all()
        rule_ids, _priorities = split_keys(best_keys)
        ruleset = nm_acl_medium.ruleset
        for packet, rule_id in zip(packets, rule_ids):
            if rule_id >= 0:
                assert ruleset[ruleset.row_of[int(rule_id)]].matches(packet)
        # Coverage is high, so most packets should be answered by the iSets.
        assert (rule_ids >= 0).sum() > 50


class TestFootprintAndStats:
    def test_rqrmi_models_are_small(self, nm_acl_medium):
        # The whole point: models for thousands of rules take a few KB.
        assert nm_acl_medium.rqrmi_size_bytes() < 64 * 1024

    def test_footprint_breakdown(self, nm_acl_medium):
        footprint = nm_acl_medium.memory_footprint()
        assert footprint.breakdown["rqrmi"] == nm_acl_medium.rqrmi_size_bytes()
        assert footprint.index_bytes == (
            footprint.breakdown["rqrmi"] + footprint.breakdown["remainder_index"]
        )

    def test_index_smaller_than_standalone_baseline(self, acl_medium, nm_acl_medium):
        baseline = TupleMergeClassifier.build(acl_medium)
        assert (
            nm_acl_medium.memory_footprint().index_bytes
            < baseline.memory_footprint().index_bytes
        )

    def test_statistics_keys(self, nm_acl_medium):
        stats = nm_acl_medium.statistics()
        for key in ("num_isets", "coverage", "remainder_rules", "rqrmi_bytes",
                    "remainder_classifier", "max_error", "build_seconds"):
            assert key in stats

    def test_error_threshold_respected_when_converged(self, acl_small):
        config = NuevoMatchConfig(
            max_isets=2,
            min_iset_coverage=0.05,
            rqrmi=RQRMIConfig(error_threshold=64, adam_epochs=80, initial_samples=256),
        )
        nm = NuevoMatch.build(acl_small, remainder_classifier="tm", config=config)
        for iset in nm.isets:
            if iset.model.report.converged:
                assert iset.model.max_error <= 64
