"""End-to-end tests for the NuevoMatch classifier."""

import pytest

from repro.classifiers import CutSplitClassifier, TupleMergeClassifier
from repro.core.config import NuevoMatchConfig, RQRMIConfig
from repro.core.nuevomatch import NuevoMatch
from _helpers import fast_nm_config


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
                assert actual.priority == expected.priority

    def test_firewall_ruleset(self, fw_small):
        nm = NuevoMatch.build(fw_small, remainder_classifier="tm", config=fast_nm_config())
        nm.verify(fw_small.sample_packets(150, seed=4))

    def test_forwarding_ruleset(self, forwarding_small):
        nm = NuevoMatch.build(
            forwarding_small, remainder_classifier="tm", config=fast_nm_config(max_isets=3)
        )
        nm.verify(forwarding_small.sample_packets(150, seed=5))
        assert nm.coverage > 0.5

    def test_early_termination_does_not_change_results(self, acl_medium):
        with_et = NuevoMatch.build(
            acl_medium, remainder_classifier="tm", config=fast_nm_config()
        )
        config = fast_nm_config()
        config.early_termination = False
        without_et = NuevoMatch.build(acl_medium, remainder_classifier="tm", config=config)
        for packet in acl_medium.sample_packets(150, seed=6):
            a = with_et.classify(packet)
            b = without_et.classify(packet)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.priority == b.priority


class TestLookupDetails:
    def test_detailed_breakdown_populated(self, nm_acl_medium, acl_medium):
        packet = acl_medium.sample_packets(1, seed=7)[0]
        result, breakdown = nm_acl_medium.classify_detailed(packet)
        assert breakdown.inference_ops > 0
        assert breakdown.search_accesses >= nm_acl_medium.num_isets
        assert result.trace.model_accesses >= nm_acl_medium.num_isets

    def test_isets_only_lookup(self, nm_acl_medium, acl_medium):
        hits = 0
        for packet in acl_medium.sample_packets(100, seed=8):
            rule, trace = nm_acl_medium.classify_isets_only(packet)
            assert trace.model_accesses > 0
            if rule is not None:
                assert rule.matches(packet)
                hits += 1
        # Coverage is high, so most packets should be answered by the iSets.
        assert hits > 50


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
