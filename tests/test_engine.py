"""Tests for the ClassificationEngine serving API, registry and batch lookups."""

import pytest

from repro.classifiers import (
    UnknownClassifierError,
    available_classifiers,
    build_classifier,
    resolve_classifier,
)
from repro.core.nuevomatch import NuevoMatch
from repro.engine import ClassificationEngine
from repro.rules.rule import Rule

from _helpers import fast_nm_config


def _build_by_name(name, ruleset):
    if name == "nm":
        return NuevoMatch.build(
            ruleset, remainder_classifier="tm", config=fast_nm_config()
        )
    return build_classifier(name, ruleset)


@pytest.fixture(scope="module", params=available_classifiers())
def named_classifier(request, acl_small):
    return _build_by_name(request.param, acl_small)


def _match_key(rule):
    return None if rule is None else (rule.rule_id, rule.priority)


class TestBatchEquivalence:
    """classify_batch must return exactly what per-packet classify returns."""

    def test_batch_matches_sequential_on_matching_packets(
        self, named_classifier, acl_small
    ):
        packets = acl_small.sample_packets(150, seed=21)
        batch = named_classifier.classify_batch(packets)
        assert len(batch) == len(packets)
        for packet, batched in zip(packets, batch):
            sequential = named_classifier.classify_traced(packet)
            assert _match_key(batched.rule) == _match_key(sequential.rule)
            assert batched.trace == sequential.trace

    def test_batch_matches_oracle_on_random_packets(self, named_classifier, acl_small):
        import random

        rng = random.Random(22)
        packets = [
            tuple(rng.randint(0, spec.max_value) for spec in acl_small.schema)
            for _ in range(100)
        ]
        batch = named_classifier.classify_batch(packets)
        for packet, batched in zip(packets, batch):
            expected = acl_small.match(packet)
            assert (expected is None) == (batched.rule is None)
            if expected is not None:
                assert batched.rule.priority == expected.priority

    def test_empty_batch(self, named_classifier):
        assert named_classifier.classify_batch([]) == []


class TestRegistryErrors:
    def test_unknown_name_raises_with_listing(self, acl_small):
        with pytest.raises(UnknownClassifierError, match="available:"):
            build_classifier("does-not-exist", acl_small)

    def test_unknown_is_value_error(self, acl_small):
        with pytest.raises(ValueError):
            build_classifier("does-not-exist", acl_small)

    def test_nuevomatch_unknown_remainder_lists_aliases(self, acl_small):
        with pytest.raises(ValueError, match=r"tm \(aka tuplemerge\)"):
            NuevoMatch.build(acl_small, remainder_classifier="bogus")

    def test_nuevomatch_rejects_itself_as_remainder(self, acl_small):
        with pytest.raises(ValueError, match="own remainder"):
            NuevoMatch.build(acl_small, remainder_classifier="nm")

    def test_duplicate_registration_rejected(self):
        from repro.classifiers.registry import register

        with pytest.raises(ValueError, match="already registered"):

            @register("tm")
            class Impostor:  # pragma: no cover - never instantiated
                pass


class TestEngineFacade:
    @pytest.fixture(scope="class")
    def engine(self, acl_small):
        return ClassificationEngine.build(
            acl_small,
            classifier="nm",
            remainder_classifier="tm",
            config=fast_nm_config(),
            metadata={"origin": "test"},
        )

    def test_classify_matches_oracle(self, engine, acl_small):
        assert engine.verify(acl_small.sample_packets(100, seed=23)) == 100

    def test_replay_batches_cover_all_packets(self, engine, acl_small):
        from repro.traffic import Trace
        from repro.workloads import replay_trace

        packets = acl_small.sample_packets(100, seed=24)
        report = replay_trace(engine, Trace(packets), batch_size=32)
        assert report.packets == report.matched == 100
        assert report.modelled_latency_ns > 0

    def test_replay_rejects_bad_batch_size(self, engine):
        from repro.workloads import replay_trace

        with pytest.raises(ValueError):
            replay_trace(engine, [], batch_size=0)

    def test_classify_batch_matches_every_sampled_packet(self, engine, acl_small):
        from repro.classifiers.base import LookupTrace

        packets = acl_small.sample_packets(20, seed=29)
        results = engine.classify_batch(packets)
        assert sum(result.matched for result in results) == 20
        aggregate = LookupTrace.aggregate(result.trace for result in results)
        assert aggregate.total_accesses > 0

    def test_statistics_carry_metadata(self, engine):
        stats = engine.statistics()
        # The caller's annotations, plus the build's training provenance.
        assert stats["engine_metadata"]["origin"] == "test"
        assert stats["engine_metadata"]["training"]["submodels_trained"] > 0
        assert stats["name"] == "nm"

    def test_unknown_build_parameter_is_a_type_error(self, acl_small):
        for params in (
            {"classifier": "tm"},
            {"classifier": "nm", "remainder_classifier": "tm", "config": fast_nm_config()},
        ):
            with pytest.raises(TypeError, match="colision_limit"):
                ClassificationEngine.build(acl_small, colision_limit=3, **params)

    @pytest.mark.parametrize("name", ["tss", "hicuts"])
    def test_updates_go_to_the_overlay_not_the_classifier(self, name, acl_small):
        # Hash or tree baseline alike: the built classifier is never touched.
        engine = ClassificationEngine.build(acl_small, classifier=name)
        packet = acl_small.sample_packets(1, seed=25)[0]
        before = engine.classify(packet)
        assert before is not None
        wildcard = Rule(
            tuple(spec.full_range() for spec in acl_small.schema),
            priority=0,
            action="drop",
            rule_id=10_000,
        )
        engine.insert(wildcard)
        assert engine.classify(packet).rule_id == 10_000
        assert engine.classifier.classify(packet).rule_id == before.rule_id
        assert engine.remove(10_000)
        assert engine.classify(packet).rule_id == before.rule_id
        assert engine.remove(before.rule_id)
        assert engine.classifier.classify(packet).rule_id == before.rule_id
        assert engine.verify([packet]) == 1


class TestPersistence:
    @pytest.mark.parametrize("name", [n for n in available_classifiers() if n != "nm"])
    def test_baseline_round_trip(self, name, acl_small, tmp_path):
        engine = ClassificationEngine.build(acl_small, classifier=name)
        path = tmp_path / f"{name}.engine.json"
        engine.save(path)
        restored = ClassificationEngine.load(path)
        assert restored.classifier_name == name
        packets = acl_small.sample_packets(100, seed=26)
        for original, loaded in zip(
            engine.classify_batch(packets), restored.classify_batch(packets)
        ):
            assert _match_key(original.rule) == _match_key(loaded.rule)
            assert original.trace == loaded.trace

    def test_nuevomatch_round_trip_bitwise_identical(self, acl_small, tmp_path):
        engine = ClassificationEngine.build(
            acl_small,
            classifier="nm",
            remainder_classifier="tm",
            config=fast_nm_config(),
        )
        path = tmp_path / "nm.engine.json.gz"
        engine.save(path)
        restored = ClassificationEngine.load(path)
        # The restored model must be the trained one, not a retrain: identical
        # submodel weights and error bounds...
        for original_iset, loaded_iset in zip(
            engine.classifier.isets, restored.classifier.isets
        ):
            assert original_iset.model.error_bounds == loaded_iset.model.error_bounds
            for stage_a, stage_b in zip(
                original_iset.model.stages, loaded_iset.model.stages
            ):
                for submodel_a, submodel_b in zip(stage_a, stage_b):
                    assert submodel_a.to_dict() == submodel_b.to_dict()
        # ...and bitwise-identical batched classification on a 1k trace.
        packets = acl_small.sample_packets(1000, seed=27)
        for original, loaded in zip(
            engine.classify_batch(packets), restored.classify_batch(packets)
        ):
            assert _match_key(original.rule) == _match_key(loaded.rule)
            assert original.trace == loaded.trace

    def test_save_after_online_updates_persists_them(self, acl_small, tmp_path):
        engine = ClassificationEngine.build(acl_small, classifier="tm")
        packet = acl_small.sample_packets(1, seed=28)[0]
        wildcard = Rule(
            tuple(spec.full_range() for spec in acl_small.schema),
            priority=0,
            action="drop",
            rule_id=20_000,
        )
        engine.insert(wildcard)
        victim = next(rule for rule in acl_small if rule.rule_id not in (20_000,))
        assert engine.remove(victim.rule_id)
        path = tmp_path / "updated.engine.json"
        engine.save(path)
        restored = ClassificationEngine.load(path)
        assert restored.classify(packet).rule_id == 20_000
        assert victim.rule_id not in restored.rules_by_id()
        assert restored.rules_by_id()[20_000].action == "drop"
        assert restored.rules_by_id().keys() == engine.rules_by_id().keys()

    def test_load_rejects_future_format(self, acl_small, tmp_path):
        import json

        engine = ClassificationEngine.build(acl_small, classifier="linear")
        path = tmp_path / "engine.json"
        engine.save(path)
        document = json.loads(path.read_text())
        document["format"] = 999
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="unsupported engine file format"):
            ClassificationEngine.load(path)

    @pytest.mark.parametrize("mutated", [999, 0, None, "1"])
    def test_load_rejects_mutated_classifier_state_version(
        self, mutated, acl_small, tmp_path
    ):
        # A snapshot whose *inner* classifier state carries a different
        # version tag must fail loudly instead of silently misloading.
        import json

        engine = ClassificationEngine.build(acl_small, classifier="tm")
        path = tmp_path / "engine.json"
        engine.save(path)
        document = json.loads(path.read_text())
        document["classifier"]["format"] = mutated
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="unsupported classifier state format"):
            ClassificationEngine.load(path)

    def test_load_rejects_mutated_nuevomatch_state_version(
        self, acl_small, tmp_path
    ):
        import json

        engine = ClassificationEngine.build(
            acl_small,
            classifier="nm",
            remainder_classifier="tm",
            config=fast_nm_config(),
        )
        path = tmp_path / "engine.json"
        engine.save(path)
        document = json.loads(path.read_text())
        document["classifier"]["format"] = 999
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="unsupported classifier state format"):
            ClassificationEngine.load(path)

    def test_state_rejects_wrong_kind(self, acl_small):
        clf = build_classifier("tm", acl_small)
        state = clf.to_state()
        with pytest.raises(ValueError, match="expected 'cs'"):
            resolve_classifier("cs").from_state(state, acl_small)
