"""Tests for the staged trainer, ``repro.core.pipeline.train_rqrmi``.

The trainer's contracts, in test form (the optimiser's own tests are in
``test_training.py``):

* **one model from every entry point** — ``RQRMI.train``, ``train_rqrmi``,
  ``NuevoMatch.build``, ``ClassificationEngine.build``/``rebuild`` and a
  shard's first build produce the same weights and bounds — and the same as
  the parent commit's, pinned by digest;
* **determinism** — warm-starting from the same source twice produces
  identical weights;
* **certification** — however a submodel was obtained (cold training,
  verbatim reuse, warm refinement, cold fallback), the per-leaf error bound
  holds analytically over sampled keys and the end-to-end classifier matches
  linear-search ground truth;
* **fallback** — a warm source whose weights cannot certify the new ranges
  falls back to cold training instead of shipping a regressed bound.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
from repro.core.config import NuevoMatchConfig, RQRMIConfig
from repro.core.nuevomatch import NuevoMatch
from repro.core.pipeline import train_rqrmi
from repro.core.rqrmi import RQRMI, RangeSet
from repro.core.submodel import Submodel
from repro.engine import ClassificationEngine
from repro.rules import generate_classbench
from repro.rules.rule import Rule
from repro.serving import ShardedEngine

from _helpers import fast_nm_config


def _disjoint_ranges(count: int, seed: int, domain: int = 1 << 32):
    rng = np.random.default_rng(seed)
    points = np.sort(
        rng.choice(domain, size=2 * count, replace=False).astype(np.int64)
    )
    return [(int(points[2 * i]), int(points[2 * i + 1])) for i in range(count)]


def _model_states_sans_timing(nm: NuevoMatch) -> str:
    """Canonical weights+bounds serialization, ignoring wall-clock fields."""
    state = nm.to_state()
    for iset_state in state["isets"]:
        iset_state["model"]["report"] = None
    state["training"] = None
    state["build_seconds"] = None
    return json.dumps(state, sort_keys=True)


def _modify_rules(rules, count: int, seed: int = 7):
    """An update workload: widen ``count`` rules' first field by one."""
    rng = np.random.default_rng(seed)
    positions = set(rng.choice(len(rules.rules), size=count, replace=False).tolist())
    changed = []
    for position, rule in enumerate(rules.rules):
        if position in positions:
            ranges = list(rule.ranges)
            lo, hi = ranges[0]
            ranges[0] = (lo, min(0xFFFFFFFF, hi + 1))
            changed.append(Rule(tuple(ranges), priority=rule.priority,
                                action=rule.action, rule_id=rule.rule_id))
        else:
            changed.append(rule)
    return rules.subset(changed, name=f"{rules.name}-modified")


@pytest.fixture(scope="module")
def acl_rules():
    return generate_classbench("acl1", 1500, seed=3)


@pytest.fixture(scope="module")
def nm_config():
    return fast_nm_config()


@pytest.fixture(scope="module")
def base_engine(acl_rules, nm_config):
    return NuevoMatch.build(acl_rules, remainder_classifier="tm", config=nm_config)


def _rqrmi_state_sans_timing(model: RQRMI) -> str:
    state = model.to_state()
    state["report"]["training_seconds"] = None
    return json.dumps(state, sort_keys=True)


class TestOneModelFromEveryEntryPoint:
    def test_rqrmi_entry_points_agree(self):
        domain = 1 << 24
        ranges = RangeSet.from_integer_ranges(_disjoint_ranges(700, 3, domain), domain)
        config = RQRMIConfig(adam_epochs=60, error_threshold=32)
        reference = _rqrmi_state_sans_timing(train_rqrmi(ranges, config))
        assert _rqrmi_state_sans_timing(RQRMI.train(ranges, config)) == reference

    def test_engine_build_is_the_same_build(self, acl_rules, nm_config, base_engine):
        default = ClassificationEngine.build(
            acl_rules, classifier="nm", remainder_classifier="tm", config=nm_config
        )
        assert _model_states_sans_timing(default.classifier) == (
            _model_states_sans_timing(base_engine)
        )
        training = default.metadata["training"]
        assert training["warm_started"] is False
        assert training["submodels_trained"] > 0
        assert not {"jobs", "warm_epochs"} & set(training)

    def test_engine_rebuild_is_the_same_build(self, acl_rules, nm_config, base_engine):
        updated = _modify_rules(acl_rules, count=20)
        engine = ClassificationEngine(base_engine)
        for old, new in zip(acl_rules, updated):
            if new.ranges != old.ranges:
                engine.insert(new)
        for warm in (False, True):
            alone = NuevoMatch.build(
                engine.live_ruleset(), remainder_classifier="tm", config=nm_config,
                warm_from=base_engine if warm else None,
            )
            rebuilt = engine.rebuild(warm=warm).classifier
            assert rebuilt.training_provenance["warm_started"] is warm
            assert _model_states_sans_timing(rebuilt) == _model_states_sans_timing(alone)

    def test_a_shards_first_build_is_the_same_build(self, acl_rules, nm_config):
        with ShardedEngine.build(
            acl_rules, shards=2, classifier="nm", remainder_classifier="tm",
            config=nm_config,
        ) as sharded:
            for shard in sharded._shards:
                alone = NuevoMatch.build(
                    shard.engine.ruleset, remainder_classifier="tm", config=nm_config
                )
                assert _model_states_sans_timing(shard.engine.classifier) == (
                    _model_states_sans_timing(alone)
                )


class TestSameModelsAsTheParent:
    """The parent commit (PR 15, ``2f1475e``) built these digests with its
    ``NuevoMatch.build(..., pipeline=None)``: sha256 over every iSet model's
    weights and certified error bounds, for a cold build and for a warm build
    after a fixed 2 % rule churn that takes all four warm outcomes."""

    COLD = "b6c39ea17600a79c81505fe04d673d99545848fd7dad039c8475f5541082227b"
    WARM = "8e2de87f202f964f085d92e8457de99fdca0e61abe65aec23659e4ac6ad02371"
    CONFIG = NuevoMatchConfig(
        max_isets=4,
        min_iset_coverage=0.05,
        rqrmi=RQRMIConfig(adam_epochs=80, initial_samples=256, error_threshold=6),
    )

    @staticmethod
    def _digest(nm: NuevoMatch) -> str:
        digest = hashlib.sha256()
        for iset in nm.isets:
            for stage in iset.model.stages:
                for submodel in stage:
                    for part in submodel.weights():
                        digest.update(np.asarray(part, dtype=np.float64).tobytes())
            digest.update(np.asarray(iset.model.error_bounds, dtype=np.int64).tobytes())
        return digest.hexdigest()

    @staticmethod
    def _churn(rules, fraction=0.02, seed=7):
        """Replace ``fraction`` of the rules: half dropped, half new."""
        rng = np.random.default_rng(seed)
        count = int(len(rules.rules) * fraction) // 2
        drop = set(rng.choice(len(rules.rules), size=count, replace=False).tolist())
        kept = [rule for position, rule in enumerate(rules.rules) if position not in drop]
        donors = generate_classbench("acl1", len(rules.rules), seed=seed).rules[:count]
        next_id = max(rule.rule_id for rule in rules.rules) + 1
        added = [
            Rule(donor.ranges, priority=next_id + offset, action=donor.action,
                 rule_id=next_id + offset)
            for offset, donor in enumerate(donors)
        ]
        return rules.subset(kept + added, name="churned")

    def test_cold_and_warm_builds_reproduce_the_parents_digests(self):
        rules = generate_classbench("acl1", 400, seed=3)
        cold = NuevoMatch.build(rules, remainder_classifier="tm", config=self.CONFIG)
        assert self._digest(cold) == self.COLD
        warm = NuevoMatch.build(
            self._churn(rules), remainder_classifier="tm", config=self.CONFIG,
            warm_from=cold,
        )
        assert self._digest(warm) == self.WARM
        provenance = {
            key: value for key, value in warm.training_provenance.items()
            if key != "training_seconds"
        }
        assert provenance == {
            "warm_started": True, "submodels_trained": 9, "submodels_reused": 8,
            "warm_trained": 2, "cold_fallbacks": 2,
        }


class TestBuiltEngine:
    def test_engine_is_conformant(self, base_engine, acl_rules):
        base_engine.verify(acl_rules.sample_packets(300, seed=21))

    def test_error_bounds_certify_lookups(self, base_engine):
        for iset in base_engine.isets:
            model = iset.model
            rset = model.ranges
            rng = np.random.default_rng(31)
            keys = (rng.random(500) * rset.domain_size).astype(np.int64)
            # Add keys inside ranges so true indices exist.
            inside = (rset.lo * rset.domain_size).astype(np.int64)
            keys = np.concatenate([keys, inside])
            indices, predicted, bounds = model.query_batch_detailed(keys)
            for key, index, pred, bound in zip(keys, indices, predicted, bounds):
                true = rset.locate(key / rset.domain_size)
                if true is None:
                    continue
                assert index == true, "indexed key must be found"
                assert abs(pred - true) <= bound, (
                    "certified error bound violated"
                )


class TestWarmStart:
    def test_warm_is_deterministic(self, acl_rules, nm_config, base_engine):
        updated = _modify_rules(acl_rules, count=30)
        a = NuevoMatch.build(updated, remainder_classifier="tm", config=nm_config,
                             warm_from=base_engine)
        b = NuevoMatch.build(updated, remainder_classifier="tm", config=nm_config,
                             warm_from=base_engine)
        assert a.training_provenance["warm_started"] is True
        assert _model_states_sans_timing(a) == _model_states_sans_timing(b)

    def test_warm_engine_is_conformant_and_certified(
        self, acl_rules, nm_config, base_engine
    ):
        updated = _modify_rules(acl_rules, count=30)
        warm = NuevoMatch.build(updated, remainder_classifier="tm", config=nm_config,
                                warm_from=base_engine)
        warm.verify(updated.sample_packets(300, seed=23))
        threshold = nm_config.rqrmi.error_threshold
        for iset in warm.isets:
            assert iset.model.max_error <= threshold

    def test_unchanged_rules_reuse_everything(self, acl_rules, nm_config, base_engine):
        rebuilt = NuevoMatch.build(
            acl_rules, remainder_classifier="tm", config=nm_config,
            warm_from=base_engine,
        )
        provenance = rebuilt.training_provenance
        assert provenance["submodels_trained"] == 0
        assert provenance["submodels_reused"] > 0
        # Reused submodels carry their previous certified bounds verbatim.
        for old, new in zip(base_engine.isets, rebuilt.isets):
            assert old.model.error_bounds == new.model.error_bounds

    @pytest.mark.parametrize("adam_epochs, expected", [(300, 100), (90, 30), (30, 20)])
    def test_warm_refinement_budget_is_a_third_of_the_cold_one_at_least_20(
        self, adam_epochs, expected, monkeypatch
    ):
        """The budget is worked out from the config, not chosen: every
        warm-started fit runs ``max(20, adam_epochs // 3)`` epochs and every
        cold one the full ``adam_epochs``."""
        domain = 1 << 24
        config = RQRMIConfig(adam_epochs=adam_epochs, error_threshold=4)
        old = RangeSet.from_integer_ranges(_disjoint_ranges(600, 10, domain), domain)
        new = RangeSet.from_integer_ranges(_disjoint_ranges(600, 11, domain), domain)
        source = train_rqrmi(old, config)
        budgets = {True: set(), False: set()}
        real = pipeline_module.train_submodel

        def recording(dataset, hidden_units, epochs, learning_rate, init):
            budgets[init is not None].add(epochs)
            return real(dataset, hidden_units, epochs, learning_rate, init)

        monkeypatch.setattr(pipeline_module, "train_submodel", recording)
        model = train_rqrmi(new, config, warm_from=source)
        assert model.report.warm_started is True
        assert budgets[True] == {expected}
        assert budgets[False] <= {adam_epochs}

    def test_structure_mismatch_falls_back_to_cold(self):
        domain = 1 << 24
        small = RangeSet.from_integer_ranges(_disjoint_ranges(40, 8, domain), domain)
        big = RangeSet.from_integer_ranges(_disjoint_ranges(1200, 9, domain), domain)
        config = RQRMIConfig(adam_epochs=40)
        warm_source = train_rqrmi(small, config)          # widths [1, 4, 16]
        model = train_rqrmi(big, RQRMIConfig(adam_epochs=40, stage_widths=[1, 8]),
                            warm_from=warm_source)
        assert model.report.warm_started is False

    def test_regressed_warm_weights_fall_back_to_cold(self):
        domain = 1 << 24
        config = RQRMIConfig(adam_epochs=60, error_threshold=16)
        old_ranges = RangeSet.from_integer_ranges(_disjoint_ranges(600, 10, domain), domain)
        new_ranges = RangeSet.from_integer_ranges(_disjoint_ranges(600, 11, domain), domain)
        trained = train_rqrmi(old_ranges, config)
        # Corrupt every leaf: constant-zero predictions cannot certify any
        # non-trivial range set.
        hidden = trained.stages[-1][0].hidden_units
        corrupted = RQRMI(
            stages=trained.stages[:-1]
            + [[Submodel(np.zeros(hidden), np.zeros(hidden), np.zeros(hidden), 0.0)
                for _ in trained.stages[-1]]],
            ranges=old_ranges,
            error_bounds=[0] * len(trained.error_bounds),
            report=trained.report,
        )
        # The warm attempt's 20 epochs (a third of 60) end before the first
        # closed-form refit: the corrupted weights cannot recover in it,
        # forcing the cold path.
        model = train_rqrmi(new_ranges, config, warm_from=corrupted)
        assert model.report.warm_started is True
        assert model.report.cold_fallbacks > 0
        assert model.max_error <= config.error_threshold
        # The certified contract must hold on the final model regardless.
        rng = np.random.default_rng(12)
        keys = (rng.random(400) * domain).astype(np.int64)
        indices, predicted, bounds = model.query_batch_detailed(keys)
        for key, index, pred, bound in zip(keys, indices, predicted, bounds):
            true = new_ranges.locate(key / domain)
            if true is not None:
                assert index == true
                assert abs(pred - true) <= bound


class TestEngineIntegration:
    def test_engine_build_records_provenance(self, acl_rules, nm_config, tmp_path):
        engine = ClassificationEngine.build(
            acl_rules, classifier="nm", remainder_classifier="tm",
            config=nm_config,
        )
        training = engine.metadata["training"]
        assert training["submodels_trained"] > 0
        assert training["warm_started"] is False
        assert training["submodels_reused"] == training["warm_trained"] == 0
        assert training["cold_fallbacks"] == 0
        path = tmp_path / "engine.json.gz"
        engine.save(path)
        restored = ClassificationEngine.load(path)
        assert restored.metadata["training"] == training
        assert restored.classifier.training_provenance == training

    def test_engine_warm_from_engine_snapshot(
        self, acl_rules, nm_config, base_engine, tmp_path
    ):
        first = ClassificationEngine(base_engine)
        updated = _modify_rules(acl_rules, count=20)
        warm = ClassificationEngine.build(
            updated, classifier="nm", remainder_classifier="tm",
            config=nm_config, warm_from=first,
        )
        assert warm.metadata["training"]["warm_started"] is True

    def test_warm_from_rejected_for_stateless_classifiers(self, acl_rules, base_engine):
        with pytest.raises(ValueError, match="no trained state"):
            ClassificationEngine.build(acl_rules, classifier="tm", warm_from=base_engine)


class TestShardedWarmRetrain:
    def test_background_retrain_warm_starts(self, acl_rules, nm_config):
        engine = ShardedEngine.build(
            acl_rules, shards=2, classifier="nm", remainder_classifier="tm",
            config=nm_config, background_retraining=False, retrain_threshold=0.25,
        )
        try:
            donor = acl_rules.rules[0]
            max_id = max(rule.rule_id for rule in acl_rules)
            for index in range(1, len(acl_rules)):
                engine.insert(Rule(donor.ranges, priority=100_000 + index,
                                   action=donor.action, rule_id=max_id + index))
                if engine.updates.retrains_completed:
                    break
            assert engine.updates.retrains_completed >= 1
            assert engine.updates.last_retrain_seconds > 0.0
            retrained = [
                shard for shard in engine._shards if shard.retrain_count
            ]
            assert retrained
            for shard in retrained:
                provenance = shard.engine.classifier.training_provenance
                assert provenance["warm_started"] is True
                assert provenance["submodels_reused"] + provenance["warm_trained"] > 0
            engine.verify(engine.ruleset.sample_packets(200, seed=41))
        finally:
            engine.close()

    def test_snapshot_carries_no_retrain_policy(self, acl_rules, nm_config, tmp_path):
        """A retrain is always a warm rebuild: nothing about it is persisted,
        and the keys older builds wrote are ignored on load (see
        ``test_parent_snapshots``)."""
        from repro.engine.serialization import read_document

        path = tmp_path / "sharded.json.gz"
        with ShardedEngine.build(
            acl_rules, shards=2, classifier="nm", remainder_classifier="tm",
            config=nm_config, retrain_threshold=0.4,
        ) as engine:
            engine.save(path)
            stats = engine.statistics()
        assert not {"warm_retrain", "retrain_jobs"} & (set(read_document(path)) | set(stats))
        with ShardedEngine.load(path) as restored:
            assert restored.updates.retrain_threshold == 0.4
            assert set(restored.statistics()) == set(stats)
