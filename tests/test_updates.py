"""Tests for online updates (§3.9) and the update-rate analytical model.

The update mechanism is :class:`repro.engine.ClassificationEngine`'s overlay;
``TestEngineUpdates`` holds the behaviours the deleted ``UpdatableNuevoMatch``
tests pinned, one for one, plus what that wrapper got wrong (a changed action
never reached lookups).  Cross-stack agreement under updates is in
``test_conformance.py`` / ``test_stack.py``.
"""

import math

import pytest

from repro.core.updates import (
    expected_unmodified_rules,
    sustained_update_rate,
    throughput_over_time,
    throughput_with_updates,
)
from repro.engine import ClassificationEngine
from repro.rules.rule import Rule
from _helpers import block_of, fast_nm_config


@pytest.fixture()
def engine(acl_small):
    return ClassificationEngine.build(
        acl_small, classifier="nm", remainder_classifier="tm", config=fast_nm_config()
    )


def fresh_rule(rule_id, value=12345, priority=0):
    return Rule(
        ((value, value), (value, value), (80, 80), (443, 443), (6, 6)),
        priority=priority,
        action="new",
        rule_id=rule_id,
    )


class TestEngineUpdates:
    def test_any_remainder_takes_updates(self, acl_small):
        # UpdatableNuevoMatch refused a non-updatable remainder (cs); the
        # engine's overlay does not depend on the classifier at all.
        engine = ClassificationEngine.build(
            acl_small, classifier="nm", remainder_classifier="cs", config=fast_nm_config()
        )
        engine.insert(fresh_rule(50_000))
        assert engine.classify((12345, 12345, 80, 443, 6)).rule_id == 50_000

    def test_added_rule_is_found(self, engine):
        engine.insert(fresh_rule(50_000))
        found = engine.classify((12345, 12345, 80, 443, 6))
        assert found is not None and found.rule_id == 50_000

    def test_deleted_rule_is_never_served(self, engine, acl_small):
        victim = acl_small[0]
        packet = victim.sample_packet()
        assert engine.remove(victim.rule_id)
        result = engine.classify(packet)
        assert result is None or result.rule_id != victim.rule_id
        assert engine.verify([packet]) == 1

    def test_delete_unknown_returns_false(self, engine, acl_small):
        assert not engine.remove(10**9)
        assert engine.remove(acl_small[0].rule_id)
        assert not engine.remove(acl_small[0].rule_id)  # already gone

    def test_same_id_insert_changes_the_action_lookups_see(self, engine, acl_small):
        """Type (i).  Probes iSet-indexed rules — where the deleted wrapper's
        ``change_action`` left every lookup on the stale action — through both
        the block path and the object path."""
        indexed = [
            rule
            for iset in engine.classifier.partition.isets
            for rule in iset.rules
        ][:25]
        assert indexed
        for victim in indexed:
            engine.insert(Rule(victim.ranges, victim.priority, "drop", victim.rule_id))
        served = 0
        for victim in indexed:
            packet = victim.sample_packet()
            rule_ids, _priorities = engine.classify_block(block_of([packet]))
            hit = engine.classify(packet)
            assert hit.rule_id == int(rule_ids[0])
            if hit.rule_id == victim.rule_id:  # else a better rule overlaps it
                assert hit.action == "drop"
                served += 1
        assert served > 0
        assert engine.live_ruleset().by_id()[indexed[0].rule_id].action == "drop"

    def test_same_id_insert_changes_the_matching_set(self, engine, acl_small):
        """Type (iii): the old matching set stops matching, the new one does."""
        victim = acl_small[1]
        before = engine.remainder_fraction()
        engine.insert(fresh_rule(victim.rule_id, value=999, priority=victim.priority))
        assert engine.remainder_fraction() >= before
        found = engine.classify((999, 999, 80, 443, 6))
        assert found is not None and found.rule_id == victim.rule_id
        stale = engine.classify(victim.sample_packet())
        assert stale is None or stale.rule_id != victim.rule_id

    def test_remainder_growth_crosses_the_threshold(self, engine, acl_small):
        assert engine.remainder_fraction() < 0.5
        # Adding 1.5x the original rule count pushes the remainder fraction
        # ((base_remainder + added) / (original + added)) past 0.5.
        for index in range(int(len(acl_small) * 1.5)):
            engine.insert(fresh_rule(100_000 + index, value=index + 1))
        assert 0.5 <= engine.remainder_fraction() <= 1.0

    def test_rebuild_empties_the_overlay_and_keeps_the_live_rules(self, engine, acl_small):
        for index in range(20):
            engine.insert(fresh_rule(200_000 + index, value=index + 7))
        assert engine.remove(acl_small[2].rule_id)
        live = engine.rules_by_id()
        rebuilt = engine.rebuild()
        assert rebuilt is not engine
        assert rebuilt.update_statistics()["overlay_inserted"] == 0
        assert rebuilt.update_statistics()["overlay_removed"] == 0
        assert rebuilt.remainder_fraction() < engine.remainder_fraction()
        assert len(rebuilt.ruleset) == len(live) == rebuilt.live_size()
        assert rebuilt.rules_by_id().keys() == live.keys()
        assert type(rebuilt.classifier.remainder) is type(engine.classifier.remainder)
        found = rebuilt.classify((8, 8, 80, 443, 6))
        assert found is not None and found.rule_id == 200_001
        assert rebuilt.verify(acl_small.sample_packets(60, seed=3)) == 60

    def test_live_rules_reflect_adds_and_deletes(self, engine, acl_small):
        original = len(acl_small)
        engine.insert(fresh_rule(300_000))
        engine.remove(acl_small[0].rule_id)
        assert engine.live_size() == len(engine.live_ruleset()) == original
        assert len(engine.rules_by_id()) == original
        assert len(engine.ruleset) == original  # the built rules do not change


class TestAnalyticModel:
    def test_expected_unmodified_matches_formula(self):
        assert expected_unmodified_rules(1000, 0) == pytest.approx(1000)
        assert expected_unmodified_rules(1000, 1000) == pytest.approx(1000 * math.exp(-1))
        assert expected_unmodified_rules(0, 10) == 0.0

    def test_throughput_interpolates_between_extremes(self):
        nm_tp, rem_tp = 5e6, 1e6
        none = throughput_with_updates(1000, 0, nm_tp, rem_tp)
        many = throughput_with_updates(1000, 100_000, nm_tp, rem_tp)
        assert none == pytest.approx(nm_tp)
        assert many == pytest.approx(rem_tp, rel=0.01)
        mid = throughput_with_updates(1000, 500, nm_tp, rem_tp)
        assert rem_tp < mid < nm_tp

    def test_throughput_over_time_shape(self):
        series = throughput_over_time(
            total_rules=10_000,
            update_rate=100.0,
            retrain_period=60.0,
            training_time=30.0,
            nuevomatch_throughput=5e6,
            remainder_throughput=1e6,
            horizon=300.0,
            step=1.0,
        )
        assert len(series) == 301
        times, values = zip(*series)
        assert times[0] == 0.0 and times[-1] == 300.0
        # Throughput degrades within a period and recovers after retraining.
        assert min(values) < values[0]
        assert max(values[150:]) > min(values[:150])

    def test_zero_training_time_is_upper_bound(self):
        common = dict(
            total_rules=10_000,
            update_rate=200.0,
            retrain_period=60.0,
            nuevomatch_throughput=5e6,
            remainder_throughput=1e6,
            horizon=240.0,
        )
        instant = throughput_over_time(training_time=0.0, **common)
        slow = throughput_over_time(training_time=50.0, **common)
        assert sum(v for _, v in instant) >= sum(v for _, v in slow)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            throughput_over_time(1000, 1.0, 0.0, 1.0, 2e6, 1e6, 10.0)

    def test_sustained_update_rate_paper_scale(self):
        # §3.9: ~4K updates/s for 500K rules, minute-long training, half speedup.
        rate = sustained_update_rate(
            total_rules=500_000,
            training_time=60.0,
            nuevomatch_throughput=2.4e6,
            remainder_throughput=1.0e6,
            target_fraction=0.5,
        )
        assert 1_000 < rate < 20_000

    def test_sustained_rate_zero_when_no_speedup(self):
        assert sustained_update_rate(1000, 60, 1e6, 1e6) == 0.0
