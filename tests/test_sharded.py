"""Tests for the sharded serving layer: partitioning, fan-out, updates,
background retraining and persistence."""

import json
import random

import numpy as np
import pytest

from repro.core.isets import partition_shards
from repro.engine import ClassificationEngine
from repro.rules.rule import Rule
from repro.serving import DEFAULT_RETRAIN_THRESHOLD, ShardedEngine

from _helpers import block_keys, block_of, fast_nm_config, linear_keys, scalar_arrays


def _key(rule):
    return None if rule is None else (rule.priority, rule.rule_id)


def _keys(results):
    return [_key(result.rule) for result in results]


def _wildcard(schema, priority, rule_id):
    return Rule(
        tuple(spec.full_range() for spec in schema),
        priority=priority,
        action="drop",
        rule_id=rule_id,
    )


class TestPartitioning:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_disjoint_cover(self, acl_small, shards):
        parts = partition_shards(acl_small, shards)
        assert len(parts) == shards
        ids = [rule.rule_id for part in parts for rule in part]
        assert sorted(ids) == sorted(rule.rule_id for rule in acl_small)
        assert all(len(part) > 0 for part in parts)

    def test_iset_chunking_balances_shards(self, acl_small):
        sizes = [len(part) for part in partition_shards(acl_small, 4)]
        target = -(-len(acl_small) // 4)
        # Chunked iSets keep every shard within 2x of the ideal share.
        assert max(sizes) <= 2 * target

    def test_rejects_bad_inputs(self, acl_small):
        with pytest.raises(ValueError):
            partition_shards(acl_small, 0)
        with pytest.raises(ValueError, match="cannot split"):
            partition_shards(acl_small, len(acl_small) + 1)
        # The knob is gone from every layer that carried it.
        with pytest.raises(TypeError):
            ShardedEngine.build(acl_small, shards=2, classifier="tm", partitioner="auto")


class TestServing:
    @pytest.fixture(scope="class")
    def unsharded(self, acl_small):
        return ClassificationEngine.build(acl_small, classifier="tm")

    @pytest.fixture(scope="class")
    def sharded(self, acl_small):
        with ShardedEngine.build(acl_small, shards=3, classifier="tm") as engine:
            yield engine

    def test_empty_batch(self, sharded):
        assert sharded.classify_batch([]) == []

    def test_serial_and_workers_executors_agree(self, acl_small, unsharded):
        packets = acl_small.sample_packets(100, seed=51)
        expected = _keys(unsharded.classify_batch(packets))
        for executor in ("serial", "workers"):
            with ShardedEngine.build(
                acl_small, shards=3, classifier="tm", executor=executor
            ) as engine:
                assert engine.executor == executor
                assert _keys(engine.classify_batch(packets)) == expected

    def test_merged_trace_sums_shard_work(self, sharded, acl_small):
        block = block_of(acl_small.sample_packets(8, seed=53))
        per_shard = sharded.classify_block_per_shard(block, want_traces=True)
        assert len(per_shard) == sharded.num_shards
        merged = np.zeros((len(block), 5), dtype=np.int64)
        sharded.classify_block(block, traces=merged)
        np.testing.assert_array_equal(
            merged, sum(traces for _ids, _priorities, traces in per_shard)
        )
        # With no overlay, each shard's rows are its classifier's scalar traces.
        for shard, (ids, priorities, traces) in zip(sharded._shards, per_shard):
            expected = scalar_arrays(shard.engine.classifier, block)
            np.testing.assert_array_equal(ids, expected[0])
            np.testing.assert_array_equal(priorities, expected[1])
            np.testing.assert_array_equal(traces, expected[2])
        assert sharded.classify_traced(tuple(block[0])).trace.total_accesses == int(
            merged[0, :3].sum()
        )

    def test_replay_batches_cover_all_packets(self, sharded, acl_small):
        from repro.traffic import Trace
        from repro.workloads import replay_trace

        packets = acl_small.sample_packets(70, seed=54)
        report = replay_trace(sharded, Trace(packets), batch_size=32)
        assert report.packets == report.matched == 70 and report.shards == 3
        with pytest.raises(ValueError):
            replay_trace(sharded, [], batch_size=0)

    def test_verify_against_linear(self, sharded, acl_small):
        assert sharded.verify(acl_small.sample_packets(50, seed=55)) == 50

    def test_statistics_and_footprint(self, sharded):
        stats = sharded.statistics()
        assert stats["num_shards"] == 3
        assert len(stats["shards"]) == 3
        assert stats["num_rules"] == sum(s["live_rules"] for s in stats["shards"])
        assert sharded.memory_footprint().total_bytes > 0

    def test_rejects_bad_config(self, acl_small):
        # The removed executors are rejected like any unknown name, and the
        # message names the two that exist.
        for executor in ("gpu", "thread", "process"):
            with pytest.raises(
                ValueError, match=r"unknown executor .*\('serial', 'workers'\)"
            ):
                ShardedEngine.build(
                    acl_small, shards=2, classifier="tm", executor=executor
                )
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedEngine([])
        # A parameter the classifier does not take is not dropped on the way
        # to the shards.
        with pytest.raises(TypeError, match="colision_limit"):
            ShardedEngine.build(acl_small, shards=2, classifier="tm", colision_limit=3)

    def test_default_executor_is_serial(self, acl_small):
        with ShardedEngine.build(acl_small, shards=2, classifier="linear") as engine:
            assert engine.executor == "serial"

    def test_rejects_duplicate_rule_ids(self, acl_small):
        engine = ClassificationEngine.build(acl_small, classifier="linear")
        with pytest.raises(ValueError, match="more than one shard"):
            ShardedEngine([engine, engine])


class TestUpdates:
    @pytest.fixture()
    def engine(self, acl_small):
        with ShardedEngine.build(
            acl_small,
            shards=2,
            classifier="tm",
            executor="serial",
            background_retraining=False,
            retrain_threshold=0.95,
        ) as engine:
            yield engine

    def test_insert_wins_immediately(self, engine, acl_small):
        packet = acl_small.sample_packets(1, seed=61)[0]
        engine.insert(_wildcard(acl_small.schema, priority=0, rule_id=70_000))
        assert engine.classify(packet).rule_id == 70_000

    def test_remove_masks_immediately(self, engine, acl_small):
        packet = acl_small.sample_packets(1, seed=62)[0]
        victim = engine.classify(packet)
        assert engine.remove(victim.rule_id)
        follow_up = engine.classify(packet)
        assert follow_up is None or follow_up.rule_id != victim.rule_id
        assert not engine.remove(victim.rule_id)  # already gone

    def test_modify_replaces_on_owning_shard(self, engine, acl_small):
        packet = acl_small.sample_packets(1, seed=63)[0]
        victim = engine.classify(packet)
        owner = engine.updates.owner_of(victim.rule_id)
        modified = Rule(
            tuple(spec.full_range() for spec in acl_small.schema),
            priority=victim.priority,
            action="modified",
            rule_id=victim.rule_id,
        )
        engine.insert(modified)
        assert engine.updates.owner_of(victim.rule_id) == owner
        hit = engine.classify(packet)
        assert hit.rule_id == victim.rule_id
        assert hit.action == "modified"

    def test_insert_goes_to_smallest_shard(self, engine, acl_small):
        sizes_before = engine.shard_sizes()
        smallest = sizes_before.index(min(sizes_before))
        engine.insert(_wildcard(acl_small.schema, priority=10_000, rule_id=70_001))
        assert engine.updates.owner_of(70_001) == smallest
        assert engine.shard_sizes()[smallest] == sizes_before[smallest] + 1

    def test_differential_after_random_churn(self, engine, acl_small):
        rng = random.Random(64)
        next_id = 80_000
        for _ in range(30):
            if rng.random() < 0.5:
                template = rng.choice(acl_small.rules)
                engine.insert(
                    Rule(
                        template.ranges,
                        priority=rng.randint(0, 1000),
                        action="churn",
                        rule_id=next_id,
                    )
                )
                next_id += 1
            else:
                victim = rng.choice(acl_small.rules)
                engine.remove(victim.rule_id)
        oracle = engine.ruleset  # live rules; RuleSet.match is ground truth
        for packet in acl_small.sample_packets(80, seed=65):
            assert _key(engine.classify(packet)) == _key(oracle.match(packet))


class TestRetraining:
    def test_inline_retrain_folds_overlay(self, acl_small):
        with ShardedEngine.build(
            acl_small,
            shards=2,
            classifier="linear",
            executor="serial",
            background_retraining=False,
            retrain_threshold=0.05,
        ) as engine:
            for index in range(40):
                template = acl_small.rules[index]
                engine.insert(
                    Rule(template.ranges, template.priority, "new", 90_000 + index)
                )
            assert engine.updates.retrains_triggered > 0
            stats = engine.statistics()
            assert sum(s["retrain_count"] for s in stats["shards"]) > 0
            # Retraining folded the overlay below the trigger threshold.
            for shard_stats in stats["shards"]:
                assert shard_stats["remainder_fraction"] < 1.0
            assert engine.verify(acl_small.sample_packets(60, seed=71)) == 60

    def test_background_retrain_swaps_atomically(self, acl_small):
        with ShardedEngine.build(
            acl_small,
            shards=2,
            classifier="linear",
            executor="serial",
            background_retraining=True,
            retrain_threshold=0.05,
        ) as engine:
            for index in range(30):
                template = acl_small.rules[index]
                engine.insert(
                    Rule(template.ranges, template.priority, "new", 91_000 + index)
                )
            engine.updates.join()
            assert engine.updates.retrains_triggered > 0
            assert sum(s.retrain_count for s in engine._shards) > 0
            assert engine.verify(acl_small.sample_packets(60, seed=72)) == 60

    @pytest.mark.parametrize("background", [False, True])
    def test_failed_retrain_is_reported_not_thrown(
        self, background, acl_small, monkeypatch
    ):
        """A rebuild that raises is counted and kept in the statistics; the
        update that triggered it is applied, acknowledged and its listeners
        ran; the overlay keeps serving exact results; the next update past
        the threshold retries and completes."""
        import threading

        real_rebuild = ClassificationEngine.rebuild
        attempts = []

        def flaky(engine, **kwargs):
            attempts.append(engine)
            if len(attempts) == 1:
                raise RuntimeError("trainer exploded")
            return real_rebuild(engine, **kwargs)

        unhandled = []
        monkeypatch.setattr(ClassificationEngine, "rebuild", flaky)
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        packets = acl_small.sample_packets(60, seed=73)
        with ShardedEngine.build(
            acl_small,
            shards=2,
            classifier="linear",
            executor="serial",
            background_retraining=background,
            retrain_threshold=0.05,
        ) as engine:
            notified = []
            engine.updates.add_listener(lambda op, payload: notified.append(payload))
            inserted = []

            def insert_until(done):
                while not done():
                    template = acl_small.rules[len(inserted)]
                    rule = Rule(
                        template.ranges, template.priority, "new", 93_000 + len(inserted)
                    )
                    engine.insert(rule)  # never raises
                    inserted.append(rule)
                    engine.updates.join(timeout=30)
                    assert len(inserted) < 200

            insert_until(lambda: engine.updates.retrains_failed == 1)
            stats = engine.updates.statistics()
            assert stats["last_retrain_error"] == "RuntimeError: trainer exploded"
            assert stats["retrains_completed"] == 0
            assert stats["inserts_applied"] == len(inserted) == len(notified)
            assert not any(shard.retraining for shard in engine._shards)
            assert engine.classify(inserted[-1].sample_packet()) is not None
            assert engine.verify(packets) == len(packets)

            insert_until(lambda: engine.updates.retrains_completed == 1)
            assert len(attempts) == 2 and engine.updates.retrains_failed == 1
            assert sum(shard.retrain_count for shard in engine._shards) == 1
            assert engine.verify(packets) == len(packets)
        assert unhandled == []

    def test_default_threshold_matches_paper(self):
        assert DEFAULT_RETRAIN_THRESHOLD == 0.5

    def test_retrain_preserves_remainder_build_params(self, acl_small):
        # A NuevoMatch shard's rebuilt remainder must keep the operator's
        # parameters (e.g. a non-default binth), not revert to defaults.
        with ShardedEngine.build(
            acl_small,
            shards=2,
            classifier="nm",
            executor="serial",
            background_retraining=False,
            retrain_threshold=0.05,
            remainder_classifier="hicuts",
            config=fast_nm_config(),
            binth=4,
        ) as engine:
            for index in range(30):
                template = acl_small.rules[index]
                engine.insert(
                    Rule(template.ranges, template.priority, "new", 92_000 + index)
                )
            assert engine.updates.retrains_triggered > 0
            for shard in engine._shards:
                if shard.retrain_count:
                    assert shard.engine.classifier.remainder.build_params == {
                        "binth": 4
                    }


class TestOverlayTraceAccounting:
    """Explicit values for what the overlay pass adds to a shard's trace rows
    (hand-computed; ``test_overlay_reference.py`` checks the overlay pass
    against its frozen reference on random update sequences)."""

    def test_three_rule_overlay_and_one_masked_winner(self):
        from repro.rules.fields import FieldSchema, FieldSpec
        from repro.rules.rule import RuleSet

        schema = FieldSchema([FieldSpec("a", 8), FieldSpec("b", 8)])
        base = RuleSet(
            [
                Rule(((0, 9), (0, 255)), priority=10, rule_id=0),
                Rule(((0, 99), (0, 255)), priority=20, rule_id=1),
                Rule(((0, 255), (0, 255)), priority=30, rule_id=2),
            ],
            schema,
        )
        # Packets: row 0 -> base winner 0, row 1 -> base winner 1, row 2 -> 2.
        block = np.array([[5, 0], [50, 0], [200, 0]], dtype=np.uint64)
        engine = ClassificationEngine.build(base, classifier="linear")
        with ShardedEngine(
            [engine], background_retraining=False, retrain_threshold=1.0
        ) as sharded:
            clean = np.zeros((3, 5), dtype=np.int64)
            sharded.classify_block(block, traces=clean)
            # Linear scan: rule_accesses = 1-based position of the winner,
            # compute_ops = that times the two fields.
            np.testing.assert_array_equal(clean[:, 1], [1, 2, 3])
            np.testing.assert_array_equal(clean[:, 3], [2, 4, 6])

            # A 3-rule overlay, best-first: prio 5 (matches nothing probed),
            # prio 15 (matches row 1), prio 25 (matches every row).
            sharded.insert(Rule(((250, 255), (9, 9)), priority=5, rule_id=100))
            sharded.insert(Rule(((40, 60), (0, 255)), priority=15, rule_id=101))
            sharded.insert(Rule(((0, 255), (0, 255)), priority=25, rule_id=102))
            # ... and mask row 0's winner: the rescan is a linear search over
            # the live base rules, best first, so it stops at rule 1, the
            # first live position (1 access, 2 ops).
            assert sharded.remove(0)

            traces = np.zeros((3, 5), dtype=np.int64)
            rule_ids, priorities = sharded.classify_block(block, traces=traces)
            assert block_keys(rule_ids, priorities) == [(20, 1), (15, 101), (25, 102)]
            # Overlay probes per row: row 0 (winner prio 20) probes 100 and
            # 101, stops at 102 (25 > 20): 2.  Row 1 (winner prio 20) probes
            # 100, then 101 matches: 2.  Row 2 (winner prio 30) probes all
            # three, the last matches: 3.
            np.testing.assert_array_equal(
                traces[:, 1] - clean[:, 1], [1 + 2, 2, 3]
            )
            np.testing.assert_array_equal(
                traces[:, 3] - clean[:, 3], [(1 + 2) * 2, 2 * 2, 3 * 2]
            )
            # The other counters are untouched by the overlay pass.
            np.testing.assert_array_equal(traces[:, [0, 2, 4]], clean[:, [0, 2, 4]])
            assert block_keys(rule_ids, priorities) == linear_keys(
                sharded.rules_by_id().values(), block
            )


class TestPersistence:
    def test_round_trip_with_overlay(self, acl_small, tmp_path):
        with ShardedEngine.build(
            acl_small,
            shards=3,
            classifier="tm",
            executor="serial",
            background_retraining=False,
            retrain_threshold=0.95,
        ) as engine:
            engine.insert(_wildcard(acl_small.schema, priority=0, rule_id=95_000))
            victim = acl_small.rules[10]
            assert engine.remove(victim.rule_id)
            path = tmp_path / "sharded.json.gz"
            engine.save(path)
            packets = acl_small.sample_packets(80, seed=81)
            expected = _keys(engine.classify_batch(packets))
        with ShardedEngine.load(path, executor="serial") as restored:
            assert restored.num_shards == 3
            assert _keys(restored.classify_batch(packets)) == expected
            # Overlay state survives: the insert is live, the victim is not.
            assert restored.updates.owner_of(95_000) is not None
            assert restored.updates.owner_of(victim.rule_id) is None

    @pytest.mark.parametrize("persisted", ["thread", "process"])
    def test_parent_snapshot_with_removed_executor_loads_and_serves(
        self, persisted, acl_small, tmp_path
    ):
        """Old artefacts keep working: a snapshot written by a build that
        persisted ``"executor": "thread"|"process"`` loads (the key is ignored
        on read, no format bump) and serves correctly in-process."""
        with ShardedEngine.build(
            acl_small,
            shards=2,
            classifier="tm",
            background_retraining=False,
            retrain_threshold=0.95,
        ) as engine:
            engine.insert(_wildcard(acl_small.schema, priority=0, rule_id=95_100))
            path = tmp_path / "old.json"
            engine.save(path)
        document = json.loads(path.read_text())
        assert "executor" not in document  # no longer persisted state
        document["executor"] = persisted
        path.write_text(json.dumps(document))
        block = block_of(acl_small.sample_packets(60, seed=82))
        with ShardedEngine.load(path) as restored:
            assert restored.executor == "serial"
            rule_ids, priorities = restored.classify_block(block)
            assert block_keys(rule_ids, priorities) == linear_keys(
                restored.rules_by_id().values(), block
            )
            assert (rule_ids == 95_100).all()
        with ShardedEngine.load(path, executor="workers") as restored:
            assert restored.executor == "workers"
            np.testing.assert_array_equal(
                restored.classify_block(block)[0], rule_ids
            )

    def test_load_rejects_future_format(self, acl_small, tmp_path):
        with ShardedEngine.build(
            acl_small, shards=2, classifier="linear", executor="serial"
        ) as engine:
            path = tmp_path / "sharded.json"
            engine.save(path)
        document = json.loads(path.read_text())
        document["format"] = 999
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="unsupported sharded-engine file format"):
            ShardedEngine.load(path)

    def test_load_rejects_plain_engine_file(self, acl_small, tmp_path):
        engine = ClassificationEngine.build(acl_small, classifier="linear")
        path = tmp_path / "plain.json"
        engine.save(path)
        with pytest.raises(ValueError, match="not a sharded-engine snapshot"):
            ShardedEngine.load(path)

    def test_engine_load_rejects_sharded_file(self, acl_small, tmp_path):
        with ShardedEngine.build(
            acl_small, shards=2, classifier="linear", executor="serial"
        ) as engine:
            path = tmp_path / "sharded.json"
            engine.save(path)
        with pytest.raises(ValueError):
            ClassificationEngine.load(path)
