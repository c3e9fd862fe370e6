"""Tests for the shared-memory shard-worker runtime and the ``"workers"``
executor of :class:`ShardedEngine`.

The runtime tests exercise the subsystem directly (lifecycle, snapshot
publication, crash detection, ring hygiene); the conformance tests pin the
``executor="workers"`` path to linear-search ground truth at several shard
counts, including interleaved inserts/removes so the update overlay is
applied on top of what the workers return through the rings.
"""

from __future__ import annotations

import glob
import threading

import numpy as np
import pytest

from repro.classifiers.linear import LinearSearchClassifier
from repro.core.isets import partition_shards
from repro.engine import ClassificationEngine
from repro.rules.rule import Rule, RuleSet
from repro.serving import ShardedEngine, ShardWorkerRuntime, WorkerCrashed

from _helpers import block_keys, linear_keys, scalar_arrays

SHARD_COUNTS = (1, 2, 4, 8)


def _key(rule):
    return None if rule is None else (rule.priority, rule.rule_id)


def _keys(results):
    return [_key(result.rule) for result in results]


def _packets_for(ruleset, matching=60, uniform=30, seed=33):
    import random

    packets = list(ruleset.sample_packets(matching, seed=seed))
    rng = random.Random(seed + 1)
    packets.extend(
        tuple(rng.randint(0, spec.max_value) for spec in ruleset.schema)
        for _ in range(uniform)
    )
    return packets


def _block_for(ruleset, **kwargs):
    return np.array(
        [tuple(packet) for packet in _packets_for(ruleset, **kwargs)],
        dtype=np.uint64,
    )


def _shard_engines(ruleset, shards):
    return [
        ClassificationEngine.build(
            RuleSet(list(part), schema=ruleset.schema), classifier="linear"
        )
        for part in partition_shards(ruleset, shards)
    ]


def _segments(prefix):
    return glob.glob(f"/dev/shm/{prefix}*")


class TestRuntime:
    def test_lifecycle_and_agreement(self, acl_small):
        engines = _shard_engines(acl_small, 2)
        block = _block_for(acl_small)
        runtime = ShardWorkerRuntime(slot_packets=32)  # force multi-slot pipelining
        try:
            runtime.start(engines)
            prefix = runtime._prefix
            assert _segments(prefix)  # rings + control + snapshots live
            outputs = runtime.classify_block(block)
            assert len(outputs) == 2
            for engine, (rule_ids, priorities, traces) in zip(engines, outputs):
                # The rings carry exactly what the shard's scalar reference
                # path computes: ids, priorities (0 on a miss) and trace rows.
                expected_ids, expected_pris, expected_traces = scalar_arrays(
                    engine.classifier, block
                )
                np.testing.assert_array_equal(rule_ids, expected_ids)
                np.testing.assert_array_equal(priorities, expected_pris)
                np.testing.assert_array_equal(traces, expected_traces)
        finally:
            runtime.close()
        # Every shared-memory segment the runtime created is unlinked.
        assert _segments(prefix) == []
        runtime.close()  # idempotent

    def test_publish_swaps_engine_and_reclaims_snapshot(self, acl_small):
        engines = _shard_engines(acl_small, 1)
        packet = acl_small.sample_packets(1, seed=41)[0]
        block = np.array([tuple(packet)], dtype=np.uint64)
        runtime = ShardWorkerRuntime()
        try:
            runtime.start(engines)
            prefix = runtime._prefix
            before = runtime.classify_block(block)[0][0][0]
            assert before >= 0
            # Swap in an engine where only a full-range rule exists.
            shadow = Rule(
                tuple(spec.full_range() for spec in acl_small.schema),
                priority=5,
                rule_id=70_000,
            )
            swapped = ClassificationEngine.build(
                RuleSet([shadow], schema=acl_small.schema), classifier="linear"
            )
            assert runtime.publish(0, swapped) == 1
            assert runtime.generations() == [1]
            rule_ids, priorities, _ = runtime.classify_block(block)[0]
            assert rule_ids[0] == 70_000 and priorities[0] == 5
            # The generation-0 snapshot segment was unlinked on ack.
            assert not _segments(f"{prefix}s0g0")
        finally:
            runtime.close()

    def test_empty_block_and_bad_width(self, acl_small):
        runtime = ShardWorkerRuntime()
        try:
            runtime.start(_shard_engines(acl_small, 1))
            empty = runtime.classify_block(
                np.empty((0, len(acl_small.schema)), dtype=np.uint64)
            )
            assert [len(out[0]) for out in empty] == [0]
            with pytest.raises(ValueError, match="fields"):
                runtime.classify_block(np.zeros((3, 2), dtype=np.uint64))
            with pytest.raises(ValueError, match="2-dimensional"):
                runtime.classify_block(np.zeros(5, dtype=np.uint64))
        finally:
            runtime.close()
        with pytest.raises(RuntimeError, match="not running"):
            runtime.classify_block(np.zeros((1, 5), dtype=np.uint64))

    def test_start_guards(self, acl_small):
        runtime = ShardWorkerRuntime()
        with pytest.raises(ValueError, match="at least one shard"):
            runtime.start([])
        try:
            runtime.start(_shard_engines(acl_small, 1))
            with pytest.raises(RuntimeError, match="already started"):
                runtime.start(_shard_engines(acl_small, 1))
        finally:
            runtime.close()

    def test_killed_worker_raises_worker_crashed(self, acl_small):
        runtime = ShardWorkerRuntime()
        try:
            runtime.start(_shard_engines(acl_small, 1))
            block = _block_for(acl_small, matching=4, uniform=0)
            runtime.classify_block(block)
            runtime._processes[0].kill()
            runtime._processes[0].join(timeout=10.0)
            with pytest.raises(WorkerCrashed) as excinfo:
                runtime.classify_block(block)
            assert excinfo.value.shard == 0
        finally:
            runtime.close()


class TestWorkersExecutorConformance:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_agrees_with_linear_ground_truth(self, shards, acl_small):
        oracle = LinearSearchClassifier.build(acl_small)
        packets = _packets_for(acl_small)
        with ShardedEngine.build(
            acl_small, shards=shards, classifier="linear", executor="workers"
        ) as sharded:
            assert _keys(sharded.classify_batch(packets)) == _keys(
                oracle.classify_batch(packets)
            )

    @pytest.mark.parametrize("shards", (1, 4))
    def test_interleaved_updates_agree_with_live_rules(self, shards, acl_small):
        """Inserts/removes interleaved with classifies through the rings:
        the overlay must win over whatever the workers' snapshots return."""
        import random

        rng = random.Random(77)
        with ShardedEngine.build(
            acl_small,
            shards=shards,
            classifier="linear",
            executor="workers",
            background_retraining=False,
            retrain_threshold=0.95,
        ) as engine:
            next_id = 80_000
            for round_ in range(6):
                if round_ % 2 == 0:
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
                    engine.remove(rng.choice(acl_small.rules).rule_id)
                oracle = engine.ruleset  # live rules
                for packet in _packets_for(acl_small, matching=15, uniform=5, seed=round_):
                    batch = engine.classify_batch([packet])
                    assert _key(batch[0].rule) == _key(oracle.match(packet))

    def test_inline_retrain_republishes_snapshots(self, acl_small):
        with ShardedEngine.build(
            acl_small,
            shards=2,
            classifier="linear",
            executor="workers",
            background_retraining=False,
            retrain_threshold=0.05,
        ) as engine:
            packets = _packets_for(acl_small, matching=20, uniform=0, seed=91)
            engine.classify_batch(packets)  # starts the runtime at generation 0
            for index in range(40):
                template = acl_small.rules[index]
                engine.insert(
                    Rule(template.ranges, template.priority, "new", 90_000 + index)
                )
            assert engine.updates.retrains_triggered > 0
            assert engine.verify(acl_small.sample_packets(40, seed=92)) == 40
            # The retrained engines were republished, not served stale.
            assert max(engine._worker_runtime.generations()) > 0

    def test_swap_under_concurrent_load(self, acl_small):
        """Generation swaps racing classify_batch calls from another thread
        must never produce a wrong result or an exception."""
        with ShardedEngine.build(
            acl_small,
            shards=2,
            classifier="linear",
            executor="workers",
            background_retraining=False,
            retrain_threshold=0.05,
        ) as engine:
            packets = _packets_for(acl_small, matching=30, uniform=10, seed=13)
            errors: list[BaseException] = []
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    try:
                        results = engine.classify_batch(packets)
                        assert len(results) == len(packets)
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        return

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                for index in range(60):
                    template = acl_small.rules[index % len(acl_small.rules)]
                    engine.insert(
                        Rule(template.ranges, template.priority, "new", 85_000 + index)
                    )
            finally:
                stop.set()
                thread.join(timeout=60.0)
            assert not errors
            assert engine.updates.retrains_triggered > 0
            assert engine.verify(acl_small.sample_packets(40, seed=14)) == 40

    def test_worker_crash_recovers_transparently(self, acl_small):
        with ShardedEngine.build(
            acl_small, shards=2, classifier="linear", executor="workers"
        ) as engine:
            packets = _packets_for(acl_small, matching=20, uniform=5, seed=21)
            expected = _keys(engine.classify_batch(packets))
            engine._worker_runtime._processes[1].kill()
            engine._worker_runtime._processes[1].join(timeout=10.0)
            # The runtime is rebuilt once and the call retried internally.
            assert _keys(engine.classify_batch(packets)) == expected


class TestClassifyBlock:
    def test_sharded_block_matches_linear_search(self, acl_small):
        block = _block_for(acl_small)
        with ShardedEngine.build(
            acl_small, shards=2, classifier="linear", executor="workers"
        ) as engine:
            rule_ids, priorities = engine.classify_block(block)
            assert block_keys(rule_ids, priorities) == linear_keys(
                acl_small.rules, block
            )

    def test_sharded_block_overlay_falls_back(self, acl_small):
        block = _block_for(acl_small, matching=20, uniform=5)
        with ShardedEngine.build(
            acl_small,
            shards=2,
            classifier="linear",
            executor="workers",
            background_retraining=False,
            retrain_threshold=0.95,
        ) as engine:
            shadow = Rule(
                tuple(spec.full_range() for spec in acl_small.schema),
                priority=0,
                rule_id=71_000,
            )
            engine.insert(shadow)
            rule_ids, priorities = engine.classify_block(block)
            assert (rule_ids == 71_000).all()
            assert (priorities == 0).all()

    def test_plain_engine_block_matches_scalar_reference(self, acl_small):
        engine = ClassificationEngine.build(acl_small, classifier="linear")
        block = _block_for(acl_small, matching=25, uniform=10)
        traces = np.zeros((len(block), 5), dtype=np.int64)
        rule_ids, priorities = engine.classify_block(block, traces=traces)
        expected_ids, expected_pris, expected_traces = scalar_arrays(
            engine.classifier, block
        )
        np.testing.assert_array_equal(rule_ids, expected_ids)
        np.testing.assert_array_equal(priorities, expected_pris)
        np.testing.assert_array_equal(traces, expected_traces)
        with pytest.raises(ValueError, match="2-dimensional"):
            engine.classify_block(block[0])
