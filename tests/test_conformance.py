"""Differential conformance suite.

Every registered classifier — the sharded serving layer at several shard
counts, and the flow-cached engine stacks (plain and sharded) both cold and
warm — must agree with :class:`LinearSearchClassifier` ground truth on the
same packet sets.  Generated rule-sets assign unique priorities (ClassBench
convention: position order), so agreement is checked on exact rule identity,
not just priority.
"""

import random

import numpy as np
import pytest

from repro.classifiers import available_classifiers, build_classifier
from repro.classifiers.base import ClassificationResult, LookupTrace
from repro.classifiers.linear import LinearSearchClassifier
from repro.core.nuevomatch import NuevoMatch
from repro.engine import ClassificationEngine
from repro.rules.rule import Rule
from repro.serving import CachedEngine, ShardedEngine, wire

from _helpers import (
    block_keys,
    block_of,
    fast_nm_config,
    linear_keys,
    scalar_arrays,
)

SHARD_COUNTS = (1, 2, 4)

#: Cache capacities for the CachedEngine rows: smaller than the probe set (so
#: eviction fires mid-run) and comfortably larger than it.
CACHE_CAPACITIES = (64, 1024)


def _packets_for(ruleset, matching=100, uniform=50, seed=33):
    """Rule-matching samples plus uniform-random packets (likely misses)."""
    packets = list(ruleset.sample_packets(matching, seed=seed))
    rng = random.Random(seed + 1)
    packets.extend(
        tuple(rng.randint(0, spec.max_value) for spec in ruleset.schema)
        for _ in range(uniform)
    )
    return packets


def _keys(results):
    return [
        None if result.rule is None else (result.rule.priority, result.rule.rule_id)
        for result in results
    ]


def _wide_rule(ruleset, priority, rule_id):
    """A full-range rule: matches every probe, so overlay order is stressed."""
    ranges = tuple((0, spec.max_value) for spec in ruleset.schema)
    return Rule(ranges, priority=priority, rule_id=rule_id)


def _build(name, ruleset):
    if name == "nm":
        return NuevoMatch.build(
            ruleset, remainder_classifier="tm", config=fast_nm_config()
        )
    return build_classifier(name, ruleset)


def _assert_block_equals_scalar(stack, classifier, packets):
    """``stack.classify_block`` (ids, priorities, trace rows) equals the scalar
    ``classify_traced`` reference of ``classifier`` on ``packets``."""
    traces = np.full((len(packets), 5), -7, dtype=np.int64)  # must be overwritten
    rule_ids, priorities = stack.classify_block(block_of(packets), traces=traces)
    expected_ids, expected_pris, expected_traces = scalar_arrays(classifier, packets)
    np.testing.assert_array_equal(rule_ids, expected_ids)
    np.testing.assert_array_equal(priorities, expected_pris)
    np.testing.assert_array_equal(traces, expected_traces)


@pytest.fixture(scope="module", params=["acl_small", "fw_small"])
def conformance_ruleset(request):
    return request.getfixturevalue(request.param)


class TestRegisteredClassifiers:
    @pytest.mark.parametrize("name", available_classifiers())
    def test_agrees_with_linear_ground_truth(self, name, conformance_ruleset):
        ruleset = conformance_ruleset
        oracle = LinearSearchClassifier.build(ruleset)
        classifier = _build(name, ruleset)
        packets = _packets_for(ruleset)
        assert _keys(classifier.classify_batch(packets)) == _keys(
            oracle.classify_batch(packets)
        )

    @pytest.mark.parametrize("name", available_classifiers())
    def test_block_equals_scalar_reference(self, name, conformance_ruleset):
        """Every classifier's ``classify_block`` — vectorized override or the
        base-class loop — equals its scalar ``classify_traced`` row for row:
        ids, priorities *and* trace counters."""
        classifier = _build(name, conformance_ruleset)
        packets = _packets_for(conformance_ruleset)
        _assert_block_equals_scalar(classifier, classifier, packets)

    @pytest.mark.parametrize("early_termination", [True, False])
    @pytest.mark.parametrize("remainder", ["cs", "nc", "tss", "linear"])
    def test_nuevomatch_over_unvectorized_remainder(
        self, remainder, early_termination, acl_small
    ):
        """A remainder without its own floored block hook serves NuevoMatch
        blocks through ``Classifier.classify_block_with_floors``."""
        from dataclasses import replace

        nm = NuevoMatch.build(
            acl_small,
            remainder_classifier=remainder,
            config=replace(fast_nm_config(), early_termination=early_termination),
        )
        packets = _packets_for(acl_small)
        _assert_block_equals_scalar(nm, nm, packets)
        rule_ids, priorities = nm.classify_block(block_of(packets))
        assert block_keys(rule_ids, priorities) == linear_keys(acl_small.rules, packets)


class TestShardedEngine:
    @pytest.fixture(scope="class")
    def unsharded_tm(self, acl_small):
        return ClassificationEngine.build(acl_small, classifier="tm")

    @pytest.fixture(scope="class")
    def unsharded_nm(self, acl_small):
        return ClassificationEngine.build(
            acl_small,
            classifier="nm",
            remainder_classifier="tm",
            config=fast_nm_config(),
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_tm_shards_identical_to_unsharded(self, shards, acl_small, unsharded_tm):
        packets = _packets_for(acl_small)
        with ShardedEngine.build(
            acl_small, shards=shards, classifier="tm"
        ) as sharded:
            assert _keys(sharded.classify_batch(packets)) == _keys(
                unsharded_tm.classify_batch(packets)
            )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_nm_shards_identical_to_unsharded(self, shards, acl_small, unsharded_nm):
        packets = _packets_for(acl_small)
        with ShardedEngine.build(
            acl_small,
            shards=shards,
            classifier="nm",
            remainder_classifier="tm",
            config=fast_nm_config(),
        ) as sharded:
            assert _keys(sharded.classify_batch(packets)) == _keys(
                unsharded_nm.classify_batch(packets)
            )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_sharded_agrees_with_linear_ground_truth(self, shards, acl_small):
        oracle = LinearSearchClassifier.build(acl_small)
        packets = _packets_for(acl_small)
        with ShardedEngine.build(
            acl_small, shards=shards, classifier="tm", executor="serial"
        ) as sharded:
            assert _keys(sharded.classify_batch(packets)) == _keys(
                oracle.classify_batch(packets)
            )


class TestCachedEngine:
    """Flow-cached stacks in the differential matrix.

    Each probe set runs twice through one CachedEngine: the first pass is all
    misses (slow path + fills), the second mostly hits — both must agree with
    linear ground truth, and with each other, at capacities below and above
    the distinct-flow count.
    """

    @pytest.mark.parametrize("capacity", CACHE_CAPACITIES)
    def test_cached_plain_engine_matches_ground_truth(self, capacity, conformance_ruleset):
        ruleset = conformance_ruleset
        oracle = LinearSearchClassifier.build(ruleset)
        packets = _packets_for(ruleset)
        expected = _keys(oracle.classify_batch(packets))
        with CachedEngine(
            ClassificationEngine.build(ruleset, classifier="tm"),
            capacity=capacity,
        ) as cached:
            cold = _keys(cached.classify_batch(packets))
            warm = _keys(cached.classify_batch(packets))
        assert cold == expected
        assert warm == expected

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("capacity", CACHE_CAPACITIES)
    def test_cached_sharded_engine_matches_ground_truth(
        self, capacity, shards, acl_small
    ):
        oracle = LinearSearchClassifier.build(acl_small)
        packets = _packets_for(acl_small)
        expected = _keys(oracle.classify_batch(packets))
        with ShardedEngine.build(
            acl_small, shards=shards, classifier="tm", executor="serial"
        ) as sharded:
            with CachedEngine(sharded, capacity=capacity) as cached:
                cold = _keys(cached.classify_batch(packets))
                warm = _keys(cached.classify_batch(packets))
                assert cached.cache.stats.hits > 0
        assert cold == expected
        assert warm == expected

    def test_cached_engine_identical_to_uncached_per_packet(self, acl_small):
        """Row-for-row: cached and uncached stacks return the same rule for
        every probe, cold and warm (bit-identical matches, as documented)."""
        packets = _packets_for(acl_small)
        uncached = ClassificationEngine.build(acl_small, classifier="tm")
        baseline = _keys(uncached.classify_batch(packets))
        with CachedEngine(
            ClassificationEngine.build(acl_small, classifier="tm"), capacity=256
        ) as cached:
            assert _keys(cached.classify_batch(packets)) == baseline
            assert _keys(cached.classify_batch(packets)) == baseline


def _stack_params(kind):
    if kind == "nm+tm":
        return {
            "classifier": "nm",
            "remainder_classifier": "tm",
            "config": fast_nm_config(),
        }
    return {"classifier": kind}


def _assert_sharded_block(sharded, packets, clean):
    """A sharded block equals linear search over the live rules; with no
    pending overlay its trace rows are the sum of the shards' scalar traces,
    with one the overlay pass only adds rule accesses / compute ops."""
    traces = np.full((len(packets), 5), -7, dtype=np.int64)
    rule_ids, priorities = sharded.classify_block(block_of(packets), traces=traces)
    assert block_keys(rule_ids, priorities) == linear_keys(
        sharded.rules_by_id().values(), packets
    )
    base = sum(
        scalar_arrays(shard.engine.classifier, packets)[2] for shard in sharded._shards
    )
    if clean:
        np.testing.assert_array_equal(traces, base)
    else:
        np.testing.assert_array_equal(traces[:, [0, 2, 4]], base[:, [0, 2, 4]])
        assert (traces[:, [1, 3]] >= base[:, [1, 3]]).all()
    return rule_ids, priorities


class TestColumnarConformance:
    """``classify_block`` is the one lookup; its references are external.

    For every serving stack the columnar outputs must equal the scalar
    ``classify_traced`` path of the underlying classifiers (ids, priorities
    and trace rows) and linear search over the live rules — both with a clean
    ruleset and with a pending update overlay (interleaved inserts and
    removes, including the removed-winner rescan).  Overlay trace accounting
    is pinned by explicit values in ``test_sharded.TestOverlayTraceAccounting``.
    """

    @pytest.mark.parametrize("kind", ["nm+tm", "tm", "linear"])
    def test_plain_engine_block_equals_scalar_and_linear(self, kind, conformance_ruleset):
        engine = ClassificationEngine.build(conformance_ruleset, **_stack_params(kind))
        packets = _packets_for(conformance_ruleset)
        _assert_block_equals_scalar(engine, engine.classifier, packets)
        rule_ids, priorities = engine.classify_block(block_of(packets))
        assert block_keys(rule_ids, priorities) == linear_keys(
            conformance_ruleset.rules, packets
        )

    @pytest.mark.parametrize("name", available_classifiers())
    def test_plain_engine_block_tracks_online_updates(self, name, acl_small, tmp_path):
        """Every registered classifier takes updates through the engine's
        overlay.  The bare classifier no longer sees them, so the block's
        references are the stack's own ``classify_traced`` (ids, priorities
        and trace rows) and linear search over ``rules_by_id()``."""
        engine = ClassificationEngine.build(
            acl_small, **_stack_params("nm+tm" if name == "nm" else name)
        )
        packets = _packets_for(acl_small, matching=60, uniform=30)
        block = block_of(packets)

        def check():
            traces = np.full((len(packets), 5), -7, dtype=np.int64)
            rule_ids, priorities = engine.classify_block(block, traces=traces)
            assert block_keys(rule_ids, priorities) == linear_keys(
                engine.rules_by_id().values(), packets
            )
            expected_ids, expected_pris, expected_traces = scalar_arrays(engine, packets)
            np.testing.assert_array_equal(rule_ids, expected_ids)
            np.testing.assert_array_equal(priorities, expected_pris)
            np.testing.assert_array_equal(traces, expected_traces)
            return rule_ids, priorities

        # Remove built winners: their rows take the masked rescan.
        built_ids, _pris = check()
        victims = [int(rule_id) for rule_id in dict.fromkeys(built_ids[:3])]
        for victim in victims:
            assert engine.remove(victim)
        rescanned, _pris = check()
        assert not np.isin(rescanned, victims).any()
        assert (rescanned[3:] == built_ids[3:])[~np.isin(built_ids[3:], victims)].all()
        # An insert that beats every built rule, then the round trip with the
        # overlay still pending.
        engine.insert(_wide_rule(acl_small, priority=0, rule_id=900_000))
        rule_ids, priorities = check()
        assert (rule_ids == 900_000).all()
        path = tmp_path / "pending.engine.json.gz"
        engine.save(path)
        restored = ClassificationEngine.load(path)
        assert restored.update_statistics() == engine.update_statistics()
        for stack in (restored, engine):  # saving folds nothing
            served_ids, served_pris = stack.classify_block(block)
            np.testing.assert_array_equal(served_ids, rule_ids)
            np.testing.assert_array_equal(served_pris, priorities)
        # Remove the inserted rule: the masked built winners stay masked.
        assert engine.remove(900_000)
        assert not engine.remove(900_000)
        np.testing.assert_array_equal(check()[0], rescanned)

    @pytest.mark.parametrize(
        "kind, shards",
        [("tm", count) for count in SHARD_COUNTS] + [("nm+tm", 2), ("linear", 2)],
    )
    def test_sharded_serial_block_equals_scalar_and_linear(self, kind, shards, acl_small):
        packets = _packets_for(acl_small)
        with ShardedEngine.build(
            acl_small,
            shards=shards,
            executor="serial",
            retrain_threshold=1.0,
            **_stack_params(kind),
        ) as sharded:
            _assert_sharded_block(sharded, packets, clean=True)
            # Build a pending overlay: a full-range insert that beats every
            # base rule, plus removals of current winners.
            sharded.insert(_wide_rule(acl_small, priority=0, rule_id=900_001))
            for rule in list(acl_small)[:3]:
                sharded.remove(rule.rule_id)
            rule_ids, _pris = _assert_sharded_block(sharded, packets, clean=False)
            assert (rule_ids == 900_001).all()
            # Removing the overlay winner exercises the removed-winner rescan
            # (the base winners of the removed rules' packets are masked).
            sharded.remove(900_001)
            _assert_sharded_block(sharded, packets, clean=False)

    def test_sharded_workers_block_equals_scalar_and_linear(self, acl_small):
        packets = _packets_for(acl_small)
        with ShardedEngine.build(
            acl_small,
            shards=2,
            classifier="tm",
            executor="workers",
            retrain_threshold=1.0,
        ) as sharded:
            _assert_sharded_block(sharded, packets, clean=True)
            sharded.insert(_wide_rule(acl_small, priority=0, rule_id=900_002))
            for rule in list(acl_small)[:2]:
                sharded.remove(rule.rule_id)
            _assert_sharded_block(sharded, packets, clean=False)
            sharded.remove(900_002)
            _assert_sharded_block(sharded, packets, clean=False)

    @pytest.mark.parametrize("capacity", CACHE_CAPACITIES)
    @pytest.mark.parametrize("wrap", ["plain", "sharded"])
    def test_cached_block_equals_linear_with_interleaved_updates(
        self, capacity, wrap, acl_small
    ):
        packets = _packets_for(acl_small)
        block = block_of(packets)
        if wrap == "sharded":
            base = ShardedEngine.build(
                acl_small,
                shards=2,
                classifier="tm",
                executor="serial",
                retrain_threshold=1.0,
            )
        else:
            base = ClassificationEngine.build(acl_small, classifier="tm")
        hit_row = [1, 0, 0, 0, 1]  # one hash + one index access

        def check():
            expected = linear_keys(base.rules_by_id().values(), packets)
            base_traces = np.zeros((len(block), 5), dtype=np.int64)
            base.classify_block(block, traces=base_traces)
            for _ in range(2):  # cold (fills), then warm (hits)
                hits_before = cached.cache.stats.hits
                traces = np.full((len(block), 5), -7, dtype=np.int64)
                rule_ids, priorities = cached.classify_block(block, traces=traces)
                assert block_keys(rule_ids, priorities) == expected
                # Every row carries either the wrapped engine's trace (a
                # slow-path lookup) or the cache's hit trace.
                slow = (traces == base_traces).all(axis=1)
                hit = (traces == hit_row).all(axis=1)
                assert (slow | hit).all()
                assert cached.cache.stats.hits - hits_before <= hit.sum()

        with CachedEngine(base, capacity=capacity) as cached:
            check()
            # Interleaved updates invalidate; the cached block must track them.
            cached.insert(_wide_rule(acl_small, priority=0, rule_id=910_001))
            check()
            cached.remove(910_001)
            cached.remove(list(acl_small)[0].rule_id)
            check()

    def test_block_path_allocates_no_result_objects(self, acl_small, monkeypatch):
        """The no-caller-objects path really is allocation-free: no
        ClassificationResult and no LookupTrace is constructed anywhere in
        cached → sharded → classifier ``classify_block``, cold or warm."""
        packets = _packets_for(acl_small)
        block = block_of(packets)
        counts = {"results": 0, "traces": 0}
        real_result_init = ClassificationResult.__init__
        real_trace_init = LookupTrace.__init__

        def counting_result_init(self, *args, **kwargs):
            counts["results"] += 1
            real_result_init(self, *args, **kwargs)

        def counting_trace_init(self, *args, **kwargs):
            counts["traces"] += 1
            real_trace_init(self, *args, **kwargs)

        with ShardedEngine.build(
            acl_small,
            shards=2,
            classifier="tm",
            executor="serial",
            retrain_threshold=1.0,
        ) as sharded:
            with CachedEngine(sharded, capacity=1024) as cached:
                monkeypatch.setattr(
                    ClassificationResult, "__init__", counting_result_init
                )
                monkeypatch.setattr(LookupTrace, "__init__", counting_trace_init)
                cached.classify_block(block)  # cold: misses + fills
                cached.classify_block(block)  # warm: cache hits
                sharded.classify_block(block)  # uncached slow path
                assert counts == {"results": 0, "traces": 0}
                # Sanity: the counters do fire when objects are materialized.
                cached.classify_batch(packets[:4])
                assert counts["results"] > 0 and counts["traces"] > 0


class TestMissEncoding:
    """One miss contract on every path: ``rule_id == -1``, ``priority == 0``.

    Differential across plain/sharded/cached stacks (cold and warm), plus the
    wire codec, so no internal sentinel (the worker runtime's old
    ``MISS_PRIORITY``) can escape into results.
    """

    def test_miss_contract_uniform_across_paths(self, acl_small):
        packets = _packets_for(acl_small)
        oracle = LinearSearchClassifier.build(acl_small)
        miss_rows = [
            row
            for row, key in enumerate(_keys(oracle.classify_batch(packets)))
            if key is None
        ]
        assert miss_rows, "probe set must contain at least one miss"
        block = block_of(packets)
        plain = ClassificationEngine.build(acl_small, classifier="tm")
        with ShardedEngine.build(
            acl_small, shards=2, classifier="tm", executor="serial"
        ) as sharded:
            with CachedEngine(
                ClassificationEngine.build(acl_small, classifier="tm"), capacity=256
            ) as cached:
                for stack in (plain, sharded, cached, cached):  # cached twice: warm
                    rule_ids, priorities = stack.classify_block(block)
                    assert (rule_ids[miss_rows] == -1).all()
                    assert (priorities[rule_ids < 0] == 0).all()
                # The wire codec preserves the encoding bit for bit.
                rule_ids, priorities = plain.classify_block(block)
                payload = wire.encode_classify_response(7, rule_ids, priorities)
                _id, status, wire_ids, wire_pris = wire.decode_classify_response(
                    payload
                )
                assert status == wire.STATUS_OK
                np.testing.assert_array_equal(wire_ids, rule_ids)
                np.testing.assert_array_equal(wire_pris, priorities)

    def test_worker_miss_sentinel_does_not_escape(self):
        import repro.serving.workers as workers

        assert not hasattr(workers, "MISS_PRIORITY")


class TestBlockValidation:
    """`validate_block` is the one shared gate: identical rejection messages
    (and identical acceptance) across plain, sharded, and cached stacks."""

    BAD_BLOCKS = (
        pytest.param(
            np.ones((4, 5), dtype=np.float64),
            "packet block must be an integer array",
            id="float-dtype",
        ),
        pytest.param(
            np.ones(5, dtype=np.uint64),
            "packet block must be 2-dimensional",
            id="one-dimensional",
        ),
        pytest.param(
            np.array([[1, -2, 3, 4, 5]], dtype=np.int64),
            "packet field values must be non-negative",
            id="negative-value",
        ),
    )

    @pytest.mark.parametrize("bad, message", BAD_BLOCKS)
    def test_identical_messages_across_stacks(self, bad, message, acl_small):
        plain = ClassificationEngine.build(acl_small, classifier="tm")
        with ShardedEngine.build(
            acl_small, shards=2, classifier="tm", executor="serial"
        ) as sharded:
            with CachedEngine(
                ClassificationEngine.build(acl_small, classifier="tm"), capacity=64
            ) as cached:
                for stack in (plain, sharded, cached):
                    with pytest.raises(ValueError) as excinfo:
                        stack.classify_block(bad)
                    assert str(excinfo.value) == message

    def test_signed_non_negative_blocks_are_accepted(self, acl_small):
        """int64 blocks with non-negative values pass through every stack
        (signedness alone is not a rejection)."""
        packets = _packets_for(acl_small, matching=10, uniform=0)
        signed = block_of(packets).astype(np.int64)
        plain = ClassificationEngine.build(acl_small, classifier="tm")
        with ShardedEngine.build(
            acl_small, shards=2, classifier="tm", executor="serial"
        ) as sharded:
            with CachedEngine(
                ClassificationEngine.build(acl_small, classifier="tm"), capacity=64
            ) as cached:
                expected = block_keys(*plain.classify_block(block_of(packets)))
                for stack in (plain, sharded, cached):
                    assert block_keys(*stack.classify_block(signed)) == expected
