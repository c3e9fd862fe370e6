"""Unit tests for the exact-match flow cache (repro.serving.flowcache)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ClassificationEngine
from repro.rules.rule import Rule
from repro.serving import CachedEngine, FlowCache, ShardedEngine
from repro.traffic import generate_zipf_trace


def keys_of(*rows: tuple[int, ...]) -> np.ndarray:
    return np.asarray(rows, dtype=np.uint64)


def fill(cache: FlowCache, keys: np.ndarray, winners, **kwargs) -> None:
    """``fill_block`` with the winners given as one Rule-or-None per row."""
    cache.fill_block(
        keys,
        np.array([-1 if w is None else w.rule_id for w in winners], dtype=np.int64),
        np.array([0 if w is None else w.priority for w in winners], dtype=np.int64),
        **kwargs,
    )


def probe_mask(cache: FlowCache, keys: np.ndarray) -> np.ndarray:
    return cache.probe_block(keys)[2]


def rule_over(values: tuple[int, ...], priority: int, rule_id: int) -> Rule:
    """An exact-match rule covering exactly one five-tuple."""
    return Rule(tuple((v, v) for v in values), priority=priority, rule_id=rule_id)


class TestFlowCache:
    def test_probe_miss_then_fill_then_hit(self):
        cache = FlowCache(8, num_fields=2)
        keys = keys_of((1, 2), (3, 4))
        rule_ids, priorities, mask = cache.probe_block(keys)
        assert not mask.any()
        assert list(rule_ids) == [-1, -1] and list(priorities) == [0, 0]
        rule = Rule(((0, 10), (0, 10)), priority=1, rule_id=5)
        fill(cache, keys, [rule, None])
        rule_ids, priorities, mask = cache.probe_block(keys)
        assert mask.all()
        assert (rule_ids[0], priorities[0]) == (5, 1)
        # A cached no-match: same encoding as a miss, distinguished by the mask.
        assert (rule_ids[1], priorities[1]) == (-1, 0)
        assert cache.stats.hits == 2 and cache.stats.misses == 2

    def test_duplicate_keys_collapse_to_one_entry(self):
        cache = FlowCache(8, num_fields=2)
        keys = keys_of((1, 1), (1, 1), (1, 1))
        fill(cache, keys, [None, None, None])
        assert len(cache) == 1

    def test_capacity_bound_and_bulk_lru_eviction(self):
        cache = FlowCache(4, num_fields=1)
        fill(cache, keys_of((0,), (1,), (2,), (3,)), [None] * 4)
        # Touch 2 and 3: 0 and 1 become the LRU pair.
        cache.probe_block(keys_of((2,), (3,)))
        fill(cache, keys_of((4,), (5,)), [None, None])
        assert len(cache) == 4
        mask = probe_mask(cache, keys_of((0,), (1,), (2,), (3,), (4,), (5,)))
        assert list(mask) == [False, False, True, True, True, True]
        assert cache.stats.evictions == 2

    def test_overfull_batch_keeps_most_recent_capacity_entries(self):
        cache = FlowCache(3, num_fields=1)
        fill(cache, keys_of(*[(i,) for i in range(10)]), [None] * 10)
        assert len(cache) == 3
        mask = probe_mask(cache, keys_of((7,), (8,), (9,), (0,)))
        assert list(mask) == [True, True, True, False]

    def test_zero_capacity_disables_cache(self):
        cache = FlowCache(0, num_fields=2)
        keys = keys_of((1, 2))
        fill(cache, keys, [None])
        mask = probe_mask(cache, keys)
        assert not mask.any()
        assert len(cache) == 0

    def test_refill_refreshes_existing_entry(self):
        cache = FlowCache(4, num_fields=1)
        old = Rule(((0, 9),), priority=2, rule_id=1)
        new = Rule(((0, 9),), priority=1, rule_id=2)
        fill(cache, keys_of((5,)), [old])
        fill(cache, keys_of((5,)), [new])
        rule_ids, priorities, mask = cache.probe_block(keys_of((5,)))
        assert mask.all() and (rule_ids[0], priorities[0]) == (2, 1)
        assert len(cache) == 1

    def test_invalidate_insert_evicts_covered_flows_and_stale_no_match(self):
        cache = FlowCache(8, num_fields=2)
        inside = (3, 3)
        outside = (9, 9)
        fill(cache, keys_of(inside, outside), [None, None])
        evicted = cache.invalidate_insert(
            Rule(((0, 5), (0, 5)), priority=0, rule_id=77)
        )
        assert evicted == 1
        mask = probe_mask(cache, keys_of(inside, outside))
        assert list(mask) == [False, True]
        assert cache.stats.invalidations == 1

    def test_invalidate_insert_evicts_previous_version_by_rule_id(self):
        cache = FlowCache(8, num_fields=1)
        old_version = Rule(((40, 50),), priority=1, rule_id=3)
        fill(cache, keys_of((45,)), [old_version])
        # Same id re-inserted with a disjoint matching set: the cached winner
        # is a stale version even though the key is outside the new ranges.
        evicted = cache.invalidate_insert(Rule(((0, 5),), priority=1, rule_id=3))
        assert evicted == 1
        assert len(cache) == 0

    def test_invalidate_remove_evicts_only_that_winner(self):
        cache = FlowCache(8, num_fields=1)
        a = Rule(((0, 9),), priority=1, rule_id=1)
        b = Rule(((10, 19),), priority=2, rule_id=2)
        fill(cache, keys_of((4,), (14,), (25,)), [a, b, None])
        assert cache.invalidate_remove(1) == 1
        mask = probe_mask(cache, keys_of((4,), (14,), (25,)))
        assert list(mask) == [False, True, True]

    def test_clear_counts_invalidations(self):
        cache = FlowCache(8, num_fields=1)
        fill(cache, keys_of((1,), (2,)), [None, None])
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.stats.invalidations == 2

    def test_statistics_and_footprint(self):
        cache = FlowCache(16, num_fields=5)
        stats = cache.statistics()
        assert stats["capacity"] == 16
        assert stats["entries"] == 0
        assert stats["footprint_bytes"] == cache.footprint_bytes() > 0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            FlowCache(-1, num_fields=5)

    def test_stale_epoch_fill_is_dropped(self):
        """A fill computed before an invalidation must not be cached: the
        winners may predate an acknowledged update (the probe-miss → update →
        fill race)."""
        cache = FlowCache(8, num_fields=1)
        keys = keys_of((4,))
        cache.probe_block(keys)  # miss; slow path starts computing
        epoch = cache.epoch
        # An update is applied and acknowledged mid-classification.  Nothing
        # was cached for the flow, so the invalidation evicts zero entries —
        # but it must still fence the in-flight fill.
        assert cache.invalidate_remove(rule_id=1) == 0
        fill(cache, keys, [Rule(((0, 9),), priority=1, rule_id=1)], epoch=epoch)
        mask = probe_mask(cache, keys)
        assert not mask.any()
        assert cache.stats.dropped_fills == 1
        # A fill with the current epoch goes through.
        fill(cache, keys, [None], epoch=cache.epoch)
        assert len(cache) == 1


class TestResizeAndHitWindow:
    def test_shrink_keeps_the_most_recently_used_entries(self):
        cache = FlowCache(8, num_fields=1)
        fill(cache, keys_of(*[(i,) for i in range(8)]), [None] * 8)
        # Touch 4..7: 0..3 become the LRU half.
        cache.probe_block(keys_of((4,), (5,), (6,), (7,)))
        evicted = cache.resize(4)
        assert evicted == 4
        assert cache.capacity == 4
        assert len(cache) == 4
        mask = probe_mask(cache, keys_of(*[(i,) for i in range(8)]))
        assert list(mask) == [False] * 4 + [True] * 4
        assert cache.stats.evictions == 4

    def test_shrink_does_not_bump_the_epoch(self):
        """A resize changes no rule state, so an in-flight slow-path fill
        fenced on the pre-resize epoch must still land."""
        cache = FlowCache(8, num_fields=1)
        epoch = cache.epoch
        cache.resize(4)
        assert cache.epoch == epoch
        fill(cache, keys_of((1,)), [None], epoch=epoch)
        mask = probe_mask(cache, keys_of((1,)))
        assert mask.all()
        assert cache.stats.dropped_fills == 0

    def test_grow_keeps_everything_and_opens_new_slots(self):
        cache = FlowCache(2, num_fields=1)
        fill(cache, keys_of((0,), (1,)), [None, None])
        assert cache.resize(4) == 0
        fill(cache, keys_of((2,), (3,)), [None, None])
        assert len(cache) == 4
        mask = probe_mask(cache, keys_of((0,), (1,), (2,), (3,)))
        assert mask.all()

    def test_resize_preserves_winners_and_lru_order(self):
        cache = FlowCache(4, num_fields=1)
        rule = rule_over((7,), priority=1, rule_id=9)
        fill(cache, keys_of((7,), (8,)), [rule, None])
        cache.probe_block(keys_of((7,)))  # 8 is now the LRU entry
        cache.resize(8)
        rule_ids, priorities, mask = cache.probe_block(keys_of((7,), (8,)))
        assert mask.all()
        assert (rule_ids[0], priorities[0]) == (9, 1) and rule_ids[1] == -1
        # The combined probe gave both entries the same LRU tick; re-touch
        # (7,) alone so (8,) is strictly the LRU tail before the fill.
        cache.probe_block(keys_of((7,)))
        # Fill 7 fresh entries: the lone eviction must be the old LRU tail,
        # proving last-used clocks survived the array rebuild.
        fill(cache, keys_of(*[(i,) for i in range(10, 17)]), [None] * 7)
        mask = probe_mask(cache, keys_of((7,), (8,)))
        assert list(mask) == [True, False]

    def test_resize_to_zero_disables_and_back(self):
        cache = FlowCache(4, num_fields=1)
        fill(cache, keys_of((1,)), [None])
        assert cache.resize(0) == 1
        mask = probe_mask(cache, keys_of((1,)))
        assert not mask.any()
        cache.resize(4)
        fill(cache, keys_of((1,)), [None])
        mask = probe_mask(cache, keys_of((1,)))
        assert mask.all()

    def test_resize_rejects_negative_and_noops_on_same_capacity(self):
        cache = FlowCache(4, num_fields=1)
        with pytest.raises(ValueError):
            cache.resize(-1)
        assert cache.resize(4) == 0

    def test_take_hit_window_drains_without_touching_stats(self):
        cache = FlowCache(4, num_fields=1)
        fill(cache, keys_of((1,)), [None])
        cache.probe_block(keys_of((1,), (2,)))  # one hit, one miss
        assert cache.take_hit_window() == (1, 1)
        assert cache.take_hit_window() == (0, 0)  # drained
        cache.probe_block(keys_of((1,)))
        assert cache.take_hit_window() == (1, 0)
        # Aggregate counters keep the full history.
        assert cache.stats.hits == 2 and cache.stats.misses == 1


class TestCachedEngine:
    @pytest.fixture(scope="class")
    def engine(self, acl_small):
        return ClassificationEngine.build(acl_small, classifier="tm")

    def test_matches_identical_to_uncached(self, acl_small, engine):
        cached = CachedEngine(engine, capacity=256)
        trace = generate_zipf_trace(acl_small, 1500, top3_share=95, seed=3)
        packets = list(trace)
        expected = engine.classify_batch(packets)
        # Two passes: the second is served mostly from the cache.
        for _ in range(2):
            actual = cached.classify_batch(packets)
            for exp, act in zip(expected, actual):
                exp_key = exp.rule and (exp.rule.priority, exp.rule.rule_id)
                act_key = act.rule and (act.rule.priority, act.rule.rule_id)
                assert exp_key == act_key
        assert cached.hit_rate() > 0.0

    def test_hit_results_carry_cache_trace(self, acl_small, engine):
        cached = CachedEngine(engine, capacity=64)
        packet = acl_small.sample_packets(1, seed=5)[0]
        first = cached.classify_traced(packet)
        second = cached.classify_traced(packet)
        assert second.rule == first.rule
        assert second.trace.hash_ops == 1 and second.trace.index_accesses == 1
        assert second.trace is not first.trace

    def test_replay_batches_and_statistics(self, acl_small, engine):
        from repro.workloads import replay_trace

        cached = CachedEngine(engine, capacity=128)
        trace = generate_zipf_trace(acl_small, 600, top3_share=95, seed=8)
        assert replay_trace(cached, trace, batch_size=50).matched > 0
        stats = cached.statistics()
        assert stats["name"] == "cached"
        assert stats["cache"]["capacity"] == 128
        assert stats["engine"]["name"] == "tm"

    def test_capacity_bound_holds_under_serving(self, acl_small, engine):
        cached = CachedEngine(engine, capacity=32)
        trace = generate_zipf_trace(acl_small, 800, top3_share=80, seed=2)
        packets = list(trace)
        for start in range(0, len(packets), 64):
            cached.classify_batch(packets[start : start + 64])
            assert len(cached.cache) <= 32

    def test_sharded_updates_invalidate_through_queue(self, acl_small):
        with ShardedEngine.build(
            acl_small,
            shards=2,
            classifier="tm",
            executor="serial",
            background_retraining=False,
        ) as sharded:
            cached = CachedEngine(sharded, capacity=256)
            packet = acl_small.sample_packets(1, seed=11)[0]
            winner = cached.classify(packet)
            assert winner is not None
            # Update through the *wrapped* engine: the queue listener must
            # still evict before the remove call returns.
            assert sharded.remove(winner.rule_id)
            after = cached.classify(packet)
            assert after is None or after.rule_id != winner.rule_id

    def test_close_unregisters_queue_listener(self, acl_small):
        with ShardedEngine.build(
            acl_small,
            shards=2,
            classifier="tm",
            executor="serial",
            background_retraining=False,
        ) as sharded:
            cached = CachedEngine(sharded, capacity=64)
            packet = acl_small.sample_packets(1, seed=17)[0]
            cached.classify(packet)
            cached.close()
            before = cached.cache.stats.invalidations
            winner = sharded.classify(packet)
            if winner is not None:
                sharded.remove(winner.rule_id)
            # The closed wrapper's cache no longer receives invalidations.
            assert cached.cache.stats.invalidations == before

    def test_plain_engine_insert_invalidates_inline(self, acl_small):
        engine = ClassificationEngine.build(acl_small, classifier="tm")
        cached = CachedEngine(engine, capacity=256)
        # Pick a packet whose winner can be beaten by a priority-0 override.
        packet = next(
            p
            for p in acl_small.sample_packets(50, seed=13)
            if (winner := engine.classify(p)) is not None and winner.priority > 0
        )
        before = cached.classify(packet)
        assert before is not None and before.priority > 0
        override = rule_over(tuple(packet), priority=0, rule_id=50_000)
        cached.insert(override)
        after = cached.classify(packet)
        assert after is not None and after.priority == 0
