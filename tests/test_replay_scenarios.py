"""Scenario-matrix regression suite for the trace-replay serving stack.

Every cell of {uniform, zipf-95, caida-like} × {cached, uncached} × {1, 4
shards} replays a generated trace (§5.1.1 regimes) through the corresponding
engine configuration and checks each packet's match against linear-search
ground truth — including while rules are inserted and removed between batches.
The ordering pin for the update path (eviction-before-ack: a remove followed
immediately by a classify must never serve the removed rule from the cache)
has its own regression tests at the bottom.
"""

from __future__ import annotations

import itertools

import pytest

from repro.engine import ClassificationEngine
from repro.rules.rule import Rule
from repro.serving import CachedEngine, ShardedEngine
from repro.workloads import build_scenario_engine, make_trace, replay_trace

#: {trace kind} × {uncached, cached} × {1 shard, 4 shards}.
MATRIX = list(itertools.product(["uniform", "zipf", "caida"], [0, 256], [1, 4]))

TRACE_PACKETS = 600
BATCH = 64


def ground_truth(rules, packet):
    """Linear search with the serving stack's total order (priority, rule_id)."""
    best = None
    for rule in rules:
        if rule.matches(packet) and (
            best is None or (rule.priority, rule.rule_id) < (best.priority, best.rule_id)
        ):
            best = rule
    return best


def result_key(rule):
    return None if rule is None else (rule.priority, rule.rule_id)


def assert_matches_ground_truth(rules, packets, results):
    cache: dict[tuple, tuple] = {}
    for packet, result in zip(packets, results):
        values = tuple(packet)
        if values not in cache:
            cache[values] = result_key(ground_truth(rules, packet))
        assert result_key(result.rule) == cache[values], (
            f"packet {values}: expected {cache[values]}, "
            f"got {result_key(result.rule)}"
        )


@pytest.fixture(scope="module")
def matrix_rules():
    from repro.rules import generate_classbench

    return generate_classbench("acl1", 400, seed=13)


@pytest.mark.parametrize("trace_kind,cache_size,shards", MATRIX)
def test_scenario_matrix_matches_linear_search(
    matrix_rules, trace_kind, cache_size, shards
):
    trace = make_trace(trace_kind, matrix_rules, TRACE_PACKETS, seed=3, skew=95)
    engine = build_scenario_engine(
        matrix_rules,
        shards=shards,
        cache_size=cache_size,
        classifier="tm",
        executor="serial",
        background_retraining=False,
    )
    try:
        packets = list(trace)
        results = []
        for start in range(0, len(packets), BATCH):
            results.extend(engine.classify_batch(packets[start : start + BATCH]))
        assert len(results) == len(packets)
        assert_matches_ground_truth(matrix_rules.rules, packets, results)
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


@pytest.mark.parametrize("cache_size,shards", [(256, 1), (256, 4), (0, 4)])
def test_scenario_matrix_with_interleaved_updates(matrix_rules, cache_size, shards):
    """Replay in batches with inserts/removes between them; every batch must
    match linear search over the rules live at that moment."""
    trace = make_trace("zipf", matrix_rules, TRACE_PACKETS, seed=5, skew=95)
    engine = build_scenario_engine(
        matrix_rules,
        shards=shards,
        cache_size=cache_size,
        classifier="tm",
        executor="serial",
        background_retraining=False,
    )
    try:
        live = {rule.rule_id: rule for rule in matrix_rules}
        packets = list(trace)
        next_id = 100_000
        for step, start in enumerate(range(0, len(packets), BATCH)):
            chunk = packets[start : start + BATCH]
            results = engine.classify_batch(chunk)
            assert_matches_ground_truth(list(live.values()), chunk, results)
            if step % 2 == 0:
                # Insert a top-priority rule pinning this batch's first packet:
                # the next batch must route those packets to it.
                values = tuple(chunk[0])
                rule = Rule(
                    tuple((v, v) for v in values), priority=0, rule_id=next_id
                )
                engine.insert(rule)
                live[rule.rule_id] = rule
                next_id += 1
            else:
                # Remove the winner the batch just observed (if any).
                winner = next(
                    (res.rule for res in results if res.rule is not None), None
                )
                if winner is not None:
                    assert engine.remove(winner.rule_id)
                    del live[winner.rule_id]
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


def test_replay_trace_reports_cached_and_uncached_consistently(matrix_rules):
    trace = make_trace("zipf", matrix_rules, TRACE_PACKETS, seed=7, skew=95)
    uncached = build_scenario_engine(matrix_rules, shards=1, classifier="tm")
    cached = build_scenario_engine(
        matrix_rules, shards=1, cache_size=512, classifier="tm"
    )
    r_uncached = replay_trace(uncached, trace, batch_size=BATCH)
    r_cached = replay_trace(cached, trace, batch_size=BATCH)
    assert r_uncached.matched == r_cached.matched
    assert r_uncached.hit_rate == 0.0
    assert r_cached.hit_rate > 0.5
    assert r_cached.cache_size == 512
    for report in (r_uncached, r_cached):
        assert report.packets == TRACE_PACKETS
        assert report.throughput_pps > 0
        assert report.latency_p99_ns >= report.latency_p50_ns > 0
        assert report.modelled_latency_ns > 0
    # The cache-aware model prices hits below the slow path.
    assert r_cached.modelled_latency_ns < r_uncached.modelled_latency_ns


def test_replay_always_drives_blocks_and_defaults_to_serial(matrix_rules, monkeypatch):
    """``replay_trace`` has one data path (``classify_block``; the
    ``columnar=`` knob is gone) and the scenario builders default the sharded
    executor to the in-process one."""
    import inspect

    from repro.workloads import run_scenario

    assert "columnar" not in inspect.signature(replay_trace).parameters
    assert "columnar" not in inspect.signature(run_scenario).parameters
    for builder in (build_scenario_engine, run_scenario):
        assert inspect.signature(builder).parameters["executor"].default == "serial"
    with build_scenario_engine(matrix_rules, shards=2, classifier="tm") as engine:
        assert engine.executor == "serial"
        monkeypatch.setattr(
            engine, "classify_batch", lambda packets: pytest.fail("object path used")
        )
        trace = make_trace("uniform", matrix_rules, 200, seed=11)
        report = replay_trace(engine, trace, batch_size=BATCH)
    assert report.matched == report.packets == 200
    assert "columnar" not in report.as_dict()
    # The modelled number prices the same blocks: sharded per-shard traces.
    assert report.modelled_latency_ns > 0


def test_replay_cache_stats_are_windowed_per_replay(matrix_rules):
    """Replaying twice on one warm engine: the second report's counters cover
    only the second replay, and its embedded cache dict agrees with the
    top-level hit rate (no lifetime/window mix in one payload)."""
    trace = make_trace("zipf", matrix_rules, TRACE_PACKETS, seed=9, skew=95)
    engine = build_scenario_engine(
        matrix_rules, shards=1, cache_size=512, classifier="tm"
    )
    first = replay_trace(engine, trace, batch_size=BATCH)
    second = replay_trace(engine, trace, batch_size=BATCH)
    assert second.cache["hits"] + second.cache["misses"] == TRACE_PACKETS
    assert second.cache["hit_rate"] == pytest.approx(second.hit_rate)
    # The cache is warm on the second pass, so it hits strictly more.
    assert second.hit_rate > first.hit_rate


class TestEvictionBeforeAck:
    """Regression pins for the UpdateQueue consistency contract (§3.9 +
    flowcache docs): remove/insert must evict stale cached results before the
    update call returns."""

    def test_remove_then_classify_never_serves_removed_rule(self, matrix_rules):
        with ShardedEngine.build(
            matrix_rules,
            shards=2,
            classifier="tm",
            executor="serial",
            background_retraining=False,
        ) as sharded:
            cached = CachedEngine(sharded, capacity=1024)
            packets = matrix_rules.sample_packets(64, seed=21)
            cached.classify_batch(packets)  # warm the cache
            for packet in packets:
                winner = cached.classify(packet)
                if winner is None:
                    continue
                assert sharded.remove(winner.rule_id)
                # Immediately after the ack: the removed rule must be gone,
                # even though the pre-remove classify cached it.
                after = cached.classify(packet)
                assert result_key(after) != result_key(winner)

    def test_insert_then_classify_sees_new_rule(self, matrix_rules):
        engine = ClassificationEngine.build(matrix_rules, classifier="tm")
        cached = CachedEngine(engine, capacity=1024)
        packet = next(
            p
            for p in matrix_rules.sample_packets(50, seed=23)
            if (w := engine.classify(p)) is not None and w.priority > 0
        )
        cached.classify(packet)  # cache the old winner
        override = Rule(
            tuple((v, v) for v in tuple(packet)), priority=0, rule_id=200_000
        )
        cached.insert(override)
        after = cached.classify(packet)
        assert after is not None and after.priority == 0

    def test_listener_fires_before_remove_returns(self, matrix_rules):
        """The ordering itself: by the time remove() returns, the queue has
        already notified its listeners (eviction precedes the ack)."""
        events: list[tuple[str, object]] = []
        with ShardedEngine.build(
            matrix_rules,
            shards=2,
            classifier="tm",
            executor="serial",
            background_retraining=False,
        ) as sharded:
            sharded.updates.add_listener(lambda op, payload: events.append((op, payload)))
            rule_id = matrix_rules.rules[0].rule_id
            assert sharded.remove(rule_id)
            assert events == [("remove", rule_id)]
            new_rule = Rule(
                tuple(matrix_rules.rules[0].ranges), priority=1, rule_id=300_000
            )
            sharded.insert(new_rule)
            assert events[-1][0] == "insert" and events[-1][1].rule_id == 300_000
