"""Property tests (hypothesis) for the flow cache.

Two invariants, over arbitrary probe/fill/evict/invalidate sequences:

* **freshness** — a classify through a :class:`~repro.serving.CachedEngine`
  never returns a stale or wrong-priority match: after any interleaving of
  lookups, inserts and removes, every answer equals linear search over the
  rules live at that instant (ordered by ``(priority, rule_id)``, the serving
  stack's total order).
* **bounded capacity** — the number of cached entries never exceeds the
  configured capacity, no matter how fills, evictions and invalidations
  interleave.

The rule/packet universe is deliberately tiny (5-tuple values in 0..7) so
flows collide, rules overlap and invalidation paths actually fire.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ClassificationEngine
from repro.rules.rule import Rule, RuleSet
from repro.serving import CachedEngine, FlowCache, ShardedEngine

VALUES = st.integers(min_value=0, max_value=7)
PACKETS = st.tuples(VALUES, VALUES, VALUES, VALUES, VALUES)
RANGES = st.tuples(
    *[st.tuples(VALUES, VALUES).map(lambda pair: tuple(sorted(pair)))] * 5
)


def linear_best(rules, packet):
    best = None
    for rule in rules:
        if rule.matches(packet) and (
            best is None
            or (rule.priority, rule.rule_id) < (best.priority, best.rule_id)
        ):
            best = rule
    return best


def result_key(rule):
    return None if rule is None else (rule.priority, rule.rule_id)


@st.composite
def initial_rules(draw, min_rules=2, max_rules=6):
    ranges = draw(st.lists(RANGES, min_size=min_rules, max_size=max_rules))
    return [
        Rule(r, priority=index, rule_id=index) for index, r in enumerate(ranges)
    ]


#: One step of a workload: probe a packet, insert a fresh rule, or remove one.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("classify"), PACKETS),
        st.tuples(st.just("insert"), RANGES),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=40)),
    ),
    min_size=1,
    max_size=25,
)


def run_workload(make_engine, rules, ops, capacity):
    """Drive ops through a cached engine, checking both invariants throughout."""
    live = {rule.rule_id: rule for rule in rules}
    engine = make_engine(RuleSet(list(rules), name="prop"))
    cached = CachedEngine(engine, capacity=capacity)
    next_priority = len(rules)
    next_id = 100
    try:
        for op, payload in ops:
            if op == "classify":
                actual = cached.classify(payload)
                expected = linear_best(live.values(), payload)
                assert result_key(actual) == result_key(expected), (
                    f"stale/wrong match for {payload}: "
                    f"{result_key(actual)} != {result_key(expected)}"
                )
            elif op == "insert":
                rule = Rule(payload, priority=next_priority, rule_id=next_id)
                next_priority += 1
                next_id += 1
                cached.insert(rule)
                live[rule.rule_id] = rule
            else:  # remove
                present = payload in live
                assert cached.remove(payload) == present
                live.pop(payload, None)
            assert len(cached.cache) <= capacity
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


@settings(max_examples=60)
@given(rules=initial_rules(), ops=OPS, capacity=st.integers(min_value=0, max_value=5))
def test_cached_engine_never_serves_stale_match(rules, ops, capacity):
    run_workload(
        lambda ruleset: ClassificationEngine.build(ruleset, classifier="tss"),
        rules,
        ops,
        capacity,
    )


@settings(max_examples=25)
@given(rules=initial_rules(min_rules=4), ops=OPS, capacity=st.integers(min_value=1, max_value=4))
def test_cached_sharded_engine_never_serves_stale_match(rules, ops, capacity):
    run_workload(
        lambda ruleset: ShardedEngine.build(
            ruleset,
            shards=2,
            classifier="linear",
            executor="serial",
            background_retraining=False,
        ),
        rules,
        ops,
        capacity,
    )


@settings(max_examples=60)
@given(
    fills=st.lists(
        st.tuples(st.lists(PACKETS, min_size=1, max_size=6), RANGES),
        min_size=1,
        max_size=10,
    ),
    capacity=st.integers(min_value=0, max_value=4),
)
def test_flowcache_capacity_bound_under_fill_and_invalidate(fills, capacity):
    """Raw FlowCache: interleaved fills and range invalidations never push the
    entry count past capacity, and the slot bookkeeping stays consistent."""
    cache = FlowCache(capacity, num_fields=5)
    for index, (packets, ranges) in enumerate(fills):
        keys = np.array(packets, dtype=np.uint64)
        cache.probe_block(keys)
        rule = Rule(ranges, priority=index, rule_id=index)
        cache.fill_block(
            keys,
            np.full(len(packets), rule.rule_id, dtype=np.int64),
            np.full(len(packets), rule.priority, dtype=np.int64),
        )
        assert len(cache) <= capacity
        if index % 2 == 1:
            cache.invalidate_insert(rule)
            # Everything inside the rule's ranges is gone now.
            _ids, _priorities, mask = cache.probe_block(keys)
            for row, packet in enumerate(packets):
                if rule.matches(packet):
                    assert not mask[row]
        assert len(cache) <= capacity
    stats = cache.stats
    assert stats.insertions - stats.evictions - stats.invalidations == len(cache)
