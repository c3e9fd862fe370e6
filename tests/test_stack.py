"""The :class:`~repro.engine.EngineStack` mixin: one object materializer.

Every stack implements only ``classify_block``; ``classify_batch`` /
``classify_traced`` / ``classify`` / ``serve`` / ``verify`` come from the
mixin.  These tests pin that the materialized results are *real*
:class:`Rule` objects (action included) through every way a rule can become
live — built, inserted into an overlay, surviving a removal, and folded in by
a sharded retrain swap — on every stack.  They also pin that every stack takes
``insert``/``remove`` for every registered classifier, through one validation
point (the engine that owns the overlay).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.classifiers import available_classifiers
from repro.engine import ClassificationEngine, EngineStack
from repro.rules.rule import Rule
from repro.serving import CachedEngine, ShardedEngine

from _helpers import block_of, fast_nm_config, scalar_arrays

STACKS = ("plain", "sharded-serial", "sharded-workers", "cached-plain", "cached-sharded")


def _build(kind: str, ruleset, retrain_threshold: float = 1.0, classifier: str = "tm"):
    params = {"classifier": classifier}
    if classifier == "nm":
        params.update(remainder_classifier="tm", config=fast_nm_config())

    def sharded(executor):
        return ShardedEngine.build(
            ruleset,
            shards=2,
            executor=executor,
            background_retraining=False,
            retrain_threshold=retrain_threshold,
            **params,
        )

    if kind == "plain":
        return ClassificationEngine.build(ruleset, **params)
    if kind == "sharded-serial":
        return sharded("serial")
    if kind == "sharded-workers":
        return sharded("workers")
    if kind == "cached-plain":
        return CachedEngine(ClassificationEngine.build(ruleset, **params), capacity=64)
    return CachedEngine(sharded("serial"), capacity=64)


def _pin(packet, priority, rule_id, action):
    """An exact-match rule over one packet."""
    return Rule(
        tuple((int(v), int(v)) for v in packet),
        priority=priority,
        action=action,
        rule_id=rule_id,
    )


def _beatable_packets(ruleset, count, seed):
    """Sampled packets whose winner a priority-0 pin beats outright."""
    return [
        packet
        for packet in ruleset.sample_packets(count, seed=seed)
        if ruleset.match(packet).priority > 0
    ]


@pytest.mark.parametrize("kind", STACKS)
def test_classify_batch_materializes_real_rules(kind, acl_small):
    packets = _beatable_packets(acl_small, 40, seed=7)
    by_id = {rule.rule_id: rule for rule in acl_small}
    with _build(kind, acl_small) as stack:
        assert isinstance(stack, EngineStack)
        # Base rules: full Rule objects equal to the rule-set's, action included.
        results = stack.classify_batch(packets)
        for result in results:
            assert isinstance(result.rule, Rule)
            assert result.rule == by_id[result.rule.rule_id]
            assert result.action == by_id[result.rule.rule_id].action
        # An inserted rule is materialized as given, out of the overlay.
        pinned = _pin(packets[0], priority=0, rule_id=700_001, action="pinned")
        stack.insert(pinned)
        result = stack.classify_traced(packets[0])
        assert result.rule is pinned and result.action == "pinned"
        assert stack.classify(packets[0]) is pinned
        # After a remove the packet falls back to a real base rule again.
        assert stack.remove(700_001)
        fallback = stack.classify(packets[0])
        assert fallback == by_id[fallback.rule_id]
        # A 2-d block is accepted in place of a packet list.
        block_results = stack.classify_batch(block_of(packets))
        assert [r.rule for r in block_results] == [
            r.rule for r in stack.classify_batch(packets)
        ]
        assert stack.classify_batch([]) == []


@pytest.mark.parametrize("executor", ["serial", "workers"])
def test_materializer_follows_a_sharded_retrain_swap(executor, acl_small):
    packets = _beatable_packets(acl_small, 30, seed=9)
    with ShardedEngine.build(
        acl_small,
        shards=2,
        classifier="linear",
        executor=executor,
        background_retraining=False,
        retrain_threshold=0.05,
    ) as sharded:
        sharded.classify_batch(packets)  # resolve the id map at generation 0
        pins = [
            _pin(packet, priority=0, rule_id=710_000 + row, action=f"pin-{row}")
            for row, packet in enumerate(packets)
        ]
        for pin in pins:
            sharded.insert(pin)
        assert sharded.updates.retrains_completed > 0
        assert any(shard.generation > 0 for shard in sharded._shards)
        # Folded into the rebuilt engines or still in the overlay: either way
        # the materialized winner is the inserted rule, action intact.
        for pin, result in zip(pins, sharded.classify_batch(packets)):
            assert result.rule.rule_id == pin.rule_id
            assert result.action == pin.action


@pytest.mark.parametrize("executor", ["serial", "workers"])
def test_an_overlay_insert_keeps_its_rank_across_a_retrain(executor, acl_small):
    """Priority 0 — the best an online insert may carry — means the same in
    the overlay and in the rebuilt rule-set: the block's answers do not move
    when the inline retrain folds the rule in and swaps."""
    block = block_of(_beatable_packets(acl_small, 40, seed=19))
    wide = Rule(
        tuple(spec.full_range() for spec in acl_small.schema),
        priority=0,
        rule_id=750_000,
    )
    with _build(f"sharded-{executor}", acl_small) as sharded:
        sharded.insert(wide)
        before = sharded.classify_block(block)
        assert (before[0] == wide.rule_id).all()
        assert sharded.updates.retrains_completed == 0
        # The same rule again: an update on its owning shard that changes no
        # answer and, with the threshold at zero, retrains that shard inline.
        sharded.updates.retrain_threshold = 0.0
        sharded.insert(wide)
        assert sharded.updates.retrains_completed == 1
        owner = sharded._shards[sharded.updates.owner_of(wide.rule_id)]
        assert owner.engine.update_statistics()["overlay_inserted"] == 0  # folded
        np.testing.assert_array_equal(sharded.classify_block(block), before)
        assert sharded.verify(block.tolist()) == len(block)


def test_materialized_traces_are_the_block_trace_rows(acl_small):
    engine = ClassificationEngine.build(acl_small, classifier="tm")
    packets = acl_small.sample_packets(25, seed=11)
    _ids, _pris, expected = scalar_arrays(engine.classifier, packets)
    results = engine.classify_batch(packets)
    actual = np.array(
        [
            [
                r.trace.index_accesses,
                r.trace.rule_accesses,
                r.trace.model_accesses,
                r.trace.compute_ops,
                r.trace.hash_ops,
            ]
            for r in results
        ]
    )
    np.testing.assert_array_equal(actual, expected)
    assert results[0].trace is not results[1].trace


@pytest.mark.parametrize("kind", ["plain", "sharded-serial", "cached-sharded"])
def test_verify_checks_the_stack_against_its_live_rules(kind, acl_small, monkeypatch):
    packets = acl_small.sample_packets(30, seed=13)
    with _build(kind, acl_small) as stack:
        stack.insert(_pin(packets[0], priority=0, rule_id=720_000, action="pinned"))
        assert stack.verify(packets) == len(packets)
        real = stack.classify_block

        def lossy(block, traces=None):
            rule_ids, priorities = real(block, traces=traces)
            rule_ids[0], priorities[0] = -1, 0  # drop the first row's match
            return rule_ids, priorities

        monkeypatch.setattr(stack, "classify_block", lossy)
        with pytest.raises(AssertionError, match="mismatch"):
            stack.verify(packets)


@pytest.mark.parametrize("kind", ["plain", "cached-plain", "sharded-serial", "sharded-workers"])
@pytest.mark.parametrize("name", available_classifiers())
def test_every_stack_takes_updates_for_every_classifier(name, kind, acl_small):
    """insert (new id, same id) / remove (built winner, inserted rule) on every
    stack over every registered classifier; linear search over the live rules
    agrees after every step."""
    packets = _beatable_packets(acl_small, 24, seed=15)
    victim = acl_small.match(packets[1])
    with _build(kind, acl_small, classifier=name) as stack:
        steps = [
            lambda: stack.insert(_pin(packets[0], 0, 730_000, "pinned")),
            lambda: stack.remove(victim.rule_id),
            lambda: stack.insert(_pin(packets[2], 0, 730_000, "moved")),
            lambda: stack.insert(
                Rule(victim.ranges, victim.priority, "back", victim.rule_id)
            ),
            lambda: stack.remove(730_000),
        ]
        assert stack.verify(packets) == len(packets)
        for step in steps:
            assert step() is not False
            assert stack.verify(packets) == len(packets)
        assert stack.classify(packets[1]).action == "back"
        assert not stack.remove(730_000)


@pytest.mark.parametrize("kind", STACKS)
def test_every_stack_rejects_a_rule_it_cannot_keep(kind, acl_small):
    """One validation point: the engine that owns the overlay.  A rule
    outside the schema is refused, and so is a negative priority — ``RuleSet``
    rewrites it to the rule's position, so the rule would win every lookup
    from the overlay and drop to last place when a rebuild folds it in."""
    packets = acl_small.sample_packets(20, seed=17)
    two_fields = Rule(((0, 10), (0, 10)), priority=0, rule_id=740_000)
    too_wide = Rule(
        ((0, 2**40),) + tuple(spec.full_range() for spec in acl_small.schema)[1:],
        priority=0,
        rule_id=740_001,
    )
    negative = Rule(
        tuple(spec.full_range() for spec in acl_small.schema),
        priority=-10,
        rule_id=740_002,
    )
    rejected = (
        (two_fields, "expected 5 ranges"),
        (too_wide, "outside"),
        (negative, "negative priority"),
    )
    block = block_of(packets)
    with _build(kind, acl_small) as stack:
        before = stack.classify_block(block)
        live = set(stack.rules_by_id())
        for bad, message in rejected:
            with pytest.raises(ValueError, match=message):
                stack.insert(bad)
        # Nothing changed: no rule, no overlay entry, no cache invalidation.
        assert set(stack.rules_by_id(refresh=True)) == live
        np.testing.assert_array_equal(stack.classify_block(block), before)
        stats = stack.statistics()
        if isinstance(stack, CachedEngine):
            assert stats["cache"]["invalidations"] == 0
            stats = stats["engine"]
        if "updates" in stats:
            assert stats["updates"]["inserts_applied"] == 0
            assert not any(shard["overlay_inserted"] for shard in stats["shards"])
        else:
            assert stats["overlay_inserted"] == 0
