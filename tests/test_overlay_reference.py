"""The update overlay against its frozen reference.

``ClassificationEngine.adjust_block`` serves the overlay as a remainder:
``LinearSearchClassifier``'s floored kernel over the inserted rules, with the
built answer as the floor, and the same kernel over the live built rules for
a row whose built winner is masked.  ``_scalar_reference.adjust_block`` is
the pass it replaced (two broadcasting containment scans).  Under random
update sequences — fresh inserts, removes of overlay-only ids and of built
winners, in-place modifies of built ids, and a rebuild whose engine takes
over the updates that arrived meanwhile — both passes must give the same
rule id and priority on every row of every shard, on a plain engine and on a
sharded one (serial and workers executors).

Trace columns must equal the reference too, except on rows whose built
winner was masked: the reference charged those a scan of every live built
rule, the kernel charges linear search's first-match count.  Those rows are
checked against ``LinearSearchClassifier`` over the live built rules.

The engine caches the overlay's classifiers and remakes them after an
update; a stress test checks that concurrent readers never leave a cache
older than the last update in place.
"""

import random
import sys
import threading

import numpy as np
import pytest

from repro.classifiers.base import TRACE_FIELDS
from repro.classifiers.linear import LinearSearchClassifier
from repro.engine import ClassificationEngine
from repro.rules.rule import Rule, RuleSet
from repro.serving import ShardedEngine
from repro.traffic import generate_uniform_trace

import _scalar_reference
from _helpers import block_of, tied_ruleset

#: Update steps per sequence, and the steps at which a rebuild snapshots the
#: live rules and at which the rebuilt engine takes over.
STEPS, SNAPSHOT, SWAP = 24, 10, 14

#: Ids of rules the sequences insert fresh.
FRESH = 1_000_000


@pytest.fixture(scope="module", params=["acl1", "ties"])
def ruleset(request, acl_small):
    """The tie set, or acl1 with every rule repeated below the lowest
    priority: acl1 rules barely overlap, and the copies give a masked winner
    a runner-up that is not the last live rule."""
    if request.param == "ties":
        return tied_ruleset()
    copies = RuleSet.from_columns(
        acl_small.lo, acl_small.hi, acl_small.priority + len(acl_small),
        acl_small.rule_id + len(acl_small), acl_small.actions, acl_small.schema,
    )
    return RuleSet.concat([acl_small, copies], name="acl1-doubled")


def _stack(kind, ruleset):
    if kind == "plain":
        return ClassificationEngine.build(ruleset, classifier="tm")
    return ShardedEngine.build(
        ruleset, shards=2, classifier="tm", executor=kind,
        retrain_threshold=1.0, background_retraining=False,
    )


def _engines(stack):
    if isinstance(stack, ClassificationEngine):
        return [stack]
    return [shard.engine for shard in stack._shards]


def _answers(stack, block):
    """Per engine ``(rule_ids, priorities, traces)``, overlay applied."""
    if isinstance(stack, ClassificationEngine):
        traces = np.zeros((len(block), len(TRACE_FIELDS)), dtype=np.int64)
        return [(*stack.classify_block(block, traces=traces), traces)]
    return stack.classify_block_per_shard(block, want_traces=True)


def _reference(engine, block):
    """The built classifier's answer, then the frozen overlay pass; and
    which rows had a masked built winner."""
    traces = np.zeros((len(block), len(TRACE_FIELDS)), dtype=np.int64)
    rule_ids, priorities = engine.classifier.classify_block(block, traces=traces)
    masked = np.flatnonzero(np.isin(rule_ids, list(engine._removed)))
    _scalar_reference.adjust_block(engine, block, rule_ids, priorities, traces)
    return rule_ids, priorities, traces, masked


def _check(stack, block) -> int:
    """Compare every engine's rows with the reference; the number of rows
    whose built winner was masked."""
    masked_rows = 0
    answers = zip(_engines(stack), _answers(stack, block))
    for engine, (rule_ids, priorities, traces) in answers:
        ref_ids, ref_priorities, expected, masked = _reference(engine, block)
        np.testing.assert_array_equal(rule_ids, ref_ids)
        np.testing.assert_array_equal(priorities, ref_priorities)
        if masked.size:
            live = engine.ruleset.without(engine._removed)
            rescan = np.zeros((masked.size, len(TRACE_FIELDS)), dtype=np.int64)
            LinearSearchClassifier(live).classify_block(block[masked], traces=rescan)
            fields = block.shape[1]
            expected[masked, 1] += rescan[:, 1] - len(live)
            expected[masked, 3] += rescan[:, 3] - len(live) * fields
        np.testing.assert_array_equal(traces, expected)
        masked_rows += masked.size
    return masked_rows


def _update(stack, rng, source, block, fresh):
    """One random update; returns the next fresh id."""
    engines = _engines(stack)
    built_live = sorted(
        {rule_id for engine in engines for rule_id in engine.ruleset.rule_id.tolist()
         if engine.has_rule(rule_id) and rule_id not in engine._inserted}
    )
    overlay_only = sorted(
        {rule_id for engine in engines for rule_id in engine._inserted
         if rule_id not in engine.ruleset.row_of}
    )
    winners = sorted(
        {int(rule_id) for rule_id in stack.classify_block(block)[0]} & set(built_live)
    )
    top = int(source.priority.max()) + 1
    template = source[rng.randrange(len(source))]
    kinds = ["insert", "modify"] + ["drop"] * bool(overlay_only) + ["mask"] * bool(winners)
    kind = rng.choice(kinds)
    if kind == "drop":
        assert stack.remove(rng.choice(overlay_only))
    elif kind == "mask":
        assert stack.remove(rng.choice(winners))
    else:
        rule_id = fresh if kind == "insert" else rng.choice(built_live)
        stack.insert(Rule(template.ranges, rng.randrange(top), kind, rule_id))
        fresh += kind == "insert"
    return fresh


def _rebuilt(stack):
    """Rebuild every engine of ``stack`` from its live rules (not swapped in)."""
    return [engine.rebuild() for engine in _engines(stack)]


def _swap(stack, rebuilt):
    """Put the rebuilt engines in place; each takes over the updates its
    snapshot missed (``carry_overlay``)."""
    if isinstance(stack, ClassificationEngine):
        rebuilt[0].carry_overlay(stack)
        return rebuilt[0]
    for shard, engine in zip(stack._shards, rebuilt):
        shard.swap(engine)
    return stack


@pytest.mark.parametrize("kind", ["plain", "serial", "workers"])
@pytest.mark.parametrize("seed", [1, 2])
def test_the_overlay_equals_its_frozen_reference(kind, seed, ruleset):
    packets = generate_uniform_trace(ruleset, 300, seed=seed).packets
    block = block_of(packets)
    rng = random.Random(seed)
    stack = _stack(kind, ruleset)
    try:
        fresh, rebuilt, masked_rows = FRESH, None, 0
        for step in range(STEPS):
            if step == SNAPSHOT:
                rebuilt = _rebuilt(stack)
            if step == SWAP:
                stack = _swap(stack, rebuilt)
            fresh = _update(stack, rng, ruleset, block, fresh)
            masked_rows += _check(stack, block)
        assert masked_rows > 0
        assert stack.verify(packets) == len(packets)
    finally:
        stack.close()


def test_readers_leave_no_stale_overlay_behind_a_writer(ruleset):
    """Readers remake the cached overlay while a writer updates the engine
    (a shortened switch interval forces the interleavings): after every
    update the engine agrees with the reference, so no reader put back an
    overlay older than the update, and at the end with linear search."""
    packets = generate_uniform_trace(ruleset, 64, seed=3).packets
    block = block_of(packets)
    engine = _stack("plain", ruleset)
    stop, failures = threading.Event(), []

    def read():
        while not stop.is_set():
            try:
                engine.classify_block(block)
            except Exception as error:  # reported by the assertion below
                failures.append(error)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read) for _ in range(4)]
    try:
        for reader in readers:
            reader.start()
        rng, top = random.Random(3), int(ruleset.priority.max()) + 1
        for round_ in range(30):
            # Back-to-back updates, so readers remake the overlay in between.
            for rule_id in range(FRESH + 3 * round_, FRESH + 3 * round_ + 3):
                template = ruleset[rng.randrange(len(ruleset))]
                engine.insert(Rule(template.ranges, rng.randrange(top), "x", rule_id))
            engine.remove(FRESH + rng.randrange(3 * round_ + 3))
            engine.remove(int(ruleset.rule_id[rng.randrange(len(ruleset))]))
            _check(engine, block)  # a lookup after an update returns sees it
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert failures == []
    assert engine.verify(packets) == len(packets)
