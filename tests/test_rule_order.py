"""One rule order under ties: ``(priority, rule_id)`` everywhere.

The rule-set is fw1/400 (seed 1) with ten rules per priority level
(priority = position // 40) and ids running opposite to position, so that the
lower id of two tied rules is always the later one.  Under those ties every
classifier, its scalar reference, the engine overlay, a rebuild, the shard
merge and the flow cache must give exactly the rule that linear search in
``(priority, rule_id)`` order gives (``_helpers.linear_keys``), on 1500
uniform packets (seed 2).
"""

import numpy as np
import pytest

from repro.classifiers import build_classifier
from repro.classifiers.base import TRACE_FIELDS
from repro.engine import ClassificationEngine
from repro.serving import CachedEngine, ShardedEngine
from repro.traffic import generate_uniform_trace

from _helpers import (
    block_keys,
    block_of,
    fast_nm_config,
    linear_keys,
    scalar_arrays,
    tied_ruleset,
)

CLASSIFIERS = ("linear", "tss", "tm", "hicuts", "cs", "nc", "nm/tm", "nm/cs")

#: The classifiers the overlay/rebuild checks run on: the oracle, the bench's
#: remainder and the bench's engine.
UPDATED = ("linear", "tm", "nm/tm")


def _params(key: str) -> tuple[str, dict]:
    name, _, remainder = key.partition("/")
    if remainder:
        return name, {"remainder_classifier": remainder, "config": fast_nm_config()}
    return name, {}


def _rows_off(actual: list, expected: list) -> int:
    """How many rows differ from the linear-search answer."""
    assert len(actual) == len(expected)
    return sum(a != b for a, b in zip(actual, expected))


@pytest.fixture(scope="module")
def tied():
    return tied_ruleset()


@pytest.fixture(scope="module")
def packets(tied):
    return generate_uniform_trace(tied, 1500, seed=2).packets


@pytest.fixture(scope="module")
def expected(tied, packets):
    return linear_keys(tied.rules, packets)


@pytest.fixture(scope="module")
def built(tied):
    classifiers = {}

    def get(key):
        if key not in classifiers:
            name, params = _params(key)
            classifiers[key] = build_classifier(name, tied, **params)
        return classifiers[key]

    return get


@pytest.mark.parametrize("key", CLASSIFIERS)
def test_every_classifier_breaks_ties_by_rule_id(key, built, packets, expected):
    rule_ids, priorities = built(key).classify_block(block_of(packets))
    assert _rows_off(block_keys(rule_ids, priorities), expected) == 0


@pytest.mark.parametrize("key", CLASSIFIERS)
def test_scalar_reference_equals_the_block_path(key, built, packets):
    classifier = built(key)
    traces = np.zeros((len(packets), len(TRACE_FIELDS)), dtype=np.int64)
    rule_ids, priorities = classifier.classify_block(block_of(packets), traces=traces)
    scalar_ids, scalar_priorities, scalar_traces = scalar_arrays(classifier, packets)
    np.testing.assert_array_equal(rule_ids, scalar_ids)
    np.testing.assert_array_equal(priorities, scalar_priorities)
    np.testing.assert_array_equal(traces, scalar_traces)


def _halves(tied):
    """The even rows (built) and the odd rows (inserted online)."""
    odd = np.arange(len(tied)) % 2 == 1
    return tied.take(~odd), tied.take(odd).rules


@pytest.mark.parametrize("key", UPDATED)
def test_a_rebuild_changes_no_answer(key, tied, packets, expected):
    """Half the rules built, half inserted: the overlay answers, the rebuilt
    engine answers and linear search agree row for row."""
    name, params = _params(key)
    base, inserted = _halves(tied)
    engine = ClassificationEngine.build(base, classifier=name, **params)
    for rule in inserted:
        engine.insert(rule)
    block = block_of(packets)
    overlay = block_keys(*engine.classify_block(block))
    rebuilt = block_keys(*engine.rebuild().classify_block(block))
    assert (_rows_off(overlay, expected), _rows_off(rebuilt, expected)) == (0, 0)


@pytest.mark.parametrize("executor", ["serial", "workers"])
@pytest.mark.parametrize("key", UPDATED)
def test_a_sharded_rebuild_changes_no_answer(key, executor, tied, packets, expected):
    """The same through a 2-shard engine — the merge of tied shard winners,
    the overlays applied to worker-ring results, per-shard swaps — and a
    flow cache over it (a fill, then hits after the swaps)."""
    name, params = _params(key)
    base, inserted = _halves(tied)
    block = block_of(packets)
    sharded = ShardedEngine.build(
        base, shards=2, classifier=name, executor=executor,
        retrain_threshold=1.0, background_retraining=False, **params,
    )
    with CachedEngine(sharded, capacity=4096) as cached:
        for rule in inserted:
            cached.insert(rule)
        answers = [block_keys(*sharded.classify_block(block))]
        answers.append(block_keys(*cached.classify_block(block)))
        for shard in sharded._shards:
            shard.swap(shard.engine.rebuild())
        answers.append(block_keys(*sharded.classify_block(block)))
        answers.append(block_keys(*cached.classify_block(block)))
        assert [_rows_off(answer, expected) for answer in answers] == [0, 0, 0, 0]
