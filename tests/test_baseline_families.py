"""One implementation per baseline family, and the parent's numbers from it.

``tss``/``tm`` are placement policies over one ``TupleHashClassifier`` and
``hicuts``/``cs``/``nc`` grouping + node policies over one
``ForestClassifier``.  :data:`PARENT` was recorded at the commit before the
two families were folded (62bcdc0), where every baseline carried its own copy
of the tables/trees, the probe order and the §4 early-termination loop: for
acl1/1000 (seed 1) and a 1500-packet uniform trace (seed 2), the sha256 over
``rule_ids ‖ priorities ‖ traces`` of ``classify_block(block, traces=)`` and
of ``classify_block_with_floors`` with floors alternating ``NO_FLOOR``/300,
plus each baseline's ``statistics()`` and ``memory_footprint()``.  This build
must reproduce every digest and number; ``statistics()`` may gain keys.
"""

import hashlib

import numpy as np
import pytest

from repro.classifiers import build_classifier
from repro.classifiers.base import NO_FLOOR, TRACE_FIELDS
from repro.rules import generate_classbench
from repro.traffic import generate_uniform_trace

from _helpers import block_of, fast_nm_config

BASELINES = ("tss", "tm", "hicuts", "cs", "nc")

PARENT = {
    "tss": {
        "block": "dce7f2fb52219c2d566fb512d89da7d4ca78b7a00ae690df12069f48c429e3de",
        "floored": "0ee35733051e3fbcdf535b380d2972aade28a48c3c1e30b0237596161e910507",
        "index_bytes": 39040,
        "rule_bytes": 48000,
        "statistics": {
            "index_bytes": 39040,
            "max_bucket": 1,
            "name": "tss",
            "num_rules": 1000,
            "num_tables": 110,
            "rule_bytes": 48000,
        },
    },
    "tm": {
        "block": "77b5a81bccba439b6bee8910e36049ebef71a596de9f10c352be9bd4ec0783e1",
        "floored": "f30fc7cf0060ed8ce611236cc0ae518bfb0642ee73163375a1433d454ac049e9",
        "index_bytes": 32976,
        "rule_bytes": 48000,
        "statistics": {
            "collision_limit": 40,
            "index_bytes": 32976,
            "max_bucket": 2,
            "name": "tm",
            "num_rules": 1000,
            "num_tables": 17,
            "rule_bytes": 48000,
        },
    },
    "hicuts": {
        "block": "9c6140c5327e0ac38c10057d38816a42beff90e49a7574804e45147c109f2bc4",
        "floored": "6ce9c865ea28a0b1d3120080cbc2b149ca53ecd93383f46d0e522a6432923a03",
        "index_bytes": 47648,
        "rule_bytes": 48000,
        "statistics": {
            "index_bytes": 47648,
            "leaf_rule_slots": 2876,
            "max_depth": 10,
            "name": "hicuts",
            "num_leaves": 784,
            "num_nodes": 1027,
            "num_rules": 1000,
            "replication": 2.876,
            "rule_bytes": 48000,
        },
    },
    "cs": {
        "block": "22190f1b1156070f072ad1038b16ddb52eb8eefc0fb9773d4410b966d3d3337b",
        "floored": "b4702cde13cca8abc1084187c51203b459ae42306b9414d74ba4dabbae6170ac",
        "index_bytes": 15112,
        "rule_bytes": 48000,
        "statistics": {
            "group_keys": [[0, 1], [1], [0], []],
            "index_bytes": 15112,
            "leaf_rule_slots": 1011,
            "max_depth": 6,
            "name": "cs",
            "num_nodes": 294,
            "num_rules": 1000,
            "num_trees": 4,
            "replication": 1.011,
            "rule_bytes": 48000,
        },
    },
    "nc": {
        "block": "7f28529272ccf01c180040750975c22535dd66f3df9cf4a5e8f9c796cd620b2c",
        "floored": "fe4d5744ea724f9824ff755af156355b5b2c3c25e99ed2c3b94dc9770c7a6c4a",
        "index_bytes": 22888,
        "rule_bytes": 48000,
        "statistics": {
            "index_bytes": 22888,
            "leaf_rule_slots": 1003,
            "max_depth": 9,
            "name": "nc",
            "num_nodes": 625,
            "num_rules": 1000,
            "num_trees": 17,
            "objective": "memory",
            "replication": 1.003,
            "rule_bytes": 48000,
        },
    },
    "nm/tm": {
        "block": "3926e8ac5de6f9f562d57ea73c5efe3301774b6f0897fc60f3a2d94b83b59a25",
        "floored": "3926e8ac5de6f9f562d57ea73c5efe3301774b6f0897fc60f3a2d94b83b59a25",
    },
    "nm/cs": {
        "block": "2326efb29109d94b1e083f36f9851040c0f1fa185995ee9dcb5608118fe345eb",
        "floored": "2326efb29109d94b1e083f36f9851040c0f1fa185995ee9dcb5608118fe345eb",
    },
    "nm/nc": {
        "block": "4b4c36d80a5b5c1a89d8b87ed19421cb9d3e6e16e3d4f70ab264dffcfcec2e36",
        "floored": "4b4c36d80a5b5c1a89d8b87ed19421cb9d3e6e16e3d4f70ab264dffcfcec2e36",
    },
}


@pytest.fixture(scope="module")
def rules():
    return generate_classbench("acl1", 1000, seed=1)


@pytest.fixture(scope="module")
def block(rules):
    return block_of(generate_uniform_trace(rules, 1500, seed=2).packets)


def _build(key, rules):
    name, _, remainder = key.partition("/")
    params = (
        {"remainder_classifier": remainder, "config": fast_nm_config()}
        if remainder
        else {}
    )
    return build_classifier(name, rules, **params)


def _digest(rule_ids, priorities, traces) -> str:
    digest = hashlib.sha256()
    for array in (rule_ids, priorities, traces):
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()


class TestSameNumbersAsTheParent:
    @pytest.mark.parametrize("key", list(PARENT))
    def test_block_lookups_reproduce_the_parent_digests(self, key, rules, block):
        expected, classifier = PARENT[key], _build(key, rules)
        traces = np.zeros((len(block), len(TRACE_FIELDS)), dtype=np.int64)
        rule_ids, priorities = classifier.classify_block(block, traces=traces)
        assert _digest(rule_ids, priorities, traces) == expected["block"]

        floors = np.where(np.arange(len(block)) % 2 == 0, NO_FLOOR, 300)
        traces = np.zeros((len(block), len(TRACE_FIELDS)), dtype=np.int64)
        rule_ids, priorities = classifier.classify_block_with_floors(
            block, floors.astype(np.int64), traces=traces
        )
        assert _digest(rule_ids, priorities, traces) == expected["floored"]

    @pytest.mark.parametrize("name", BASELINES)
    def test_reports_reproduce_the_parent_numbers(self, name, rules):
        expected, classifier = PARENT[name], _build(name, rules)
        footprint = classifier.memory_footprint()
        assert footprint.index_bytes == expected["index_bytes"]
        assert footprint.rule_bytes == expected["rule_bytes"]
        statistics = classifier.statistics()
        assert {key: statistics[key] for key in expected["statistics"]} == (
            expected["statistics"]
        )


@pytest.mark.parametrize("name", BASELINES)
def test_columnar_floored_lookup_equals_the_scalar_reference(name, rules, block):
    """``classify_block_with_floors`` equals ``classify_with_floor`` row for
    row, counters included — for no floors at all, ``NO_FLOOR``, a floor
    nothing can beat (0) and a mid priority."""
    classifier = build_classifier(name, rules)
    block = block[:400]
    n = len(block)
    for floor in (None, NO_FLOOR, 0, 300):
        floors = None if floor is None else np.full(n, floor, dtype=np.int64)
        traces = np.zeros((n, len(TRACE_FIELDS)), dtype=np.int64)
        rule_ids, priorities = classifier.classify_block_with_floors(
            block, floors, traces=traces
        )
        scalar_floor = None if floor in (None, NO_FLOOR) else floor
        for row in range(n):
            result = classifier.classify_with_floor(
                tuple(int(value) for value in block[row]), scalar_floor
            )
            expected = (
                (-1, 0) if result.rule is None
                else (result.rule.rule_id, result.rule.priority)
            )
            assert (rule_ids[row], priorities[row]) == expected
            assert list(traces[row]) == [
                getattr(result.trace, field) for field in TRACE_FIELDS
            ]
