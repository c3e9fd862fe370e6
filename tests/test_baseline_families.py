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

Every family's one lookup, ``classify_block_with_floors`` (linear search's
scan, the hash family's flat probe, the forest's level walk), is checked row
for row against the frozen per-packet walks in ``_scalar_reference``: ids,
priorities and all five counters, on mixed iSet floors, edge cases, the
ten-way-tie set and random small rule-sets.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.classifiers import build_classifier
from repro.classifiers.base import NO_FLOOR, TRACE_FIELDS
from repro.rules import generate_classbench
from repro.rules.fields import FIVE_TUPLE, prefix_to_range
from repro.rules.rule import Rule, RuleSet, order_key
from repro.traffic import generate_uniform_trace

import _scalar_reference as reference
from _helpers import block_of, fast_nm_config, tied_ruleset

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

        floors = np.where(np.arange(len(block)) % 2 == 0, NO_FLOOR, order_key(300, 0))
        traces = np.zeros((len(block), len(TRACE_FIELDS)), dtype=np.int64)
        if key.startswith("nm/"):
            # NuevoMatch is never a remainder, so it has no floored lookup;
            # the parent's floored path ignored the floors (the digests match).
            rule_ids, priorities = classifier.classify_block(block, traces=traces)
        else:
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


#: What the floored kernels are checked on: linear search, every baseline, and
#: TupleMerge with a collision limit low enough to force multi-rule buckets.
FLOORED = {name: (name, {}) for name in ("linear", *BASELINES)}
FLOORED["tm(collision_limit=2)"] = ("tm", {"collision_limit": 2})


def _floored(key, rules):
    name, params = FLOORED[key]
    return build_classifier(name, rules, **params)


def _assert_kernel_equals_the_reference(classifier, block, floors, start=None):
    """``classify_block_with_floors`` against the frozen scalar walk — a loop
    over ``_scalar_reference.classify_with_floor`` — on ids, priorities and
    all five counters, both accumulating into the same starting ``traces``."""
    n = len(block)
    start = np.zeros((n, len(TRACE_FIELDS)), dtype=np.int64) if start is None else start
    traces, expected_traces = start.copy(), start.copy()
    rule_ids, priorities = classifier.classify_block_with_floors(block, floors, traces=traces)
    expected_ids, expected_priorities = reference.classify_block_with_floors(
        classifier, block, floors, traces=expected_traces
    )
    np.testing.assert_array_equal(rule_ids, expected_ids)
    np.testing.assert_array_equal(priorities, expected_priorities)
    np.testing.assert_array_equal(traces, expected_traces)
    return rule_ids, traces


@pytest.fixture(scope="module")
def iset_floors(rules, block):
    """Per-row floors from a real NuevoMatch iSet pass: the iSet winner's
    key where an iSet matched, ``NO_FLOOR`` where none did."""
    nm = _build("nm/tm", rules)
    floors = np.full(len(block), NO_FLOOR, dtype=np.int64)
    for iset in nm.isets:
        iset.lookup_block(block.astype(np.int64), floors)
    return floors


@pytest.mark.parametrize("key", list(FLOORED))
def test_columnar_floored_lookup_equals_the_scalar_reference(key, rules, block, iset_floors):
    """Row for row, counters included — for no floors at all, ``NO_FLOOR``, a
    floor nothing can beat (priority 0), "strictly better than priority 300"
    and the mixed per-row floors an iSet pass hands the remainder."""
    assert (iset_floors == NO_FLOOR).any() and (iset_floors < NO_FLOOR).any()
    classifier = _floored(key, rules)
    block, n = block[:400], 400
    for floor in (None, NO_FLOOR, order_key(0, 0), order_key(300, 0)):
        floors = None if floor is None else np.full(n, floor, dtype=np.int64)
        _assert_kernel_equals_the_reference(classifier, block, floors)
    _assert_kernel_equals_the_reference(classifier, block, iset_floors[:n])


@pytest.mark.parametrize("key", list(FLOORED))
def test_floored_kernel_edge_cases(key, rules, block):
    """A 0-row and a 1-row block, an empty rule-set (zero tables, zero
    rules), and a floor of ``order_key(0, 0)`` on every row: nothing probed,
    nothing scanned, every row a miss."""
    classifier = _floored(key, rules)
    for rows in (block[:0], block[:1]):
        _assert_kernel_equals_the_reference(classifier, rows, None)
        _assert_kernel_equals_the_reference(
            classifier, rows, np.full(len(rows), order_key(300, 0), dtype=np.int64)
        )
    empty = _floored(key, rules.take(np.arange(0)))
    assert len(empty.ruleset) == 0 and getattr(empty, "num_tables", 0) == 0
    rule_ids, traces = _assert_kernel_equals_the_reference(empty, block[:50], None)
    assert (rule_ids == -1).all() and not traces.any()
    floored_out = np.full(len(block), order_key(0, 0), dtype=np.int64)
    rule_ids, traces = _assert_kernel_equals_the_reference(classifier, block, floored_out)
    assert (rule_ids == -1).all() and not traces.any()


@pytest.mark.parametrize("key", list(FLOORED))
def test_floored_kernel_under_ten_way_ties(key):
    """The fw1/400 ten-way-tie set (``test_rule_order.py``): floors that are
    the exact keys of tied rules, so "below the floor" is decided by rule id."""
    tied = tied_ruleset()
    classifier = _floored(key, tied)
    block = block_of(generate_uniform_trace(tied, 1500, seed=2).packets)
    rng = np.random.default_rng(3)
    floors = np.where(
        rng.random(len(block)) < 0.2, NO_FLOOR, tied.key[rng.integers(0, len(tied), len(block))]
    )
    for row_floors in (None, floors):
        _assert_kernel_equals_the_reference(classifier, block, row_floors)


@st.composite
def small_rulesets(draw):
    """Up to 30 rules over few distinct prefixes, ports and protocols, so
    tables share buckets, packets hit, and priorities tie."""
    count = draw(st.integers(1, 30))
    ids = draw(st.permutations(range(count)))
    rules = []
    for index in range(count):
        ranges = [
            prefix_to_range(
                draw(st.sampled_from((0, 0x0A000000, 0x0A0A0000, 0x0A0A0A00))),
                draw(st.sampled_from((0, 8, 16, 24, 32))),
            )
            for _ in range(2)
        ]
        ranges += [
            draw(st.sampled_from(((0, 65535), (53, 53), (80, 80), (1024, 65535))))
            for _ in range(2)
        ]
        ranges.append(draw(st.sampled_from(((0, 255), (6, 6), (17, 17)))))
        rules.append(Rule(tuple(ranges), draw(st.integers(0, 4)), "", ids[index]))
    return RuleSet(rules, FIVE_TUPLE)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(small_rulesets(), st.sampled_from(list(FLOORED)), st.integers(0, 2**16))
def test_floored_kernel_equals_the_reference_on_random_rulesets(ruleset, key, seed):
    """Random small rule-sets, packets drawn from their rules plus uniform
    ones, random per-row floors (``NO_FLOOR``, or a rule's exact key, or
    that key + 1) and non-zero starting counters."""
    classifier = _floored(key, ruleset)
    rng = np.random.default_rng(seed)
    sampled = block_of(ruleset.sample_packets(24, seed=seed))
    uniform = block_of(generate_uniform_trace(ruleset, 8, seed=seed).packets)
    block = np.vstack((sampled, uniform))
    n = len(block)
    floors = np.where(
        rng.random(n) < 0.3,
        NO_FLOOR,
        ruleset.key[rng.integers(0, len(ruleset), n)] + rng.integers(0, 2, n),
    )
    start = rng.integers(0, 5, (n, len(TRACE_FIELDS)))
    _assert_kernel_equals_the_reference(classifier, block, floors, start)
    _assert_kernel_equals_the_reference(classifier, block, None, start)
