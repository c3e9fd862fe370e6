"""The one candidate scan at its edges.

Hash buckets and forest leaves end a lookup in the same scan,
``classifiers.base.scan_candidates``, over the real entries of each (row,
list) pair.  These cases sit where an off-by-one in that scan shows: zero
pairs, a one-entry list, a match in the last entry of a bucket wider than
TupleMerge's collision limit, and a floor equal to an entry's key (the bound
is strict).  Every case agrees with the frozen references — the hash family's
padded ``searchsorted`` kernel and the forest's per-packet walk
(``_scalar_reference``), answers and all five trace counters — and with
linear search.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.classifiers.dtree as dtree
import repro.classifiers.tuplespace as tuplespace
from repro.classifiers import build_classifier
from repro.classifiers.base import NO_FLOOR, scan_candidates
from repro.classifiers.linear import LinearSearchClassifier
from repro.classifiers.tuplemerge import DEFAULT_COLLISION_LIMIT
from repro.rules import generate_classbench
from repro.rules.fields import FIVE_TUPLE
from repro.rules.rule import Rule, RuleSet, order_key

import _scalar_reference as reference

FAMILY = ("tss", "tm", "cs")


def frozen(classifier):
    """The frozen block lookup a classifier's kernel is checked against."""
    if isinstance(classifier, tuplespace.TupleHashClassifier):
        return reference.searchsorted_block_with_floors
    return reference.classify_block_with_floors


def assert_agrees(classifier, block, floors) -> tuple[np.ndarray, np.ndarray]:
    """The kernel, its frozen reference and linear search give the same
    answers, and the kernel the reference's trace counters."""
    traces = np.zeros((len(block), 5), dtype=np.int64)
    want_traces = np.zeros((len(block), 5), dtype=np.int64)
    got = classifier.classify_block_with_floors(block, floors, traces=traces)
    want = frozen(classifier)(classifier, block, floors, traces=want_traces)
    linear = LinearSearchClassifier(classifier.ruleset).classify_block_with_floors(
        block, floors
    )
    for column in range(2):
        np.testing.assert_array_equal(got[column], want[column])
        np.testing.assert_array_equal(got[column], linear[column])
    np.testing.assert_array_equal(traces, want_traces)
    return got


@pytest.fixture
def scans(monkeypatch):
    """Every call the kernels make to the shared scan: ``(count, hit_key)``."""
    calls = []

    def spy(values, rows, first, count, lo, hi, key, bound):
        hit_key, scanned = scan_candidates(values, rows, first, count, lo, hi, key, bound)
        calls.append((count, hit_key))
        return hit_key, scanned

    for module in (tuplespace, dtree):
        monkeypatch.setattr(module, "scan_candidates", spy)
    return calls


def own_corners(rules: RuleSet) -> tuple[np.ndarray, np.ndarray]:
    """Each rule's low corner, kept where linear search answers it with that
    rule itself, and those rules' keys."""
    ids, _ = LinearSearchClassifier(rules).classify_block(rules.lo)
    own = ids == rules.rule_id
    return rules.lo[own], rules.key[own]


@pytest.fixture(scope="module")
def acl1():
    return generate_classbench("acl1", 2000, seed=1)


# -- the scan itself -----------------------------------------------------------


def test_scan_returns_each_lists_first_match_below_its_bound():
    lo = np.array([[0], [5], [0], [8], [0]], dtype=np.int64)
    hi = np.array([[9], [9], [9], [9], [3]], dtype=np.int64)
    key = np.array([4, 1, 2, 3, 7], dtype=np.int64)
    values = np.array([[6], [2]], dtype=np.int64)
    # Lists: slot 0 alone; slots 1-3; slots 1-3 again; slot 4 alone.
    rows = np.array([0, 0, 1, 1])
    first = np.array([0, 1, 1, 4])
    count = np.array([1, 3, 3, 1])
    bound = np.array([NO_FLOOR, NO_FLOOR, 2, 7])
    hit_key, scanned = scan_candidates(values, rows, first, count, lo, hi, key, bound)
    # Row 0 (value 6) matches slots 0, 1, 2; row 1 (value 2) slots 0, 2, 4.
    np.testing.assert_array_equal(hit_key, [4, 1, NO_FLOOR, NO_FLOOR])
    # A hit is touched with everything before it; a miss touches the entries
    # below the limit, and an entry whose key equals the limit is not below.
    np.testing.assert_array_equal(scanned(bound), [1, 1, 1, 0])
    # A limit below the bound stops the walk earlier.
    np.testing.assert_array_equal(scanned(np.array([4, 2, 1, 7])), [0, 1, 0, 0])


def test_scan_of_no_pairs_is_empty():
    lo = hi = np.zeros((3, 5), dtype=np.int64)
    key = np.arange(3, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    hit_key, scanned = scan_candidates(
        np.zeros((4, 5), dtype=np.int64), empty, empty, empty, lo, hi, key, empty
    )
    assert hit_key.shape == (0,) and scanned(empty).shape == (0,)


# -- the kernels at the scan's edges -------------------------------------------


@pytest.mark.parametrize("name", FAMILY)
def test_no_row_reaches_a_list(scans, name):
    # Exact source addresses far below the block's: no bucket holds a row's
    # key.  The trees split between the rules, so each row still ends at a
    # leaf of the top rules; under a floor of rule 40 the rows enter every
    # tree (its root key is rule 0's) but leave before any leaf.  Either way
    # every scan is of zero pairs.
    wildcards = ((0, 2**32 - 1), (0, 65535), (0, 65535), (0, 255))
    rules = RuleSet(
        [Rule(((1000 + i, 1000 + i),) + wildcards, i, rule_id=i) for i in range(64)],
        FIVE_TUPLE,
    )
    classifier = build_classifier(name, rules)
    block = np.array([(2**31 + i, 1, 2, 3, 4) for i in range(16)], dtype=np.int64)
    assert (assert_agrees(classifier, block, None)[0] == -1).all()
    scans.clear()
    rule_ids, _ = assert_agrees(classifier, block, np.full(len(block), order_key(40, 40)))
    assert (rule_ids == -1).all()
    assert scans and all(count.size == 0 for count, _ in scans)


@pytest.mark.parametrize("name", FAMILY)
def test_a_one_entry_list_is_scanned(scans, acl1, name):
    classifier = build_classifier(name, acl1)
    block, _ = own_corners(acl1)
    assert_agrees(classifier, block, None)
    assert any(((count == 1) & (hit_key < NO_FLOOR)).any() for count, hit_key in scans)


def test_a_match_in_the_last_entry_of_a_wide_bucket(scans):
    rules = generate_classbench("fw1", 4000, seed=1)
    tm = build_classifier("tm", rules)
    index = tm._index
    # The widest bucket whose last entry is some packet's first match there
    # (in wider ones an earlier entry covers the last).  Such a packet is
    # searched among the last entry's bounds and the values just outside
    # each earlier entry's.
    for bucket in np.argsort(-index.count, kind="stable"):
        first, count = int(index.first[bucket]), int(index.count[bucket])
        lo, hi = index.lo[first : first + count], index.hi[first : first + count]
        candidates = [
            sorted(
                {int(lo[-1, field]), int(hi[-1, field])}
                | {
                    int(value)
                    for value in np.concatenate((lo[:-1, field] - 1, hi[:-1, field] + 1))
                    if lo[-1, field] <= value <= hi[-1, field]
                }
            )
            for field in range(rules.num_fields)
        ]
        packets = np.array(
            list(itertools.islice(itertools.product(*candidates), 20000)), dtype=np.int64
        )
        inside = ((packets[:, None, :] >= lo) & (packets[:, None, :] <= hi)).all(axis=2)
        last_only = inside[:, -1] & ~inside[:, :-1].any(axis=1)
        if last_only.any():
            break
    assert count > DEFAULT_COLLISION_LIMIT
    block = packets[last_only][:64]
    # The bucket alone: the scan, linear search over its rules and the padded
    # compare all find its last entry.
    rows = np.arange(len(block))
    hit_key, scanned = scan_candidates(
        block, rows, np.full(len(block), first), np.full(len(block), count),
        index.lo, index.hi, index.key, np.full(len(block), NO_FLOOR),
    )
    np.testing.assert_array_equal(hit_key, index.key[first + count - 1])
    np.testing.assert_array_equal(scanned(np.full(len(block), NO_FLOOR)), count)
    by_key = np.argsort(rules.key)
    members = by_key[np.searchsorted(rules.key, index.key[first : first + count], sorter=by_key)]
    bucket_ids, _ = LinearSearchClassifier(rules.take(members)).classify_block(block)
    np.testing.assert_array_equal(bucket_ids, rules.rule_id[members[-1]])
    padded_rows, padded_lo, padded_hi, padded_key = reference.padded_buckets(tm)
    entries = padded_rows[np.full(len(block), bucket)]
    padded_first = (
        (block[:, None, :] >= padded_lo[entries]) & (block[:, None, :] <= padded_hi[entries])
    ).all(axis=2).argmax(axis=1)
    np.testing.assert_array_equal(padded_key[entries[rows, padded_first]], hit_key)
    # The whole classifier, unfloored and floored just above that entry.
    scans.clear()
    assert_agrees(tm, block, None)
    assert any((hit_key == index.key[first + count - 1]).any() for _, hit_key in scans)
    assert_agrees(tm, block, np.full(len(block), index.key[first + count - 1] + 1))


@pytest.mark.parametrize("name", FAMILY)
def test_a_floor_equal_to_the_key_does_not_match(acl1, name):
    classifier = build_classifier(name, acl1)
    block, keys = own_corners(acl1)
    rule_ids, priorities = assert_agrees(classifier, block, keys)
    # Each corner's own rule is its best match, so nothing is below its key.
    assert (rule_ids == -1).all()
    # One above the key, each corner's own rule is the answer again.
    rule_ids, _ = assert_agrees(classifier, block, keys + 1)
    np.testing.assert_array_equal(rule_ids, keys & 0xFFFFFFFF)
