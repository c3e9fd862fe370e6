"""The hash family's direct-addressed probe against its frozen predecessor.

``TupleHashClassifier.classify_block_with_floors`` finds each ``(row,
table)`` bucket through a prefix table plus a fixed ``depth - 1`` steps;
``_scalar_reference.searchsorted_block_with_floors`` is the same kernel as it
was with one ``np.searchsorted`` over the sorted bucket hashes.  Only how a
bucket is found changed, so rule ids, priorities and all five trace counters
must be equal bit for bit — unfloored and under NuevoMatch's own iSet floors
— and the index's edge cases (one bucket, an empty remainder, many buckets
sharing a prefix, a hash equal to the guard's) must still resolve.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.classifiers.tuplespace as tuplespace
from repro.classifiers import build_classifier
from repro.classifiers.base import NO_FLOOR
from repro.core.nuevomatch import NuevoMatch
from repro.rules import generate_classbench
from repro.rules.fields import FIVE_TUPLE
from repro.rules.rule import Rule, RuleSet
from repro.traffic import generate_uniform_trace

import _scalar_reference as reference
from _helpers import block_of, fast_nm_config, iset_floors

ROWS = (1, 128, 2048)
APPLICATIONS = ("acl1", "fw1", "ipc1")
FAMILY = ("tss", "tm")


def assert_same_as_searchsorted(classifier, block, floors) -> None:
    """The kernel and the frozen ``searchsorted`` kernel agree on answers and
    on every trace counter, and the untraced answer equals the traced one."""
    traces = np.zeros((len(block), 5), dtype=np.int64)
    frozen = np.zeros((len(block), 5), dtype=np.int64)
    got = classifier.classify_block_with_floors(block, floors, traces=traces)
    want = reference.searchsorted_block_with_floors(
        classifier, block, floors, traces=frozen
    )
    untraced = classifier.classify_block_with_floors(block, floors)
    for column in range(2):
        np.testing.assert_array_equal(got[column], want[column])
        np.testing.assert_array_equal(untraced[column], want[column])
    np.testing.assert_array_equal(traces, frozen)


@pytest.fixture(scope="module", params=APPLICATIONS)
def application(request):
    rules = generate_classbench(request.param, 2000, seed=1)
    uniform = block_of(generate_uniform_trace(rules, max(ROWS), seed=2).packets)
    matching = block_of(rules.sample_packets(max(ROWS), seed=3))
    # Interleaved, so every block size sees hits and misses.
    block = np.stack((uniform, matching), axis=1).reshape(-1, uniform.shape[1])
    return rules, block[: max(ROWS)].astype(np.int64)


@pytest.mark.parametrize("name", FAMILY)
def test_probe_matches_the_searchsorted_kernel_unfloored(application, name):
    rules, block = application
    classifier = build_classifier(name, rules)
    for rows in ROWS:
        assert_same_as_searchsorted(classifier, block[:rows], None)


@pytest.mark.parametrize("name", FAMILY)
def test_probe_matches_the_searchsorted_kernel_under_iset_floors(application, name):
    rules, block = application
    nm = NuevoMatch.build(rules, remainder_classifier=name, config=fast_nm_config())
    assert nm.isets and len(nm.partition.remainder)
    for rows in ROWS:
        floors = iset_floors(nm, block[:rows])
        assert (floors < NO_FLOOR).any()
        assert_same_as_searchsorted(nm.remainder, block[:rows], floors)


def test_one_bucket_index():
    rule = Rule(((0, 255), (0, 2**32 - 1), (80, 80), (0, 65535), (6, 6)), 3, rule_id=7)
    tss = build_classifier("tss", RuleSet([rule], FIVE_TUPLE))
    stats = tss.statistics()
    assert stats["num_tables"] == 1 and stats["probe_depth"] == 1
    assert stats["probe_table_entries"] == 32  # 16 x (1 bucket + the guard)
    block = np.array(
        [(9, 1, 80, 5, 6), (9, 1, 81, 5, 6), (256, 1, 80, 5, 6)], dtype=np.int64
    )
    for floors in (None, np.array([NO_FLOOR, NO_FLOOR, 0])):
        assert_same_as_searchsorted(tss, block, floors)
    np.testing.assert_array_equal(tss.classify_block(block)[0], [7, -1, -1])


def test_nuevomatch_with_an_empty_remainder():
    # Disjoint ranges in one field: one iSet holds every rule.
    wildcards = ((0, 2**32 - 1), (0, 65535), (0, 65535), (0, 255))
    rules = RuleSet(
        [Rule(((10 * i, 10 * i + 5),) + wildcards, i, rule_id=i) for i in range(64)],
        FIVE_TUPLE,
    )
    nm = NuevoMatch.build(rules, remainder_classifier="tm", config=fast_nm_config())
    assert len(nm.partition.remainder) == 0
    assert nm.remainder.statistics()["num_tables"] == 0
    block = np.array(
        [(10 * i + i % 8, 1, 2, 3, 4) for i in range(64)], dtype=np.int64
    )
    floors = iset_floors(nm, block)
    assert_same_as_searchsorted(nm.remainder, block, floors)
    assert_same_as_searchsorted(nm.remainder, block, None)
    expected = [i if i % 8 <= 5 else -1 for i in range(64)]
    np.testing.assert_array_equal(nm.classify_block(block)[0], expected)


def patch_hash(monkeypatch, change) -> None:
    """Apply ``change(hashed)`` to every hash the kernel and the frozen
    kernel compute (each keeps its own ``_hash``)."""
    for module in (tuplespace, reference):
        def patched(masked, multipliers, salts, hash_=module._hash):
            return change(hash_(masked, multipliers, salts))

        monkeypatch.setattr(module, "_hash", patched)


@pytest.fixture
def crowded_prefixes(monkeypatch):
    """Hashes with their top 6 bits cleared: the prefix table's top bits then
    split the buckets into 64x fewer groups, so many share a prefix."""
    patch_hash(monkeypatch, lambda hashed: hashed >> np.uint64(6))


@pytest.mark.parametrize("name", FAMILY)
def test_every_bucket_is_found_when_prefixes_are_crowded(crowded_prefixes, name):
    rules = generate_classbench("acl1", 2000, seed=1)
    classifier = build_classifier(name, rules)
    index = classifier._index
    assert index.depth >= 4
    assert classifier.statistics()["probe_depth"] == index.depth
    # Every stored bucket sits within depth - 1 steps of its prefix entry.
    home = index.start[(index.hashes >> index.shift).view(np.int64)]
    offset = np.arange(len(index.hashes)) - home
    assert offset.min() == 0 and offset.max() == index.depth - 1
    # Each rule's low corner masks to its own bucket's key.
    lows = np.array(rules.lo, dtype=np.int64)
    assert_same_as_searchsorted(classifier, lows, None)
    matched, _ = classifier.classify_block(lows)
    assert (matched >= 0).all()


@pytest.mark.parametrize("name", FAMILY)
def test_a_hash_equal_to_the_guard_resolves_to_no_bucket(monkeypatch, name):
    rules = generate_classbench("acl1", 2000, seed=1)
    classifier = build_classifier(name, rules)
    block = block_of(rules.sample_packets(64, seed=5)).astype(np.int64)

    def guard_for_even_rows(hashed):
        hashed[:, ::2] = np.iinfo(np.uint64).max
        return hashed

    patch_hash(monkeypatch, guard_for_even_rows)
    assert_same_as_searchsorted(classifier, block, None)
    rule_ids, _ = classifier.classify_block(block)
    assert (rule_ids[::2] == -1).all() and (rule_ids[1::2] >= 0).all()
