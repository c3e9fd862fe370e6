"""Tests for iSet partitioning (§3.6)."""

import hashlib

import pytest

from repro.core.isets import (
    PartitionResult,
    max_independent_set,
    partition_isets,
    partition_shards,
)
from repro.rules import generate_classbench
from repro.rules.fields import FIVE_TUPLE
from repro.rules.rule import Rule, RuleSet


def rule_with_port_range(lo, hi, rule_id):
    return Rule(
        ((0, 0xFFFFFFFF), (0, 0xFFFFFFFF), (0, 65535), (lo, hi), (0, 255)),
        priority=rule_id,
        rule_id=rule_id,
    )


def independent(rules, dim):
    """The largest independent set of ``rules`` in ``dim``, as a rule-set."""
    ruleset = RuleSet(rules, FIVE_TUPLE)
    return ruleset.take(max_independent_set(ruleset, dim))


class TestMaxIndependentSet:
    def test_paper_figure6_example(self):
        # Figure 2 / Figure 6 of the paper: five rules over (IP, port); the
        # port dimension yields the iSet {R0, R2, R4} and the IP dimension
        # {R1, R3} once those are removed.
        def r(ip_lo, ip_hi, p_lo, p_hi, rid):
            return Rule(((ip_lo, ip_hi), (p_lo, p_hi)), priority=rid, rule_id=rid)

        from repro.rules.fields import FieldSchema, FieldSpec

        schema = FieldSchema([FieldSpec("ip", 32, "ip"), FieldSpec("port", 16, "port")])
        rules = [
            r(0x0A0A0000, 0x0A0AFFFF, 10, 18, 0),   # R0
            r(0x0A0A0100, 0x0A0A01FF, 15, 25, 1),   # R1
            r(0x0A000000, 0x0AFFFFFF, 5, 8, 2),     # R2
            r(0x0A0A0300, 0x0A0A03FF, 7, 20, 3),    # R3
            r(0x0A0A0364, 0x0A0A0364, 19, 19, 4),   # R4
        ]
        ruleset = RuleSet(rules, schema)
        by_port = ruleset.take(max_independent_set(ruleset, 1))
        assert {rule.rule_id for rule in by_port} == {0, 2, 4}

    def test_non_overlapping_by_construction(self):
        rules = [rule_with_port_range(i * 10, i * 10 + 5, i) for i in range(50)]
        chosen = independent(rules, 3)
        assert len(chosen) == 50

    def test_overlapping_rules_reduced(self):
        rules = [rule_with_port_range(0, 65535, i) for i in range(10)]
        chosen = independent(rules, 3)
        assert len(chosen) == 1

    def test_greedy_is_optimal_on_known_instance(self):
        # Intervals: [0,10] [2,3] [4,5] [6,7] — optimum picks the three small ones.
        rules = [
            rule_with_port_range(0, 10, 0),
            rule_with_port_range(2, 3, 1),
            rule_with_port_range(4, 5, 2),
            rule_with_port_range(6, 7, 3),
        ]
        chosen = independent(rules, 3)
        assert {r.rule_id for r in chosen} == {1, 2, 3}

    def test_result_sorted_by_lower_bound(self):
        rules = [rule_with_port_range(i * 100, i * 100 + 10, i) for i in (5, 1, 3, 2, 4)]
        chosen = independent(rules, 3)
        los = [r.ranges[3][0] for r in chosen]
        assert los == sorted(los)


class TestPartition:
    def test_coverage_accounts_for_all_rules(self, acl_small):
        result = partition_isets(acl_small)
        covered = sum(len(iset) for iset in result.isets)
        assert covered + len(result.remainder) == len(acl_small)

    def test_isets_are_disjoint(self, acl_small):
        result = partition_isets(acl_small)
        seen = set()
        for iset in result.isets:
            ids = {rule.rule_id for rule in iset.rules}
            assert not (ids & seen)
            seen |= ids

    def test_isets_non_overlapping_in_their_dimension(self, acl_medium):
        result = partition_isets(acl_medium, max_isets=3)
        for iset in result.isets:
            ranges = iset.ranges()
            for (alo, ahi), (blo, bhi) in zip(ranges[:-1], ranges[1:]):
                assert ahi < blo

    def test_max_isets_respected(self, acl_small):
        result = partition_isets(acl_small, max_isets=2)
        assert len(result.isets) <= 2

    def test_min_coverage_merges_small_isets_into_remainder(self, acl_small):
        strict = partition_isets(acl_small, min_coverage=0.25)
        for iset in strict.isets:
            assert iset.coverage >= 0.25

    def test_cumulative_coverage_monotone(self, acl_medium):
        result = partition_isets(acl_medium, max_isets=4)
        coverage = result.cumulative_coverage()
        assert all(a <= b + 1e-12 for a, b in zip(coverage[:-1], coverage[1:]))
        assert coverage[-1] == pytest.approx(result.coverage)

    def test_greedy_picks_largest_first(self, acl_medium):
        result = partition_isets(acl_medium, max_isets=4)
        sizes = [len(iset) for iset in result.isets]
        assert all(a >= b for a, b in zip(sizes[:-1], sizes[1:]))

    def test_acl_coverage_better_than_low_diversity(self, acl_medium):
        from repro.rules import generate_low_diversity

        low = generate_low_diversity(1000, values_per_field=8, seed=1)
        acl_cov = partition_isets(acl_medium, max_isets=2).coverage
        low_cov = partition_isets(low, max_isets=2).coverage
        assert acl_cov > low_cov

    def test_diversity_upper_bounds_single_iset_coverage(self, acl_medium, fw_small):
        # §3.7: the rule-set diversity of a field bounds the fraction of rules
        # in the largest iSet of that field.
        for ruleset in (acl_medium, fw_small):
            best_diversity = max(ruleset.diversity().values())
            result = partition_isets(ruleset, max_isets=1)
            if result.isets:
                assert result.isets[0].coverage <= best_diversity + 1e-9

    def test_empty_ruleset(self):
        empty = RuleSet([], FIVE_TUPLE)
        result = partition_isets(empty)
        assert result.isets == []
        assert result.coverage == 0.0

    def test_single_field_ruleset(self, forwarding_small):
        result = partition_isets(forwarding_small, max_isets=4)
        assert result.coverage > 0.5
        for iset in result.isets:
            assert iset.dim == 0


# ---------------------------------------------------------------------------
# Parent digests: recorded from the object implementation (``Rule`` lists,
# ``sorted(rules, key=...)`` per field per round) at commit de8116d, before
# partitioning moved to the rule-set columns.  ``(application, rules,
# min_coverage) -> (iSets, remainder rules, sha256 of every iSet's (dim,
# rule_id sequence), sha256 of the remainder's rule_id sequence)``; all
# rule-sets are ``generate_classbench(application, rules, seed=1)``.

PARENT_PARTITIONS = {
    ("acl1", 8_000, 0.0): (7, 0,
        "b78c093f4c14d7af5e703dc079d11316e0313151054e9ac6c98ea59da0ef8339",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("acl1", 8_000, 0.05): (2, 315,
        "b0500e12349e06dca5a1eb08e3b5e99c4385fad558d2ac59b93bb66fc43e99de",
        "bb53324bf2e7a39842dc484836bbb151b0bb4774db44facee97310303ca79eb6"),
    ("acl1", 8_000, 0.25): (1, 1684,
        "541da3412a0e2fd3c3f684d7b5e5232e138762305c98fa032fa077e83a1c6c94",
        "b90adcd7e077f37e55592017ff20b7637ca4ea4033b135a79c53a152112e582a"),
    ("fw1", 8_000, 0.0): (46, 0,
        "24e4a66558964df28a3534a1c150711bc3c92f04eef65786b71456c72f83b4fc",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("fw1", 8_000, 0.05): (3, 1820,
        "6850d42f8836e1b4ae59b1dcb1331838176f8ce00a6d163a480844f004828a5d",
        "b4522e5950ac29f28294dc9e7ab5de7f04bf8a85c490127ef537c12d9dd66d41"),
    ("fw1", 8_000, 0.25): (1, 4392,
        "2d16768c27a5ccb937d718fb9002469b70828ac4772d0547de24af2e33853d3f",
        "5141a5b89d792f409f7680df5007b63cfa711fb8eac64b1a9079e28360ce336b"),
    ("ipc1", 8_000, 0.0): (18, 0,
        "f8d8bfec49007e41cffd5a05f53e93e0194a55dd95c28dbafe635f9ab564bb30",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("ipc1", 8_000, 0.05): (2, 947,
        "ecf8b6e90a11132459380fccdd2a463136e67398900eb056463aad8cadf8f06a",
        "358ef1408ff0d139e8a1f0a8bdd489991efe0b2938e644c3958d4b4e8d8cc26f"),
    ("ipc1", 8_000, 0.25): (1, 2734,
        "efcdcf6371f6cb2edfe0c15b764134c74870873f4671fc4dedc468f78ecb13ed",
        "d3ed9cd2116c46e0930dae59c957722b7677386997e24cf8a43ed73441a73de2"),
    ("acl1", 100_000, 0.0): (14, 0,
        "9ad2e0e025c0ffbae6d00c397b1e7f9ee272bd422d85aafee1d3fd5dcfb2a487",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("acl1", 100_000, 0.05): (2, 2134,
        "b134e157badb420545e4e88c58d98e610e3c82f06b1a7bedec0a0bac9eed0af3",
        "e6bb5a6f4919aaf45d8049e88e69873e137a2df461a3636d4bbfa359b7090ec5"),
    ("acl1", 100_000, 0.25): (1, 13935,
        "81a42d68a1aa0fdb83612840fad300b7645543523ff26a09a290a428cedad00c",
        "7f9b5f03868f73b11b0fe97a5ccd738816efe6e911e8ac68cb8dffb3dc7554c7"),
}

#: ``(application, shards) -> (group sizes, sha256 of the groups' rule_id
#: sequences)`` for ``partition_shards`` at 8000 rules, same provenance.
PARENT_SHARD_GROUPS = {
    ("acl1", 2): ([4527, 3473],
        "af801bbc84e8d11862d8e171ed991d67e8ca3291d49f3d1541b0741d22340f7d"),
    ("acl1", 4): ([2948, 1805, 1634, 1613],
        "4fecbf393b1164aac22552cd4d1a06da85d3a374ba8405e4bf7953b134291d7c"),
    ("fw1", 2): ([4000, 4000],
        "6bb87d7f10b6528b372746781c574b18b1e123355b5df5d098c0da91872cd7f5"),
    ("fw1", 4): ([2000, 2000, 2000, 2000],
        "3c0e86f3561e6f900cc42cd86761975f37e2c25017cef37c7c33a7d212ec1df9"),
    ("ipc1", 2): ([4420, 3580],
        "ec06ce543e0e58f4fb79dac7c6c1b7315ef5fb24559017c96326a94a9c207f2d"),
    ("ipc1", 4): ([1959, 1973, 1958, 2110],
        "b277a1717e428d0f74bcd527c59713d13ac4133d24bb4a16ab8cb38afa61bef1"),
}


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestParentPartitions:
    """The column implementation returns the parent's iSets, remainder and
    shard groups: same rules, same order."""

    @pytest.mark.parametrize(
        "application, rules", sorted({key[:2] for key in PARENT_PARTITIONS})
    )
    def test_isets_and_remainder_match_the_parent(self, application, rules):
        ruleset = generate_classbench(application, rules, seed=1)
        for min_coverage in (0.0, 0.05, 0.25):
            partition = partition_isets(ruleset, min_coverage=min_coverage)
            isets = hashlib.sha256()
            for iset in partition.isets:
                isets.update(repr((iset.dim, iset.rules.rule_id.tolist())).encode())
            assert (
                len(partition.isets),
                len(partition.remainder),
                isets.hexdigest(),
                _sha256(partition.remainder.rule_id.tolist()),
            ) == PARENT_PARTITIONS[application, rules, min_coverage], min_coverage

    @pytest.mark.parametrize("application", ["acl1", "fw1", "ipc1"])
    def test_shard_groups_match_the_parent(self, application):
        ruleset = generate_classbench(application, 8_000, seed=1)
        for shards in (2, 4):
            groups = partition_shards(ruleset, shards)
            assert (
                [len(group) for group in groups],
                _sha256([group.rule_id.tolist() for group in groups]),
            ) == PARENT_SHARD_GROUPS[application, shards], shards

    def test_no_isets_deals_rules_out_cyclically(self, acl_small, fw_small):
        # With no iSets every rule is remainder, and the remainder top-up deals
        # as the round-robin ``position % shards`` loop once did.
        for ruleset in (acl_small, fw_small):
            everything = PartitionResult([], ruleset, len(ruleset))
            for shards in (1, 2, 3):
                groups = partition_shards(ruleset, shards, partition=everything)
                assert [group.rule_id.tolist() for group in groups] == [
                    ruleset.rule_id[index::shards].tolist() for index in range(shards)
                ]
                assert [group.name for group in groups] == [
                    f"{ruleset.name}-shard{index}" for index in range(shards)
                ]
