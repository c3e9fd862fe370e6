"""Property-based tests (hypothesis) for the core data structures and invariants."""

import io

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import RQRMIConfig
from repro.core.isets import max_independent_set, partition_isets, partition_shards
from repro.core.rqrmi import RQRMI, RangeSet
from repro.core.submodel import Submodel
from repro.rules.fields import (
    FIVE_TUPLE,
    FieldSchema,
    FieldSpec,
    int_to_ip,
    ip_to_int,
    merge_ranges,
    prefix_length_of_range,
    prefix_to_range,
    range_is_prefix,
    range_to_prefixes,
)
from repro.rules.parser import parse_classbench_lines, write_classbench_file
from repro.rules.rule import Rule, RuleSet
from _helpers import key_errors
from _nm_reference import checked_index

# ----------------------------------------------------------------- strategies

ranges_16bit = st.lists(
    st.tuples(st.integers(0, 65535), st.integers(0, 65535)).map(
        lambda pair: (min(pair), max(pair))
    ),
    min_size=1,
    max_size=40,
)


@st.composite
def disjoint_ranges(draw, max_count=30, domain_bits=16):
    """Sorted, pairwise-disjoint inclusive integer ranges."""
    domain = 1 << domain_bits
    count = draw(st.integers(1, max_count))
    points = draw(
        st.lists(
            st.integers(0, domain - 1), min_size=2 * count, max_size=2 * count, unique=True
        )
    )
    points.sort()
    return [(points[2 * i], points[2 * i + 1]) for i in range(count)]


@st.composite
def random_rule(draw, rule_id=0):
    ranges = []
    for spec in FIVE_TUPLE:
        lo = draw(st.integers(0, spec.max_value))
        hi = draw(st.integers(lo, spec.max_value))
        ranges.append((lo, hi))
    return Rule(tuple(ranges), priority=rule_id, rule_id=rule_id)


@st.composite
def random_ruleset(draw, max_rules=25):
    count = draw(st.integers(1, max_rules))
    rules = [draw(random_rule(rule_id=i)) for i in range(count)]
    return RuleSet(rules, FIVE_TUPLE)


@st.composite
def classbench_rule(draw, index=0):
    """A rule expressible in the ClassBench text format: prefix IPs, arbitrary
    port ranges, exact-or-wildcard protocol."""
    ranges = []
    for _ in range(2):
        ranges.append(
            prefix_to_range(draw(st.integers(0, 0xFFFFFFFF)), draw(st.integers(0, 32)))
        )
    for _ in range(2):
        lo = draw(st.integers(0, 65535))
        ranges.append((lo, draw(st.integers(lo, 65535))))
    ranges.append(
        draw(
            st.one_of(
                st.just((0, 255)),
                st.integers(0, 255).map(lambda value: (value, value)),
            )
        )
    )
    return Rule(tuple(ranges), priority=index, action=f"a{index}", rule_id=index)


@st.composite
def classbench_ruleset(draw, max_rules=15):
    count = draw(st.integers(1, max_rules))
    rules = [draw(classbench_rule(index=i)) for i in range(count)]
    return RuleSet(rules, FIVE_TUPLE)


# ----------------------------------------------------------------- field properties


class TestPrefixProperties:
    @given(st.integers(0, 0xFFFFFFFF), st.integers(0, 32))
    def test_prefix_range_contains_value_and_is_prefix(self, value, length):
        lo, hi = prefix_to_range(value, length)
        masked = lo
        assert lo <= masked <= hi
        assert range_is_prefix(lo, hi)
        span = hi - lo + 1
        assert span == 1 << (32 - length)

    @given(st.integers(0, 1 << 20), st.integers(0, 1 << 20))
    def test_range_to_prefixes_partitions_range(self, a, b):
        lo, hi = min(a, b), max(a, b)
        pieces = [prefix_to_range(v, l) for v, l in range_to_prefixes(lo, hi)]
        pieces.sort()
        assert pieces[0][0] == lo and pieces[-1][1] == hi
        for (alo, ahi), (blo, bhi) in zip(pieces[:-1], pieces[1:]):
            assert blo == ahi + 1

    @given(st.integers(0, 0xFFFFFFFF), st.integers(0, 32))
    def test_prefix_length_round_trip(self, value, length):
        lo, hi = prefix_to_range(value, length)
        assert prefix_length_of_range(lo, hi) == length

    @given(st.integers(0, 0xFFFFFFFF))
    def test_ip_text_round_trip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    @given(ranges_16bit)
    def test_merge_ranges_preserves_membership(self, ranges):
        merged = merge_ranges(ranges)
        # Sorted, disjoint and non-adjacent...
        for (alo, ahi), (blo, bhi) in zip(merged[:-1], merged[1:]):
            assert blo > ahi + 1
        # ...and the union of values is unchanged (spot-check the endpoints
        # and midpoints of every input range).
        def covered(value, intervals):
            return any(lo <= value <= hi for lo, hi in intervals)

        for lo, hi in ranges:
            for value in (lo, hi, (lo + hi) // 2):
                assert covered(value, merged)
        for lo, hi in merged:
            assert covered(lo, ranges) and covered(hi, ranges)


# ----------------------------------------------------------------- parser properties


class TestParserProperties:
    """Round-trip identities for the ClassBench text format."""

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(classbench_ruleset())
    def test_serialize_parse_identity(self, ruleset):
        buffer = io.StringIO()
        write_classbench_file(ruleset, buffer)
        parsed = parse_classbench_lines(buffer.getvalue().splitlines())
        assert len(parsed) == len(ruleset)
        # write_classbench_file emits priority order; our priorities are the
        # positions, so rule i round-trips to rule i with identical ranges.
        for original, restored in zip(ruleset, parsed):
            assert restored.ranges == original.ranges
            assert restored.priority == original.priority

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(classbench_ruleset())
    def test_parse_serialize_parse_is_stable(self, ruleset):
        first_buffer = io.StringIO()
        write_classbench_file(ruleset, first_buffer)
        first = parse_classbench_lines(first_buffer.getvalue().splitlines())
        second_buffer = io.StringIO()
        write_classbench_file(first, second_buffer)
        assert second_buffer.getvalue() == first_buffer.getvalue()
        second = parse_classbench_lines(second_buffer.getvalue().splitlines())
        assert [rule.ranges for rule in second] == [rule.ranges for rule in first]
        assert [rule.priority for rule in second] == [rule.priority for rule in first]

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(classbench_ruleset())
    def test_round_trip_preserves_match_semantics(self, ruleset):
        buffer = io.StringIO()
        write_classbench_file(ruleset, buffer)
        parsed = parse_classbench_lines(buffer.getvalue().splitlines())
        packet = ruleset.sample_packets(1, seed=9)[0]
        original = ruleset.match(packet)
        restored = parsed.match(packet)
        assert (original is None) == (restored is None)
        if original is not None:
            assert restored.priority == original.priority
            assert restored.ranges == original.ranges


# ----------------------------------------------------------------- rule-set properties


@st.composite
def free_rules(draw, max_rules=12):
    """Rules with drawn priorities, actions and unique non-negative ids."""
    count = draw(st.integers(0, max_rules))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=count, max_size=count, unique=True))
    rules = []
    for rule_id in ids:
        template = draw(random_rule())
        rules.append(
            Rule(template.ranges, draw(st.integers(0, 50)), draw(st.text(max_size=3)), rule_id)
        )
    return rules


class TestRuleStoreProperties:
    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    @given(free_rules())
    def test_columns_round_trip_to_equal_rules(self, rules):
        ruleset = RuleSet(rules, FIVE_TUPLE)
        assert ruleset.rules == rules
        assert ruleset.lo.shape == ruleset.hi.shape == (len(rules), len(FIVE_TUPLE))
        assert ruleset.lo.dtype == ruleset.priority.dtype == ruleset.rule_id.dtype == np.int64
        rebuilt = RuleSet.from_columns(
            ruleset.lo, ruleset.hi, ruleset.priority, ruleset.rule_id, ruleset.actions
        )
        assert rebuilt.rules == rules

    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    @given(free_rules(), st.randoms(use_true_random=False))
    def test_take_and_concat_preserve_rows_ids_and_schema(self, rules, rng):
        ruleset = RuleSet(rules, FIVE_TUPLE, name="whole")
        rows = list(range(len(rules)))
        rng.shuffle(rows)
        cut = len(rows) // 2
        head = ruleset.take(np.array(rows[:cut], dtype=np.int64))
        tail = ruleset.take(np.array(rows[cut:], dtype=np.int64), name="tail")
        assert head.rules == [rules[row] for row in rows[:cut]]
        assert (head.name, tail.name) == ("whole", "tail")
        mask = np.zeros(len(rules), dtype=bool)
        mask[rows[:cut]] = True
        assert ruleset.take(mask).rules == [rule for rule, keep in zip(rules, mask) if keep]
        joined = RuleSet.concat([head, tail], name="joined")
        assert joined.rules == [rules[row] for row in rows]
        assert joined.rule_id.tolist() == [rules[row].rule_id for row in rows]
        assert joined.schema is head.schema is ruleset.schema
        assert joined.row_of == {rules[row].rule_id: at for at, row in enumerate(rows)}
        for part in (head, tail, joined):
            assert not part.lo.flags.writeable and not part.rule_id.flags.writeable


class TestRuleSetProperties:
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(random_ruleset())
    def test_match_agrees_with_all_matches(self, ruleset):
        packet = ruleset.sample_packets(1, seed=0)[0]
        best = ruleset.match(packet)
        hits = ruleset.all_matches(packet)
        assert (best is None) == (not hits)
        if best is not None:
            assert hits[0] == best

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(random_ruleset())
    def test_sampled_packet_matches_its_rule(self, ruleset):
        for rule in list(ruleset)[:5]:
            packet = rule.sample_packet()
            assert rule.matches(packet)

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(random_ruleset())
    def test_diversity_bounded(self, ruleset):
        for value in ruleset.diversity().values():
            assert 0.0 < value <= 1.0


# ----------------------------------------------------------------- iSet properties


def reference_max_independent_set(rules, dim):
    """The object implementation ``max_independent_set`` replaced (the parent's,
    verbatim): sort ``Rule`` objects by upper bound, scan, re-sort by lower."""
    ordered = sorted(rules, key=lambda rule: rule.ranges[dim][1])
    chosen = []
    last_hi = -1
    for rule in ordered:
        lo, hi = rule.ranges[dim]
        if lo > last_hi:
            chosen.append(rule)
            last_hi = hi
    chosen.sort(key=lambda rule: rule.ranges[dim][0])
    return chosen


@st.composite
def tied_ruleset(draw, max_rules=30):
    """Two-field rules over a tiny domain, so upper bounds tie often."""
    schema = FieldSchema([FieldSpec("a", 4), FieldSpec("b", 3)])
    count = draw(st.integers(1, max_rules))
    rules = []
    for rule_id in range(count):
        ranges = []
        for spec in schema:
            lo = draw(st.integers(0, spec.max_value))
            ranges.append((lo, draw(st.integers(lo, spec.max_value))))
        rules.append(Rule(tuple(ranges), priority=rule_id, rule_id=rule_id))
    return RuleSet(rules, schema)


class TestISetProperties:
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(random_ruleset())
    def test_max_independent_set_is_independent(self, ruleset):
        for dim in range(len(FIVE_TUPLE)):
            chosen = ruleset.take(max_independent_set(ruleset, dim))
            ranges = sorted(rule.ranges[dim] for rule in chosen)
            for (alo, ahi), (blo, bhi) in zip(ranges[:-1], ranges[1:]):
                assert ahi < blo

    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    @given(tied_ruleset())
    def test_max_independent_set_equals_the_object_implementation(self, ruleset):
        for dim in range(len(ruleset.schema)):
            chosen = ruleset.take(max_independent_set(ruleset, dim))
            assert chosen.rules == reference_max_independent_set(ruleset.rules, dim)

    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(random_ruleset(), st.integers(1, 4))
    def test_partition_shards_is_disjoint_cover(self, ruleset, num_shards):
        num_shards = min(num_shards, len(ruleset))
        shards = partition_shards(ruleset, num_shards)
        assert len(shards) == num_shards
        ids = sorted(rule.rule_id for shard in shards for rule in shard)
        assert ids == sorted(rule.rule_id for rule in ruleset)
        assert all(shard for shard in shards)

    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(random_ruleset())
    def test_partition_conserves_rules(self, ruleset):
        result = partition_isets(ruleset)
        total = sum(len(iset) for iset in result.isets) + len(result.remainder)
        assert total == len(ruleset)
        ids = set()
        for iset in result.isets:
            ids |= {rule.rule_id for rule in iset.rules}
        ids |= {rule.rule_id for rule in result.remainder}
        assert ids == {rule.rule_id for rule in ruleset}


# ----------------------------------------------------------------- submodel properties


class TestSubmodelProperties:
    @settings(max_examples=40)
    @given(st.lists(st.floats(-3, 3), min_size=25, max_size=25), st.floats(-1, 1))
    def test_output_always_in_unit_interval(self, params, bias):
        w1 = np.array(params[:8])
        b1 = np.array(params[8:16])
        w2 = np.array(params[16:24])
        model = Submodel(w1, b1, w2, bias)
        xs = np.linspace(0, 1, 50)
        ys = model.predict_batch(xs)
        assert np.all(ys >= 0.0) and np.all(ys < 1.0)

    @settings(max_examples=25)
    @given(st.lists(st.floats(-3, 3), min_size=25, max_size=25), st.integers(2, 64))
    def test_bucket_constant_between_transitions(self, params, width):
        w1 = np.array(params[:8])
        b1 = np.array(params[8:16])
        w2 = np.array(params[16:24])
        model = Submodel(w1, b1, w2, params[24] if len(params) > 24 else 0.0)
        transitions = model.transition_inputs(width)
        points = [0.0, *transitions.tolist(), 1.0]
        for a, b in zip(points[:-1], points[1:]):
            if b - a < 1e-7:
                continue
            mid_buckets = {
                model.bucket(a + (b - a) * frac, width) for frac in (0.25, 0.5, 0.75)
            }
            assert len(mid_buckets) == 1


# ----------------------------------------------------------------- RQ-RMI properties


class TestRQRMIProperties:
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(disjoint_ranges(max_count=25, domain_bits=16))
    def test_trained_model_always_finds_indexed_keys(self, ranges):
        domain = 1 << 16
        range_set = RangeSet.from_integer_ranges(ranges, domain)
        model = RQRMI.train(
            range_set,
            RQRMIConfig(stage_widths=[1, 4], adam_epochs=40, initial_samples=128),
        )
        for idx, (lo, hi) in enumerate(sorted(ranges)):
            for key in {lo, hi, (lo + hi) // 2}:
                assert checked_index(model, key) == idx

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(disjoint_ranges(max_count=25, domain_bits=16), st.integers(0, (1 << 16) - 1))
    def test_query_never_returns_wrong_range(self, ranges, key):
        domain = 1 << 16
        range_set = RangeSet.from_integer_ranges(ranges, domain)
        model = RQRMI.train(
            range_set,
            RQRMIConfig(stage_widths=[1, 4], adam_epochs=40, initial_samples=128),
        )
        result = checked_index(model, key)
        expected = range_set.locate(range_set.scale_key(key))
        assert result == expected

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(disjoint_ranges(max_count=200, domain_bits=16))
    def test_certified_bound_holds_on_every_key(self, ranges):
        domain = 1 << 16
        pairs = np.array(ranges, dtype=np.int64)
        model = RQRMI.train(
            RangeSet.from_integer_ranges(pairs, domain),
            RQRMIConfig(stage_widths=[1, 4], adam_epochs=40, initial_samples=128),
        )
        errors, bounds = key_errors(model, pairs)
        assert np.all(errors <= bounds)
