"""Tests for the RQ-RMI learned range index.

The central property (Theorem A.13 / §3.3): after training, *every* key that
falls inside an indexed range must be found by the bounded secondary search —
the analytically computed error bound is a true worst-case bound.
"""

import functools
from types import SimpleNamespace

import numpy as np
import pytest

import _analysis_reference as reference
import test_pipeline
from repro.core.config import RQRMIConfig
from repro.core.nuevomatch import NuevoMatch
from repro.core.rqrmi import RQRMI, RangeSet, TrainingReport, route
from repro.core.submodel import Stage, Submodel
from repro.core.training import sample_responsibility
from repro.rules import generate_classbench
from _helpers import fast_nm_config, key_errors, native_locate
from _nm_reference import checked_index, query
from _nm_reference import route as scalar_route

FAST = RQRMIConfig(adam_epochs=80, initial_samples=256)


def random_disjoint_ranges(count, domain, seed=0, min_gap=1):
    rng = np.random.default_rng(seed)
    points = np.sort(rng.choice(domain, size=2 * count, replace=False))
    return [(int(points[2 * i]), int(points[2 * i + 1])) for i in range(count)]


class TestRangeSet:
    def test_scaling_and_locate(self):
        ranges = [(0, 9), (20, 29), (100, 199)]
        rs = RangeSet.from_integer_ranges(ranges, 1 << 8)
        assert len(rs) == 3
        assert rs.locate(rs.scale_key(5)) == 0
        assert rs.locate(rs.scale_key(25)) == 1
        assert rs.locate(rs.scale_key(150)) == 2
        assert rs.locate(rs.scale_key(15)) is None
        assert rs.locate(rs.scale_key(250)) is None

    def test_rejects_overlapping_ranges(self):
        with pytest.raises(ValueError):
            RangeSet.from_integer_ranges([(0, 10), (5, 20)], 1 << 8)

    def test_empty(self):
        rs = RangeSet.from_integer_ranges([], 1 << 8)
        assert len(rs) == 0
        assert rs.locate(0.5) is None


class TestTraining:
    def test_stage_widths_follow_config(self):
        ranges = random_disjoint_ranges(100, 1 << 20, seed=1)
        model = RQRMI.train(
            RangeSet.from_integer_ranges(ranges, 1 << 20),
            RQRMIConfig(stage_widths=[1, 4], adam_epochs=50),
        )
        assert model.stage_widths == [1, 4]

    def test_first_stage_must_have_width_one(self):
        ranges = random_disjoint_ranges(10, 1 << 16, seed=2)
        with pytest.raises(ValueError):
            RQRMI.train(
                RangeSet.from_integer_ranges(ranges, 1 << 16),
                RQRMIConfig(stage_widths=[2, 4]),
            )

    def test_training_report_populated(self):
        ranges = random_disjoint_ranges(200, 1 << 24, seed=3)
        model = RQRMI.train(RangeSet.from_integer_ranges(ranges, 1 << 24), FAST)
        report = model.report
        assert report.num_ranges == 200
        assert report.training_seconds > 0
        assert report.submodels_trained >= sum(model.stage_widths) - model.stage_widths[-1]
        assert len(report.error_bounds) == model.stage_widths[-1]

    def test_empty_rangeset_trains_trivially(self):
        model = RQRMI.train(RangeSet.from_integer_ranges([], 1 << 16), FAST)
        assert checked_index(model, 100) is None

    def test_single_range(self):
        model = RQRMI.train(RangeSet.from_integer_ranges([(10, 20)], 1 << 16), FAST)
        assert checked_index(model, 15) == 0
        assert checked_index(model, 9) is None
        assert checked_index(model, 21) is None


#: The exhaustive bound check's models: ``(ranges, stage widths)`` on a
#: 16-bit domain, each trained for seeds 0-2.
CERTIFIED_CASES = [(300, (1, 4)), (2000, (1, 4, 16)), (8000, (1, 8, 64))]


@functools.cache
def certified_model(count, widths, seed):
    """``(pairs, model)``: ``count`` random disjoint ranges of a 16-bit domain
    and the RQ-RMI trained over them with ``widths``."""
    domain = 1 << 16
    pairs = np.sort(
        np.random.default_rng(seed).choice(domain, size=2 * count, replace=False)
    ).reshape(-1, 2)
    model = RQRMI.train(
        RangeSet.from_integer_ranges(pairs, domain),
        RQRMIConfig(stage_widths=list(widths)),
    )
    return pairs, model


def assert_route_is_the_scalar_walk(model, seed=5):
    """``route`` over every prefix of ``model``'s stacked stages equals the
    frozen scalar walk bit for bit, on random keys and on every internal
    submodel's transition inputs (where a last-ulp difference flips a slot)."""
    widths = model.stage_widths
    stages = model.stages
    xs = np.concatenate([np.random.default_rng(seed).random(256)] + [
        submodel.transition_inputs(widths[stage_index + 1])
        for stage_index in range(len(stages) - 1)
        for submodel in stages[stage_index]
    ])
    # Every prefix, as training walks it, and the whole model, as the lookup
    # does; the reference with a prefix of the stages returns the next
    # stage's slot, like the deleted per-midpoint walk.
    for depth in range(1, len(stages) + 1):
        prefix = SimpleNamespace(stages=stages[:depth], stage_widths=widths)
        expected = [scalar_route(prefix, float(x)) for x in xs]
        slots, outputs = route(model.stacked[:depth], widths, xs)
        assert np.array_equal(slots, [slot for slot, _ in expected])
        assert np.array_equal(outputs, [output for _, output in expected])


class TestOneRoute:
    """Training and lookup walk the stages through :func:`route`, which
    gathers each key's submodel row from the stacked weights and evaluates a
    whole batch at once.  That is exact only because the gathered walk equals
    the frozen scalar walk bit for bit — pinned here on every trained model
    of the suite: the 3-stage pins and their warm rebuilds, the 400-rule
    parent pins (cold and warm), the acl/fw/ipc fixtures' iSets and the
    exhaustive bound check's nine models."""

    def test_route_is_the_frozen_scalar_walk_bit_for_bit(self, three_stage):
        _case, cold, warm = three_stage
        for iset in cold.isets + warm.isets:
            assert_route_is_the_scalar_walk(iset.model)

    def test_two_stage_parent_pins_cold_and_warm(self):
        pins = test_pipeline.TestSameModelsAsTheParent
        rules = generate_classbench("acl1", 400, seed=3)
        cold = NuevoMatch.build(rules, remainder_classifier="tm", config=pins.CONFIG)
        warm = NuevoMatch.build(
            pins._churn(rules), remainder_classifier="tm", config=pins.CONFIG,
            warm_from=cold,
        )
        assert warm.training_provenance["warm_started"]
        for iset in cold.isets + warm.isets:
            assert_route_is_the_scalar_walk(iset.model)

    @pytest.mark.parametrize("fixture", ["acl_small", "fw_small", "ipc_small", "acl_medium"])
    def test_fixture_isets(self, fixture, request):
        nm = NuevoMatch.build(
            request.getfixturevalue(fixture), remainder_classifier="tm",
            config=fast_nm_config(),
        )
        assert nm.isets
        for iset in nm.isets:
            assert_route_is_the_scalar_walk(iset.model)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("count,widths", CERTIFIED_CASES)
    def test_certified_bound_models(self, count, widths, seed):
        assert_route_is_the_scalar_walk(certified_model(count, widths, seed)[1])


class TestCertifiedBoundOnEveryKey:
    """The analytic per-leaf bound (Theorem A.13), checked against
    enumeration where enumeration is cheap: on a 16-bit domain every key
    inside a range is predicted within its leaf's bound, and every model
    attains its bound (one less would miss a key), so it is tight, not just
    safe.  The compiled kernel searches only inside the bound, so there a
    bound one too small changes an answer: its answer for every key must be
    :meth:`RangeSet.locate`'s."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("count,widths", CERTIFIED_CASES)
    def test_every_key_within_its_leaf_bound_and_the_bound_attained(
        self, count, widths, seed
    ):
        pairs, model = certified_model(count, widths, seed)
        assert model.stage_widths == list(widths)
        errors, bounds = key_errors(model, pairs)
        assert errors.size == int((pairs[:, 1] - pairs[:, 0] + 1).sum())
        assert np.all(errors <= bounds)
        assert np.any(errors == bounds)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("count,widths", CERTIFIED_CASES)
    def test_native_answer_is_locate_on_every_key(self, count, widths, seed, needs_native):
        pairs, model = certified_model(count, widths, seed)
        keys = np.arange(model.ranges.domain_size)
        expected = [model.ranges.locate(model.ranges.scale_key(key)) for key in keys.tolist()]
        expected = np.array([-1 if index is None else index for index in expected])
        assert np.array_equal(native_locate(model, keys, pairs[:, 0], pairs[:, 1]), expected)

    def test_a_bound_reached_inside_a_range(self):
        """A trained leaf is monotone where it matters, so its worst key sits
        at a range end; this hand-built leaf bumps up by 0.2 in the middle of
        range 5, where only its transition inputs see the error."""
        domain = 1 << 16
        pairs = np.array([(i * 6553, (i + 1) * 6553 - 1) for i in range(10)])
        ranges = RangeSet.from_integer_ranges(pairs, domain)
        leaf = Submodel(np.ones(4), [0.0, -0.5, -0.55, -0.6], [1.0, 4.0, -8.0, 4.0], 0.0)
        bound = RQRMI._error_bound_for(leaf, [(0.0, 1.0)], ranges)
        model = RQRMI([Stage.stack([leaf])], ranges, [bound], TrainingReport())
        errors, bounds = key_errors(model, pairs)
        assert np.all(errors <= bounds)
        assert np.any(errors == bound)
        # The ranges tile keys 0..65529, so errors[key] is that key's error.
        assert errors[np.isin(np.arange(errors.size), pairs)].max() < bound

    def test_native_answer_where_the_bound_is_reached_inside_a_range(self, needs_native):
        """The hand-built leaf above, answered by the compiled kernel: its
        window must reach the key in the middle of range 5."""
        domain = 1 << 16
        pairs = np.array([(i * 6553, (i + 1) * 6553 - 1) for i in range(10)])
        ranges = RangeSet.from_integer_ranges(pairs, domain)
        leaf = Submodel(np.ones(4), [0.0, -0.5, -0.55, -0.6], [1.0, 4.0, -8.0, 4.0], 0.0)
        bound = RQRMI._error_bound_for(leaf, [(0.0, 1.0)], ranges)
        model = RQRMI([Stage.stack([leaf])], ranges, [bound], TrainingReport())
        keys = np.arange(domain)
        expected = np.searchsorted(pairs[:, 0], keys, side="right") - 1
        expected[keys > pairs[-1, 1]] = -1
        assert np.array_equal(native_locate(model, keys, pairs[:, 0], pairs[:, 1]), expected)


def assert_analysis_is_the_frozen_loop(submodel: Submodel, width: int) -> None:
    triggers = submodel.trigger_inputs()
    transitions = submodel.transition_inputs(width)
    assert triggers.dtype == transitions.dtype == np.float64
    assert triggers.tobytes() == np.array(reference.trigger_inputs(submodel)).tobytes()
    assert transitions.tobytes() == np.array(
        reference.transition_inputs(submodel, width)
    ).tobytes()


class TestArrayAnalysisIsTheFrozenLoop:
    """Trigger and transition inputs, responsibilities, error bounds and
    boundary samples are array code.  The loops they replaced are frozen in
    ``_analysis_reference``, and each array version must equal its loop bit
    for bit: the certified bound covers only the function it was computed
    on, and the parent pins cover only the models they pin."""

    def test_random_submodels_at_many_widths(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            hidden = int(rng.choice([1, 4, 8, 16]))
            w1 = rng.normal(size=hidden) * rng.choice([0.5, 3.0, 30.0])
            w2 = rng.normal(size=hidden)
            if trial % 3 == 0:
                w1[rng.random(hidden) < 0.4] = 0.0
                w2[rng.random(hidden) < 0.4] = 0.0
            submodel = Submodel(w1, rng.normal(size=hidden), w2, rng.uniform(-0.5, 0.5))
            for width in (1, 2, 7, 64, int(rng.integers(100, 1001))):
                assert_analysis_is_the_frozen_loop(submodel, width)

    def test_every_submodel_responsibility_bound_and_sample(self, three_stage):
        _case, cold, warm = three_stage
        for iset in cold.isets + warm.isets:
            model, ranges = iset.model, iset.model.ranges
            widths = model.stage_widths
            for stage, width in zip(model.stages, widths[1:] + [len(ranges)]):
                for submodel in stage:
                    assert_analysis_is_the_frozen_loop(submodel, width)
            ours = [[[(0.0, 1.0)]]] + [[[] for _ in range(w)] for w in widths[1:]]
            theirs = [[list(slot) for slot in stage] for stage in ours]
            for stage_index in range(len(widths) - 1):
                prefix = model.stages[: stage_index + 1]
                RQRMI._assign_responsibilities(prefix, ours, widths, stage_index)
                reference.assign_responsibilities(prefix, theirs, widths, stage_index)
                assert repr(ours) == repr(theirs)
            for stage_index, stage in enumerate(ours):
                for slot, intervals in enumerate(stage):
                    if not intervals:
                        continue
                    if stage_index == len(widths) - 1:
                        leaf = model.stages[-1][slot]
                        assert RQRMI._error_bound_for(leaf, intervals, ranges) == (
                            reference.error_bound_for(leaf, intervals, ranges)
                        )
                    samples = sample_responsibility(
                        intervals, ranges.lo, ranges.hi, 0, len(ranges),
                        np.random.default_rng(0),
                    )
                    expected = reference.boundary_points(intervals, ranges.lo, ranges.hi)
                    assert samples.xs.tobytes() == np.sort(expected).tobytes()


class TestLookupCorrectness:
    """The headline guarantee: bounded search always finds the right range."""

    @pytest.mark.parametrize("count,domain_bits,widths", [
        (64, 16, [1, 4]),
        (500, 32, [1, 4, 16]),
        (2000, 32, [1, 4, 32]),
    ])
    def test_every_boundary_and_midpoint_found(self, count, domain_bits, widths):
        domain = 1 << domain_bits
        ranges = random_disjoint_ranges(count, domain, seed=count)
        rs = RangeSet.from_integer_ranges(ranges, domain)
        model = RQRMI.train(rs, RQRMIConfig(stage_widths=widths, adam_epochs=80))
        for idx, (lo, hi) in enumerate(sorted(ranges)):
            for key in {lo, hi, (lo + hi) // 2}:
                assert checked_index(model, key) == idx

    def test_exhaustive_small_domain(self):
        # Small enough to check literally every key in the domain.
        domain = 1 << 10
        ranges = [(0, 30), (40, 99), (120, 120), (200, 450), (600, 1000)]
        rs = RangeSet.from_integer_ranges(ranges, domain)
        model = RQRMI.train(rs, RQRMIConfig(stage_widths=[1, 4], adam_epochs=80))
        for key in range(domain):
            expected = rs.locate(rs.scale_key(key))
            assert checked_index(model, key) == expected

    def test_non_matching_keys_return_none(self):
        domain = 1 << 20
        ranges = random_disjoint_ranges(100, domain, seed=9)
        rs = RangeSet.from_integer_ranges(ranges, domain)
        model = RQRMI.train(rs, FAST)
        rng = np.random.default_rng(10)
        for key in rng.integers(0, domain, size=300):
            expected = rs.locate(rs.scale_key(int(key)))
            assert checked_index(model, int(key)) == expected

    def test_error_bound_is_respected(self):
        domain = 1 << 24
        ranges = random_disjoint_ranges(500, domain, seed=11)
        rs = RangeSet.from_integer_ranges(ranges, domain)
        model = RQRMI.train(rs, FAST)
        keys = np.array(sorted(ranges)).ravel()  # lo, hi of each range in order
        _indices, predicted, bounds = model.query_batch_detailed(keys)
        true_indices = np.arange(len(keys)) // 2
        assert (np.abs(predicted - true_indices) <= bounds).all()

    def test_query_batch_matches_scalar(self):
        domain = 1 << 20
        ranges = random_disjoint_ranges(200, domain, seed=12)
        rs = RangeSet.from_integer_ranges(ranges, domain)
        model = RQRMI.train(rs, FAST)
        keys = np.random.default_rng(13).integers(0, domain, size=200)
        indices, predicted, bounds = model.query_batch_detailed(keys)
        np.testing.assert_array_equal(model.query_batch(keys), indices)
        for key, index, prediction, bound in zip(keys, indices, predicted, bounds):
            scalar = query(model, int(key))
            expected = -1 if scalar.index is None else scalar.index
            assert (index, prediction, bound) == (
                expected, scalar.predicted_index, scalar.error_bound
            )


class TestErrorBoundAndRetraining:
    def test_tight_threshold_triggers_retraining_or_converges(self):
        domain = 1 << 24
        ranges = random_disjoint_ranges(800, domain, seed=14)
        rs = RangeSet.from_integer_ranges(ranges, domain)
        strict = RQRMI.train(
            rs, RQRMIConfig(stage_widths=[1, 4], error_threshold=8,
                            adam_epochs=80, max_retrain_attempts=2)
        )
        relaxed = RQRMI.train(
            rs, RQRMIConfig(stage_widths=[1, 4], error_threshold=256, adam_epochs=80)
        )
        # A stricter threshold can only lead to equal or more retraining work.
        assert strict.report.retrain_attempts >= relaxed.report.retrain_attempts

    def test_max_error_consistent_with_bounds(self):
        domain = 1 << 20
        ranges = random_disjoint_ranges(300, domain, seed=15)
        model = RQRMI.train(RangeSet.from_integer_ranges(ranges, domain), FAST)
        assert model.max_error == max(model.error_bounds)

    def test_size_bytes_scales_with_submodels(self):
        domain = 1 << 20
        ranges = random_disjoint_ranges(300, domain, seed=16)
        small = RQRMI.train(
            RangeSet.from_integer_ranges(ranges, domain),
            RQRMIConfig(stage_widths=[1, 4], adam_epochs=40),
        )
        large = RQRMI.train(
            RangeSet.from_integer_ranges(ranges, domain),
            RQRMIConfig(stage_widths=[1, 4, 16], adam_epochs=40),
        )
        assert large.size_bytes() > small.size_bytes()
        # 500K-rule models must stay within tens of KB (paper: 35KB); at this
        # small scale the model must be a few KB at most.
        assert large.size_bytes() < 10_000

    def test_statistics_keys(self):
        domain = 1 << 16
        ranges = random_disjoint_ranges(50, domain, seed=17)
        model = RQRMI.train(RangeSet.from_integer_ranges(ranges, domain), FAST)
        stats = model.statistics()
        for key in ("num_ranges", "stage_widths", "max_error", "size_bytes",
                    "training_seconds", "converged"):
            assert key in stats
