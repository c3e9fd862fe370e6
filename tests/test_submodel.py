"""Unit tests for the RQ-RMI submodel and its piece-wise-linear analysis."""

import numpy as np
import pytest

from repro.core.submodel import OUTPUT_EPSILON, Submodel


def linear_submodel(slope=1.0, intercept=0.0, hidden=8):
    """A submodel computing ``clip(slope * x + intercept)`` exactly."""
    w1 = np.zeros(hidden)
    b1 = np.zeros(hidden)
    w2 = np.zeros(hidden)
    w1[0] = 1.0          # ReLU(x) = x for x >= 0
    w2[0] = slope
    return Submodel(w1, b1, w2, intercept)


class TestForwardPass:
    def test_matches_manual_computation(self):
        rng = np.random.default_rng(0)
        model = Submodel(rng.normal(size=8), rng.normal(size=8), rng.normal(size=8), 0.3)
        x = 0.42
        hidden = np.maximum(model.w1 * x + model.b1, 0.0)
        expected = float(hidden @ model.w2 + model.b2)
        assert model.raw(x) == pytest.approx(expected)

    def test_output_trimmed_to_unit_interval(self):
        model = linear_submodel(slope=10.0, intercept=-3.0)
        assert model(0.0) == 0.0
        assert model(1.0) <= 1.0 - OUTPUT_EPSILON / 2
        assert 0.0 <= model(0.35) < 1.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        model = Submodel(rng.normal(size=8), rng.normal(size=8), rng.normal(size=8), -0.2)
        xs = rng.random(100)
        batch = model.predict_batch(xs)
        for x, y in zip(xs, batch):
            assert y == pytest.approx(model(float(x)))

    def test_bucket(self):
        model = linear_submodel(slope=1.0)
        assert model.bucket(0.0, 4) == 0
        assert model.bucket(0.3, 4) == 1
        assert model.bucket(0.99, 4) == 3
        # Outputs >= 1 are trimmed so the bucket never reaches the width.
        assert model.bucket(5.0, 4) == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Submodel(np.zeros(8), np.zeros(7), np.zeros(8), 0.0)


class TestTriggerInputs:
    def test_linear_model_has_only_boundaries(self):
        model = linear_submodel(slope=0.5, intercept=0.1)
        triggers = model.trigger_inputs()
        assert triggers[0] == 0.0 and triggers[-1] == 1.0
        # slope 0.5, intercept 0.1: N(x) in [0.1, 0.6], never clipped, and the
        # only ReLU kink is at x = 0 which is the domain boundary.
        assert len(triggers) == 2

    def test_relu_kinks_are_triggers(self):
        w1 = np.array([1.0, 1.0, 0.0, 0, 0, 0, 0, 0], dtype=float)
        b1 = np.array([-0.25, -0.5, 0, 0, 0, 0, 0, 0], dtype=float)
        w2 = np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0], dtype=float)
        model = Submodel(w1, b1, w2, 0.0)
        triggers = model.trigger_inputs()
        assert any(abs(t - 0.25) < 1e-12 for t in triggers)
        assert any(abs(t - 0.5) < 1e-12 for t in triggers)

    def test_clipping_points_are_triggers(self):
        model = linear_submodel(slope=2.0, intercept=0.0)  # hits 1.0 at x=0.5
        triggers = model.trigger_inputs()
        assert any(abs(t - 0.5) < 1e-6 for t in triggers)

    def test_triggers_sorted_and_within_domain(self):
        rng = np.random.default_rng(3)
        model = Submodel(rng.normal(size=8) * 3, rng.normal(size=8), rng.normal(size=8), 0.1)
        triggers = model.trigger_inputs()
        assert np.array_equal(triggers, np.sort(triggers))
        assert all(0.0 <= t <= 1.0 for t in triggers)


class TestTransitionInputs:
    def test_identity_transitions_at_quantisation_levels(self):
        model = linear_submodel(slope=1.0)
        transitions = model.transition_inputs(4)
        for level in (0.25, 0.5, 0.75):
            assert any(abs(t - level) < 1e-9 for t in transitions)

    def test_bucket_constant_between_adjacent_transitions(self):
        rng = np.random.default_rng(4)
        model = Submodel(rng.normal(size=8) * 2, rng.normal(size=8), rng.normal(size=8), 0.2)
        width = 16
        transitions = model.transition_inputs(width)
        points = [0.0, *transitions.tolist(), 1.0]
        for a, b in zip(points[:-1], points[1:]):
            if b - a < 1e-9:
                continue
            inner = np.linspace(a + (b - a) * 0.01, b - (b - a) * 0.01, 7)
            buckets = {model.bucket(float(x), width) for x in inner}
            assert len(buckets) == 1

    def test_invalid_width(self):
        model = linear_submodel()
        with pytest.raises(ValueError):
            model.transition_inputs(0)

    def test_max_error_on_points(self):
        model = linear_submodel(slope=1.0)
        points = np.array([0.1, 0.6, 0.9])
        true_idx = np.array([1, 6, 9])
        assert model.max_error_on_points(points, true_idx, 10) == 0
        assert model.max_error_on_points(points, np.array([3, 6, 9]), 10) == 2
        assert model.max_error_on_points(np.array([]), np.array([]), 10) == 0


class TestSerialisation:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        model = Submodel(rng.normal(size=8), rng.normal(size=8), rng.normal(size=8), 1.5)
        clone = Submodel.from_dict(model.to_dict())
        xs = rng.random(20)
        assert np.allclose(model.predict_batch(xs), clone.predict_batch(xs))

    def test_size_bytes_single_precision(self):
        model = Submodel.identity(8)
        # 3 * 8 weights + 1 bias, 4 bytes each.
        assert model.size_bytes() == 100

    def test_identity_model_tracks_input(self):
        model = Submodel.identity()
        for x in (0.0, 0.25, 0.7, 0.999):
            assert model(x) == pytest.approx(x, abs=1e-9)
