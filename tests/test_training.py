"""Unit tests for submodel training: sampling, least squares, and the one
optimiser (full-batch Adam with early stop)."""

import numpy as np
import pytest

from repro.core import training
from repro.core.submodel import Submodel
from repro.core.training import (
    TrainingDataset,
    fit_output_layer,
    initial_submodel_params,
    sample_responsibility,
    train_submodel,
)


def scaled_ranges(int_ranges, domain):
    lo = np.array([r[0] for r in int_ranges], dtype=np.float64) / domain
    hi = np.array([r[1] for r in int_ranges], dtype=np.float64) / domain
    return lo, hi


class TestSampling:
    def test_samples_fall_inside_ranges(self):
        domain = 1 << 16
        ranges = [(0, 999), (2000, 2999), (10_000, 19_999)]
        lo, hi = scaled_ranges(ranges, domain)
        rng = np.random.default_rng(0)
        ds = sample_responsibility([(0.0, 1.0)], lo, hi, 500, len(ranges), rng)
        assert len(ds) > 0
        for x, y in zip(ds.xs, ds.ys):
            idx = int(round(y * len(ranges)))
            assert lo[idx] <= x <= hi[idx]

    def test_targets_are_scaled_indices(self):
        domain = 1 << 16
        ranges = [(0, 99), (200, 299)]
        lo, hi = scaled_ranges(ranges, domain)
        rng = np.random.default_rng(1)
        ds = sample_responsibility([(0.0, 1.0)], lo, hi, 200, 2, rng)
        assert set(np.round(ds.ys * 2).astype(int)) <= {0, 1}

    def test_respects_responsibility(self):
        domain = 1 << 16
        ranges = [(0, 999), (30_000, 39_999)]
        lo, hi = scaled_ranges(ranges, domain)
        rng = np.random.default_rng(2)
        # Responsibility only covers the first range.
        ds = sample_responsibility([(0.0, 0.1)], lo, hi, 300, 2, rng)
        assert np.all(ds.xs <= 0.1 + 1e-9)

    def test_boundary_points_included_for_sparse_sampling(self):
        domain = 1 << 24
        ranges = [(5_000_000, 5_000_001)]  # tiny range, unlikely to be hit
        lo, hi = scaled_ranges(ranges, domain)
        rng = np.random.default_rng(3)
        ds = sample_responsibility([(0.0, 1.0)], lo, hi, 10, 1, rng, include_boundaries=True)
        assert len(ds) >= 2  # the two boundary points

    def test_empty_when_no_ranges(self):
        rng = np.random.default_rng(4)
        ds = sample_responsibility([(0.0, 1.0)], np.empty(0), np.empty(0), 100, 1, rng)
        assert len(ds) == 0

    def test_xs_sorted(self):
        domain = 1 << 16
        ranges = [(i * 1000, i * 1000 + 500) for i in range(20)]
        lo, hi = scaled_ranges(ranges, domain)
        rng = np.random.default_rng(5)
        ds = sample_responsibility([(0.0, 1.0)], lo, hi, 400, 20, rng)
        assert np.all(np.diff(ds.xs) >= 0)


class TestLeastSquares:
    def test_fits_linear_function_exactly(self):
        xs = np.linspace(0, 1, 100)
        ys = 0.5 * xs + 0.1
        w1 = np.ones(8)
        b1 = -np.linspace(0, 1, 8, endpoint=False)
        w2, b2 = fit_output_layer(xs, ys, w1, b1)
        model = Submodel(w1, b1, w2, b2)
        preds = model.raw_batch(xs)
        assert np.max(np.abs(preds - ys)) < 1e-8


class TestTrainSubmodel:
    def test_learns_step_mapping(self):
        # Ten ranges evenly spread: target is a staircase the model must follow
        # closely enough for floor(M(x) * 10) to be near the true index.
        domain = 1 << 16
        ranges = [(i * 6000, i * 6000 + 3000) for i in range(10)]
        lo, hi = scaled_ranges(ranges, domain)
        rng = np.random.default_rng(6)
        ds = sample_responsibility([(0.0, 1.0)], lo, hi, 2000, 10, rng)
        model = train_submodel(ds, epochs=200)
        predicted = np.minimum((model.predict_batch(ds.xs) * 10).astype(int), 9)
        true = np.round(ds.ys * 10).astype(int)
        assert np.mean(np.abs(predicted - true) <= 1) > 0.95

    def test_empty_dataset_returns_identity_like_model(self):
        model = train_submodel(TrainingDataset(np.empty(0), np.empty(0)))
        assert isinstance(model, Submodel)

    def test_single_point_dataset(self):
        ds = TrainingDataset(np.array([0.5]), np.array([0.25]))
        model = train_submodel(ds, epochs=10)
        assert model(0.5) == pytest.approx(0.25, abs=1e-6)

    def test_zero_epochs_uses_least_squares_only(self):
        domain = 1 << 16
        ranges = [(i * 6000, i * 6000 + 3000) for i in range(10)]
        lo, hi = scaled_ranges(ranges, domain)
        rng = np.random.default_rng(7)
        ds = sample_responsibility([(0.0, 1.0)], lo, hi, 1000, 10, rng)
        model = train_submodel(ds, epochs=0)
        predicted = model.predict_batch(ds.xs)
        assert float(np.mean((predicted - ds.ys) ** 2)) < 0.01

    def test_same_inputs_give_identical_weights(self):
        ds = staircase_dataset(seed=8)
        a = train_submodel(ds, epochs=50)
        b = train_submodel(ds, epochs=50)
        for name in ("w1", "b1", "w2"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.b2 == b.b2

    def test_single_distinct_input_ignores_init(self):
        # Warm weights cannot improve on the constant prediction.
        constant = TrainingDataset(np.array([0.5, 0.5]), np.array([0.25, 0.25]))
        init = (np.ones(8), np.zeros(8), np.ones(8), 3.0)
        assert train_submodel(constant, init=init)(0.5) == pytest.approx(0.25, abs=1e-6)

    def test_init_with_zero_epochs_returns_init(self):
        ds = staircase_dataset(seed=9)
        rng = np.random.default_rng(10)
        init = (rng.random(8), rng.random(8), rng.random(8), 0.125)
        model = train_submodel(ds, epochs=0, init=init)
        for got, want in zip(model.weights(), init):
            assert np.array_equal(got, want)


def staircase_dataset(seed: int, ranges: int = 40, samples: int = 600) -> TrainingDataset:
    domain = 1 << 20
    int_ranges = [(i * 20_000, i * 20_000 + 9_000) for i in range(ranges)]
    lo, hi = scaled_ranges(int_ranges, domain)
    return sample_responsibility(
        [(0.0, 1.0)], lo, hi, samples, ranges, np.random.default_rng(seed)
    )


def mse(model: Submodel, ds: TrainingDataset) -> float:
    return float(np.mean((model.raw_batch(ds.xs) - ds.ys) ** 2))


class TestEarlyStop:
    """The stall rule changes when training stops, not what is returned: the
    best parameters seen, in the quality regime of a full-budget run."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_quality_between_initialisation_and_full_budget(self, seed, monkeypatch):
        ds = staircase_dataset(seed)
        stopped = train_submodel(ds, epochs=300)
        start = Submodel(*initial_submodel_params(ds.xs, ds.ys, 8))
        assert mse(stopped, ds) <= mse(start, ds)
        monkeypatch.setattr(training, "STALL_TOLERANCE", -1.0)  # never stalls
        full = train_submodel(ds, epochs=300)
        assert mse(stopped, ds) <= max(5 * mse(full, ds), 1e-4)

    def test_stops_before_the_budget_when_the_loss_stalls(self, monkeypatch):
        ds = staircase_dataset(seed=14)
        refits = []
        real = training.fit_output_layer

        def counting(*args):
            refits.append(1)
            return real(*args)

        # One closed-form fit at initialisation, then one per REFIT_EPOCHS.
        monkeypatch.setattr(training, "fit_output_layer", counting)
        train_submodel(ds, epochs=10_000)
        assert len(refits) - 1 < 10_000 // training.REFIT_EPOCHS

    def test_returns_the_best_parameters_seen(self, monkeypatch):
        """A learning rate that makes Adam diverge: whatever the trajectory,
        the returned weights are no worse than any loss evaluated — here the
        least-squares initialisation, which is the first."""
        ds = staircase_dataset(seed=15)
        start = Submodel(*initial_submodel_params(ds.xs, ds.ys, 8))
        diverged = train_submodel(ds, epochs=40, learning_rate=50.0)
        assert mse(diverged, ds) <= mse(start, ds)
