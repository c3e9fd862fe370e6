"""Submodel training: sampling, least-squares initialisation and Adam.

The paper trains each submodel with supervised learning (Adam, MSE loss) on a
dataset generated by *uniformly sampling the submodel's responsibility* and
keeping the samples that fall inside some rule range (§3.5.4–3.5.5); samples
are labelled with the scaled index of the matching range.  The original
implementation used TensorFlow; here the same 1×H×1 ReLU network is trained
with a small pure-numpy Adam, preceded by a closed-form least-squares fit of
the output layer (the model is linear in the output weights given the hidden
layer), which makes convergence fast and reliable for these tiny models.

:func:`train_submodel` is the only optimiser in the package: every build —
cold or warm-started, through whichever entry point — reaches it through the
staged procedure in :func:`repro.core.pipeline.train_rqrmi`.  It stops as soon
as the loss stalls; that is safe because the error bound that certifies
lookups is computed analytically on the weights it returns, never assumed from
how long they trained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.submodel import Submodel, flat_spans

__all__ = [
    "TrainingDataset",
    "sample_responsibility",
    "fit_output_layer",
    "initial_submodel_params",
    "train_submodel",
]

#: Early stop: every ``STALL_CHECK_EPOCHS`` epochs a submodel whose best loss
#: improved by less than ``STALL_TOLERANCE`` (relative) since the previous
#: check stops training.  The closed-form initialisation already lands most
#: submodels near their optimum, and the analytic error bound is computed on
#: the returned weights either way, so certification is unaffected.
STALL_CHECK_EPOCHS = 10
STALL_TOLERANCE = 1e-3

#: Closed-form output refit cadence.
REFIT_EPOCHS = 50

#: Most range-boundary points added to one responsibility's samples (even:
#: boundaries come in pairs).
BOUNDARY_CAP = 4096


@dataclass
class TrainingDataset:
    """Sampled key/target pairs for one submodel.

    ``xs`` are scaled keys in ``[0, 1]``; ``ys`` are scaled targets in
    ``[0, 1]`` (the matching range's index divided by the number of ranges).
    """

    xs: np.ndarray
    ys: np.ndarray

    def __len__(self) -> int:
        return int(self.xs.shape[0])


def _interval_lengths(intervals: list[tuple[float, float]]) -> np.ndarray:
    return np.array([max(0.0, b - a) for a, b in intervals], dtype=np.float64)


def sample_responsibility(
    intervals: list[tuple[float, float]],
    range_lo: np.ndarray,
    range_hi: np.ndarray,
    num_samples: int,
    num_ranges: int,
    rng: np.random.Generator,
) -> TrainingDataset:
    """Generate a training dataset for a submodel (§3.5.4).

    Args:
        intervals: The submodel's responsibility as disjoint ``[a, b]`` intervals.
        range_lo / range_hi: Scaled rule-range bounds, sorted by ``range_lo``.
        num_samples: Number of uniform samples to draw over the responsibility.
        num_ranges: Total number of ranges indexed by the RQ-RMI (the target
            scale factor).
        rng: Source of randomness.

    The (clipped) boundaries of the ranges intersecting the responsibility
    are added too, in order and at most :data:`BOUNDARY_CAP` of them.  This
    keeps tiny responsibilities trainable; the paper's correctness never
    relies on it (the error bound is analytic either way).

    Returns:
        A :class:`TrainingDataset`; possibly empty if the responsibility does
        not intersect any range.
    """
    if len(range_lo) == 0:
        return TrainingDataset(np.empty(0), np.empty(0))
    lengths = _interval_lengths(intervals)
    total = float(lengths.sum())
    xs_parts: list[np.ndarray] = []
    if total > 0.0 and num_samples > 0:
        weights = lengths / total
        counts = rng.multinomial(num_samples, weights)
        for (a, b), count in zip(intervals, counts):
            if count > 0 and b > a:
                xs_parts.append(rng.uniform(a, b, size=count))
    bounds = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    owner, rows = flat_spans(
        np.searchsorted(range_hi, bounds[:, 0], side="left"),
        np.searchsorted(range_lo, bounds[:, 1], side="right"),
    )
    lo = np.maximum(range_lo[rows], bounds[owner, 0])
    hi = np.minimum(range_hi[rows], bounds[owner, 1])
    valid = lo <= hi
    # Points come in (lo, hi) pairs and the cap is even, so the cap never
    # splits a pair.
    boundary_points = np.column_stack([lo[valid], hi[valid]]).reshape(-1)[:BOUNDARY_CAP]
    if boundary_points.size:
        xs_parts.append(boundary_points)

    if not xs_parts:
        return TrainingDataset(np.empty(0), np.empty(0))

    xs = np.concatenate(xs_parts)
    # Keep samples that fall inside a range and label them with its index.
    positions = np.searchsorted(range_lo, xs, side="right") - 1
    positions = np.clip(positions, 0, len(range_lo) - 1)
    inside = (xs >= range_lo[positions]) & (xs <= range_hi[positions])
    xs = xs[inside]
    indices = positions[inside]
    ys = indices.astype(np.float64) / max(1, num_ranges)
    order = np.argsort(xs)
    return TrainingDataset(xs[order], ys[order])


def fit_output_layer(
    xs: np.ndarray, ys: np.ndarray, w1: np.ndarray, b1: np.ndarray
) -> tuple[np.ndarray, float]:
    """Least-squares fit of (w2, b2) given fixed hidden-layer parameters."""
    hidden = np.maximum(np.outer(xs, w1) + b1, 0.0)
    design = np.concatenate([hidden, np.ones((hidden.shape[0], 1))], axis=1)
    solution, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return solution[:-1], float(solution[-1])


def initial_submodel_params(
    xs: np.ndarray, ys: np.ndarray, hidden_units: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Cold-start parameters: uniform knots over the span + least-squares output."""
    x_lo, x_hi = float(xs.min()), float(xs.max())
    span = x_hi - x_lo
    knots = np.linspace(x_lo, x_hi, hidden_units, endpoint=False)
    # Scale the hidden pre-activations so they are O(1) over the span, which
    # keeps Adam's geometry well conditioned for any responsibility size.
    scale = 1.0 / span
    w1 = np.full(hidden_units, scale)
    b1 = -knots * scale
    w2, b2 = fit_output_layer(xs, ys, w1, b1)
    return w1, b1, w2, b2


def train_submodel(
    dataset: TrainingDataset,
    hidden_units: int = 8,
    epochs: int = 300,
    learning_rate: float = 0.05,
    init: tuple[np.ndarray, np.ndarray, np.ndarray, float] | None = None,
) -> Submodel:
    """Train one submodel on ``dataset`` (§3.5.5) — the only optimiser.

    The hidden-layer knots are initialised uniformly over the dataset's input
    span, the output layer is solved in closed form, and all parameters are
    then refined jointly with full-batch Adam under an MSE loss (hidden layer
    at one tenth of the output learning rate, closed-form output refit every
    :data:`REFIT_EPOCHS` epochs).  Training stops at ``epochs`` or as soon as
    the best loss stalls (:data:`STALL_TOLERANCE`; the first check window only
    records a baseline), and the best parameters seen are returned.  If the
    dataset is empty an identity-like submodel is returned (its responsibility
    holds no rules, so it is never consulted for a real key).

    ``init`` warm-starts the optimisation from previously trained
    ``(w1, b1, w2, b2)`` weights instead of the cold-start initialisation;
    the staged trainer uses this to seed retrained submodels from the model
    being replaced.  Deterministic: the same inputs give the same weights.
    """
    if len(dataset) == 0:
        return Submodel.identity(hidden_units)
    xs = dataset.xs.astype(np.float64)
    ys = dataset.ys.astype(np.float64)

    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi <= x_lo:
        # A single distinct input: predict its target as a constant.
        w1 = np.ones(hidden_units)
        b1 = -np.full(hidden_units, x_lo)
        w2 = np.zeros(hidden_units)
        return Submodel(w1, b1, w2, float(ys.mean()))

    if init is None:
        init = initial_submodel_params(xs, ys, hidden_units)
    # All parameters live in one vector [w1 | b1 | w2 | b2]: one Adam update
    # per epoch.
    s_w1, s_b1, s_w2, s_b2 = (
        slice(0, hidden_units),
        slice(hidden_units, 2 * hidden_units),
        slice(2 * hidden_units, 3 * hidden_units),
        3 * hidden_units,
    )
    params = np.concatenate(
        [np.asarray(part, dtype=np.float64).reshape(-1) for part in init]
    )

    n = len(xs)
    xs_col = xs[:, None]

    def submodel_from(vector: np.ndarray) -> Submodel:
        return Submodel(
            vector[s_w1].copy(), vector[s_b1].copy(), vector[s_w2].copy(),
            float(vector[s_b2]),
        )

    def forward(vector: np.ndarray):
        pre = xs_col * vector[s_w1] + vector[s_b1]
        hidden = np.maximum(pre, 0.0)
        err = hidden @ vector[s_w2] + vector[s_b2] - ys
        return pre, hidden, err, float(err @ err) / n

    if epochs <= 0:
        return submodel_from(params)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = np.full(len(params), learning_rate)
    lr[: 2 * hidden_units] *= 0.1
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    best, best_loss, checked_loss = params, np.inf, np.inf

    for t in range(1, epochs + 1):
        pre, hidden, err, loss = forward(params)
        if loss < best_loss:
            best, best_loss = params, loss

        dpred = (2.0 / n) * err
        dhidden = (dpred[:, None] * params[s_w2]) * (pre > 0.0)
        grad = np.concatenate(
            [xs @ dhidden, dhidden.sum(axis=0), hidden.T @ dpred, [dpred.sum()]]
        )
        adam_m = beta1 * adam_m + (1 - beta1) * grad
        adam_v = beta2 * adam_v + (1 - beta2) * (grad * grad)
        m_hat = adam_m / (1 - beta1**t)
        v_hat = adam_v / (1 - beta2**t)
        # A new vector each epoch, so ``best`` keeps the one it points at.
        params = params - lr * m_hat / (np.sqrt(v_hat) + eps)

        # Periodically re-solve the output layer in closed form; this is a pure
        # implementation accelerant (the model family is unchanged).
        if t % REFIT_EPOCHS == 0:
            params[s_w2], params[s_b2] = fit_output_layer(
                xs, ys, params[s_w1], params[s_b1]
            )
        if t % STALL_CHECK_EPOCHS == 0:
            # The first window only records a baseline (nothing to compare).
            if (
                np.isfinite(checked_loss)
                and checked_loss - best_loss <= STALL_TOLERANCE * checked_loss
            ):
                break
            checked_loss = best_loss

    final_loss = forward(params)[3]
    return submodel_from(best if final_loss > best_loss else params)
