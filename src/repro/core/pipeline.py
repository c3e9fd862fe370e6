"""The staged RQ-RMI trainer: one function, :func:`train_rqrmi`.

Every build in the repository — ``RQRMI.train``, ``NuevoMatch.build``,
``ClassificationEngine.build``/``rebuild``, the sharded engine's background
retrains and every CLI command — trains through this function, over the one
optimiser in :mod:`repro.core.training`.

:func:`train_rqrmi` is the staged RQ-RMI training procedure (§3.5, Figure 5):
stage by stage, sample each submodel's responsibility, fit it with
:func:`~repro.core.training.train_submodel`, derive the next stage's
responsibilities from the transition inputs, and on the last stage certify
the error bound analytically, retrying with doubled samples while it misses
the threshold.  Plus **warm-start retraining**: given the previously trained
model, the internal stages are reused verbatim (their transition inputs —
hence the last-stage responsibilities — are unchanged), and each last-stage
submodel is (a) reused together with its certified error bound when the
ranges inside its responsibility are identical, (b) reused with a freshly
*recomputed* analytic bound when they changed but the old weights still
meet the threshold, (c) refined with a short warm-started Adam run seeded
from the old weights, or (d) retrained cold when the warm bound regresses
past the threshold.  Every path ends in the same analytic error-bound
computation, so the certified lookup contract is independent of how the
weights were obtained.

Training runs inline in the calling thread; the paper treats it as an
offline/background step (§3.9 retrains in the background and swaps) and
scales lookups, not training, across cores.

Determinism: each (stage, slot, attempt) sampler is seeded from a
:class:`numpy.random.SeedSequence` derived from the config seed and the
optimiser draws no randomness, so a model depends only on its ranges and its
:class:`~repro.core.config.RQRMIConfig` — not on the entry point or the
training order.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import RQRMIConfig
from repro.core.rqrmi import RQRMI, RangeSet, TrainingReport, padded_spans
from repro.core.submodel import Stage, Submodel
from repro.core.training import sample_responsibility, train_submodel

__all__ = ["train_rqrmi"]

#: Intervals are (lo, hi) pairs of scaled floats (as in repro.core.rqrmi).
Interval = tuple[float, float]


def _refinement_epochs(config: RQRMIConfig) -> int:
    """Adam epochs of a warm-started attempt: seeded from the previous
    weights it needs far fewer steps than a cold start — a third of the cold
    budget, at least 20."""
    return max(20, config.adam_epochs // 3)


def _slot_rng(seed: int, stage_index: int, slot: int, attempt: int) -> np.random.Generator:
    """Deterministic per-(stage, slot, attempt) sampler.

    Each slot draws from its own :class:`~numpy.random.SeedSequence`, so
    sampling is independent of training order — one of the two properties
    (with an optimiser that draws no randomness) that make every entry point
    build the same model.
    """
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, stage_index, slot, attempt])
    )


def _fit_slot(
    intervals: list[Interval],
    ranges: RangeSet,
    config: RQRMIConfig,
    stage_index: int,
    slot: int,
    attempt: int,
    num_samples: int,
    epochs: int,
    init: tuple | None = None,
) -> Submodel:
    """Sample a slot's responsibility (§3.5.4) and fit a submodel to it."""
    dataset = sample_responsibility(
        intervals,
        ranges.lo,
        ranges.hi,
        num_samples,
        max(1, len(ranges)),
        _slot_rng(config.seed, stage_index, slot, attempt),
    )
    return train_submodel(
        dataset,
        hidden_units=config.hidden_units,
        epochs=epochs,
        learning_rate=config.learning_rate,
        init=init,
    )


def _slot_signature(intervals: list[Interval], ranges: RangeSet) -> tuple:
    """Exact content of ``ranges`` inside a responsibility, padded by
    :func:`~repro.core.rqrmi.padded_spans` as the error bound pads it.

    Two RangeSets with equal signatures for a slot present *identical* inputs
    to that slot's training and error-bound computation: same intersecting
    range boundaries, same global indices (targets), same index scale and
    key-domain size.  A reused submodel therefore certifies the same bound.
    """
    _, _, first, last = padded_spans(intervals, ranges)
    parts = tuple(
        (start, ranges.lo[start:end].tobytes(), ranges.hi[start:end].tobytes())
        for start, end in zip(first.tolist(), last.tolist())
    )
    return (len(ranges), ranges.domain_size, parts)


def train_rqrmi(
    ranges: RangeSet,
    config: RQRMIConfig | None = None,
    warm_from: RQRMI | None = None,
) -> RQRMI:
    """Train an RQ-RMI for ``ranges`` following §3.5 / Figure 5.

    With ``warm_from`` (a previously trained model over an older version of
    the ranges, same stage structure), internal stages are reused verbatim and
    only last-stage submodels whose responsibility content actually changed
    are re-certified / re-trained; see the module docstring for the four
    per-submodel outcomes.  Falls back to a cold start when the stage
    structure, hidden width or key domain differs.
    """
    config = config or RQRMIConfig()
    start = time.perf_counter()
    num_ranges = len(ranges)
    widths = config.widths_for(max(1, num_ranges))
    if widths[0] != 1:
        raise ValueError("the first stage must have width 1")

    warm = warm_from
    if warm is not None and (
        warm.stage_widths != widths
        or warm.ranges.domain_size != ranges.domain_size
        or warm.stacked[-1].hidden_units != config.hidden_units
    ):
        warm = None

    report = TrainingReport(
        stage_widths=list(widths),
        num_ranges=num_ranges,
        warm_started=warm is not None,
    )
    if warm is None:
        model = _train_cold(ranges, config, widths, report)
    else:
        model = _train_warm(ranges, config, widths, report, warm)
    model.report.training_seconds = time.perf_counter() - start
    return model


def _finalise(ranges, widths, stages, error_bounds, report, config) -> RQRMI:
    """Stack the trained submodels into the model's weight arrays."""
    error_bounds = [int(bound) for bound in error_bounds]
    report.error_bounds = error_bounds
    report.max_error_bound = max(error_bounds)
    report.converged = report.max_error_bound <= config.error_threshold
    return RQRMI([Stage.stack(stage) for stage in stages], ranges, error_bounds, report)


def _initial_responsibilities(widths: list[int]) -> list[list[list[Interval]]]:
    responsibilities: list[list[list[Interval]]] = [[[(0.0, 1.0)]]]
    for width in widths[1:]:
        responsibilities.append([[] for _ in range(width)])
    return responsibilities


def _train_leaf(
    intervals: list[Interval],
    ranges: RangeSet,
    config: RQRMIConfig,
    widths: list[int],
    report: TrainingReport,
    slot: int,
    incumbent: tuple[Submodel, int] | None = None,
) -> tuple[Submodel, int]:
    """Train one last-stage submodel, doubling samples while the analytic
    bound misses the threshold (Figure 5); returns ``(submodel, bound)``.

    ``incumbent`` — the previous model's leaf and its (failing) bound over the
    new ranges — warm-starts the first attempt (:func:`_refinement_epochs` Adam
    epochs from the old weights); retries are always cold with the full epoch
    budget, which is the "fallback to cold start when error bounds regress"
    path.  The best attempt seen is kept; the bound is re-checked either way.
    """
    best_model, best_bound = incumbent or (None, 0)
    samples = config.initial_samples
    stage_index = len(widths) - 1
    for attempt in range(config.max_retrain_attempts + 1):
        warm = incumbent is not None and attempt == 0
        model = _fit_slot(
            intervals, ranges, config, stage_index, slot, attempt, samples,
            epochs=_refinement_epochs(config) if warm else config.adam_epochs,
            init=incumbent[0].weights() if warm else None,
        )
        report.submodels_trained += 1
        bound = RQRMI._error_bound_for(model, intervals, ranges)
        if best_model is None or bound <= best_bound:
            best_model, best_bound = model, bound
        if best_bound <= config.error_threshold:
            if warm:
                report.warm_trained += 1
            break
        report.retrain_attempts += 1
        if warm:
            report.cold_fallbacks += 1
        else:
            samples *= 2
    return best_model, best_bound


def _train_cold(
    ranges: RangeSet,
    config: RQRMIConfig,
    widths: list[int],
    report: TrainingReport,
) -> RQRMI:
    num_stages = len(widths)
    responsibilities = _initial_responsibilities(widths)
    stages: list[list[Submodel]] = []
    error_bounds = [0] * widths[-1]

    for stage_index in range(num_stages):
        is_last = stage_index == num_stages - 1
        stage_models: list[Submodel] = []
        for slot, intervals in enumerate(responsibilities[stage_index]):
            if not intervals:
                stage_models.append(Submodel.identity(config.hidden_units))
            elif is_last:
                model, error_bounds[slot] = _train_leaf(
                    intervals, ranges, config, widths, report, slot
                )
                stage_models.append(model)
            else:
                stage_models.append(
                    _fit_slot(
                        intervals, ranges, config, stage_index, slot, 0,
                        config.initial_samples, config.adam_epochs,
                    )
                )
                report.submodels_trained += 1
        stages.append(stage_models)
        if not is_last:
            RQRMI._assign_responsibilities(stages, responsibilities, widths, stage_index)

    return _finalise(ranges, widths, stages, error_bounds, report, config)


def _train_warm(
    ranges: RangeSet,
    config: RQRMIConfig,
    widths: list[int],
    report: TrainingReport,
    warm: RQRMI,
) -> RQRMI:
    num_stages = len(widths)
    # Internal stages are reused verbatim: their transition inputs — and
    # therefore the last-stage responsibilities derived from them — are
    # exactly the previous model's, re-derived below (a submodel keeps
    # nothing but its weights).  The views are stacked afresh at the end.
    *stages, warm_leaves = warm.stages
    responsibilities = _initial_responsibilities(widths)
    for stage_index in range(num_stages - 1):
        # _assign_responsibilities routes through exactly the stages trained
        # so far, so pass the prefix (as the incremental cold loop does).
        RQRMI._assign_responsibilities(
            stages[: stage_index + 1], responsibilities, widths, stage_index
        )

    leaves: list[Submodel] = []
    error_bounds = [0] * widths[-1]
    for slot, intervals in enumerate(responsibilities[-1]):
        if not intervals:
            leaves.append(Submodel.identity(config.hidden_units))
            continue
        leaf = warm_leaves[slot]
        if _slot_signature(intervals, warm.ranges) == _slot_signature(intervals, ranges):
            # Identical range content inside the responsibility: the old
            # weights *and* the old certified bound carry over unchanged.
            bound = int(warm.error_bounds[slot])
            report.submodels_reused += 1
        else:
            bound = RQRMI._error_bound_for(leaf, intervals, ranges)
            if bound <= config.error_threshold:
                # Changed content, but the old weights still certify: reuse
                # them under the freshly computed bound — no training at all.
                report.submodels_reused += 1
            else:
                # Seed from the old weights; the first (short) attempt is
                # warm, retries fall back to cold full-budget training.
                leaf, bound = _train_leaf(
                    intervals, ranges, config, widths, report, slot,
                    incumbent=(leaf, bound),
                )
        leaves.append(leaf)
        error_bounds[slot] = bound

    stages.append(leaves)
    return _finalise(ranges, widths, stages, error_bounds, report, config)
