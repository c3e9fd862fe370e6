"""The staged RQ-RMI trainer and the build orchestrator around it.

Every build in the repository — ``RQRMI.train``, ``NuevoMatch.build``,
``ClassificationEngine.build``/``rebuild``, the sharded engine's background
retrains and every CLI command — trains through this module, over the one
optimiser in :mod:`repro.core.training`:

* :func:`train_rqrmi` — the staged RQ-RMI training procedure (§3.5, Figure 5):
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
* :class:`TrainingPipeline` — the build orchestrator: fans independent
  RQ-RMI training jobs (one per iSet) across a process pool.

Determinism: each (stage, slot, attempt) sampler is seeded from a
:class:`numpy.random.SeedSequence` derived from the config seed and the
optimiser draws no randomness, so a model depends only on its ranges and its
:class:`~repro.core.config.RQRMIConfig` — not on the entry point, training
order, job count or process placement.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.config import RQRMIConfig
from repro.core.rqrmi import RQRMI, RangeSet, TrainingReport
from repro.core.submodel import Submodel
from repro.core.training import sample_responsibility, train_submodel

__all__ = [
    "PipelineConfig",
    "TrainingPipeline",
    "train_rqrmi",
]

#: Intervals are (lo, hi) pairs of scaled floats (as in repro.core.rqrmi).
Interval = tuple[float, float]


@dataclass
class PipelineConfig:
    """Knobs of the training pipeline.

    Attributes:
        jobs: Process-pool width for independent RQ-RMI training jobs
            (one job per iSet); ``1`` trains inline.  Results are identical
            for any job count.
        warm_epochs: Adam epochs for warm-started submodels (seeded from the
            previous weights, they need far fewer steps than a cold start);
            ``None`` uses a third of the cold epoch budget, at least 20.
    """

    jobs: int = 1
    warm_epochs: int | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.warm_epochs is not None and self.warm_epochs < 1:
            raise ValueError("warm_epochs must be at least 1")

    def resolve_warm_epochs(self, adam_epochs: int) -> int:
        if self.warm_epochs is not None:
            return self.warm_epochs
        return max(20, adam_epochs // 3)


# ---------------------------------------------------------------------------
# Staged RQ-RMI training (+ warm start)
# ---------------------------------------------------------------------------


def _slot_rng(seed: int, stage_index: int, slot: int, attempt: int) -> np.random.Generator:
    """Deterministic per-(stage, slot, attempt) sampler.

    Each slot draws from its own :class:`~numpy.random.SeedSequence`, so
    sampling is independent of training order and process placement — the
    property that makes ``jobs=1`` and ``jobs=N`` builds identical.
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
    """Exact content of ``ranges`` inside a responsibility (padded as the
    error-bound computation pads it).

    Two RangeSets with equal signatures for a slot present *identical* inputs
    to that slot's training and error-bound computation: same intersecting
    range boundaries, same global indices (targets), same index scale and
    key-domain size.  A reused submodel therefore certifies the same bound.
    """
    domain = ranges.domain_size
    pad = 1.0 / domain if domain else 0.0
    parts: list[tuple] = []
    for a, b in intervals:
        a_pad, b_pad = a - pad, b + pad
        first = int(np.searchsorted(ranges.hi, a_pad, side="left"))
        last = int(np.searchsorted(ranges.lo, b_pad, side="right"))
        parts.append(
            (
                first,
                ranges.lo[first:last].tobytes(),
                ranges.hi[first:last].tobytes(),
            )
        )
    return (len(ranges), domain, tuple(parts))


def train_rqrmi(
    ranges: RangeSet,
    config: RQRMIConfig | None = None,
    warm_from: RQRMI | None = None,
    pipeline_config: PipelineConfig | None = None,
) -> RQRMI:
    """Train an RQ-RMI for ``ranges`` following §3.5 / Figure 5.

    With ``warm_from`` (a previously trained model over an older version of
    the ranges, same stage structure), internal stages are reused verbatim and
    only last-stage submodels whose responsibility content actually changed
    are re-certified / re-trained; see the module docstring for the four
    per-submodel outcomes.  Falls back to a cold start when the stage
    structure or key domain differs.
    """
    config = config or RQRMIConfig()
    pipeline_config = pipeline_config or PipelineConfig()
    start = time.perf_counter()
    num_ranges = len(ranges)
    widths = config.widths_for(max(1, num_ranges))
    if widths[0] != 1:
        raise ValueError("the first stage must have width 1")

    warm = warm_from
    if warm is not None and (
        warm.stage_widths != widths
        or warm.ranges.domain_size != ranges.domain_size
        or len(warm.stages) != len(widths)
        or not warm.error_bounds
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
        warm_epochs = pipeline_config.resolve_warm_epochs(config.adam_epochs)
        model = _train_warm(ranges, config, widths, report, warm, warm_epochs)
    model.report.training_seconds = time.perf_counter() - start
    return model


def _finalise(ranges, widths, stages, error_bounds, report, config) -> RQRMI:
    report.error_bounds = list(error_bounds)
    report.max_error_bound = max(error_bounds) if error_bounds else 0
    report.converged = report.max_error_bound <= config.error_threshold
    return RQRMI(stages, ranges, [int(b) for b in error_bounds], report)


def _initial_responsibilities(widths: list[int]) -> list[list[list[Interval]]]:
    responsibilities: list[list[list[Interval]]] = [[[(0.0, 1.0)]]]
    for width in widths[1:]:
        responsibilities.append([[] for _ in range(width)])
    return responsibilities


def _train_leaf(
    stages: list[list[Submodel]],
    intervals: list[Interval],
    ranges: RangeSet,
    config: RQRMIConfig,
    widths: list[int],
    report: TrainingReport,
    slot: int,
    incumbent: tuple[Submodel, int] | None = None,
    warm_epochs: int = 0,
) -> tuple[Submodel, int]:
    """Train one last-stage submodel, doubling samples while the analytic
    bound misses the threshold (Figure 5); returns ``(submodel, bound)``.

    ``incumbent`` — the previous model's leaf and its (failing) bound over the
    new ranges — warm-starts the first attempt (``warm_epochs`` Adam epochs
    from the old weights); retries are always cold with the full epoch
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
            epochs=warm_epochs if warm else config.adam_epochs,
            init=incumbent[0].weights() if warm else None,
        )
        report.submodels_trained += 1
        bound = RQRMI._error_bound_for(stages, model, intervals, ranges, widths)
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
                    stages, intervals, ranges, config, widths, report, slot
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
    warm_epochs: int,
) -> RQRMI:
    num_stages = len(widths)
    # Internal stages are reused verbatim: their transition inputs — and
    # therefore the last-stage responsibilities derived from them — are
    # exactly the previous model's.
    stages: list[list[Submodel]] = [
        [submodel.copy() for submodel in stage] for stage in warm.stages[:-1]
    ]
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
        leaf = warm.stages[-1][slot].copy()
        if _slot_signature(intervals, warm.ranges) == _slot_signature(intervals, ranges):
            # Identical range content inside the responsibility: the old
            # weights *and* the old certified bound carry over unchanged.
            bound = warm.error_bounds[slot]
            report.submodels_reused += 1
        else:
            bound = RQRMI._error_bound_for(stages, leaf, intervals, ranges, widths)
            if bound <= config.error_threshold:
                # Changed content, but the old weights still certify: reuse
                # them under the freshly computed bound — no training at all.
                report.submodels_reused += 1
            else:
                # Seed from the old weights; the first (short) attempt is
                # warm, retries fall back to cold full-budget training.
                leaf, bound = _train_leaf(
                    stages, intervals, ranges, config, widths, report, slot,
                    incumbent=(leaf, bound), warm_epochs=warm_epochs,
                )
        leaves.append(leaf)
        error_bounds[slot] = bound

    stages.append(leaves)
    return _finalise(ranges, widths, stages, error_bounds, report, config)


# ---------------------------------------------------------------------------
# Build orchestrator: per-iSet process fan-out
# ---------------------------------------------------------------------------


def _train_rqrmi_job(payload: dict) -> dict:
    """Process-pool worker: train one RQ-RMI from serialized inputs.

    Everything crosses the process boundary as JSON-compatible state dicts
    (exact float round-trips), so a pooled job returns bit-identical weights
    to the same job run inline.
    """
    ranges = RangeSet.from_state(payload["ranges"])
    config = RQRMIConfig(**payload["config"])
    warm = RQRMI.from_state(payload["warm"]) if payload.get("warm") else None
    pipeline_config = PipelineConfig(**payload["pipeline"])
    model = train_rqrmi(
        ranges, config, warm_from=warm, pipeline_config=pipeline_config
    )
    return model.to_state()


class TrainingPipeline:
    """Build orchestrator: trains many RQ-RMIs, optionally across processes.

    One pipeline instance carries the training policy (job count, warm-start
    epoch budget) and is shared by everything that builds classifiers: :meth:`NuevoMatch.build
    <repro.core.nuevomatch.NuevoMatch.build>`,
    :meth:`ClassificationEngine.build
    <repro.engine.engine.ClassificationEngine.build>`, the sharded engine's
    background retrains, and the ``repro train`` CLI.
    """

    def __init__(self, config: PipelineConfig | None = None, **overrides):
        if config is not None and overrides:
            raise ValueError("pass either a PipelineConfig or keyword overrides")
        self.config = config or PipelineConfig(**overrides)

    @property
    def jobs(self) -> int:
        return self.config.jobs

    def train_rqrmi(
        self,
        ranges: RangeSet,
        config: RQRMIConfig | None = None,
        warm_from: RQRMI | None = None,
    ) -> RQRMI:
        """Train a single RQ-RMI inline (no process fan-out)."""
        return train_rqrmi(
            ranges, config, warm_from=warm_from, pipeline_config=self.config
        )

    def train_many(
        self,
        specs: list[tuple[RangeSet, RQRMIConfig, RQRMI | None]],
    ) -> list[RQRMI]:
        """Train one RQ-RMI per ``(ranges, config, warm_from)`` spec.

        Independent jobs fan out across a process pool when ``jobs > 1``;
        per-job seeding is deterministic, so the results do not depend on the
        pool width or scheduling order.
        """
        if not specs:
            return []
        # Forking a multithreaded process can deadlock the children (a worker
        # forked while another thread holds an allocator/BLAS lock hangs
        # forever) — exactly the situation when a sharded engine's background
        # retrain fans out while serving threads are live.  The alternative
        # start methods re-execute ``__main__`` in every worker, which is its
        # own foot-gun for unguarded scripts, so with other threads alive the
        # jobs simply run inline: the results are identical by construction
        # (deterministic per-job seeding), only the fan-out is skipped.
        if (
            self.config.jobs <= 1
            or len(specs) == 1
            or threading.active_count() > 1
        ):
            return [
                self.train_rqrmi(ranges, config, warm_from=warm)
                for ranges, config, warm in specs
            ]
        payloads = [
            {
                "ranges": ranges.to_state(),
                "config": asdict(config or RQRMIConfig()),
                "warm": warm.to_state() if warm is not None else None,
                "pipeline": asdict(self.config),
            }
            for ranges, config, warm in specs
        ]
        workers = min(self.config.jobs, len(specs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            states = list(pool.map(_train_rqrmi_job, payloads))
        return [RQRMI.from_state(state) for state in states]

    def describe(self) -> dict:
        """JSON-safe provenance snapshot of the pipeline policy."""
        return {
            "jobs": self.config.jobs,
            "warm_epochs": self.config.warm_epochs,
        }
