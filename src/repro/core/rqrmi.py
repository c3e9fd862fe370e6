"""Range-Query Recursive Model Index (RQ-RMI).

An RQ-RMI indexes a set of *disjoint* one-dimensional ranges: given a key it
returns the index of the range containing the key (or ``None``).  It is the
paper's core contribution (§3.3–§3.5): a small hierarchy of neural-net
submodels predicts the index; an analytically computed worst-case error bound
limits the secondary search around the prediction, and the correctness of that
bound does not require enumerating the keys inside the ranges — only the
submodels' transition inputs and the range boundaries are evaluated.

The model is trained stage by stage.  Responsibilities of stage ``i+1`` are
derived from the transition inputs of stage ``i`` (Theorem A.1), by routing
the midpoints between them through :func:`route` — the one walk over the
stages, which the lookup runs too, so a leaf is certified for exactly the keys
the lookup sends it.  Last-stage submodels are retrained with doubled sample
counts until the error bound meets the configured threshold (Figure 5).  That
staged loop lives in :func:`repro.core.pipeline.train_rqrmi`; this module
holds the model, the responsibility and error-bound analysis it calls, lookup
and persistence.

The weights are stored stage by stage as :class:`~repro.core.submodel.Stage`
arrays — ``w1``/``b1``/``w2`` of shape ``(slots, hidden)`` and ``b2`` of shape
``(slots,)`` — and nowhere else.  :func:`route` gathers the rows each key's
slot selects, so a block costs the same few array operations per stage
whichever submodels it reaches.  :class:`~repro.core.submodel.Submodel`
objects are row views of those arrays, made on demand for the per-leaf
analysis and for warm-start.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.core.config import RQRMIConfig
from repro.core.submodel import OUTPUT_EPSILON, Stage, Submodel, flat_spans

__all__ = ["RangeSet", "RQRMI", "TrainingReport"]

#: Intervals are (lo, hi) pairs of scaled floats.
Interval = tuple[float, float]


@dataclass
class RangeSet:
    """Disjoint, sorted ranges over an integer key domain, scaled into [0, 1].

    Attributes:
        lo: Scaled lower bounds, ascending.
        hi: Scaled upper bounds (inclusive).
        domain_size: Size of the integer key domain (e.g. ``2**32``).
    """

    lo: np.ndarray
    hi: np.ndarray
    domain_size: int

    @classmethod
    def from_integer_ranges(cls, ranges, domain_size: int) -> "RangeSet":
        """Build a RangeSet from inclusive integer ranges (must be disjoint):
        the ``lo`` and ``hi`` columns side by side as an ``(n, 2)`` array, or
        any sequence of ``(lo, hi)`` pairs, in any order."""
        pairs = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
        pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
        lo, hi = pairs[:, 0], pairs[:, 1]
        overlapping = np.flatnonzero(lo[1:] <= hi[:-1])
        if overlapping.size:
            first, second = pairs[overlapping[0] : overlapping[0] + 2].tolist()
            raise ValueError(f"ranges overlap: {tuple(first)} and {tuple(second)}")
        return cls(
            lo.astype(np.float64) / domain_size,
            hi.astype(np.float64) / domain_size,
            domain_size,
        )

    def __len__(self) -> int:
        return int(self.lo.shape[0])

    def scale_key(self, key: int) -> float:
        """Scale an integer key into the model's [0, 1] input domain."""
        return key / self.domain_size

    def locate(self, scaled_key: float) -> int | None:
        """Ground-truth range index for a scaled key (binary search)."""
        if len(self) == 0:
            return None
        position = int(np.searchsorted(self.lo, scaled_key, side="right")) - 1
        if position < 0:
            return None
        if self.lo[position] <= scaled_key <= self.hi[position]:
            return position
        return None

    def to_state(self) -> dict:
        """JSON-compatible dump (floats round-trip exactly through repr)."""
        return {
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
            "domain_size": self.domain_size,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RangeSet":
        return cls(
            lo=np.asarray(state["lo"], dtype=np.float64),
            hi=np.asarray(state["hi"], dtype=np.float64),
            domain_size=int(state["domain_size"]),
        )


@dataclass
class TrainingReport:
    """Statistics gathered while training one RQ-RMI model.

    ``warm_started`` marks models seeded from a previous RQ-RMI, with
    ``submodels_reused`` / ``warm_trained`` / ``cold_fallbacks`` counting how
    each last-stage submodel was obtained (reused verbatim, refined from the
    old weights, or retrained cold after the warm bound regressed).
    """

    stage_widths: list[int] = field(default_factory=list)
    num_ranges: int = 0
    training_seconds: float = 0.0
    submodels_trained: int = 0
    retrain_attempts: int = 0
    max_error_bound: int = 0
    error_bounds: list[int] = field(default_factory=list)
    converged: bool = True
    warm_started: bool = False
    submodels_reused: int = 0
    warm_trained: int = 0
    cold_fallbacks: int = 0


def route(
    stages: list[Stage], widths: list[int], xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Walk ``xs`` through ``stages``: ``(slots, outputs)``.

    ``outputs`` are the last walked stage's M(x); ``slots`` index the
    submodel each key reaches in the stage after it (``floor(M(x) *
    widths[next])``) or, past the last stage, the leaf it was answered by.
    Training routes responsibilities through a prefix of the stages and the
    lookup through all of them, so both see one function.

    Each stage gathers every key's submodel row and evaluates all keys at
    once.  The gathered ``(keys, hidden)`` products are C-contiguous and
    reduced with ``sum(axis=1)`` — the order :meth:`Submodel.raw_batch` and
    :meth:`Submodel.raw` reduce in — so each key's output is bit for bit the
    output of its submodel alone, the function the error bound certifies.
    The trim to ``[0, 1 - OUTPUT_EPSILON]`` is ``maximum`` then ``minimum``,
    as in :meth:`Submodel.__call__`.
    """
    xs = np.asarray(xs, dtype=np.float64)[:, None]
    slots = np.zeros(xs.shape[0], dtype=np.int64)
    outputs = np.zeros(xs.shape[0], dtype=np.float64)
    for stage_index, (w1, b1, w2, b2) in enumerate(stages):
        hidden = np.maximum(xs * w1[slots] + b1[slots], 0.0)
        raw = (hidden * w2[slots]).sum(axis=1) + b2[slots]
        outputs = np.minimum(np.maximum(raw, 0.0), 1.0 - OUTPUT_EPSILON)
        if stage_index + 1 < len(widths):
            next_width = widths[stage_index + 1]
            slots = np.minimum((outputs * next_width).astype(np.int64), next_width - 1)
    return slots, outputs


def padded_spans(
    intervals: list[Interval], ranges: RangeSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A responsibility's intervals padded by one key on each side, and the
    rows of ``ranges`` each padded interval intersects, for every interval
    in one call: ``(a_pad, b_pad, first, last)`` arrays, rows
    ``first[i]:last[i]`` (empty where ``first[i] >= last[i]``).

    The error bound evaluates exactly these rows, and the warm-start
    signature compares exactly these rows, so both pad the same way."""
    bounds = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    pad = 1.0 / ranges.domain_size if ranges.domain_size else 0.0
    a_pad, b_pad = bounds[:, 0] - pad, bounds[:, 1] + pad
    first = np.searchsorted(ranges.hi, a_pad, side="left")
    last = np.searchsorted(ranges.lo, b_pad, side="right")
    return a_pad, b_pad, first, last


class RQRMI:
    """A trained Range-Query RMI over one :class:`RangeSet`.

    ``stacked`` holds the weights, one :class:`~repro.core.submodel.Stage`
    per stage, and ``error_bounds`` the certified bound of each leaf as an
    int64 array.
    """

    def __init__(
        self,
        stacked: list[Stage],
        ranges: RangeSet,
        error_bounds: np.ndarray | list[int],
        report: TrainingReport,
    ):
        self.stacked = list(stacked)
        self.stage_widths = [stage.width for stage in self.stacked]
        self.ranges = ranges
        self.error_bounds = np.asarray(error_bounds, dtype=np.int64)
        self.report = report

    # ------------------------------------------------------------------ training

    @classmethod
    def train(cls, ranges: RangeSet, config: RQRMIConfig | None = None) -> "RQRMI":
        """Train an RQ-RMI for ``ranges`` following §3.5 / Figure 5.

        The staged procedure lives in :func:`repro.core.pipeline.train_rqrmi`
        (which also warm-starts from a previous model); this is the same call.
        """
        from repro.core.pipeline import train_rqrmi

        return train_rqrmi(ranges, config)

    # ----------------------------------------------------------- responsibility

    @staticmethod
    def _assign_responsibilities(
        stages: list[list[Submodel]],
        responsibilities: list[list[list[Interval]]],
        widths: list[int],
        stage_index: int,
    ) -> None:
        """Compute stage ``stage_index + 1`` responsibilities (Theorem A.1)."""
        next_width = widths[stage_index + 1]
        transition_set: set[float] = {0.0, 1.0}
        for slot, submodel in enumerate(stages[stage_index]):
            intervals = responsibilities[stage_index][slot]
            if not intervals:
                continue
            transitions = submodel.transition_inputs(next_width)
            for a, b in intervals:
                transition_set.update((a, b))
                transition_set.update(transitions[
                    np.searchsorted(transitions, a, side="left"):
                    np.searchsorted(transitions, b, side="right")
                ].tolist())
        edges = np.array(sorted(transition_set))
        midpoints = (edges[:-1] + edges[1:]) / 2.0
        slots, _ = route([Stage.stack(stage) for stage in stages], widths, midpoints)
        # Adjacent pieces routed to one slot merge: a run of equal slots is
        # one interval.  A stable sort by slot keeps each slot's ascending.
        runs = np.flatnonzero(np.diff(slots, prepend=-1))
        run_ends = np.append(runs[1:], len(slots))
        order = np.argsort(slots[runs], kind="stable")
        pieces = list(zip(edges[runs[order]].tolist(), edges[run_ends[order]].tolist()))
        ends = np.cumsum(np.bincount(slots[runs], minlength=next_width)).tolist()
        for slot, (start, end) in enumerate(zip([0, *ends], ends)):
            responsibilities[stage_index + 1][slot] = pieces[start:end]

    # ----------------------------------------------------------------- error bound

    @staticmethod
    def _error_bound_for(
        candidate: Submodel, intervals: list[Interval], ranges: RangeSet
    ) -> int:
        """Worst-case |predicted - true| index error over the responsibility.

        Evaluates the candidate leaf alone — the earlier stages route exactly
        the responsibility's keys to it — on points inside its (padded)
        responsibility: range boundaries clipped to it and the candidate's
        transition inputs (snapped to the adjacent integer keys to absorb
        floating-point jitter), per Theorem A.13.  Every interval is
        evaluated in one pass; the bound is a maximum, so the order and
        repetition of points do not matter.
        """
        num_ranges = len(ranges)
        if num_ranges == 0:
            return 0
        domain = ranges.domain_size
        a_pad, b_pad, first, last = padded_spans(intervals, ranges)
        # Boundary evaluation points: every intersecting range's bounds,
        # clipped to the padded responsibility.
        owner, rows = flat_spans(first, last)
        lo_clip = np.maximum(ranges.lo[rows], a_pad[owner])
        hi_clip = np.minimum(ranges.hi[rows], b_pad[owner])
        valid = lo_clip <= hi_clip
        rows = rows[valid]
        points_parts = [lo_clip[valid], hi_clip[valid]]
        index_parts = [rows, rows]
        # Transition inputs inside each padded interval, kept where they fall
        # inside one of the interval's ranges: ranges are disjoint and sorted,
        # so that is at most the range searchsorted lands it in.
        transitions = candidate.transition_inputs(num_ranges)
        owner, at = flat_spans(
            np.searchsorted(transitions, a_pad, side="left"),
            np.searchsorted(transitions, b_pad, side="right"),
        )
        ts = transitions[at]
        pos = np.searchsorted(ranges.lo, ts, side="right") - 1
        safe = np.clip(pos, 0, num_ranges - 1)
        inside = (pos >= first[owner]) & (pos < last[owner]) & (ts <= ranges.hi[safe])
        ts, pos, owner = ts[inside], pos[inside], owner[inside]
        t_lo = np.maximum(ranges.lo[pos], a_pad[owner])
        t_hi = np.minimum(ranges.hi[pos], b_pad[owner])
        keys = np.floor(ts * domain)
        for snapped in (keys / domain, (keys + 1.0) / domain):
            good = (snapped >= t_lo) & (snapped <= t_hi)
            points_parts.append(snapped[good])
            index_parts.append(pos[good])
        points_parts.append(ts)
        index_parts.append(pos)
        return candidate.max_error_on_points(
            np.concatenate(points_parts), np.concatenate(index_parts), num_ranges
        )

    # ----------------------------------------------------------------------- lookup

    @property
    def stages(self) -> list[list[Submodel]]:
        """Every stage's submodels, as row views of :attr:`stacked` made on
        each access (for the per-leaf analysis and warm-start, not lookup)."""
        return [stage.submodels() for stage in self.stacked]

    @property
    def num_stages(self) -> int:
        return len(self.stacked)

    @property
    def max_error(self) -> int:
        return int(self.error_bounds.max(initial=0))

    def query_batch_detailed(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Range queries (§3.8 lookup): the range containing each key.

        Inference (the dominant cost, Table 1) runs batched across all keys
        through :func:`route`.  The secondary search is one global
        ``searchsorted`` over the sorted ranges, whose position counts only
        inside ``[predicted - error, predicted + error]`` — the answer a
        search bounded to that window gives, not its cost.  The compiled
        iSet kernel (:mod:`repro.core.native`) runs the bounded search
        itself; this is its reference and the traced lookup.

        Returns:
            ``(indices, predicted, bounds)`` arrays — the matched range index
            (-1 where no range contains the key), the predicted index, and the
            applicable per-leaf error bound.
        """
        num_keys = len(keys)
        num_ranges = len(self.ranges)
        if num_ranges == 0 or num_keys == 0:
            empty = np.full(num_keys, -1, dtype=np.int64)
            zeros = np.zeros(num_keys, dtype=np.int64)
            return empty, zeros.copy(), zeros
        xs = np.asarray(keys, dtype=np.float64) / self.ranges.domain_size
        slots, outputs = route(self.stacked, self.stage_widths, xs)
        predicted = np.minimum(
            (outputs * num_ranges).astype(np.int64), num_ranges - 1
        )
        bounds = self.error_bounds[slots]
        window_lo = np.maximum(predicted - bounds, 0)
        window_hi = np.minimum(predicted + bounds, num_ranges - 1)
        # Windowed binary search, vectorized: the position a searchsorted over
        # ranges.lo[window] finds equals the global position clipped to the
        # window top, valid only when it reaches the window.
        positions = self.ranges.lo.searchsorted(xs, side="right") - 1
        candidates = np.minimum(positions, window_hi)
        in_window = positions >= window_lo
        safe = np.maximum(candidates, 0)
        inside = (self.ranges.lo[safe] <= xs) & (xs <= self.ranges.hi[safe])
        indices = np.where(in_window & inside, candidates, -1)
        return indices, predicted, bounds

    def query_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised range queries; returns -1 where no range matches."""
        return self.query_batch_detailed(keys)[0]

    # --------------------------------------------------------------------- sizing

    def size_bytes(self, float_bytes: int = 4) -> int:
        """Model storage: submodel weights plus per-leaf error bounds (§5.2.1)."""
        weights = sum(
            stage.width * (3 * stage.hidden_units + 1) for stage in self.stacked
        )
        return weights * float_bytes + self.error_bounds.size * 4

    def statistics(self) -> dict[str, object]:
        return {
            "num_ranges": len(self.ranges),
            "stage_widths": list(self.stage_widths),
            "max_error": self.max_error,
            "size_bytes": self.size_bytes(),
            "training_seconds": self.report.training_seconds,
            "submodels_trained": self.report.submodels_trained,
            "retrain_attempts": self.report.retrain_attempts,
            "converged": self.report.converged,
        }

    # ------------------------------------------------------------- persistence

    def to_state(self) -> dict:
        """Full trained state: submodel weights, ranges, bounds, report.

        Restoring with :meth:`from_state` skips training entirely, which is
        the point of engine persistence — the Figure-15 training cost is paid
        once per rule-set.
        """
        return {
            "stages": [
                [submodel.to_dict() for submodel in stage] for stage in self.stages
            ],
            "ranges": self.ranges.to_state(),
            "error_bounds": self.error_bounds.tolist(),
            "report": asdict(self.report),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RQRMI":
        # Snapshots outlive this dataclass's field list: keep what it knows.
        known = {spec.name for spec in fields(TrainingReport)}
        report = TrainingReport(
            **{key: value for key, value in state["report"].items() if key in known}
        )
        return cls(
            stacked=[
                Stage.stack([Submodel.from_dict(data) for data in stage])
                for stage in state["stages"]
            ],
            ranges=RangeSet.from_state(state["ranges"]),
            error_bounds=state["error_bounds"],
            report=report,
        )
