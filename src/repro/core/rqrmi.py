"""Range-Query Recursive Model Index (RQ-RMI).

An RQ-RMI indexes a set of *disjoint* one-dimensional ranges: given a key it
returns the index of the range containing the key (or ``None``).  It is the
paper's core contribution (§3.3–§3.5): a small hierarchy of neural-net
submodels predicts the index; an analytically computed worst-case error bound
limits the secondary search around the prediction, and the correctness of that
bound does not require enumerating the keys inside the ranges — only the
submodels' transition inputs and the range boundaries are evaluated.

The model is trained stage by stage.  Responsibilities of stage ``i+1`` are
derived from the transition inputs of stage ``i`` (Theorem A.1); last-stage
submodels are retrained with doubled sample counts until the error bound meets
the configured threshold (Figure 5).  That staged loop lives in
:func:`repro.core.pipeline.train_rqrmi`; this module holds the model, the
responsibility and error-bound analysis it calls, lookup and persistence.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.core.config import RQRMIConfig
from repro.core.submodel import Submodel

__all__ = ["RangeSet", "RQRMI", "RQRMILookup", "TrainingReport"]

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
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
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
class RQRMILookup:
    """Result of a single RQ-RMI range query."""

    index: int | None
    predicted_index: int
    error_bound: int
    search_accesses: int
    model_accesses: int


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


class RQRMI:
    """A trained Range-Query RMI over one :class:`RangeSet`."""

    def __init__(
        self,
        stages: list[list[Submodel]],
        ranges: RangeSet,
        error_bounds: list[int],
        report: TrainingReport,
    ):
        self.stages = stages
        self.ranges = ranges
        self.error_bounds = error_bounds
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
    def _route_partial(
        stages: list[list[Submodel]], widths: list[int], x: float
    ) -> tuple[int, float]:
        """Traverse the trained stages; return (next submodel slot, last output).

        Uses the stages trained so far: after stage ``i`` the returned slot is
        the stage ``i+1`` submodel index ``floor(M(x) * widths[i+1])``.
        """
        slot = 0
        output = 0.0
        for stage_index, stage in enumerate(stages):
            submodel = stage[slot]
            output = submodel(x)
            next_width = (
                widths[stage_index + 1] if stage_index + 1 < len(widths) else None
            )
            if next_width is not None:
                slot = min(int(output * next_width), next_width - 1)
        return slot, output

    @classmethod
    def _assign_responsibilities(
        cls,
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
                transition_set.add(a)
                transition_set.add(b)
                for t in transitions:
                    if a <= t <= b:
                        transition_set.add(t)
        ordered = sorted(transition_set)
        buckets: list[list[Interval]] = [[] for _ in range(next_width)]
        for a, b in zip(ordered[:-1], ordered[1:]):
            if b <= a:
                continue
            midpoint = (a + b) / 2.0
            slot, _ = cls._route_partial(stages, widths, midpoint)
            bucket = buckets[slot]
            if bucket and bucket[-1][1] >= a:
                bucket[-1] = (bucket[-1][0], b)
            else:
                bucket.append((a, b))
        for slot in range(next_width):
            responsibilities[stage_index + 1][slot] = buckets[slot]

    # ----------------------------------------------------------------- error bound

    @classmethod
    def _error_bound_for(
        cls,
        trained_stages: list[list[Submodel]],
        candidate: Submodel,
        intervals: list[Interval],
        ranges: RangeSet,
        widths: list[int],
    ) -> int:
        """Worst-case |predicted - true| index error over the responsibility.

        Evaluates the *full* inference function (previous stages + the
        candidate submodel) at the analytically sufficient points: range
        boundaries clipped to the responsibility and the candidate's
        transition inputs (snapped to the adjacent integer keys to absorb
        floating-point jitter), per Theorem A.13.
        """
        num_ranges = len(ranges)
        if num_ranges == 0:
            return 0
        domain = ranges.domain_size
        pad = 1.0 / domain
        transitions = np.array(candidate.transition_inputs(num_ranges), dtype=np.float64)
        points_parts: list[np.ndarray] = []
        index_parts: list[np.ndarray] = []
        for a, b in intervals:
            a_pad, b_pad = a - pad, b + pad
            first = int(np.searchsorted(ranges.hi, a_pad, side="left"))
            last = int(np.searchsorted(ranges.lo, b_pad, side="right"))
            if first >= last:
                continue
            # Boundary evaluation points: every intersecting range's bounds,
            # clipped to the padded responsibility.
            lo_clip = np.maximum(ranges.lo[first:last], a_pad)
            hi_clip = np.minimum(ranges.hi[first:last], b_pad)
            valid = lo_clip <= hi_clip
            idx = np.arange(first, last, dtype=np.int64)[valid]
            points_parts += [lo_clip[valid], hi_clip[valid]]
            index_parts += [idx, idx]
            if len(transitions):
                mask = (transitions >= a_pad) & (transitions <= b_pad)
                ts = transitions[mask]
                if len(ts):
                    # Ranges are disjoint and sorted, so each transition
                    # belongs to at most the range searchsorted lands it in.
                    pos = np.searchsorted(ranges.lo, ts, side="right") - 1
                    safe = np.clip(pos, 0, num_ranges - 1)
                    inside = (pos >= first) & (pos < last) & (ts <= ranges.hi[safe])
                    ts, pos = ts[inside], pos[inside]
                if len(ts):
                    t_lo = np.maximum(ranges.lo[pos], a_pad)
                    t_hi = np.minimum(ranges.hi[pos], b_pad)
                    keys = np.floor(ts * domain)
                    for snapped in (keys / domain, (keys + 1.0) / domain):
                        good = (snapped >= t_lo) & (snapped <= t_hi)
                        points_parts.append(snapped[good])
                        index_parts.append(pos[good])
                    points_parts.append(ts)
                    index_parts.append(pos)
        if not points_parts:
            return 0
        points = np.concatenate(points_parts)
        if not len(points):
            return 0
        true_indices = np.concatenate(index_parts)
        predicted = cls._predict_index_static(
            trained_stages, candidate, widths, points, num_ranges
        )
        return int(np.max(np.abs(predicted - true_indices)))

    @staticmethod
    def _predict_index_static(
        trained_stages: list[list[Submodel]],
        candidate: Submodel,
        widths: list[int],
        xs: np.ndarray,
        num_ranges: int,
    ) -> np.ndarray:
        """Predicted indices for ``xs`` using trained stages + a candidate leaf."""
        slots = np.zeros(len(xs), dtype=np.int64)
        outputs = np.zeros(len(xs), dtype=np.float64)
        for stage_index, stage in enumerate(trained_stages):
            next_width = widths[stage_index + 1]
            new_outputs = np.zeros_like(outputs)
            for slot in np.unique(slots):
                mask = slots == slot
                new_outputs[mask] = stage[slot].predict_batch(xs[mask])
            outputs = new_outputs
            slots = np.minimum((outputs * next_width).astype(np.int64), next_width - 1)
        # The candidate leaf handles every point (they lie in its responsibility).
        leaf_outputs = candidate.predict_batch(xs)
        predicted = np.minimum(
            (leaf_outputs * num_ranges).astype(np.int64), num_ranges - 1
        )
        return predicted

    # ----------------------------------------------------------------------- lookup

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def stage_widths(self) -> list[int]:
        return [len(stage) for stage in self.stages]

    @property
    def max_error(self) -> int:
        return max(self.error_bounds) if self.error_bounds else 0

    def _route(self, x: float) -> tuple[int, float]:
        """Full traversal: returns (leaf slot, leaf output)."""
        slot = 0
        output = 0.0
        widths = self.stage_widths
        for stage_index, stage in enumerate(self.stages):
            submodel = stage[slot]
            output = submodel(x)
            if stage_index + 1 < len(widths):
                next_width = widths[stage_index + 1]
                slot = min(int(output * next_width), next_width - 1)
        return slot, output

    def predict(self, key: int) -> tuple[int, int]:
        """Predicted range index and the applicable error bound for ``key``."""
        x = self.ranges.scale_key(key)
        slot, output = self._route(x)
        num_ranges = max(1, len(self.ranges))
        predicted = min(int(output * num_ranges), num_ranges - 1)
        return predicted, self.error_bounds[slot] if self.error_bounds else 0

    def query(self, key: int) -> RQRMILookup:
        """Range query: find the range containing ``key`` (§3.8 lookup).

        Performs inference, then a bounded binary search within
        ``[predicted - error, predicted + error]`` over the sorted ranges.
        """
        num_ranges = len(self.ranges)
        if num_ranges == 0:
            return RQRMILookup(None, 0, 0, 0, len(self.stages))
        x = self.ranges.scale_key(key)
        slot, output = self._route(x)
        predicted = min(int(output * num_ranges), num_ranges - 1)
        bound = self.error_bounds[slot] if self.error_bounds else 0
        lo = max(0, predicted - bound)
        hi = min(num_ranges - 1, predicted + bound)
        window = hi - lo + 1
        search_accesses = max(1, int(math.ceil(math.log2(window + 1))))
        # Binary search for the candidate range within the window.
        position = int(np.searchsorted(self.ranges.lo[lo : hi + 1], x, side="right")) - 1
        index: int | None = None
        if position >= 0:
            candidate = lo + position
            if self.ranges.lo[candidate] <= x <= self.ranges.hi[candidate]:
                index = candidate
        return RQRMILookup(
            index=index,
            predicted_index=predicted,
            error_bound=bound,
            search_accesses=search_accesses,
            model_accesses=len(self.stages),
        )

    def _route_batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized stage traversal: (leaf slots, leaf outputs) for ``xs``."""
        slots = np.zeros(len(xs), dtype=np.int64)
        outputs = np.zeros(len(xs), dtype=np.float64)
        widths = self.stage_widths
        for stage_index, stage in enumerate(self.stages):
            new_outputs = np.zeros_like(outputs)
            for slot in np.unique(slots):
                mask = slots == slot
                new_outputs[mask] = stage[slot].predict_batch(xs[mask])
            outputs = new_outputs
            if stage_index + 1 < len(widths):
                next_width = widths[stage_index + 1]
                slots = np.minimum(
                    (outputs * next_width).astype(np.int64), next_width - 1
                )
        return slots, outputs

    def query_batch_detailed(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized equivalent of per-key :meth:`query` over many keys.

        The inference (the dominant cost, Table 1) runs batched across all
        keys; the bounded secondary search is evaluated with the same windowed
        semantics as the scalar path, so the returned indices are exactly what
        per-key ``query`` calls would produce.

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
        slots, outputs = self._route_batch(xs)
        predicted = np.minimum(
            (outputs * num_ranges).astype(np.int64), num_ranges - 1
        )
        if self.error_bounds:
            bounds = np.asarray(self.error_bounds, dtype=np.int64)[slots]
        else:
            bounds = np.zeros(num_keys, dtype=np.int64)
        window_lo = np.maximum(predicted - bounds, 0)
        window_hi = np.minimum(predicted + bounds, num_ranges - 1)
        # Windowed binary search, vectorized: the position the scalar path's
        # searchsorted over ranges.lo[window] finds equals the global position
        # clipped to the window top, valid only when it reaches the window.
        positions = np.searchsorted(self.ranges.lo, xs, side="right") - 1
        candidates = np.minimum(positions, window_hi)
        in_window = positions >= window_lo
        safe = np.clip(candidates, 0, num_ranges - 1)
        inside = (self.ranges.lo[safe] <= xs) & (xs <= self.ranges.hi[safe])
        indices = np.where(in_window & inside, candidates, -1).astype(np.int64)
        return indices, predicted, bounds

    def query_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised range queries; returns -1 where no range matches."""
        return self.query_batch_detailed(keys)[0]

    # --------------------------------------------------------------------- sizing

    def size_bytes(self, float_bytes: int = 4) -> int:
        """Model storage: submodel weights plus per-leaf error bounds (§5.2.1)."""
        total = sum(
            submodel.size_bytes(float_bytes)
            for stage in self.stages
            for submodel in stage
        )
        total += len(self.error_bounds) * 4
        return total

    def statistics(self) -> dict[str, object]:
        return {
            "num_ranges": len(self.ranges),
            "stage_widths": self.stage_widths,
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
            "error_bounds": list(self.error_bounds),
            "report": asdict(self.report),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RQRMI":
        stages = [
            [Submodel.from_dict(data) for data in stage] for stage in state["stages"]
        ]
        # Snapshots outlive this dataclass's field list: keep what it knows.
        known = {spec.name for spec in fields(TrainingReport)}
        report = TrainingReport(
            **{key: value for key, value in state["report"].items() if key in known}
        )
        return cls(
            stages=stages,
            ranges=RangeSet.from_state(state["ranges"]),
            error_bounds=[int(b) for b in state["error_bounds"]],
            report=report,
        )
