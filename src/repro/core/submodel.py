"""RQ-RMI submodel: a tiny neural network analysed as a piece-wise linear function.

Each submodel is the 3-layer fully-connected network of Definition 3.1:

    N(x) = ReLU(x * w1 + b1) @ w2 + b2          (scalar input, scalar output)
    M(x) = H(N(x))                              (output trimmed to [0, 1))

Because ReLU of an affine function of a scalar is piece-wise linear, ``M`` is
piece-wise linear (Corollary 3.2).  That is the property the whole paper rests
on: the *trigger inputs* (where the slope changes) and the *transition inputs*
(where the quantised output ``floor(M(x) * W)`` changes) can be found
analytically, which makes the responsibility computation and the worst-case
error bound computation exact without enumerating keys (Appendix A).

A trained model keeps its weights in one :class:`Stage` per RQ-RMI stage:
``w1``/``b1``/``w2`` stacked into ``(slots, hidden)`` arrays and ``b2`` into a
``(slots,)`` array.  Those arrays are the only weight storage; the lookup
gathers rows of them by slot (:func:`repro.core.rqrmi.route`), and a
:class:`Submodel` is a view of one row, kept for the per-leaf analysis and for
warm-start.  Training builds free-standing submodels and stacks them once.

This module implements the submodel forward pass (scalar and vectorised), the
trigger/transition-input computations, (de)serialisation of the weights and
the stacked stage.  The analysis is array code over all hidden units and
segments at once; it returns float64 arrays and keeps nothing, so a submodel
holds only its weights.  The scalar ``raw`` / ``__call__`` / ``bucket`` are
the reference the batched forms equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["Submodel", "Stage", "OUTPUT_EPSILON", "flat_spans"]

#: M(x) is trimmed to [0, 1 - OUTPUT_EPSILON] so floor(M(x) * W) < W always.
OUTPUT_EPSILON = 1e-9


def flat_spans(first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer spans ``[first[i], last[i])`` laid end to end: ``(owner,
    values)``, where ``owner`` is the span each value came from.  Spans keep
    their order and their values ascend; an empty span contributes nothing."""
    counts = np.maximum(np.asarray(last) - first, 0)
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) + np.repeat(first - starts, counts)


@dataclass
class Submodel:
    """One trained RQ-RMI submodel (Definition 3.1).

    Attributes:
        w1: Hidden-layer weights, shape ``(hidden,)``.
        b1: Hidden-layer biases, shape ``(hidden,)``.
        w2: Output-layer weights, shape ``(hidden,)``.
        b2: Output bias (scalar).
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float

    def __post_init__(self) -> None:
        self.w1 = np.asarray(self.w1, dtype=np.float64).reshape(-1)
        self.b1 = np.asarray(self.b1, dtype=np.float64).reshape(-1)
        self.w2 = np.asarray(self.w2, dtype=np.float64).reshape(-1)
        self.b2 = float(self.b2)
        if not (self.w1.shape == self.b1.shape == self.w2.shape):
            raise ValueError("w1, b1 and w2 must have the same length")

    # -- forward pass ------------------------------------------------------------

    @property
    def hidden_units(self) -> int:
        return int(self.w1.shape[0])

    def raw(self, x: float) -> float:
        """The untrimmed network output N(x).

        The output sum uses multiply-then-``sum`` rather than ``@``: BLAS
        matvec accumulates in a shape-dependent order, so the same input could
        produce last-ulp-different outputs in scalar, single-row and batched
        evaluation — and the analytically computed error bound only covers the
        function it was evaluated on.  ``sum`` over the fixed-size last axis
        reduces in one deterministic order for every call shape.
        """
        hidden = np.maximum(self.w1 * x + self.b1, 0.0)
        return float((hidden * self.w2).sum() + self.b2)

    def raw_batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised N(x); bitwise-identical per element to :meth:`raw`."""
        xs = np.asarray(xs, dtype=np.float64).reshape(-1, 1)
        hidden = np.maximum(xs * self.w1 + self.b1, 0.0)
        return (hidden * self.w2).sum(axis=1) + self.b2

    def __call__(self, x: float) -> float:
        """The trimmed output M(x) in [0, 1)."""
        return min(max(self.raw(x), 0.0), 1.0 - OUTPUT_EPSILON)

    def predict_batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised M(x)."""
        return np.clip(self.raw_batch(xs), 0.0, 1.0 - OUTPUT_EPSILON)

    def bucket(self, x: float, width: int) -> int:
        """The quantised output ``floor(M(x) * width)`` in ``[0, width)``."""
        return min(int(self(x) * width), width - 1)

    def bucket_batch(self, xs: np.ndarray, width: int) -> np.ndarray:
        return np.minimum(
            (self.predict_batch(xs) * width).astype(np.int64), width - 1
        )

    # -- piece-wise linear analysis --------------------------------------------------

    def trigger_inputs(self, domain: tuple[float, float] = (0.0, 1.0)) -> np.ndarray:
        """Inputs where M changes slope, plus the domain boundaries (Def. A.5),
        as a sorted float64 array.

        Slope changes happen where a ReLU unit switches on/off
        (``w1[k] * x + b1[k] = 0``) and where the output trim H starts or stops
        clipping (``N(x) = 0`` or ``N(x) = 1``).
        """
        lo, hi = domain
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # ReLU kinks.
            on = self.w1 != 0.0
            kinks = -self.b1[on] / self.w1[on]
            kinks = np.unique(np.concatenate(
                [[lo, hi], kinks[np.isfinite(kinks) & (lo < kinks) & (kinks < hi)]]
            ))
            # Clipping kinks: solve N(x) = level on each linear piece of N.
            a, b = kinks[:-1], kinks[1:]
            outputs = self.raw_batch(kinks)
            na, nb = outputs[:-1], outputs[1:]
            parts = [kinks]
            for level in (0.0, 1.0 - OUTPUT_EPSILON):
                xs = a + (level - na) * (b - a) / (nb - na)
                crossed = (na - level) * (nb - level) < 0.0
                parts.append(xs[crossed & (lo < xs) & (xs < hi)])
        return np.unique(np.concatenate(parts))

    def transition_inputs(
        self, width: int, domain: tuple[float, float] = (0.0, 1.0)
    ) -> np.ndarray:
        """Inputs where ``floor(M(x) * width)`` changes value (Def. A.6), as a
        sorted float64 array computed afresh on each call.

        M is linear between adjacent trigger inputs, so every segment is
        intersected with the quantisation levels ``y = k / width`` it crosses
        in closed form (Lemma A.8), all segments in one pass.
        """
        if width < 1:
            raise ValueError("width must be at least 1")
        triggers = self.trigger_inputs(domain)
        outputs = self.predict_batch(triggers)
        buckets = (outputs * width).astype(np.int64)
        # Segment i crosses the levels k / width for k in (min bucket, max
        # bucket] of its ends; solve M(x) = k / width on it.
        owner, levels = flat_spans(
            np.minimum(buckets[:-1], buckets[1:]) + 1,
            np.maximum(buckets[:-1], buckets[1:]) + 1,
        )
        a, b = triggers[owner], triggers[owner + 1]
        ma, mb = outputs[owner], outputs[owner + 1]
        xs = a + (levels / width - ma) * (b - a) / (mb - ma)
        # Trigger inputs themselves may be transition inputs (slope change
        # with a bucket change across them); including them is harmless and
        # keeps the evaluation-point set conservative.
        return np.unique(
            np.concatenate([triggers, xs[(xs >= domain[0]) & (xs <= domain[1])]])
        )

    def max_error_on_points(
        self, points: np.ndarray, true_indices: np.ndarray, width: int
    ) -> int:
        """Largest |floor(M(p) * width) - true_index| over the given points."""
        if len(points) == 0:
            return 0
        predicted = self.bucket_batch(np.asarray(points, dtype=np.float64), width)
        return int(np.max(np.abs(predicted - np.asarray(true_indices, dtype=np.int64))))

    # -- weight export ---------------------------------------------------------------

    def weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """The trained parameters as a ``(w1, b1, w2, b2)`` tuple.

        Used as the warm-start ``init`` of a retrained submodel (the training
        pipeline seeds new submodels from the engine being replaced).
        """
        return self.w1, self.b1, self.w2, self.b2

    # -- serialisation / size --------------------------------------------------------

    def size_bytes(self, float_bytes: int = 4) -> int:
        """Storage size of the weights (single precision by default, as in §4)."""
        return (3 * self.hidden_units + 1) * float_bytes

    def to_dict(self) -> dict:
        return {
            "w1": self.w1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Submodel":
        return cls(
            np.asarray(data["w1"], dtype=np.float64),
            np.asarray(data["b1"], dtype=np.float64),
            np.asarray(data["w2"], dtype=np.float64),
            float(data["b2"]),
        )

    @classmethod
    def identity(cls, hidden_units: int = 8) -> "Submodel":
        """A submodel approximating M(x) = x, used as a safe fallback."""
        knots = np.linspace(0.0, 1.0, hidden_units, endpoint=False)
        w1 = np.ones(hidden_units)
        b1 = -knots
        # Sum of ReLU(x - knot_k) * w2_k == x for x in [0, 1] when w2 chosen so
        # the cumulative slope is 1 over each segment: first unit slope 1, rest 0.
        w2 = np.zeros(hidden_units)
        w2[0] = 1.0
        return cls(w1, b1, w2, 0.0)


class Stage(NamedTuple):
    """One RQ-RMI stage's weights, stacked slot by slot: row ``s`` of ``w1``,
    ``b1`` and ``w2`` (``(slots, hidden)``, C-contiguous float64) and
    ``b2[s]`` (``(slots,)``) are the weights of the stage's submodel ``s``."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def stack(cls, submodels: Sequence[Submodel]) -> "Stage":
        """Stack one stage's submodels (all of one hidden width) by slot."""
        return cls(
            np.stack([submodel.w1 for submodel in submodels]),
            np.stack([submodel.b1 for submodel in submodels]),
            np.stack([submodel.w2 for submodel in submodels]),
            np.array([submodel.b2 for submodel in submodels], dtype=np.float64),
        )

    @property
    def width(self) -> int:
        return int(self.b2.shape[0])

    @property
    def hidden_units(self) -> int:
        return int(self.w1.shape[1])

    def submodels(self) -> list[Submodel]:
        """Every slot's submodel, its weight arrays views of this stage's rows."""
        return [
            Submodel(w1, b1, w2, b2)
            for w1, b1, w2, b2 in zip(self.w1, self.b1, self.w2, self.b2.tolist())
        ]
