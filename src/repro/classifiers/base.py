"""Common classifier interface, lookup tracing and memory accounting.

Every packet classifier in the library (the baselines and NuevoMatch itself)
implements :class:`Classifier`.  Besides returning the matching rule, a
classifier can report a :class:`LookupTrace` describing the *memory behaviour*
of the lookup — how many dependent accesses it made to its index structure,
how many rule entries it touched, and how much pure compute it performed.
The :mod:`repro.simulation` cost model turns those traces plus the
:class:`MemoryFootprint` of the structure into latency/throughput estimates,
which is how the paper's performance-shaped experiments are reproduced
(see docs/ARCHITECTURE.md for where this sits in the stack).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.rules.rule import Packet, Rule, RuleSet

__all__ = [
    "LookupTrace",
    "MemoryFootprint",
    "ClassificationResult",
    "Classifier",
    "STATE_FORMAT_VERSION",
    "TRACE_FIELDS",
    "NO_FLOOR",
    "check_state_header",
    "trace_from_row",
]

#: Column order of the ``(n, 5)`` int64 trace blocks used by the columnar
#: serve path (``classify_block``'s optional ``traces`` out-array and the
#: shard-worker result rings).  One column per :class:`LookupTrace` counter.
TRACE_FIELDS = (
    "index_accesses",
    "rule_accesses",
    "model_accesses",
    "compute_ops",
    "hash_ops",
)

#: "No floor" sentinel for the per-row floors of
#: :meth:`Classifier.classify_block_with_floors`.  Numerically above every real
#: rule priority, so ``priority < NO_FLOOR`` always holds.
NO_FLOOR = int(np.iinfo(np.int64).max)

#: Version of the serializable classifier state produced by ``to_state`` and
#: consumed by ``from_state``.  Bump when the layout changes incompatibly.
STATE_FORMAT_VERSION = 1


def check_state_header(state: dict, expected_kind: str) -> None:
    """Validate the version/kind header of a ``to_state`` payload."""
    version = state.get("format")
    if version != STATE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported classifier state format {version!r} "
            f"(this build reads version {STATE_FORMAT_VERSION})"
        )
    kind = state.get("kind")
    if kind != expected_kind:
        raise ValueError(
            f"state is for classifier {kind!r}, expected {expected_kind!r}"
        )


@dataclass
class LookupTrace:
    """Memory/compute profile of a single lookup.

    Attributes:
        index_accesses: Dependent accesses to the classifier's index structure
            (tree nodes, hash buckets, model parameters already counted as
            resident — see ``model_accesses``).  These are the accesses whose
            latency depends on where the index lives in the cache hierarchy.
        rule_accesses: Accesses to stored rule entries (secondary search,
            validation, leaf scans).  Rules live in DRAM in the paper's design.
        model_accesses: Accesses to RQ-RMI model weights.  Held separately
            because the models are small enough to stay L1-resident.
        compute_ops: Arithmetic work in "vector-op" units (neural-net
            inference, comparisons), used by the vectorisation model.
        hash_ops: Number of hash computations performed.
    """

    index_accesses: int = 0
    rule_accesses: int = 0
    model_accesses: int = 0
    compute_ops: int = 0
    hash_ops: int = 0

    def merge(self, other: "LookupTrace") -> "LookupTrace":
        """Element-wise sum of two traces (e.g. iSets + remainder)."""
        return LookupTrace(
            index_accesses=self.index_accesses + other.index_accesses,
            rule_accesses=self.rule_accesses + other.rule_accesses,
            model_accesses=self.model_accesses + other.model_accesses,
            compute_ops=self.compute_ops + other.compute_ops,
            hash_ops=self.hash_ops + other.hash_ops,
        )

    @classmethod
    def aggregate(cls, traces: Iterable["LookupTrace"]) -> "LookupTrace":
        """Element-wise sum over many traces (the cost of a whole batch).

        The simulation layer uses the aggregate to price a batched lookup in
        one :meth:`~repro.simulation.cost_model.CostModel.lookup_latency` call
        instead of one call per packet.
        """
        total = cls()
        for trace in traces:
            total.index_accesses += trace.index_accesses
            total.rule_accesses += trace.rule_accesses
            total.model_accesses += trace.model_accesses
            total.compute_ops += trace.compute_ops
            total.hash_ops += trace.hash_ops
        return total

    @property
    def total_accesses(self) -> int:
        return self.index_accesses + self.rule_accesses + self.model_accesses


@dataclass
class MemoryFootprint:
    """Size of a classifier's data structures in bytes.

    Attributes:
        index_bytes: The lookup index itself (tree nodes, hash tables, model
            weights) — the quantity plotted in the paper's Figure 13.
        rule_bytes: Storage for the rules / value arrays (excluded from the
            paper's footprint comparison but tracked for completeness).
        breakdown: Optional per-component byte counts for reporting.
    """

    index_bytes: int = 0
    rule_bytes: int = 0
    breakdown: dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.index_bytes + self.rule_bytes

    def merge(self, other: "MemoryFootprint") -> "MemoryFootprint":
        combined = dict(self.breakdown)
        for key, value in other.breakdown.items():
            combined[key] = combined.get(key, 0) + value
        return MemoryFootprint(
            index_bytes=self.index_bytes + other.index_bytes,
            rule_bytes=self.rule_bytes + other.rule_bytes,
            breakdown=combined,
        )


@dataclass
class ClassificationResult:
    """Outcome of a traced lookup."""

    rule: Optional[Rule]
    trace: LookupTrace

    @property
    def matched(self) -> bool:
        return self.rule is not None

    @property
    def action(self) -> Optional[str]:
        return self.rule.action if self.rule else None


def trace_from_row(row: Sequence[int]) -> LookupTrace:
    """A :class:`LookupTrace` from one :data:`TRACE_FIELDS`-ordered counter row
    (a ``classify_block`` trace row, or a column-wise sum of many)."""
    return LookupTrace(*(int(value) for value in row))


class Classifier(ABC):
    """Abstract multi-field packet classifier.

    Concrete classifiers are constructed from a :class:`RuleSet` via
    :meth:`build` and answer point queries with the highest-priority matching
    rule.  ``classify`` is the plain interface; ``classify_traced`` also
    reports the lookup's memory/compute profile.
    """

    #: Short name used in reports (e.g. ``"cs"`` for CutSplit).
    name: str = "classifier"

    def __init__(self, ruleset: RuleSet):
        self.ruleset = ruleset
        #: Keyword arguments that reproduce this instance via ``build``;
        #: recorded by ``build`` and serialized by the default ``to_state``.
        self.build_params: dict[str, object] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, ruleset: RuleSet, **params) -> "Classifier":
        """Construct the classifier's index structures from ``ruleset``.

        ``params`` are the constructor's keyword parameters and are recorded
        as ``build_params``; one the constructor does not take raises
        ``TypeError`` and nothing is built.
        """
        classifier = cls(ruleset, **params)
        classifier.build_params = dict(params)
        return classifier

    # -- persistence ----------------------------------------------------------

    def to_state(self) -> dict:
        """Serializable (JSON-compatible) state of this classifier.

        The default captures only ``build_params``: every baseline classifier
        is constructed deterministically from its rule-set and parameters, so
        ``from_state`` can rebuild an identical structure.  Classifiers with
        expensive trained state (NuevoMatch's RQ-RMI submodels) override this
        with a full dump so the training cost is paid once per rule-set.
        """
        return {
            "format": STATE_FORMAT_VERSION,
            "kind": self.name,
            "params": dict(self.build_params),
        }

    @classmethod
    def from_state(cls, state: dict, ruleset: RuleSet) -> "Classifier":
        """Reconstruct a classifier from :meth:`to_state` output and its rules."""
        check_state_header(state, cls.name)
        return cls.build(ruleset, **state.get("params", {}))

    # -- lookup ---------------------------------------------------------------

    @abstractmethod
    def classify_traced(self, packet: Packet | Sequence[int]) -> ClassificationResult:
        """Return the best matching rule together with the lookup trace."""

    def classify(self, packet: Packet | Sequence[int]) -> Optional[Rule]:
        """Return the highest-priority rule matching ``packet`` (or ``None``)."""
        return self.classify_traced(packet).rule

    def classify_batch(
        self, packets: Sequence[Packet | Sequence[int]]
    ) -> list[ClassificationResult]:
        """One traced result per packet: a loop over :meth:`classify_traced`.

        The scalar path is the paper-faithful reference the columnar
        :meth:`classify_block` implementations are tested against; no
        classifier overrides this.
        """
        return [self.classify_traced(packet) for packet in packets]

    def classify_block(
        self,
        block: np.ndarray,
        traces: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar lookup: ``(n, fields)`` block → ``(rule_ids, priorities)``.

        The serving data plane's native shape (shared-memory worker rings,
        wire protocol v2) and the one lookup every engine stack implements.
        Misses encode as ``rule_id == -1`` with ``priority == 0``.  ``traces``,
        when given, is an ``(n, len(TRACE_FIELDS))`` int64 out-array whose
        rows are *overwritten* with the per-packet lookup counters in
        :data:`TRACE_FIELDS` order.

        Linear search and NuevoMatch override this with an allocation-free
        path; the generic implementation is the unfloored
        :meth:`classify_block_with_floors` loop, which the hash family
        overrides in turn.
        """
        if traces is not None:
            traces[: len(block)] = 0
        return self.classify_block_with_floors(block, None, traces=traces)

    def classify_block_with_floors(
        self,
        block: np.ndarray,
        floors: Optional[np.ndarray],
        traces: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Floored columnar lookup — the remainder half of NuevoMatch's
        early-termination contract (§4), one floor per row.

        ``floors`` is an int64 array of per-row priority floors
        (:data:`NO_FLOOR` disables the floor for a row; ``None`` disables it
        everywhere).  ``traces`` rows are *accumulated into*, not overwritten:
        NuevoMatch adds the remainder's counters on top of the iSet ones.  The
        generic implementation loops :meth:`classify_with_floor`, so any
        classifier can index a NuevoMatch remainder that serves blocks.
        """
        n = len(block)
        rule_ids = np.full(n, -1, dtype=np.int64)
        priorities = np.zeros(n, dtype=np.int64)
        for row in range(n):
            floor = None if floors is None or floors[row] == NO_FLOOR else int(floors[row])
            result = self.classify_with_floor(
                tuple(int(value) for value in block[row]), floor
            )
            if result.rule is not None:
                rule_ids[row] = result.rule.rule_id
                priorities[row] = result.rule.priority
            if traces is not None:
                for column, name in enumerate(TRACE_FIELDS):
                    traces[row, column] += getattr(result.trace, name)
        return rule_ids, priorities

    def classify_with_floor(
        self, packet: Packet | Sequence[int], priority_floor: Optional[int]
    ) -> ClassificationResult:
        """Lookup that may terminate early if no rule can beat ``priority_floor``.

        ``priority_floor`` is the numeric priority of the best match found so
        far elsewhere (lower is better); a classifier supporting the paper's
        *early termination* optimisation (§4) prunes work that cannot return a
        strictly better (numerically lower) priority.  The default simply
        performs a full lookup.
        """
        return self.classify_traced(packet)

    # -- introspection --------------------------------------------------------

    @abstractmethod
    def memory_footprint(self) -> MemoryFootprint:
        """Size of the classifier's data structures."""

    def statistics(self) -> dict[str, object]:
        """Structure statistics for reports; subclasses extend this."""
        footprint = self.memory_footprint()
        return {
            "name": self.name,
            "num_rules": len(self.ruleset),
            "index_bytes": footprint.index_bytes,
            "rule_bytes": footprint.rule_bytes,
        }

    # -- verification ----------------------------------------------------------

    def verify(self, packets: Iterable[Packet], oracle: RuleSet | None = None) -> int:
        """Check the classifier against linear search on ``packets``.

        Returns the number of packets checked; raises ``AssertionError`` on the
        first disagreement.  Used by tests and by the benchmark harness to
        ensure the structures being timed are actually correct.
        """
        oracle = oracle or self.ruleset
        count = 0
        for packet in packets:
            expected = oracle.match(packet)
            actual = self.classify(packet)
            expected_id = expected.rule_id if expected else None
            actual_id = actual.rule_id if actual else None
            if expected_id != actual_id:
                expected_priority = expected.priority if expected else None
                actual_priority = actual.priority if actual else None
                # Distinct rules with equal priority and identical match sets
                # are acceptable ties; anything else is a real bug.
                if expected_priority != actual_priority:
                    raise AssertionError(
                        f"{self.name}: mismatch for packet {tuple(packet)}: "
                        f"expected rule {expected_id} (prio {expected_priority}), "
                        f"got {actual_id} (prio {actual_priority})"
                    )
            count += 1
        return count


# Byte-size constants shared by the concrete classifiers' footprint models.
# They follow the C/C++ layouts the original implementations use, so relative
# footprints between classifiers are meaningful.
POINTER_BYTES = 8
NODE_HEADER_BYTES = 16       # decision-tree node header (type, dim, bounds ptr)
RULE_ENTRY_BYTES = 48        # a stored 5-tuple rule: 5 ranges @ 8B + prio/action
HASH_ENTRY_BYTES = 16        # hash bucket entry: key hash + rule pointer
HASH_TABLE_OVERHEAD = 64     # per-table header
FLOAT_BYTES = 4
