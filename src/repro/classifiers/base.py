"""Common classifier interface, lookup tracing and memory accounting.

Every packet classifier in the library (the baselines and NuevoMatch itself)
implements :class:`Classifier` through one columnar lookup — a baseline its
``classify_block_with_floors``, NuevoMatch its ``classify_block`` — and the
base class derives the object views from it (:func:`materialize`).  Besides
the matching rule, a lookup reports per-packet counters (:data:`TRACE_FIELDS`,
a :class:`LookupTrace` per object result) describing the *memory behaviour*
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
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.rules.rule import NO_FLOOR, Packet, Rule, RuleSet

__all__ = [
    "LookupTrace",
    "MemoryFootprint",
    "ClassificationResult",
    "Classifier",
    "STATE_FORMAT_VERSION",
    "TRACE_FIELDS",
    "NO_FLOOR",
    "check_results",
    "check_state_header",
    "materialize",
    "scan_candidates",
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


def materialize(
    classify_block: Callable[..., tuple[np.ndarray, np.ndarray]],
    packets: Sequence[Packet | Sequence[int]] | np.ndarray,
    rule_of: Callable[[int], Optional[Rule]],
) -> list[ClassificationResult]:
    """The one object view of a columnar lookup, shared by classifiers and
    engine stacks: ``packets`` (packets/tuples, or a 2-d integer block whose
    rows are packets) go through ``classify_block`` once with a trace
    out-array, and each row becomes a :class:`ClassificationResult` — its id
    resolved by ``rule_of``, its trace row a :class:`LookupTrace`.  No
    packets, no results."""
    if isinstance(packets, np.ndarray) and packets.ndim == 2:
        block = packets
    else:
        block = np.array(
            [packet.values if isinstance(packet, Packet) else tuple(packet) for packet in packets],
            dtype=np.int64,
        )
    if len(block) == 0:
        return []
    traces = np.zeros((len(block), len(TRACE_FIELDS)), dtype=np.int64)
    rule_ids, _priorities = classify_block(block, traces=traces)
    return [
        ClassificationResult(None if rule_id < 0 else rule_of(rule_id), trace_from_row(row))
        for rule_id, row in zip(rule_ids.tolist(), traces.tolist())
    ]


def check_results(
    name: str, oracle: RuleSet, packets: list, results: list[ClassificationResult]
) -> int:
    """The ``verify`` oracle: raise ``AssertionError`` at the first packet
    whose result's rule (or miss) is not ``oracle.match``'s, else return the
    number of packets checked."""
    for packet, result in zip(packets, results):
        expected = oracle.match(packet)
        expected_id = expected.rule_id if expected else None
        actual_id = result.rule.rule_id if result.rule else None
        if expected_id != actual_id:
            raise AssertionError(
                f"{name}: mismatch for packet {tuple(packet)}: "
                f"expected rule {expected_id}, got {actual_id}"
            )
    return len(packets)


def scan_candidates(
    values: np.ndarray, rows: np.ndarray, first: np.ndarray, count: np.ndarray,
    lo: np.ndarray, hi: np.ndarray, key: np.ndarray, bound: np.ndarray,
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The one candidate scan: a hash bucket's or forest leaf's first match.

    Pair ``i`` is row ``rows[i]`` and the ``count[i]`` key-sorted slots from
    ``first[i]`` of ``lo``/``hi``/``key``.  Returns each pair's first match's
    key below ``bound[i]`` (:data:`NO_FLOOR` if none) and ``scanned(limit)``,
    the entries a per-packet walk bounded by ``limit <= bound`` touches.  No
    list may be empty (the hash kernel's exact confirm drops its slotless
    guard bucket; an empty leaf's best key ``NO_FLOOR`` is never live), so
    every ``reduceat`` offset is in range; zero pairs give empty arrays.
    """
    starts = count.cumsum() - count
    pair = np.arange(count.size).repeat(count)
    slot = np.arange(pair.size) + (first - starts)[pair]
    entry_key = key[slot]
    packets = values[rows[pair]]
    hit = (entry_key < bound[pair]) & np.logical_and.reduce(
        (packets >= lo[slot]) & (packets <= hi[slot]), axis=1
    )
    # Lists are key-sorted, so the smallest matching key is the first match.
    hit_key = np.minimum.reduceat(np.where(hit, entry_key, NO_FLOOR), starts)

    def scanned(limit: np.ndarray) -> np.ndarray:
        return np.add.reduceat((entry_key < limit[pair]) & (entry_key <= hit_key[pair]), starts)

    return hit_key, scanned


class Classifier(ABC):
    """Abstract multi-field packet classifier.

    Concrete classifiers are constructed from a :class:`RuleSet` via
    :meth:`build` and answer with the highest-priority matching rule.  A
    baseline implements one lookup, :meth:`classify_block_with_floors`
    (NuevoMatch implements :meth:`classify_block`); everything else is a view
    of it — :meth:`classify_block` unfloored, :meth:`classify_batch` the
    N-row object view, :meth:`classify_traced` the 1-row one and
    :meth:`classify` its rule.
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

    def classify_block_with_floors(
        self,
        block: np.ndarray,
        floors: Optional[np.ndarray],
        traces: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Floored columnar lookup — the one lookup a baseline implements, and
        the remainder half of NuevoMatch's early-termination contract (§4),
        one floor per row.

        ``(n, fields)`` block → ``(rule_ids, priorities)``, misses as
        ``(-1, 0)``.  ``floors`` is an int64 array of per-row order-key
        floors: a row reports only a match whose key is below its floor
        (:data:`NO_FLOOR`, re-exported here, disables it for a row; ``None``
        everywhere).  ``traces`` rows are *accumulated into*, not overwritten:
        NuevoMatch adds the remainder's counters on top of the iSet ones.

        NuevoMatch implements :meth:`classify_block` instead; nothing indexes
        a remainder with it, so it has no floored lookup.
        """
        raise NotImplementedError(f"{self.name} has no floored lookup")

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

        NuevoMatch overrides this; for every other classifier it is the
        unfloored view of :meth:`classify_block_with_floors`.
        """
        if traces is not None:
            traces[: len(block)] = 0
        return self.classify_block_with_floors(block, None, traces=traces)

    def classify_batch(
        self, packets: Sequence[Packet | Sequence[int]] | np.ndarray
    ) -> list[ClassificationResult]:
        """One traced result per packet: the N-row object view of
        :meth:`classify_block` (:func:`materialize`).  ``packets`` is a
        sequence of packets/tuples or a 2-d integer block."""
        ruleset = self.ruleset
        return materialize(
            self.classify_block, packets, lambda rule_id: ruleset[ruleset.row_of[rule_id]]
        )

    def classify_traced(self, packet: Packet | Sequence[int]) -> ClassificationResult:
        """Single-packet traced lookup (a one-row :meth:`classify_batch`)."""
        return self.classify_batch([packet])[0]

    def classify(self, packet: Packet | Sequence[int]) -> Optional[Rule]:
        """Return the highest-priority rule matching ``packet`` (or ``None``);
        prefer :meth:`classify_block` for many packets."""
        return self.classify_traced(packet).rule

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
        first packet whose rule (or miss) differs (:func:`check_results`).
        Used by tests and by the benchmark harness to ensure the structures
        being timed are actually correct.
        """
        packets = list(packets)
        results = self.classify_batch(packets)
        return check_results(self.name, oracle or self.ruleset, packets, results)


# Byte-size constants shared by the concrete classifiers' footprint models.
# They follow the C/C++ layouts the original implementations use, so relative
# footprints between classifiers are meaningful.
POINTER_BYTES = 8
NODE_HEADER_BYTES = 16       # decision-tree node header (type, dim, bounds ptr)
RULE_ENTRY_BYTES = 48        # a stored 5-tuple rule: 5 ranges @ 8B + prio/action
HASH_ENTRY_BYTES = 16        # hash bucket entry: key hash + rule pointer
HASH_TABLE_OVERHEAD = 64     # per-table header
FLOAT_BYTES = 4
