"""The :class:`EngineStack` mixin: one lookup implementation per stack.

Every engine stack — the plain :class:`~repro.engine.ClassificationEngine`,
the sharded :class:`~repro.serving.ShardedEngine`, and either wrapped in a
:class:`~repro.serving.CachedEngine` — *implements* exactly one lookup, the
columnar ``classify_block``.  Everything else a caller can ask of a stack is
derived from it here, once: the object materializer :meth:`~EngineStack.
classify_batch`, the single-packet :meth:`~EngineStack.classify_traced` /
:meth:`~EngineStack.classify`, :meth:`~EngineStack.verify` against linear
search over the live rules, and the context-manager protocol.  The scalar,
paper-faithful reference lives one layer down, in
:meth:`Classifier.classify_traced
<repro.classifiers.base.Classifier.classify_traced>`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.classifiers.base import (
    TRACE_FIELDS,
    ClassificationResult,
    trace_from_row,
)
from repro.rules.rule import Packet, Rule

__all__ = ["EngineStack", "validate_block"]


def validate_block(block) -> np.ndarray:
    """Validate a packet block and return it as contiguous ``(n, fields)`` uint64.

    The one shared entry gate for every engine stack's ``classify_block``
    (plain, sharded, cached), so validation — and its error messages — cannot
    diverge between them:

    * the block must be a numeric *integer* array (object/ragged and float
      inputs are rejected, never probed),
    * it must be 2-dimensional,
    * field values must be non-negative (signed inputs are checked, not
      silently wrapped into huge uint64 values).

    Already-conforming uint64 arrays pass through zero-copy.
    """
    array = np.asarray(block)
    if not np.issubdtype(array.dtype, np.integer):
        raise ValueError("packet block must be an integer array")
    if array.ndim != 2:
        raise ValueError("packet block must be 2-dimensional")
    if np.issubdtype(array.dtype, np.signedinteger) and array.size:
        if int(array.min()) < 0:
            raise ValueError("packet field values must be non-negative")
    return np.ascontiguousarray(array, dtype=np.uint64)


class EngineStack:
    """What every engine stack derives from its ``classify_block``.

    A stack provides ``classify_block(block, traces=None)`` (the only place
    its lookup is implemented), ``rules_by_id(refresh=False)`` (``rule_id`` →
    :class:`Rule` over its live rules), a ``schema`` property and ``close()``.
    """

    def classify_batch(
        self, packets: Sequence[Packet | Sequence[int]]
    ) -> list[ClassificationResult]:
        """Classify a batch, materializing one traced result per packet.

        The lookup itself is :meth:`classify_block`; the per-packet
        :class:`ClassificationResult`/:class:`LookupTrace` objects are built
        only here, because this caller asked for them.  ``packets`` is a
        sequence of packets/tuples or a 2-d integer block (rows are packets).
        """
        if isinstance(packets, np.ndarray) and packets.ndim == 2:
            block = packets
        else:
            block = np.array(
                [
                    packet.values if isinstance(packet, Packet) else tuple(packet)
                    for packet in packets
                ],
                dtype=np.int64,
            )
        n = len(block)
        if n == 0:
            return []
        traces = np.zeros((n, len(TRACE_FIELDS)), dtype=np.int64)
        rule_ids, _priorities = self.classify_block(block, traces=traces)
        by_id = self.rules_by_id()
        results: list[ClassificationResult] = []
        for row in range(n):
            rule_id = int(rule_ids[row])
            rule = None
            if rule_id >= 0:
                rule = by_id.get(rule_id)
                if rule is None:  # map went stale under a direct classifier update
                    by_id = self.rules_by_id(refresh=True)
                    rule = by_id.get(rule_id)
            results.append(ClassificationResult(rule, trace_from_row(traces[row])))
        return results

    def classify_traced(self, packet: Packet | Sequence[int]) -> ClassificationResult:
        """Single-packet traced lookup (a one-row :meth:`classify_batch`)."""
        return self.classify_batch([packet])[0]

    def classify(self, packet: Packet | Sequence[int]) -> Optional[Rule]:
        """Single-packet lookup; prefer :meth:`classify_batch` when serving."""
        return self.classify_traced(packet).rule

    def verify(self, packets: Iterable[Packet | Sequence[int]]) -> int:
        """Check the stack against linear search over its live rules.

        Returns the number of packets checked; raises ``AssertionError`` on
        the first disagreement.  Distinct rules with equal priority are
        acceptable ties, as in :meth:`Classifier.verify
        <repro.classifiers.base.Classifier.verify>`.
        """
        packet_list = list(packets)
        live = list(self.rules_by_id(refresh=True).values())
        for packet, result in zip(packet_list, self.classify_batch(packet_list)):
            values = packet.values if isinstance(packet, Packet) else tuple(packet)
            expected_priority = min(
                (rule.priority for rule in live if rule.matches(values)), default=None
            )
            actual_priority = result.rule.priority if result.rule else None
            if expected_priority != actual_priority:
                raise AssertionError(
                    f"{type(self).__name__}: mismatch for packet {values}: "
                    f"expected priority {expected_priority}, got {actual_priority}"
                )
        return len(packet_list)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
