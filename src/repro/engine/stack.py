"""The :class:`EngineStack` mixin: one lookup implementation per stack.

Every engine stack — the plain :class:`~repro.engine.ClassificationEngine`,
the sharded :class:`~repro.serving.ShardedEngine`, and either wrapped in a
:class:`~repro.serving.CachedEngine` — *implements* exactly one lookup, the
columnar ``classify_block``.  Everything else a caller can ask of a stack is
derived from it here, once: the object view :meth:`~EngineStack.
classify_batch` (through :func:`~repro.classifiers.base.materialize`, the
one function classifiers use for theirs too), the single-packet
:meth:`~EngineStack.classify_traced` / :meth:`~EngineStack.classify`,
:meth:`~EngineStack.verify` against linear search over the live rules, and
the context-manager protocol.  A classifier's views are derived the same way
in :class:`~repro.classifiers.base.Classifier`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.classifiers.base import ClassificationResult, check_results, materialize
from repro.rules.rule import Packet, Rule, RuleSet

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
        by_id = self.rules_by_id()

        def rule_of(rule_id: int) -> Optional[Rule]:
            nonlocal by_id
            if rule_id not in by_id:  # map went stale under a direct classifier update
                by_id = self.rules_by_id(refresh=True)
            return by_id.get(rule_id)

        return materialize(self.classify_block, packets, rule_of)

    def classify_traced(self, packet: Packet | Sequence[int]) -> ClassificationResult:
        """Single-packet traced lookup (a one-row :meth:`classify_batch`)."""
        return self.classify_batch([packet])[0]

    def classify(self, packet: Packet | Sequence[int]) -> Optional[Rule]:
        """Single-packet lookup; prefer :meth:`classify_batch` when serving."""
        return self.classify_traced(packet).rule

    def verify(self, packets: Iterable[Packet | Sequence[int]]) -> int:
        """Check the stack against linear search over its live rules.

        Returns the number of packets checked; raises ``AssertionError`` on
        the first packet whose rule (or miss) differs from
        :meth:`RuleSet.match <repro.rules.rule.RuleSet.match>` over them
        (:func:`~repro.classifiers.base.check_results`).
        """
        packets = list(packets)
        live = RuleSet(self.rules_by_id(refresh=True).values(), self.schema)
        results = self.classify_batch(packets)
        return check_results(type(self).__name__, live, packets, results)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
