"""The per-packet NuevoMatch walk, kept frozen as a test reference.

NuevoMatch serves every lookup through ``NuevoMatch.classify_block``
(``ISetIndex.lookup_block`` → ``RQRMI.query_batch_detailed``).  This module is
the scalar walk that path replaced — RQ-RMI stage routing, the bounded range
query, per-iSet validation and the floored remainder merge — moved here
unedited apart from methods becoming free functions (the remainder answers
through its own frozen walk in ``_scalar_reference``) and one edit: the
remainder is always floored by the iSet winner, since early termination is no
longer optional.  The block path is checked against it row for row: matched
rule, priority and every :data:`~repro.classifiers.base.TRACE_FIELDS` counter.  It is not shipped and
nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.classifiers.base import TRACE_FIELDS, ClassificationResult, LookupTrace
from repro.rules.rule import Packet, Rule

from _scalar_reference import classify_with_floor


@dataclass
class RQRMILookup:
    """Result of a single RQ-RMI range query."""

    index: int | None
    predicted_index: int
    error_bound: int
    search_accesses: int
    model_accesses: int


@dataclass
class LookupBreakdown:
    """Per-component cost of one NuevoMatch lookup (Figure 14's breakdown)."""

    inference_ops: int = 0
    search_accesses: int = 0
    validation_accesses: int = 0
    remainder_accesses: int = 0


def route(model, x: float) -> tuple[int, float]:
    """Full traversal: returns (leaf slot, leaf output)."""
    slot = 0
    output = 0.0
    widths = model.stage_widths
    for stage_index, stage in enumerate(model.stages):
        submodel = stage[slot]
        output = submodel(x)
        if stage_index + 1 < len(widths):
            next_width = widths[stage_index + 1]
            slot = min(int(output * next_width), next_width - 1)
    return slot, output


def query(model, key: int) -> RQRMILookup:
    """Range query: find the range containing ``key`` (§3.8 lookup).

    Performs inference, then a bounded binary search within
    ``[predicted - error, predicted + error]`` over the sorted ranges.
    """
    num_ranges = len(model.ranges)
    if num_ranges == 0:
        return RQRMILookup(None, 0, 0, 0, len(model.stages))
    x = model.ranges.scale_key(key)
    slot, output = route(model, x)
    predicted = min(int(output * num_ranges), num_ranges - 1)
    bound = int(model.error_bounds[slot]) if len(model.error_bounds) else 0
    lo = max(0, predicted - bound)
    hi = min(num_ranges - 1, predicted + bound)
    window = hi - lo + 1
    search_accesses = max(1, int(math.ceil(math.log2(window + 1))))
    # Binary search for the candidate range within the window.
    position = int(np.searchsorted(model.ranges.lo[lo : hi + 1], x, side="right")) - 1
    index: int | None = None
    if position >= 0:
        candidate = lo + position
        if model.ranges.lo[candidate] <= x <= model.ranges.hi[candidate]:
            index = candidate
    return RQRMILookup(
        index=index,
        predicted_index=predicted,
        error_bound=bound,
        search_accesses=search_accesses,
        model_accesses=len(model.stages),
    )


def iset_lookup(
    iset, values: Sequence[int], trace: LookupTrace, breakdown: LookupBreakdown
) -> Optional[Rule]:
    """Query the RQ-RMI and validate the candidate rule across all fields."""
    result = query(iset.model, values[iset.dim])
    trace.model_accesses += result.model_accesses
    # One vectorised inference per stage (8-neuron hidden layer).
    inference_ops = result.model_accesses * iset.model.stages[0][0].hidden_units
    trace.compute_ops += inference_ops
    breakdown.inference_ops += inference_ops
    # Secondary search over the packed value array (§4: multiple 4-byte
    # field values per cache line, 16 per 64-byte line), binary search over
    # the error window: the search touches index (not rule) storage.
    window = 2 * result.error_bound + 1
    search_lines = max(1, math.ceil(math.log2(window / 16 + 1)))
    trace.index_accesses += search_lines
    breakdown.search_accesses += search_lines
    if result.index is None:
        return None
    candidate = iset.rules[result.index]
    trace.rule_accesses += 1
    trace.compute_ops += len(values)
    breakdown.validation_accesses += 1
    if candidate.matches(values):
        return candidate
    return None


def best_iset_match(
    nm, values: Sequence[int], trace: LookupTrace, breakdown: LookupBreakdown
) -> Optional[Rule]:
    """The iSets' validated candidate with the smallest key, or None."""
    candidates = [iset_lookup(iset, values, trace, breakdown) for iset in nm.isets]
    return min(
        (rule for rule in candidates if rule is not None),
        key=lambda rule: rule.key,
        default=None,
    )


def classify_detailed(
    nm, packet: Packet | Sequence[int]
) -> tuple[ClassificationResult, LookupBreakdown]:
    """Traced lookup that also reports the per-component breakdown."""
    values = packet.values if isinstance(packet, Packet) else tuple(packet)
    trace = LookupTrace()
    breakdown = LookupBreakdown()
    best = best_iset_match(nm, values, trace, breakdown)
    floor = best.key if best is not None else None
    remainder_result = classify_with_floor(nm.remainder, values, floor)
    for name in TRACE_FIELDS:
        setattr(trace, name, getattr(trace, name) + getattr(remainder_result.trace, name))
    breakdown.remainder_accesses += (
        remainder_result.trace.index_accesses + remainder_result.trace.rule_accesses
    )
    found = remainder_result.rule
    if found is not None and (best is None or found.key < best.key):
        best = found
    return ClassificationResult(best, trace), breakdown


def checked_index(model, key: int) -> int | None:
    """``model.query_batch`` for one key, asserted equal to the frozen
    :func:`query`; the range index, or ``None`` for a miss."""
    found = int(model.query_batch(np.array([key]))[0])
    expected = query(model, key).index
    assert found == (-1 if expected is None else expected), (key, found, expected)
    return None if found < 0 else found
