"""The RQ-RMI analysis loops, kept frozen as a test reference.

Training and certification compute trigger inputs, transition inputs,
responsibilities, error bounds and boundary samples as array code
(``core/submodel.py``, ``core/rqrmi.py``, ``core/training.py``).  This module
is the per-unit, per-segment, per-interval and per-row Python those array
versions replaced, moved here unedited apart from methods becoming free
functions, the transition memo being dropped and midpoints being routed by
the frozen scalar walk (``_nm_reference.route``) instead of the stacked
``route`` they are checked against.  The arithmetic is the same
expression per element, so the array versions must equal it bit for bit
(``tests/test_rqrmi.py::TestArrayAnalysisIsTheFrozenLoop``).  It is not
shipped and nothing under ``src/`` imports it.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.core.submodel import OUTPUT_EPSILON

from _nm_reference import route


def trigger_inputs(submodel, domain=(0.0, 1.0)) -> list[float]:
    lo, hi = domain
    candidates: set[float] = {lo, hi}
    # ReLU kinks.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(submodel.hidden_units):
            if submodel.w1[k] != 0.0:
                kink = -submodel.b1[k] / submodel.w1[k]
                if np.isfinite(kink) and lo < kink < hi:
                    candidates.add(float(kink))
    # Clipping kinks: solve N(x) = level on each linear piece of N.
    kinks = sorted(candidates)
    extra: set[float] = set()
    for a, b in zip(kinks[:-1], kinks[1:]):
        na, nb = submodel.raw(a), submodel.raw(b)
        if na == nb:
            continue
        for level in (0.0, 1.0 - OUTPUT_EPSILON):
            if (na - level) * (nb - level) < 0.0:
                x = a + (level - na) * (b - a) / (nb - na)
                if lo < x < hi:
                    extra.add(float(x))
    candidates |= extra
    return sorted(candidates)


def transition_inputs(submodel, width: int, domain=(0.0, 1.0)) -> list[float]:
    triggers = trigger_inputs(submodel, domain)
    parts: list[np.ndarray] = [np.asarray(triggers, dtype=np.float64)]
    for a, b in zip(triggers[:-1], triggers[1:]):
        ma, mb = submodel(a), submodel(b)
        qa, qb = int(ma * width), int(mb * width)
        if qa == qb:
            continue
        if ma == mb:
            continue
        lo_q, hi_q = min(qa, qb), max(qa, qb)
        levels = np.arange(lo_q + 1, hi_q + 1, dtype=np.float64) / width
        xs = a + (levels - ma) * (b - a) / (mb - ma)
        parts.append(xs[(xs >= domain[0]) & (xs <= domain[1])])
    return [float(x) for x in np.unique(np.concatenate(parts))]


def assign_responsibilities(stages, responsibilities, widths, stage_index) -> None:
    next_width = widths[stage_index + 1]
    transition_set: set[float] = {0.0, 1.0}
    for slot, submodel in enumerate(stages[stage_index]):
        intervals = responsibilities[stage_index][slot]
        if not intervals:
            continue
        transitions = transition_inputs(submodel, next_width)
        for a, b in intervals:
            transition_set.add(a)
            transition_set.add(b)
            for t in transitions:
                if a <= t <= b:
                    transition_set.add(t)
    ordered = sorted(transition_set)
    edges = np.asarray(ordered)
    prefix = SimpleNamespace(stages=stages, stage_widths=widths)
    slots = [route(prefix, float(x))[0] for x in (edges[:-1] + edges[1:]) / 2.0]
    buckets: list[list[tuple[float, float]]] = [[] for _ in range(next_width)]
    for a, b, slot in zip(ordered[:-1], ordered[1:], slots):
        bucket = buckets[slot]
        if bucket and bucket[-1][1] >= a:
            bucket[-1] = (bucket[-1][0], b)
        else:
            bucket.append((a, b))
    for slot in range(next_width):
        responsibilities[stage_index + 1][slot] = buckets[slot]


def error_bound_for(candidate, intervals, ranges) -> int:
    num_ranges = len(ranges)
    if num_ranges == 0:
        return 0
    domain = ranges.domain_size
    pad = 1.0 / domain
    transitions = np.array(transition_inputs(candidate, num_ranges), dtype=np.float64)
    points_parts: list[np.ndarray] = []
    index_parts: list[np.ndarray] = []
    for a, b in intervals:
        a_pad, b_pad = a - pad, b + pad
        first = int(np.searchsorted(ranges.hi, a_pad, side="left"))
        last = int(np.searchsorted(ranges.lo, b_pad, side="right"))
        if first >= last:
            continue
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
    return candidate.max_error_on_points(
        np.concatenate(points_parts), np.concatenate(index_parts), num_ranges
    )


def boundary_points(intervals, range_lo, range_hi, boundary_cap=4096) -> np.ndarray:
    """The boundary samples ``sample_responsibility`` adds (its
    ``include_boundaries`` branch)."""
    boundary_points: list[float] = []
    for a, b in intervals:
        first = int(np.searchsorted(range_hi, a, side="left"))
        last = int(np.searchsorted(range_lo, b, side="right"))
        for index in range(first, last):
            lo = max(range_lo[index], a)
            hi = min(range_hi[index], b)
            if lo <= hi:
                boundary_points.append(lo)
                boundary_points.append(hi)
            if len(boundary_points) >= boundary_cap:
                break
        if len(boundary_points) >= boundary_cap:
            break
    return np.array(boundary_points, dtype=np.float64)
