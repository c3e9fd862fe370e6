"""The update-rate / retraining analytical model of §3.9.

NuevoMatch supports four update types: action changes and deletions are
in-place; matching-set changes and additions are routed to the remainder set
(which therefore grows over time), and the whole classifier is retrained
periodically.  The mechanism lives in
:class:`repro.engine.ClassificationEngine` (``insert`` / ``remove`` /
``remainder_fraction`` / ``rebuild``); this module is the closed-form model of
what it costs — expected unmodified rules after ``u`` uniform updates,
throughput as a weighted average between NuevoMatch and the remainder
classifier, and the throughput-over-time series of Figure 7.
"""

from __future__ import annotations

import math

__all__ = [
    "expected_unmodified_rules",
    "throughput_with_updates",
    "throughput_over_time",
    "sustained_update_rate",
]


# ----------------------------------------------------------------- analytic model


def expected_unmodified_rules(total_rules: int, updates: int) -> float:
    """Expected number of rules untouched after ``updates`` uniform updates.

    §3.9: each update hits a specific rule with probability ``1/r``; the
    expected number of unmodified rules after ``u`` updates is
    ``r * (1 - 1/r)**u ≈ r * exp(-u/r)``.
    """
    if total_rules <= 0:
        return 0.0
    return total_rules * math.exp(-updates / total_rules)


def throughput_with_updates(
    total_rules: int,
    updates: int,
    nuevomatch_throughput: float,
    remainder_throughput: float,
) -> float:
    """Throughput as a weighted average between NuevoMatch and the remainder.

    The fraction of rules still served by the RQ-RMIs is the expected
    unmodified fraction; updated rules are served at the remainder
    classifier's (slower) rate (§3.9).
    """
    unmodified = expected_unmodified_rules(total_rules, updates) / max(1, total_rules)
    return unmodified * nuevomatch_throughput + (1.0 - unmodified) * remainder_throughput


def throughput_over_time(
    total_rules: int,
    update_rate: float,
    retrain_period: float,
    training_time: float,
    nuevomatch_throughput: float,
    remainder_throughput: float,
    horizon: float,
    step: float = 1.0,
) -> list[tuple[float, float]]:
    """Throughput time series under a constant update rate (Figure 7).

    Retraining is started every ``retrain_period``; the refreshed model takes
    effect ``training_time`` later and clears the accumulated updates that had
    been moved to the remainder before the retraining snapshot.  A zero
    ``training_time`` yields the upper-bound curve shown in green in Figure 7.

    Returns ``(time, throughput)`` pairs sampled every ``step`` time units.
    """
    if retrain_period <= 0:
        raise ValueError("retrain_period must be positive")
    series: list[tuple[float, float]] = []
    pending_updates = 0.0          # updates accumulated since the live model was trained
    snapshot_updates = 0.0         # updates not covered by the retraining in flight
    retrain_started: float | None = None
    next_retrain = retrain_period

    steps = int(horizon / step) + 1
    for i in range(steps):
        now = i * step
        pending_updates += update_rate * step if i else 0.0
        # A retraining completes: updates accumulated before it started are absorbed.
        if retrain_started is not None and now >= retrain_started + training_time:
            pending_updates = max(0.0, pending_updates - snapshot_updates)
            retrain_started = None
        if now >= next_retrain and retrain_started is None:
            retrain_started = now
            snapshot_updates = pending_updates
            next_retrain += retrain_period
        series.append(
            (
                now,
                throughput_with_updates(
                    total_rules,
                    int(pending_updates),
                    nuevomatch_throughput,
                    remainder_throughput,
                ),
            )
        )
    return series


def sustained_update_rate(
    total_rules: int,
    training_time: float,
    nuevomatch_throughput: float,
    remainder_throughput: float,
    target_fraction: float = 0.5,
) -> float:
    """Largest update rate keeping at least ``target_fraction`` of the speedup.

    The paper estimates ~4K updates/second for 500K rules with a minute-long
    retraining, at which point about half of the update-free speedup remains
    (§3.9).  The target throughput is remainder + target_fraction × (nm −
    remainder); we solve for the update count ``u`` accumulated over one
    retraining period (≈ ``training_time``) that degrades to that level.
    """
    if nuevomatch_throughput <= remainder_throughput:
        return 0.0
    target = remainder_throughput + target_fraction * (
        nuevomatch_throughput - remainder_throughput
    )
    # unmodified fraction needed: target = f*nm + (1-f)*rem  =>  f = ...
    needed_fraction = (target - remainder_throughput) / (
        nuevomatch_throughput - remainder_throughput
    )
    if needed_fraction <= 0.0:
        return float("inf")
    updates = -total_rules * math.log(needed_fraction)
    return updates / max(training_time, 1e-9)
