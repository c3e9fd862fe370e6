"""Self-tuning overload control for the serving layer.

How much admitted-but-unfinished work a server should hold depends on the
offered workload: a budget that absorbs a burst on a fast engine drowns a
slow one.  This module is a measured-load-drives-control feedback loop (the
congestion-avoidance pattern of the DVB-RCS2 dynamic control work): every
window, the observed service latency percentiles of the classify path decide
the next window's admission limit — the one dial that acts on the load the
controller measures.

Three cooperating pieces, each a pure state machine with an injectable clock
so policy is deterministically testable (``tests/test_control.py`` drives
them with a fake clock):

* :class:`PacketBudget` — the packet-weighted admission budget.  A binary
  classify-batch frame charges its row count before it reaches the engine
  and frees it when its response is computed, so ``limit`` bounds rows of
  outstanding work and an overloaded server answers ``STATUS_OVERLOADED``
  instead of queueing without bound.
* :class:`OverloadController` — the per-window feedback loop.  It collects
  packet-weighted completion latencies, shed counts and budget-occupancy
  samples, and at each window boundary applies an AIMD policy against a p99
  SLO: a violation multiplicatively backs off the admission limit (shed
  earlier, queue less); shedding while healthy grows it; in between lies a
  deadband where it holds, which is what makes the limit *converge* instead
  of oscillating on a step load.
* :class:`CacheTuner` — auto-sizes a :class:`~repro.serving.FlowCache` from
  the observed *marginal* hit-rate value: capacity doubles while a doubling
  still buys at least ``min_gain`` of hit rate, then settles back to the
  last capacity that paid for itself; a later hit-rate collapse (workload
  shift) re-opens probing.

The :class:`~repro.serving.server.AsyncServer` owns the loop that feeds
observations in and applies decisions (``observe → decide → apply``); the
classes here never touch asyncio, sockets or engines.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DEFAULT_SLO_P99_US",
    "QueueFullError",
    "BudgetStats",
    "PacketBudget",
    "ControllerConfig",
    "WindowReport",
    "OverloadController",
    "CacheTuner",
]

#: Default p99 service-time objective (microseconds) when adaptive control is
#: enabled without an explicit SLO: 50 ms keeps an interactive client happy
#: while leaving room for queueing behind other frames on a loaded server.
DEFAULT_SLO_P99_US = 50_000.0


class QueueFullError(RuntimeError):
    """Admission was refused: the packet-weighted budget is at capacity.

    Raised by :meth:`PacketBudget.try_acquire`; the server's classify path
    translates it to the binary ``STATUS_OVERLOADED``.
    """


# ---------------------------------------------------------------------------
# Packet-weighted admission


@dataclass
class BudgetStats:
    """Aggregate admission counters of a :class:`PacketBudget`."""

    admitted: int = 0
    admitted_packets: int = 0
    rejected: int = 0
    rejected_packets: int = 0

    def as_dict(self) -> dict[str, object]:
        return {
            "admitted": self.admitted,
            "admitted_packets": self.admitted_packets,
            "rejected": self.rejected,
            "rejected_packets": self.rejected_packets,
        }


class PacketBudget:
    """A packet-weighted bound on admitted-but-unfinished serving work.

    The server charges a whole classify-batch frame (its row count) before
    the frame reaches the engine and frees it when the response is computed.
    ``limit`` is therefore a bound on *rows of outstanding work*, which is
    what actually bounds memory and engine backlog — a bound counted in
    requests is meaningless when one request may carry 10 000 rows.

    Progress guarantee: a request wider than the whole budget is admitted
    when nothing else is in flight (otherwise it could never be served and
    the client would retry forever); it still blocks later admissions until
    it completes.  ``limit`` is mutable — the
    :class:`OverloadController` retunes it between windows.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("limit must be at least 1")
        self.limit = int(limit)
        self.in_flight = 0
        self.stats = BudgetStats()

    def try_acquire(self, packets: int) -> None:
        """Admit ``packets`` rows of work or raise :class:`QueueFullError`."""
        if packets < 1:
            raise ValueError("packets must be at least 1")
        if self.in_flight > 0 and self.in_flight + packets > self.limit:
            self.stats.rejected += 1
            self.stats.rejected_packets += packets
            raise QueueFullError(
                f"admission budget at capacity ({self.in_flight}/{self.limit} "
                f"packets in flight, {packets} more requested); retry later"
            )
        self.in_flight += packets
        self.stats.admitted += 1
        self.stats.admitted_packets += packets

    def release(self, packets: int) -> None:
        """Return ``packets`` rows of budget (clamped at zero)."""
        self.in_flight = max(0, self.in_flight - packets)

    def as_dict(self) -> dict[str, object]:
        return {
            "limit": self.limit,
            "in_flight": self.in_flight,
            **self.stats.as_dict(),
        }


# ---------------------------------------------------------------------------
# Windowed feedback control


@dataclass(frozen=True)
class ControllerConfig:
    """Policy envelope of an :class:`OverloadController`.

    ``slo_p99_us`` is the objective: the p99 of *admitted* traffic's service
    time must stay at or below it.  ``headroom`` defines the deadband — the
    controller only grows the limit while p99 < ``headroom * slo_p99_us``,
    so between headroom and the SLO it holds, which is what stops grow/shrink
    oscillation on a steady load.  Growth (``queue_growth``) happens only
    while a healthy window still sheds; backoff on an SLO breach is
    multiplicative (``backoff``).  ``min_queue``/``max_queue`` clamp the
    limit, in packets.
    """

    slo_p99_us: float
    window_s: float = 0.25
    headroom: float = 0.7
    min_queue: int = 64
    max_queue: int = 1 << 20
    queue_growth: float = 1.25
    backoff: float = 0.5

    def __post_init__(self):
        if self.slo_p99_us <= 0:
            raise ValueError("slo_p99_us must be positive")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if not 0.0 < self.headroom < 1.0:
            raise ValueError("headroom must be in (0, 1)")
        if not 1 <= self.min_queue <= self.max_queue:
            raise ValueError("need 1 <= min_queue <= max_queue")
        if self.queue_growth <= 1.0:
            raise ValueError("queue_growth must exceed 1.0")
        if not 0.0 < self.backoff < 1.0:
            raise ValueError("backoff must be in (0, 1)")


@dataclass
class WindowReport:
    """What one closed control window observed and decided."""

    completed_packets: int = 0
    shed_packets: int = 0
    p50_us: float = 0.0
    p99_us: float = 0.0
    queue_peak: int = 0
    decision: str = "hold"

    def as_dict(self) -> dict[str, object]:
        return {
            "completed_packets": self.completed_packets,
            "shed_packets": self.shed_packets,
            "p50_us": round(self.p50_us, 1),
            "p99_us": round(self.p99_us, 1),
            "queue_peak": self.queue_peak,
            "decision": self.decision,
        }


class OverloadController:
    """Per-window AIMD feedback over observed latency and budget occupancy.

    Pure and clock-driven: :meth:`observe_completion` / :meth:`observe_shed`
    / :meth:`observe_queue` record the current window, :meth:`due_in` says
    when it closes, and :meth:`maybe_roll` closes it and returns the next
    admission limit in packets (or ``None`` while the window is still open).
    The caller — :class:`~repro.serving.server.AsyncServer`'s control loop —
    writes whatever is returned to its :class:`PacketBudget`; this class
    never mutates a server.

    Decision policy per closed window (all values packet-weighted):

    * **breach** (``p99 > slo``, or everything shed): the limit scales by
      ``backoff`` — a smaller budget sheds earlier, so admitted work queues
      less behind the engine worker.
    * **grow** (``p99 < headroom * slo``): the limit grows by
      ``queue_growth`` only when the window *shed* traffic while healthy —
      shedding at low latency means the budget, not the engine, is the
      bottleneck.  A healthy window with no sheds leaves the limit alone:
      that is the fixed point it converges to.
    * **hold** (deadband, or an idle window): no change.
    """

    def __init__(
        self,
        config: ControllerConfig,
        initial_limit: int,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config
        self.limit = self._clamp(initial_limit)
        self._clock = clock
        self._window_open = clock()
        self._latencies_us: list[float] = []
        self._weights: list[int] = []
        self._completed = 0
        self._shed = 0
        self._queue_peak = 0
        self.windows = 0
        self.breaches = 0
        self.grows = 0
        self.holds = 0
        self.last_window: Optional[WindowReport] = None
        #: Recent decisions, newest last (bounded so stats stay O(1)).
        self.history: deque[WindowReport] = deque(maxlen=32)

    # ------------------------------------------------------------ observation

    def observe_completion(self, latency_us: float, packets: int = 1) -> None:
        """Record one admitted completion (a whole classify-batch frame)."""
        if packets < 1:
            return
        self._latencies_us.append(float(latency_us))
        self._weights.append(int(packets))
        self._completed += packets

    def observe_shed(self, packets: int = 1) -> None:
        """Record admitted-refused work (packet-weighted)."""
        if packets < 1:
            return
        self._shed += packets

    def observe_queue(self, depth: int) -> None:
        """Record an occupancy sample of the admission budget."""
        if depth > self._queue_peak:
            self._queue_peak = depth

    # --------------------------------------------------------------- decision

    def due_in(self) -> float:
        """Seconds until the current window closes (0.0 when due now)."""
        elapsed = self._clock() - self._window_open
        return max(0.0, self.config.window_s - elapsed)

    def maybe_roll(self) -> Optional[int]:
        """Close the window if due; returns the limit to apply, else None."""
        # Sub-nanosecond residue from float subtraction must not keep a due
        # window open (0.4 - 0.3 > 0.1 by one ulp, and so on).
        if self.due_in() > 1e-9:
            return None
        return self.roll_window()

    def roll_window(self) -> int:
        """Force-close the current window and decide the next limit."""
        config = self.config
        report = WindowReport(
            completed_packets=self._completed,
            shed_packets=self._shed,
            queue_peak=self._queue_peak,
        )
        if self._latencies_us:
            # Weighted percentiles: a 512-row batch's latency is 512 packet
            # observations, matching how the SLO is stated (per packet of
            # admitted traffic), without keeping per-packet samples.
            samples = np.repeat(
                np.asarray(self._latencies_us), np.asarray(self._weights)
            )
            report.p50_us = float(np.percentile(samples, 50))
            report.p99_us = float(np.percentile(samples, 99))

        limit = self.limit
        if self._completed == 0 and self._shed == 0:
            report.decision = "hold"
            self.holds += 1
        elif (self._completed and report.p99_us > config.slo_p99_us) or (
            self._completed == 0 and self._shed > 0
        ):
            # SLO breach (or total shed, the degenerate breach): back off
            # multiplicatively.
            report.decision = "breach"
            self.breaches += 1
            limit = int(limit * config.backoff)
        elif report.p99_us < config.headroom * config.slo_p99_us:
            report.decision = "grow"
            self.grows += 1
            if self._shed > 0:
                # Shedding while healthy: the budget is the bottleneck.
                limit = int(limit * config.queue_growth) + 1
        else:
            # Deadband between headroom and the SLO: the converged regime.
            report.decision = "hold"
            self.holds += 1

        self.limit = self._clamp(limit)
        self.windows += 1
        self.last_window = report
        self.history.append(report)
        self._latencies_us.clear()
        self._weights.clear()
        self._completed = 0
        self._shed = 0
        self._queue_peak = 0
        self._window_open = self._clock()
        return self.limit

    def _clamp(self, limit: int) -> int:
        return min(max(int(limit), self.config.min_queue), self.config.max_queue)

    # ----------------------------------------------------------- introspection

    def as_dict(self) -> dict[str, object]:
        return {
            "slo_p99_us": self.config.slo_p99_us,
            "window_s": self.config.window_s,
            "windows": self.windows,
            "breaches": self.breaches,
            "grows": self.grows,
            "holds": self.holds,
            "limit": self.limit,
            "last_window": (
                self.last_window.as_dict() if self.last_window else None
            ),
        }


# ---------------------------------------------------------------------------
# Cache capacity tuning


class CacheTuner:
    """Hill-climb a flow cache's capacity on marginal hit-rate value.

    Fed one ``(capacity, hits, misses)`` observation per control window,
    returns the capacity the cache *should* have next window.  The policy:

    * **probing** — double capacity as long as the previous doubling bought
      at least ``min_gain`` of hit rate; the first doubling that does not
      pay for itself is undone (capacity settles at the last one that did).
    * **settled** — hold, tracking the achieved hit rate.  When the observed
      rate falls more than ``min_gain`` below the settled baseline (the
      workload shifted), probing reopens from the current capacity.

    Windows with fewer than ``min_probes`` probes are ignored — a hit rate
    over a handful of packets is noise, not signal.
    """

    def __init__(
        self,
        min_capacity: int = 256,
        max_capacity: int = 1 << 20,
        min_gain: float = 0.02,
        min_probes: int = 256,
    ):
        if not 1 <= min_capacity <= max_capacity:
            raise ValueError("need 1 <= min_capacity <= max_capacity")
        if not 0.0 < min_gain < 1.0:
            raise ValueError("min_gain must be in (0, 1)")
        if min_probes < 1:
            raise ValueError("min_probes must be at least 1")
        self.min_capacity = min_capacity
        self.max_capacity = max_capacity
        self.min_gain = min_gain
        self.min_probes = min_probes
        self.resizes = 0
        self._mode = "probing"
        self._base_capacity: Optional[int] = None
        self._base_rate = 0.0
        self._settled_rate = 0.0

    def on_window(self, capacity: int, hits: int, misses: int) -> int:
        """One window's observation in, the next window's capacity out."""
        probes = hits + misses
        if probes < self.min_probes:
            return capacity
        rate = hits / probes

        if self._mode == "settled":
            if rate < self._settled_rate - self.min_gain:
                # Workload shifted under us: re-open the search.
                self._mode = "probing"
                self._base_capacity = None
            else:
                # Track drift so a slow natural improvement doesn't read as
                # a later "collapse".
                self._settled_rate = 0.5 * (self._settled_rate + rate)
                return capacity

        if self._base_capacity is not None and capacity > self._base_capacity:
            # Verdict on the previous doubling.
            if rate - self._base_rate < self.min_gain:
                revert_to = self._base_capacity
                self._settle(rate=self._base_rate)
                self.resizes += 1
                return revert_to
            if capacity >= self.max_capacity:
                self._settle(rate=rate)
                return capacity
        elif self._base_capacity is not None and capacity < self._base_capacity:
            # Someone resized the cache under us (operator action); restart.
            self._base_capacity = None

        grown = min(max(capacity * 2, self.min_capacity), self.max_capacity)
        if grown == capacity:
            self._settle(rate=rate)
            return capacity
        self._base_capacity = capacity
        self._base_rate = rate
        self.resizes += 1
        return grown

    def _settle(self, rate: float) -> None:
        self._mode = "settled"
        self._settled_rate = rate
        self._base_capacity = None

    def as_dict(self) -> dict[str, object]:
        return {
            "mode": self._mode,
            "settled_hit_rate": round(self._settled_rate, 4),
            "resizes": self.resizes,
            "min_gain": self.min_gain,
        }
