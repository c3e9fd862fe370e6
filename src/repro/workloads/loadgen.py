"""Open-loop network load generation against an :class:`AsyncServer`.

The trace-replay harness (:mod:`repro.workloads.replay`) drives pre-formed
batches through an engine in-process — a *closed-loop* measurement.  Real
serving traffic is open-loop: requests arrive on their own schedule whether
or not earlier ones finished, which is the regime the server's admission
budget and overload controller exist for.  This module provides that client
side:

* :func:`open_loop_load` — an asyncio load generator: ``connections`` TCP
  clients share the packet stream; each packet is *scheduled* by the offered
  rate (``rate_pps``; ``None`` offers as fast as the in-flight window allows)
  and its latency is measured from the scheduled arrival, so server queueing
  under overload is charged to the server, not hidden by the client.  The
  in-flight window bounds client memory, making the generator quasi-open-loop
  (the standard compromise, cf. open-loop harnesses like wrk2).
* :class:`RampProfile` / :class:`BurstProfile` — time-varying offered-rate
  schedules (a linear capacity sweep, a periodic square-wave burst) in place
  of the constant ``rate_pps``; the shapes the overload-control bench drives
  the adaptive server with.
* :func:`run_load` — blocking wrapper (``asyncio.run``) returning a
  :class:`LoadReport`.

Traces come from :func:`repro.workloads.make_trace`, so the §5.1.1 skew
regimes (uniform / zipf-{80,85,90,95} / caida) apply to network serving
unchanged.  The wire protocol the clients speak is specified in
docs/PROTOCOL.md: packets travel ``batch`` rows at a time, each group as one
binary classify-batch frame.  ``STATUS_OVERLOADED`` rejections from the
server's admission budget are counted per :class:`LoadReport` rather than
raised, so offered-load sweeps can ride through backpressure.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.serving.server import AsyncClient, ServerError

__all__ = [
    "BurstProfile",
    "LoadReport",
    "RampProfile",
    "open_loop_load",
    "run_load",
]


@dataclass(frozen=True)
class RampProfile:
    """Offered rate ramping linearly from ``start_pps`` to ``end_pps``.

    The arrival schedule accumulates per-packet gaps of the instantaneous
    rate, so a ramp across a server's capacity sweeps it from underload to
    overload within one run — the shape the overload controller's e2e tests
    and bench use to watch adaptation mid-stream.
    """

    start_pps: float
    end_pps: float

    name = "ramp"

    def __post_init__(self):
        if self.start_pps <= 0 or self.end_pps <= 0:
            raise ValueError("ramp rates must be positive")

    def offsets(self, n: int) -> np.ndarray:
        """Arrival-time offsets (seconds from run start) for ``n`` packets."""
        if n < 1:
            return np.zeros(0)
        fractions = np.arange(n) / max(n - 1, 1)
        rates = self.start_pps + (self.end_pps - self.start_pps) * fractions
        gaps = 1.0 / rates
        return np.concatenate(([0.0], np.cumsum(gaps[:-1])))


@dataclass(frozen=True)
class BurstProfile:
    """A square-wave offered rate: ``base_pps`` with periodic bursts.

    Each ``period_s`` opens with a burst of ``burst_pps`` lasting
    ``duty * period_s``, then falls back to ``base_pps`` — the classic
    overload-recovery shape (e.g. a 2x-capacity burst against a steady 0.6x
    background).  Offsets are integrated packet by packet: each gap is the
    inverse of the instantaneous rate at that packet's arrival.
    """

    base_pps: float
    burst_pps: float
    period_s: float = 1.0
    duty: float = 0.2

    name = "burst"

    def __post_init__(self):
        if self.base_pps <= 0 or self.burst_pps <= 0:
            raise ValueError("burst rates must be positive")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must be in (0, 1)")

    def offsets(self, n: int) -> np.ndarray:
        """Arrival-time offsets (seconds from run start) for ``n`` packets."""
        out = np.empty(n)
        burst_span = self.duty * self.period_s
        t = 0.0
        for index in range(n):
            out[index] = t
            rate = (
                self.burst_pps
                if (t % self.period_s) < burst_span
                else self.base_pps
            )
            t += 1.0 / rate
        return out


@dataclass
class LoadReport:
    """What one open-loop run observed from the client side."""

    packets: int
    completed: int
    matched: int
    overloaded: int
    errors: int
    wall_seconds: float
    offered_rate_pps: Optional[float]
    throughput_rps: float
    latency_p50_us: float
    latency_p99_us: float
    connections: int
    window: int
    batch: int = 1
    profile: Optional[str] = None
    server: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "packets": self.packets,
            "completed": self.completed,
            "matched": self.matched,
            "overloaded": self.overloaded,
            "errors": self.errors,
            "wall_seconds": round(self.wall_seconds, 4),
            "offered_rate_pps": self.offered_rate_pps,
            "throughput_rps": round(self.throughput_rps, 1),
            "latency_p50_us": round(self.latency_p50_us, 1),
            "latency_p99_us": round(self.latency_p99_us, 1),
            "connections": self.connections,
            "window": self.window,
            "batch": self.batch,
            "profile": self.profile,
            "server": self.server,
        }


async def _drive_connection(
    host: str,
    port: int,
    packets: Sequence[tuple[int, ...]],
    schedule: Sequence[float] | None,
    start_at: float,
    window: int,
    latencies_us: list[float],
    counters: dict[str, int],
    batch: int = 1,
) -> None:
    """One connection's share: scheduled sends, bounded in-flight window."""
    inflight = asyncio.Semaphore(window)
    tasks: list[asyncio.Task] = []
    loop = asyncio.get_running_loop()

    async def _send(group: np.ndarray, scheduled: float) -> None:
        try:
            responses = await client.classify_batch(group)
            counters["matched"] += sum(1 for r in responses if r["matched"])
            counters["completed"] += len(responses)
            # Latency from the *scheduled* arrival: open-loop measurements
            # charge queueing delay to the server.  Only completed work
            # samples — shed frames return fast by design, and mixing their
            # turnaround into the percentiles would let a server look
            # "faster" by rejecting more (percentiles are of *admitted*
            # traffic; sheds are reported separately in `overloaded`).  One
            # sample *per packet*, not per frame: `completed` counts packets,
            # so an 8-row frame weighs eight times.
            latencies_us.extend(
                [(time.monotonic() - scheduled) * 1e6] * len(responses)
            )
        except ServerError as exc:
            if exc.code == "overloaded":
                counters["overloaded"] += len(group)
            else:
                counters["errors"] += len(group)
        except (ConnectionError, RuntimeError):
            counters["errors"] += len(group)
        finally:
            inflight.release()

    async with await AsyncClient.connect(host, port) as client:
        # Frames ride as slices of one columnar block: the client's encoder
        # maps contiguous uint64 rows straight into the frame, so no
        # per-packet conversion happens after this point.
        share_block = np.array(packets, dtype=np.uint64)
        for start in range(0, len(packets), batch):
            if schedule is not None:
                # A frame inherits its first packet's scheduled arrival.
                scheduled = start_at + schedule[start]
                delay = scheduled - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
            await inflight.acquire()
            # Without a rate there is no arrival schedule: latency runs from
            # the actual send.  With one, it runs from the *scheduled* arrival
            # even when the window made the send late — otherwise an
            # overloaded server's queueing delay would vanish from the report
            # (coordinated omission).
            tasks.append(
                loop.create_task(
                    _send(
                        share_block[start : start + batch],
                        time.monotonic() if schedule is None else scheduled,
                    )
                )
            )
        if tasks:
            await asyncio.gather(*tasks)


async def open_loop_load(
    host: str,
    port: int,
    packets: Sequence,
    connections: int = 4,
    window: int = 32,
    rate_pps: float | None = None,
    batch: int = 1,
    profile: "RampProfile | BurstProfile | None" = None,
) -> LoadReport:
    """Fire ``packets`` at the server and report client-observed behaviour.

    Args:
        host, port: The :class:`~repro.serving.server.AsyncServer` address.
        packets: Packet value tuples (or :class:`~repro.rules.rule.Packet`),
            e.g. a :class:`~repro.traffic.Trace`'s packets.
        connections: Concurrent TCP connections sharing the stream
            round-robin (preserving each connection's relative order).
        window: Max in-flight frames per connection.
        rate_pps: Offered arrival rate across all connections; ``None``
            offers as fast as the windows allow.
        batch: Packets per classify-batch frame.  The in-flight window
            counts frames, and ``rate_pps`` paces *packets* (a frame departs
            at its first packet's arrival time).
        profile: A time-varying offered rate (:class:`RampProfile` /
            :class:`BurstProfile`, or anything with ``offsets(n)`` and
            ``name``) instead of the constant ``rate_pps``; mutually
            exclusive with it.
    """
    if connections < 1:
        raise ValueError("connections must be at least 1")
    if window < 1:
        raise ValueError("window must be at least 1")
    if batch < 1:
        raise ValueError("batch must be at least 1")
    if profile is not None and rate_pps is not None:
        raise ValueError("rate_pps and profile are mutually exclusive")
    values = [
        packet if isinstance(packet, tuple) else tuple(packet) for packet in packets
    ]
    shares: list[list[tuple[int, ...]]] = [[] for _ in range(connections)]
    schedules: list[list[float]] | None = None
    offsets: np.ndarray | None = None
    if profile is not None:
        offsets = np.asarray(profile.offsets(len(values)), dtype=float)
        schedules = [[] for _ in range(connections)]
    elif rate_pps is not None:
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        schedules = [[] for _ in range(connections)]
    for index, packet in enumerate(values):
        shares[index % connections].append(packet)
        if schedules is not None:
            schedules[index % connections].append(
                float(offsets[index]) if offsets is not None else index / rate_pps
            )

    latencies_us: list[float] = []
    counters = {"completed": 0, "matched": 0, "overloaded": 0, "errors": 0}
    start = time.monotonic()
    await asyncio.gather(
        *(
            _drive_connection(
                host,
                port,
                shares[conn],
                schedules[conn] if schedules is not None else None,
                start,
                window,
                latencies_us,
                counters,
                batch=batch,
            )
            for conn in range(connections)
            if shares[conn]
        )
    )
    wall = time.monotonic() - start

    server_stats: dict = {}
    try:
        async with await AsyncClient.connect(host, port) as client:
            server_stats = await client.stats()
    except (ConnectionError, ServerError, OSError):
        pass

    window_us = np.asarray(latencies_us) if latencies_us else np.zeros(1)
    offered = rate_pps
    if offered is None and offsets is not None and len(offsets) > 1:
        span = float(offsets[-1])
        # The profile's *mean* rate; the instantaneous shape is in `profile`.
        offered = round((len(offsets) - 1) / span, 1) if span > 0 else None
    return LoadReport(
        packets=len(values),
        completed=counters["completed"],
        matched=counters["matched"],
        overloaded=counters["overloaded"],
        errors=counters["errors"],
        wall_seconds=wall,
        offered_rate_pps=offered,
        throughput_rps=counters["completed"] / wall if wall > 0 else 0.0,
        latency_p50_us=float(np.percentile(window_us, 50)),
        latency_p99_us=float(np.percentile(window_us, 99)),
        connections=connections,
        window=window,
        batch=batch,
        profile=profile.name if profile is not None else None,
        server=server_stats,
    )


def run_load(
    host: str,
    port: int,
    packets: Sequence,
    connections: int = 4,
    window: int = 32,
    rate_pps: float | None = None,
    batch: int = 1,
    profile: "RampProfile | BurstProfile | None" = None,
) -> LoadReport:
    """Blocking wrapper around :func:`open_loop_load`."""
    return asyncio.run(
        open_loop_load(
            host,
            port,
            packets,
            connections=connections,
            window=window,
            rate_pps=rate_pps,
            batch=batch,
            profile=profile,
        )
    )
