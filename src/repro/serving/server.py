"""Asyncio network serving with adaptive request coalescing.

NuevoMatch's throughput comes from batched RQ-RMI inference, but network
traffic arrives as many small concurrent requests.  This module closes that
gap with the classic adaptive-batching pattern from serving systems:

* :class:`RequestBatcher` — coalesces concurrent ``classify`` calls into
  micro-batches under a ``(max_batch, max_delay_us)`` policy.  A batch closes
  the moment it reaches ``max_batch`` entries or its oldest entry has waited
  ``max_delay_us``; a bounded queue provides backpressure (submissions beyond
  ``max_queue`` raise :class:`QueueFullError` instead of growing without
  bound).  The clock is injectable so the policy is testable deterministically
  (`tests/test_request_batcher.py` drives it with a fake clock).
* :class:`AsyncServer` — an asyncio TCP server speaking a length-prefixed
  JSON protocol in front of *any* engine stack (plain :class:`~repro.engine.ClassificationEngine`,
  :class:`~repro.serving.ShardedEngine`, or either wrapped in a
  :class:`~repro.serving.CachedEngine`).  ``classify`` requests flow through
  the batcher; ``insert``/``remove``/``stats`` are serialized through the same
  single-threaded engine executor, so the
  :class:`~repro.serving.updates.UpdateQueue` eviction-before-ack contract
  holds over the wire: a classify *sent after* an update's response was
  received can never observe pre-update state.
* :class:`AsyncClient` — a pipelining client: many requests may be in flight
  on one connection, matched to responses by id.

Wire protocol
-------------

Every frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON (one object).  Requests carry ``id`` (echoed verbatim in
the response) and ``op``::

    {"id": 7, "op": "classify", "packet": [sip, dip, sport, dport, proto]}
    {"id": 8, "op": "insert",   "rule": [[[lo, hi], ...], priority, action, rule_id]}
    {"id": 9, "op": "remove",   "rule_id": 3}
    {"id": 10, "op": "stats"}

Responses are ``{"id": ..., "ok": true, ...}`` on success or
``{"id": ..., "ok": false, "error": msg, "code": code}`` on failure; the
``code`` is ``"overloaded"`` when the batcher queue rejected the request
(backpressure) and ``"bad-request"``/``"error"`` otherwise.  A classify
response carries ``matched``, ``rule_id``, ``priority`` and ``action``
(``rule_id``/``priority``/``action`` are ``null`` on a miss).

Protocol v2 (:mod:`repro.serving.wire`) adds a binary classify-batch fast
path negotiated per connection via the ``hello`` op; JSON remains the
fallback and the control plane.  See docs/PROTOCOL.md for the normative
spec.

Admission is *packet-weighted* and shared across both protocols: every
classify — a JSON request (1 packet) or a binary batch (its row count) —
charges one :class:`~repro.serving.control.PacketBudget` before it is
accepted, so ``max_queue`` bounds rows of outstanding work rather than
request counts, and the binary fast path is subject to the same
backpressure (``STATUS_OVERLOADED``) as JSON (``code: "overloaded"``).
With ``adaptive=True`` an :class:`~repro.serving.control.OverloadController`
retunes ``(max_batch, max_delay_us, max_queue)`` each window against a p99
SLO; see :mod:`repro.serving.control`.
"""

from __future__ import annotations

import asyncio
import json
import signal
import struct
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Awaitable, Callable, Optional, Sequence

import numpy as np

from repro.engine.serialization import rule_from_state, rule_to_state
from repro.rules.rule import Packet, Rule
from repro.serving import wire
from repro.serving.control import (
    DEFAULT_SLO_P99_US,
    CacheTuner,
    ControllerConfig,
    ControlSettings,
    OverloadController,
    PacketBudget,
    QueueFullError,
)

__all__ = [
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_DELAY_US",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_SLO_P99_US",
    "MAX_FRAME_BYTES",
    "PacketBudget",
    "QueueFullError",
    "ServerError",
    "BatcherStats",
    "PendingRequest",
    "RequestBatcher",
    "AsyncServer",
    "AsyncClient",
    "run_server",
]

#: Largest batch one engine call serves (the paper's batched-inference sweet
#: spot is well below this; the delay bound usually closes batches first).
DEFAULT_MAX_BATCH = 128

#: How long the oldest queued request may wait before its batch closes.  0
#: disables the artificial delay: a batch closes as soon as the dispatcher is
#: free, coalescing only what already queued behind the previous batch.
DEFAULT_MAX_DELAY_US = 200.0

#: Bounded-queue capacity; submissions past it are rejected (backpressure).
DEFAULT_MAX_QUEUE = 8192

#: Hard cap on one frame's JSON payload (a malformed length prefix must not
#: make the server allocate gigabytes).
MAX_FRAME_BYTES = 1 << 22

_LENGTH = struct.Struct(">I")


class ServerError(RuntimeError):
    """An ``ok: false`` response received by :class:`AsyncClient`."""

    def __init__(self, message: str, code: str = "error"):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Request coalescing


@dataclass
class BatcherStats:
    """Aggregate coalescing counters of a :class:`RequestBatcher`."""

    requests: int = 0
    rejected: int = 0
    batches: int = 0
    coalesced: int = 0
    max_batch_seen: int = 0
    #: Peak queued *packets* (requests weight their row count, so this is
    #: comparable against ``max_queue`` — also packet-denominated).
    max_queue_depth: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Mean closed-batch size (0.0 before the first batch closes)."""
        return self.coalesced / self.batches if self.batches else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "requests": self.requests,
            "rejected": self.rejected,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "max_batch_seen": self.max_batch_seen,
            "max_queue_depth": self.max_queue_depth,
        }


class PendingRequest:
    """One queued classify request: payload, arrival time, future, weight.

    ``weight`` is the request's admission cost in packets (rows) — what it
    charged the :class:`~repro.serving.control.PacketBudget` and will free
    when its batch is taken.
    """

    __slots__ = ("payload", "enqueued_at", "future", "weight")

    def __init__(self, payload, enqueued_at: float, future, weight: int = 1):
        self.payload = payload
        self.enqueued_at = enqueued_at
        self.future = future
        self.weight = weight


class RequestBatcher:
    """Coalesce concurrent requests into micro-batches.

    The policy is a pure, clock-driven state machine — :meth:`submit`,
    :meth:`due_in` and :meth:`take_batch` have no asyncio dependency, so unit
    tests drive them deterministically with a fake ``clock`` and a plain
    ``future_factory``.  :meth:`run` is the asyncio dispatcher the server
    mounts on top: it closes batches per policy, hands their payloads to the
    processing coroutine and completes each request's future exactly once.

    Args:
        max_batch: Close a batch once this many requests are queued.
        max_delay_us: Close a batch once its oldest request has waited this
            long (microseconds); 0 closes batches as soon as the dispatcher
            is free.
        max_queue: Bounded-queue capacity in *packets*; :meth:`submit` raises
            :class:`QueueFullError` beyond it.  Ignored when ``budget`` is
            given.
        clock: Monotonic seconds source (injectable for determinism).
        future_factory: Constructor for per-request futures; defaults to the
            running event loop's ``create_future``.
        budget: A shared :class:`~repro.serving.control.PacketBudget` to
            charge admissions against (the server passes the one its binary
            path also draws from); by default the batcher owns a private
            budget of ``max_queue`` packets.
    """

    def __init__(
        self,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay_us: float = DEFAULT_MAX_DELAY_US,
        max_queue: int = DEFAULT_MAX_QUEUE,
        clock: Callable[[], float] = time.monotonic,
        future_factory: Callable[[], object] | None = None,
        budget: PacketBudget | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay_us < 0:
            raise ValueError("max_delay_us must be >= 0")
        if budget is None and max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        self.max_batch = max_batch
        self.max_delay_us = max_delay_us
        self.budget = budget if budget is not None else PacketBudget(max_queue)
        self.stats = BatcherStats()
        self._clock = clock
        self._future_factory = future_factory
        self._pending: deque[PendingRequest] = deque()
        self._queued_packets = 0
        self._closed = False
        self._wakeup: asyncio.Event | None = None

    @property
    def max_queue(self) -> int:
        """Admission capacity in packets (the shared budget's limit)."""
        return self.budget.limit

    @max_queue.setter
    def max_queue(self, value: int) -> None:
        if value < 1:
            raise ValueError("max_queue must be at least 1")
        self.budget.limit = int(value)

    # ----------------------------------------------------------- pure policy

    def _new_future(self):
        if self._future_factory is not None:
            return self._future_factory()
        return asyncio.get_running_loop().create_future()

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    @property
    def queued_packets(self) -> int:
        """Total admission weight currently queued (packets, not requests)."""
        return self._queued_packets

    def submit(self, payload, weight: int = 1) -> PendingRequest:
        """Queue one request of ``weight`` packets; raises
        :class:`QueueFullError` when the packet budget is at capacity.

        ``weight`` is the admission cost in rows — 1 for a single-packet
        classify, ``len(payload)`` for a pre-formed batch payload.  A
        request wider than the whole budget is still admitted when nothing
        else is queued or in flight (progress guarantee; see
        :class:`~repro.serving.control.PacketBudget`).
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        try:
            self.budget.try_acquire(weight)
        except QueueFullError:
            self.stats.rejected += 1
            raise
        pending = PendingRequest(
            payload, self._clock(), self._new_future(), weight
        )
        self._pending.append(pending)
        self._queued_packets += weight
        self.stats.requests += 1
        if self._queued_packets > self.stats.max_queue_depth:
            self.stats.max_queue_depth = self._queued_packets
        if self._wakeup is not None:
            self._wakeup.set()
        return pending

    def due_in(self) -> Optional[float]:
        """Seconds until the current batch must close.

        ``None`` when nothing is queued; ``0.0`` when a batch is ready now
        (``max_batch`` reached, or the oldest request has waited
        ``max_delay_us``).
        """
        if not self._pending:
            return None
        if len(self._pending) >= self.max_batch:
            return 0.0
        waited_us = (self._clock() - self._pending[0].enqueued_at) * 1e6
        return max(0.0, (self.max_delay_us - waited_us) / 1e6)

    def take_batch(self) -> list[PendingRequest]:
        """Close and return the current batch (oldest ``max_batch`` requests).

        Taking a batch frees its packet weight back to the admission budget:
        the budget bounds *queued* work, matching the pre-weighted
        ``max_queue`` semantics (capacity frees as batches are taken, not as
        they finish processing).
        """
        count = min(len(self._pending), self.max_batch)
        batch = [self._pending.popleft() for _ in range(count)]
        if batch:
            freed = sum(pending.weight for pending in batch)
            self._queued_packets -= freed
            self.budget.release(freed)
            self.stats.batches += 1
            self.stats.coalesced += len(batch)
            if len(batch) > self.stats.max_batch_seen:
                self.stats.max_batch_seen = len(batch)
        return batch

    def close(self) -> None:
        """Refuse new submissions; :meth:`run` drains the queue and returns."""
        self._closed = True
        if self._wakeup is not None:
            self._wakeup.set()

    # ------------------------------------------------------------ dispatcher

    async def run(
        self, process: Callable[[list], Awaitable[list]]
    ) -> None:
        """Dispatcher loop: close batches per policy and complete futures.

        ``process(payloads)`` returns one result per payload, in order.  Every
        submitted request's future is completed exactly once — with its result,
        or with the batch's exception.  Returns once :meth:`close` was called
        and the queue is drained.
        """
        self._wakeup = asyncio.Event()
        try:
            while True:
                self._wakeup.clear()
                if not self._pending:
                    if self._closed:
                        return
                    await self._wakeup.wait()
                    continue
                delay = self.due_in()
                # A closed batcher flushes partial batches without waiting out
                # the delay: shutdown must not strand queued requests.
                if delay and not self._closed:
                    try:
                        await asyncio.wait_for(self._wakeup.wait(), timeout=delay)
                    except (asyncio.TimeoutError, TimeoutError):
                        pass
                    continue
                batch = self.take_batch()
                try:
                    results = await process([p.payload for p in batch])
                    if len(results) != len(batch):
                        raise RuntimeError(
                            f"process returned {len(results)} results for a "
                            f"batch of {len(batch)}"
                        )
                except Exception as exc:  # noqa: BLE001 - forwarded to callers
                    for pending in batch:
                        if not pending.future.done():
                            pending.future.set_exception(exc)
                else:
                    for pending, result in zip(batch, results):
                        if not pending.future.done():
                            pending.future.set_result(result)
        finally:
            self._wakeup = None


# ---------------------------------------------------------------------------
# Framing


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one length-prefixed JSON frame; ``None`` on a clean EOF."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    payload = await reader.readexactly(length)
    return json.loads(payload.decode("utf-8"))


def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Queue one length-prefixed JSON frame (caller drains)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    writer.write(_LENGTH.pack(len(payload)) + payload)


def _packet_values(packet) -> tuple[int, ...]:
    """Normalize a wire packet to a tuple of non-negative ints."""
    if isinstance(packet, Packet):
        return packet.values
    values = tuple(int(value) for value in packet)
    if not values:
        raise ValueError("packet must have at least one field")
    if any(value < 0 for value in values):
        raise ValueError("packet field values must be non-negative")
    return values


# ---------------------------------------------------------------------------
# Server


class AsyncServer:
    """An asyncio TCP front-end over any batch-serving engine stack.

    ``classify`` requests coalesce through a :class:`RequestBatcher`; each
    closed batch runs as *one* ``engine.classify_batch`` call (the stack's
    materializer over ``classify_block``) on a dedicated single-threaded
    executor.  ``insert``/``remove``/``stats`` run on the same
    executor, so all engine operations serialize in submission order: by the
    time an update's response reaches the client, the engine (and any flow
    cache listening on its :class:`~repro.serving.updates.UpdateQueue`) has
    applied it, and every classify batched afterwards observes the new state
    — the eviction-before-ack contract, extended over the wire.

    The server does not own the engine: :meth:`stop` shuts down the network
    side and the dispatcher but leaves the engine to its caller (close it via
    its own ``close()``, uniformly present on every engine stack).

    Admission is packet-weighted and shared: ``self.budget`` (a
    :class:`~repro.serving.control.PacketBudget` of ``max_queue`` packets) is
    charged by the JSON batcher per queued packet *and* by the binary path
    per classify-batch row, so either protocol's load sheds the other.  With
    ``adaptive=True`` (or an explicit ``controller``) an
    :class:`~repro.serving.control.OverloadController` retunes the batcher
    and the budget every window against ``slo_p99_us``; ``tune_cache``
    additionally lets a :class:`~repro.serving.control.CacheTuner` resize
    the engine's flow cache from observed hit rates (default: on whenever
    the controller runs and the engine exposes ``resize_cache``).
    """

    def __init__(
        self,
        engine,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay_us: float = DEFAULT_MAX_DELAY_US,
        max_queue: int = DEFAULT_MAX_QUEUE,
        clock: Callable[[], float] = time.monotonic,
        wire_v2: bool = True,
        slo_p99_us: float | None = None,
        adaptive: bool = False,
        tune_cache: bool | None = None,
        controller: OverloadController | None = None,
    ):
        self.engine = engine
        #: Offer binary protocol v2 in ``hello`` negotiation (v1 JSON always
        #: stays available; False emulates a pre-v2 server).
        self.wire_v2 = wire_v2
        self._binary_batches = 0
        #: Shared packet-weighted admission budget (both wire paths).
        self.budget = PacketBudget(max_queue)
        self.batcher = RequestBatcher(
            max_batch=max_batch,
            max_delay_us=max_delay_us,
            clock=clock,
            budget=self.budget,
        )
        if controller is None and adaptive:
            controller = OverloadController(
                ControllerConfig(
                    slo_p99_us=(
                        slo_p99_us if slo_p99_us is not None
                        else DEFAULT_SLO_P99_US
                    )
                ),
                ControlSettings(
                    max_batch=max_batch,
                    max_delay_us=max_delay_us,
                    max_queue=max_queue,
                ),
                clock=clock,
            )
        self._controller = controller
        self.slo_p99_us = (
            controller.config.slo_p99_us if controller is not None else slo_p99_us
        )
        if tune_cache is None:
            tune_cache = controller is not None
        self._cache_tuner = (
            CacheTuner()
            if tune_cache and hasattr(engine, "resize_cache")
            else None
        )
        self._control_task: asyncio.Task | None = None
        self._clock = clock
        self._server: asyncio.base_events.Server | None = None
        self._dispatcher: asyncio.Task | None = None
        self._worker: ThreadPoolExecutor | None = None
        self._connections = 0
        self._client_writers: set[asyncio.StreamWriter] = set()
        self._requests_served = 0
        # Sliding window of classify service times (submit -> response ready),
        # in microseconds; bounded so a long-lived server's stats stay O(1).
        self._latencies_us: deque[float] = deque(maxlen=8192)
        self.host: str | None = None
        self.port: int | None = None

    # -------------------------------------------------------------- lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving (``port=0`` picks an ephemeral port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="engine-worker"
        )
        self._server = await asyncio.start_server(self._handle_client, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._dispatcher = asyncio.get_running_loop().create_task(
            self.batcher.run(self._process_batch)
        )
        if self._controller is not None:
            self._control_task = asyncio.get_running_loop().create_task(
                self._control_loop()
            )

    async def stop(self) -> None:
        """Stop accepting, drain queued requests, shut the dispatcher down.

        Open connections are closed actively: from Python 3.12 on,
        ``Server.wait_closed`` waits for every connection handler to finish,
        and a handler only finishes when its client sends EOF — an idle but
        connected client must not be able to wedge shutdown.
        """
        if self._server is not None:
            self._server.close()
            for writer in list(self._client_writers):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        if self._control_task is not None:
            self._control_task.cancel()
            try:
                await self._control_task
            except asyncio.CancelledError:
                pass
            self._control_task = None
        self.batcher.close()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        if self._worker is not None:
            self._worker.shutdown(wait=True)
            self._worker = None

    async def __aenter__(self) -> "AsyncServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -------------------------------------------------------------- engine ops

    async def _in_worker(self, fn, *args):
        assert self._worker is not None, "server not started"
        return await asyncio.get_running_loop().run_in_executor(
            self._worker, fn, *args
        )

    async def _process_batch(self, packets: list) -> list:
        return await self._in_worker(self.engine.classify_batch, packets)

    # --------------------------------------------------------------- control

    async def _control_loop(self) -> None:
        """The observe → decide → apply loop of the overload controller.

        Sleeps until the controller's window closes, feeds it the budget
        occupancy, and applies whatever settings it decides to the batcher
        and the shared budget.  Latency/shed observations stream in from the
        request paths; this loop only closes windows.  Cancelled by
        :meth:`stop`.
        """
        controller = self._controller
        assert controller is not None
        while True:
            await asyncio.sleep(max(controller.due_in(), 0.005))
            controller.observe_queue(self.budget.in_flight)
            settings = controller.maybe_roll()
            if settings is None:
                continue
            self.batcher.max_batch = settings.max_batch
            self.batcher.max_delay_us = settings.max_delay_us
            self.budget.limit = settings.max_queue
            if self._cache_tuner is not None:
                await self._tune_cache()

    async def _tune_cache(self) -> None:
        """One cache-tuning step: drain the hit window, maybe resize.

        The resize runs on the engine worker so it serializes with classify
        batches — the cache is never rebuilt under a concurrent probe.
        """
        assert self._cache_tuner is not None
        cache = self.engine.cache
        hits, misses = cache.take_hit_window()
        capacity = cache.capacity
        target = self._cache_tuner.on_window(capacity, hits, misses)
        if target != capacity:
            await self._in_worker(self.engine.resize_cache, target)

    # ------------------------------------------------------------ connections

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        self._client_writers.add(writer)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    frame = await wire.read_any_frame(reader)
                except (ValueError, json.JSONDecodeError):
                    async with write_lock:
                        write_frame(
                            writer,
                            {
                                "id": None,
                                "ok": False,
                                "error": "malformed frame",
                                "code": "bad-request",
                            },
                        )
                        await writer.drain()
                    break
                if frame is None:
                    break
                kind, request = frame
                # One task per request: classifies from one connection can sit
                # in the same micro-batch while later frames are being read.
                if kind == "binary":
                    task = loop.create_task(
                        self._serve_binary(request, writer, write_lock)
                    )
                else:
                    task = loop.create_task(
                        self._serve_request(request, writer, write_lock)
                    )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            self._connections -= 1
            self._client_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_request(
        self, request: dict, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            response = await self._dispatch_op(request)
        except QueueFullError as exc:
            response = {"ok": False, "error": str(exc), "code": "overloaded"}
        except (KeyError, TypeError, ValueError) as exc:
            response = {"ok": False, "error": str(exc), "code": "bad-request"}
        except Exception as exc:  # noqa: BLE001 - reported to the client
            response = {"ok": False, "error": str(exc), "code": "error"}
        response["id"] = request_id
        # Only successful work counts as served; rejected/errored requests
        # show up in the batcher's `rejected` counter and the error responses
        # themselves, so goodput stays readable from the stats.  Protocol
        # negotiation is connection setup, not work.
        if response.get("ok") and request.get("op") != "hello":
            self._requests_served += 1
        async with write_lock:
            write_frame(writer, response)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch_op(self, request: dict) -> dict:
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        op = request.get("op")
        if op == "classify":
            return await self._op_classify(request)
        if op == "insert":
            rule = rule_from_state(request["rule"])
            await self._in_worker(self.engine.insert, rule)
            return {"ok": True, "rule_id": rule.rule_id}
        if op == "remove":
            removed = await self._in_worker(
                self.engine.remove, int(request["rule_id"])
            )
            return {"ok": True, "removed": bool(removed)}
        if op == "stats":
            return {"ok": True, "stats": await self._in_worker(self.statistics)}
        if op == "hello" and self.wire_v2:
            offered = request.get("protocols")
            if not isinstance(offered, list):
                raise ValueError("hello must carry a 'protocols' list")
            granted = [wire.WIRE_V2] if wire.WIRE_V2 in offered else []
            return {"ok": True, "protocols": granted}
        # With wire_v2 disabled, 'hello' falls through to the unknown-op
        # rejection — exactly what a pre-v2 server answers.
        raise ValueError(f"unknown op {op!r}")

    async def _op_classify(self, request: dict) -> dict:
        values = _packet_values(request["packet"])
        start = self._clock()
        try:
            pending = self.batcher.submit(values)
        except QueueFullError:
            if self._controller is not None:
                self._controller.observe_shed(1)
            raise
        if self._controller is not None:
            self._controller.observe_queue(self.budget.in_flight)
        result = await pending.future
        latency_us = (self._clock() - start) * 1e6
        self._latencies_us.append(latency_us)
        if self._controller is not None:
            self._controller.observe_completion(latency_us, 1)
        rule = result.rule
        return {
            "ok": True,
            "matched": rule is not None,
            "rule_id": rule.rule_id if rule is not None else None,
            "priority": rule.priority if rule is not None else None,
            "action": rule.action if rule is not None else None,
        }

    # ----------------------------------------------------------- binary path

    async def _serve_binary(
        self, payload: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        """Serve one v2 classify-batch frame.

        The batch arrives pre-formed, so it bypasses the *coalescing* batcher
        — but not admission: it charges its row count against the shared
        packet budget before dispatch and frees it when the response is
        computed, so an overloaded server answers ``STATUS_OVERLOADED``
        instead of queueing without bound (and binary load sheds JSON load,
        and vice versa).  Admitted batches run as one ``classify_block`` call
        on the same single-threaded engine executor all other ops serialize
        through — the eviction-before-ack ordering holds unchanged (an
        acknowledged update already ran on that executor before this batch
        does).
        """
        request_id = 0
        shed_packets = 1
        response: bytes
        try:
            request_id, block = wire.decode_classify_request(payload)
            # Known cost, kept as at PR 11: a sharded stack rebuilds and sorts
            # its live rules on every ``ruleset`` read.  ``engine.schema`` is
            # the fix; it moves ``update_churn`` pps ~20x, which a PR that
            # claims no benchmark gain cannot carry (see CHANGES.md, PR 12).
            num_fields = len(self.engine.ruleset.schema)
            if block.shape[1] != num_fields:
                raise ValueError(
                    f"packets have {block.shape[1]} fields, engine expects "
                    f"{num_fields}"
                )
            shed_packets = len(block)
            self.budget.try_acquire(len(block))
            try:
                if self._controller is not None:
                    self._controller.observe_queue(self.budget.in_flight)
                start = self._clock()
                rule_ids, priorities = await self._in_worker(
                    self.engine.classify_block, block
                )
                latency_us = (self._clock() - start) * 1e6
            finally:
                self.budget.release(len(block))
            self._latencies_us.append(latency_us)
            if self._controller is not None:
                self._controller.observe_completion(latency_us, len(block))
            response = wire.encode_classify_response(
                request_id, rule_ids, priorities
            )
            self._requests_served += 1
            self._binary_batches += 1
        except QueueFullError:
            if self._controller is not None:
                self._controller.observe_shed(shed_packets)
            response = wire.encode_error_response(
                request_id, wire.STATUS_OVERLOADED
            )
        except (wire.WireError, KeyError, TypeError, ValueError):
            response = wire.encode_error_response(
                request_id, wire.STATUS_BAD_REQUEST
            )
        except Exception:  # noqa: BLE001 - reported to the client
            response = wire.encode_error_response(request_id, wire.STATUS_ERROR)
        async with write_lock:
            wire.write_binary_frame(writer, response)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ----------------------------------------------------------- introspection

    def latency_percentiles_us(self) -> dict[str, float]:
        """p50/p99 classify service time (submit → result), microseconds."""
        if not self._latencies_us:
            return {"p50_us": 0.0, "p99_us": 0.0}
        window = np.asarray(self._latencies_us)
        return {
            "p50_us": float(np.percentile(window, 50)),
            "p99_us": float(np.percentile(window, 99)),
        }

    def statistics(self) -> dict[str, object]:
        """Server-side coalescing/latency stats plus the engine's own."""
        return {
            "server": {
                "host": self.host,
                "port": self.port,
                "connections": self._connections,
                "requests_served": self._requests_served,
                "wire_v2": self.wire_v2,
                "binary_batches": self._binary_batches,
                "queue_depth": self.batcher.queue_depth,
                "queued_packets": self.batcher.queued_packets,
                "max_batch": self.batcher.max_batch,
                "max_delay_us": self.batcher.max_delay_us,
                "max_queue": self.batcher.max_queue,
                "batcher": self.batcher.stats.as_dict(),
                "budget": self.budget.as_dict(),
                "adaptive": self._controller is not None,
                "controller": (
                    self._controller.as_dict()
                    if self._controller is not None
                    else None
                ),
                "cache_tuner": (
                    self._cache_tuner.as_dict()
                    if self._cache_tuner is not None
                    else None
                ),
                **self.latency_percentiles_us(),
            },
            "engine": self.engine.statistics(),
        }


# ---------------------------------------------------------------------------
# Client


class AsyncClient:
    """A pipelining client for :class:`AsyncServer`'s wire protocol.

    Any number of requests may be in flight on one connection; a background
    reader task matches responses to requests by id.  All methods raise
    :class:`ServerError` on an ``ok: false`` response (``exc.code`` carries
    the server's error code, e.g. ``"overloaded"`` under backpressure).

    :meth:`connect` negotiates binary protocol v2 by default: when the server
    grants it, :meth:`classify_batch` travels as one fixed-width binary frame
    instead of per-packet JSON requests; against an older server the client
    silently stays on JSON.  ``client.wire_v2`` reports the outcome.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._binary_pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False
        self.wire_v2 = False
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str, port: int, negotiate: bool = True
    ) -> "AsyncClient":
        """Connect; with ``negotiate`` (default) attempt the v2 upgrade.

        Negotiation is one ``hello`` round-trip.  An older server rejects the
        unknown op with ``code: "bad-request"`` — the client swallows exactly
        that error and stays on JSON (``negotiate=False`` skips the
        round-trip and emulates a pre-v2 client).
        """
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        if negotiate:
            try:
                response = await client.request(
                    "hello", protocols=[wire.WIRE_V2]
                )
                client.wire_v2 = wire.WIRE_V2 in response.get("protocols", [])
            except ServerError as exc:
                if exc.code != "bad-request":
                    await client.close()
                    raise
        return client

    async def _read_loop(self) -> None:
        error: Exception | None = None
        try:
            while True:
                frame = await wire.read_any_frame(self._reader)
                if frame is None:
                    break
                kind, response = frame
                if kind == "binary":
                    request_id, status, rule_ids, priorities = (
                        wire.decode_classify_response(response)
                    )
                    future = self._binary_pending.pop(request_id, None)
                    if future is not None and not future.done():
                        future.set_result((status, rule_ids, priorities))
                    continue
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except Exception as exc:  # noqa: BLE001 - fanned out to waiters
            error = exc
        for future in list(self._pending.values()) + list(
            self._binary_pending.values()
        ):
            if not future.done():
                future.set_exception(
                    error or ConnectionError("connection closed by server")
                )
        self._pending.clear()
        self._binary_pending.clear()

    async def request(self, op: str, **fields) -> dict:
        """Send one request and await its matched response (raw dict)."""
        if self._closed:
            raise RuntimeError("client is closed")
        request_id = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        # Register before checking: if the reader exits after this line, its
        # cleanup fans the failure out to this future too.  If it already
        # exited, the future would be orphaned — fail fast instead of letting
        # the caller await a response that can never arrive.
        if self._reader_task.done():
            self._pending.pop(request_id, None)
            raise ConnectionError("connection closed by server")
        write_frame(self._writer, {"id": request_id, "op": op, **fields})
        await self._writer.drain()
        response = await future
        if not response.get("ok", False):
            raise ServerError(
                response.get("error", "request failed"),
                code=response.get("code", "error"),
            )
        return response

    async def classify(self, packet: Packet | Sequence[int]) -> dict:
        """Classify one packet; returns the response dict (see module docs)."""
        return await self.request("classify", packet=list(_packet_values(packet)))

    async def classify_batch(self, packets: Sequence) -> list[dict]:
        """Classify a batch; one ``{"matched", "rule_id", "priority"}`` dict
        per packet (``rule_id``/``priority`` are ``None`` on a miss).

        On a v2 connection the whole batch travels as one binary frame; on
        JSON it fans out as pipelined per-packet requests.  Both paths return
        the same normalized dicts — binary responses carry no action strings,
        so neither path exposes them (use :meth:`classify` for actions).
        """
        block = wire.packet_block(packets)
        if self.wire_v2:
            status, rule_ids, priorities = await self._classify_block(block)
            if status != wire.STATUS_OK:
                code = wire.STATUS_CODES.get(status, "error")
                raise ServerError(f"binary classify batch failed ({code})", code)
            return [
                {
                    "matched": bool(rule_id >= 0),
                    "rule_id": int(rule_id) if rule_id >= 0 else None,
                    "priority": int(priority) if rule_id >= 0 else None,
                }
                for rule_id, priority in zip(rule_ids, priorities)
            ]
        responses = await asyncio.gather(
            *(self.classify(tuple(int(v) for v in row)) for row in block)
        )
        return [
            {
                "matched": bool(response["matched"]),
                "rule_id": response["rule_id"],
                "priority": response["priority"],
            }
            for response in responses
        ]

    async def _classify_block(
        self, block: np.ndarray
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Classify a block over binary frames; awaits the matched response.

        A batch too large for one 24-bit frame is chunked into several
        pipelined frames and the results concatenated in order — the
        connection never sees an oversized frame.  If any chunk fails, its
        status is returned (with empty arrays) and the successful chunks'
        results are discarded.
        """
        max_rows = wire.max_block_rows(block.shape[1])
        if len(block) > max_rows:
            parts = await asyncio.gather(
                *(
                    self._classify_block(block[start : start + max_rows])
                    for start in range(0, len(block), max_rows)
                )
            )
            for status, _rule_ids, _priorities in parts:
                if status != wire.STATUS_OK:
                    empty = np.empty(0, dtype=np.int64)
                    return status, empty, empty
            return (
                wire.STATUS_OK,
                np.concatenate([part[1] for part in parts]),
                np.concatenate([part[2] for part in parts]),
            )
        if self._closed:
            raise RuntimeError("client is closed")
        request_id = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._binary_pending[request_id] = future
        if self._reader_task.done():
            self._binary_pending.pop(request_id, None)
            raise ConnectionError("connection closed by server")
        try:
            wire.write_binary_frame(
                self._writer, wire.encode_classify_request(request_id, block)
            )
            await self._writer.drain()
        except BaseException:
            # A failed write means no response will ever match this id —
            # drop the pending entry so it cannot leak (or swallow a future
            # response to a reused id).
            self._binary_pending.pop(request_id, None)
            raise
        return await future

    async def insert(self, rule: Rule) -> dict:
        return await self.request("insert", rule=rule_to_state(rule))

    async def remove(self, rule_id: int) -> bool:
        response = await self.request("remove", rule_id=rule_id)
        return bool(response["removed"])

    async def stats(self) -> dict:
        return (await self.request("stats"))["stats"]

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        await self._reader_task

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


# ---------------------------------------------------------------------------
# Blocking front-end (the CLI entry point)


def run_server(
    engine,
    host: str = "127.0.0.1",
    port: int = 8590,
    max_batch: int = DEFAULT_MAX_BATCH,
    max_delay_us: float = DEFAULT_MAX_DELAY_US,
    max_queue: int = DEFAULT_MAX_QUEUE,
    slo_p99_us: float | None = None,
    adaptive: bool = False,
    ready: Callable[[AsyncServer], None] | None = None,
    shutdown: "asyncio.Event | None" = None,
) -> dict:
    """Serve ``engine`` over TCP until interrupted; returns final statistics.

    ``SIGINT`` and ``SIGTERM`` (how systemd, Docker and Kubernetes stop a
    process) both end in a clean return, so the caller's ``finally`` closes
    the engine — shard workers and their shared-memory segments included.
    ``ready(server)`` fires once the socket is bound (the CLI prints the
    listening address there); ``shutdown`` is an optional externally-set event
    for embedding the blocking server in tests.  The engine is *not* closed —
    the caller owns its lifecycle.  ``adaptive`` enables the overload
    controller against ``slo_p99_us`` (see :class:`AsyncServer`).
    """
    final_stats: dict = {}

    async def _main() -> None:
        server = AsyncServer(
            engine,
            max_batch=max_batch,
            max_delay_us=max_delay_us,
            max_queue=max_queue,
            slo_p99_us=slo_p99_us,
            adaptive=adaptive,
        )
        await server.start(host, port)
        stop = shutdown or asyncio.Event()
        # Signal handlers can only be installed from the main thread; closing
        # the loop (asyncio.run) removes this one.
        if threading.current_thread() is threading.main_thread():
            asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        if ready is not None:
            ready(server)
        try:
            await stop.wait()
        finally:
            final_stats.update(server.statistics())
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return final_stats
