"""Asyncio network serving: a JSON control plane and a binary data plane.

NuevoMatch's throughput comes from running RQ-RMI inference over a block of
packets, so a lookup crosses the wire the way the engines consume it — as a
columnar block:

* :class:`AsyncServer` — an asyncio TCP server in front of *any* engine
  stack (plain :class:`~repro.engine.ClassificationEngine`,
  :class:`~repro.serving.ShardedEngine`, or either wrapped in a
  :class:`~repro.serving.CachedEngine`).  Classify traffic arrives as wire-v2
  binary classify-batch frames (:mod:`repro.serving.wire`); each admitted
  frame is one ``engine.classify_block`` call.  ``hello``/``insert``/
  ``remove``/``stats`` are length-prefixed JSON.  Lookups and updates are
  serialized through one single-threaded engine executor, so the
  :class:`~repro.serving.updates.UpdateQueue` eviction-before-ack contract
  holds over the wire: a classify *sent after* an update's response was
  received can never observe pre-update state.
* :class:`AsyncClient` — a pipelining client: many requests may be in flight
  on one connection, matched to responses by id.  Batching is the client's
  job: :meth:`AsyncClient.classify_batch` sends one frame per batch.

Wire protocol
-------------

A JSON frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON (one object).  Requests carry ``id`` (echoed verbatim in
the response) and ``op``::

    {"id": 6, "op": "hello",  "protocols": ["v2"]}
    {"id": 8, "op": "insert", "rule": [[[lo, hi], ...], priority, action, rule_id]}
    {"id": 9, "op": "remove", "rule_id": 3}
    {"id": 10, "op": "stats"}

Responses are ``{"id": ..., "ok": true, ...}`` on success or
``{"id": ..., "ok": false, "error": msg, "code": code}`` on failure
(``"bad-request"`` or ``"error"``).  There is no JSON ``classify`` op: a
pre-v2 client that sends one is answered ``bad-request`` with a message
naming wire v2.  Binary frames, their statuses and the ``hello`` negotiation
are specified in :mod:`repro.serving.wire`; docs/PROTOCOL.md is the
normative spec.

Admission is *packet-weighted*: every classify-batch frame charges its row
count to one :class:`~repro.serving.control.PacketBudget` before it reaches
the engine, so ``max_queue`` bounds rows of outstanding work and an
overloaded server answers ``STATUS_OVERLOADED`` instead of queueing without
bound.  With ``adaptive=True`` an
:class:`~repro.serving.control.OverloadController` retunes that limit each
window against a p99 SLO; see :mod:`repro.serving.control`.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.engine.serialization import rule_from_state, rule_to_state
from repro.rules.rule import Packet, Rule
from repro.serving import wire
from repro.serving.control import (
    DEFAULT_SLO_P99_US,
    CacheTuner,
    ControllerConfig,
    OverloadController,
    PacketBudget,
    QueueFullError,
)

__all__ = [
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_SLO_P99_US",
    "PacketBudget",
    "QueueFullError",
    "ServerError",
    "AsyncServer",
    "AsyncClient",
    "run_server",
]

#: Admission budget in packets; frames past it are shed (backpressure).
DEFAULT_MAX_QUEUE = 8192


class ServerError(RuntimeError):
    """An ``ok: false`` response received by :class:`AsyncClient`."""

    def __init__(self, message: str, code: str = "error"):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Server


class AsyncServer:
    """An asyncio TCP front-end over any engine stack.

    A lookup reaches the engine one way: a wire-v2 classify-batch frame is
    decoded, admitted against ``self.budget``, and run as *one*
    ``engine.classify_block`` call on a dedicated single-threaded executor.
    ``insert``/``remove``/``stats`` run on the same executor, so all engine
    operations serialize in submission order: by the time an update's
    response reaches the client, the engine (and any flow cache listening on
    its :class:`~repro.serving.updates.UpdateQueue`) has applied it, and
    every frame served afterwards observes the new state — the
    eviction-before-ack contract, extended over the wire.

    The server does not own the engine: :meth:`stop` shuts down the network
    side but leaves the engine to its caller (close it via its own
    ``close()``, uniformly present on every engine stack).

    Admission is packet-weighted: ``self.budget`` (a
    :class:`~repro.serving.control.PacketBudget` of ``max_queue`` packets) is
    charged per classify-batch row.  With ``adaptive=True`` (or an explicit
    ``controller``) an :class:`~repro.serving.control.OverloadController`
    retunes the budget's limit every window against ``slo_p99_us``;
    ``tune_cache`` additionally lets a
    :class:`~repro.serving.control.CacheTuner` resize the engine's flow
    cache from observed hit rates (default: on whenever the controller runs
    and the engine exposes ``resize_cache``).
    """

    def __init__(
        self,
        engine,
        max_queue: int = DEFAULT_MAX_QUEUE,
        clock: Callable[[], float] = time.monotonic,
        slo_p99_us: float | None = None,
        adaptive: bool = False,
        tune_cache: bool | None = None,
        controller: OverloadController | None = None,
    ):
        self.engine = engine
        self._num_fields = len(engine.schema)
        self._binary_batches = 0
        #: Packet-weighted admission budget of the classify path.
        self.budget = PacketBudget(max_queue)
        if controller is None and adaptive:
            controller = OverloadController(
                ControllerConfig(
                    slo_p99_us=(
                        slo_p99_us if slo_p99_us is not None
                        else DEFAULT_SLO_P99_US
                    )
                ),
                max_queue,
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
        self._worker: ThreadPoolExecutor | None = None
        self._connections = 0
        #: Open connections: handler task -> its writer.
        self._clients: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._requests_served = 0
        # Sliding window of classify service times (admit -> response ready),
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
        if self._controller is not None:
            self._control_task = asyncio.get_running_loop().create_task(
                self._control_loop()
            )

    async def stop(self) -> None:
        """Stop accepting, finish the frames in flight, shut the worker down.

        Open connections are closed actively — an idle but connected client
        must not be able to wedge shutdown — and their handlers are awaited
        (``Server.wait_closed`` only does that from Python 3.12 on), so every
        admitted frame has released its budget by the time this returns.
        """
        if self._server is not None:
            self._server.close()
            for writer in self._clients.values():
                writer.close()
            await self._server.wait_closed()
            self._server = None
        if self._clients:
            await asyncio.gather(*self._clients, return_exceptions=True)
        if self._control_task is not None:
            self._control_task.cancel()
            try:
                await self._control_task
            except asyncio.CancelledError:
                pass
            self._control_task = None
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

    # --------------------------------------------------------------- control

    async def _control_loop(self) -> None:
        """The observe → decide → apply loop of the overload controller.

        Sleeps until the controller's window closes, feeds it the budget
        occupancy, and writes the limit it decides to the budget.
        Latency/shed observations stream in from the classify path; this
        loop only closes windows.  Cancelled by :meth:`stop`.
        """
        controller = self._controller
        assert controller is not None
        while True:
            await asyncio.sleep(max(controller.due_in(), 0.005))
            controller.observe_queue(self.budget.in_flight)
            limit = controller.maybe_roll()
            if limit is None:
                continue
            self.budget.limit = limit
            if self._cache_tuner is not None:
                await self._tune_cache()

    async def _tune_cache(self) -> None:
        """One cache-tuning step: drain the hit window, maybe resize.

        The resize runs on the engine worker so it serializes with classify
        frames — the cache is never rebuilt under a concurrent probe.
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
        handler = asyncio.current_task()
        self._clients[handler] = writer
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    frame = await wire.read_any_frame(reader)
                except (ValueError, json.JSONDecodeError):
                    async with write_lock:
                        wire.write_json_frame(
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
                # One task per frame: a connection's pipelined frames queue
                # on the engine worker while later ones are still being read.
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
            del self._clients[handler]
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
        except (KeyError, TypeError, ValueError) as exc:
            response = {"ok": False, "error": str(exc), "code": "bad-request"}
        except Exception as exc:  # noqa: BLE001 - reported to the client
            response = {"ok": False, "error": str(exc), "code": "error"}
        response["id"] = request_id
        # Only successful work counts as served, so goodput stays readable
        # from the stats.  Protocol negotiation is connection setup, not work.
        if response.get("ok") and request.get("op") != "hello":
            self._requests_served += 1
        async with write_lock:
            wire.write_json_frame(writer, response)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch_op(self, request: dict) -> dict:
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        op = request.get("op")
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
        if op == "hello":
            offered = request.get("protocols")
            if not isinstance(offered, list):
                raise ValueError("hello must carry a 'protocols' list")
            # The intersection of what was offered with what this server
            # speaks; a later protocol version lands here.
            granted = [wire.WIRE_V2] if wire.WIRE_V2 in offered else []
            return {"ok": True, "protocols": granted}
        if op == "classify":
            raise ValueError(
                "there is no JSON classify op: send lookups as wire v2 binary "
                'classify-batch frames ({"op": "hello", "protocols": ["v2"]} '
                "confirms the server speaks them; see docs/PROTOCOL.md)"
            )
        raise ValueError(f"unknown op {op!r}")

    # ----------------------------------------------------------- binary path

    async def _serve_binary(
        self, payload: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        """Serve one v2 classify-batch frame — the server's only lookup path.

        The frame charges its row count against the packet budget before
        dispatch and frees it when the response is computed, so an
        overloaded server answers ``STATUS_OVERLOADED`` instead of queueing
        without bound; admission is all-or-nothing per frame.  An admitted
        frame runs as one ``classify_block`` call on the single-threaded
        engine executor all other ops serialize through — the
        eviction-before-ack ordering holds (an acknowledged update already
        ran on that executor before this frame does).
        """
        request_id = 0
        shed_packets = 1
        response: bytes
        try:
            request_id, block = wire.decode_classify_request(payload)
            if block.shape[1] != self._num_fields:
                raise ValueError(
                    f"packets have {block.shape[1]} fields, engine expects "
                    f"{self._num_fields}"
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
        """p50/p99 classify service time (admit → result), microseconds."""
        if not self._latencies_us:
            return {"p50_us": 0.0, "p99_us": 0.0}
        window = np.asarray(self._latencies_us)
        return {
            "p50_us": float(np.percentile(window, 50)),
            "p99_us": float(np.percentile(window, 99)),
        }

    def statistics(self) -> dict[str, object]:
        """Server-side admission/latency stats plus the engine's own."""
        return {
            "server": {
                "host": self.host,
                "port": self.port,
                "connections": self._connections,
                "requests_served": self._requests_served,
                "binary_batches": self._binary_batches,
                "max_queue": self.budget.limit,
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
    :class:`ServerError` on a failed response (``exc.code`` carries the
    server's error code, e.g. ``"overloaded"`` under backpressure).

    :meth:`classify_batch` sends each batch as one binary classify-batch
    frame; control ops (:meth:`insert`, :meth:`remove`, :meth:`stats`) are
    JSON.  :meth:`connect` negotiates wire v2 and fails loudly when the
    server does not grant it — there is no other data plane to fall back to.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._binary_pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncClient":
        """Connect and agree on wire v2 (one ``hello`` round-trip).

        Raises :class:`ServerError` with code ``"unsupported-protocol"`` —
        and closes the socket — when the server does not grant ``"v2"``,
        whether it answered an empty grant or (a pre-v2 server) rejected
        ``hello`` as an unknown op.
        """
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        offered = [wire.WIRE_V2]
        granted: list = []
        try:
            response = await client.request("hello", protocols=offered)
            granted = response.get("protocols", [])
        except ServerError as exc:
            # A pre-v2 server rejects 'hello' as an unknown op: grants nothing.
            if exc.code != "bad-request":
                await client.close()
                raise
        if wire.WIRE_V2 not in granted:
            await client.close()
            raise ServerError(
                f"no common wire protocol: offered {offered}, server "
                f"granted {granted}",
                code="unsupported-protocol",
            )
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
        wire.write_json_frame(
            self._writer, {"id": request_id, "op": op, **fields}
        )
        await self._writer.drain()
        response = await future
        if not response.get("ok", False):
            raise ServerError(
                response.get("error", "request failed"),
                code=response.get("code", "error"),
            )
        return response

    async def classify(self, packet: Packet | Sequence[int]) -> dict:
        """Classify one packet: the one-row case of :meth:`classify_batch`."""
        return (await self.classify_batch([packet]))[0]

    async def classify_batch(self, packets: Sequence) -> list[dict]:
        """Classify a batch; one ``{"matched", "rule_id", "priority"}`` dict
        per packet (``rule_id``/``priority`` are ``None`` on a miss).

        The whole batch travels as one binary frame (several, pipelined, when
        it exceeds the frame cap).  Binary responses carry no action strings.
        """
        status, rule_ids, priorities = await self._classify_block(
            wire.packet_block(packets)
        )
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
