"""Closed-loop wire-v2 load generator: one thread, blocking sockets, ``select``.

The callers modelled are datapath threads that submit a 128-row frame and wait
for its answer, so a slow server receives less load.  Request frames are
encoded once up front; there are no per-packet Python objects on the timed
path.  Every response row is checked against the oracle as it arrives.
"""

from __future__ import annotations

import json
import select
import socket
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serving import wire

FRAME_TIMEOUT_S = 10.0
_JSON_LENGTH = struct.Struct(">I")


def binary_frame(payload: bytes) -> bytes:
    """A v2 payload with its frame prefix (docs/PROTOCOL.md "Binary framing")."""
    return bytes([wire.FRAME_MAGIC]) + len(payload).to_bytes(3, "big") + payload


def json_frame(message: dict) -> bytes:
    payload = json.dumps(message, separators=(",", ":")).encode()
    return _JSON_LENGTH.pack(len(payload)) + payload


def encode_frames(block: np.ndarray, rows: int) -> list[bytes]:
    """One pre-encoded classify frame per ``rows`` rows; request id = frame index."""
    return [
        binary_frame(wire.encode_classify_request(index, block[start : start + rows]))
        for index, start in enumerate(range(0, len(block) - rows + 1, rows))
    ]


class Connection:
    """One TCP connection: sends whole frames, yields whole received frames."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=FRAME_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()
        #: request id -> send time of the frames awaiting a response.
        self.outstanding: dict[int, float] = {}

    def fileno(self) -> int:
        return self.sock.fileno()

    def close(self) -> None:
        self.sock.close()

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def receive(self) -> list[tuple[str, bytes]]:
        """Read what the socket has; return the complete ``(kind, payload)`` frames."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk
        frames = []
        while len(self._buffer) >= 4:
            if self._buffer[0] == wire.FRAME_MAGIC:
                kind, length = "binary", int.from_bytes(self._buffer[1:4], "big")
            else:
                kind, length = "json", _JSON_LENGTH.unpack_from(self._buffer)[0]
            if len(self._buffer) < 4 + length:
                break
            frames.append((kind, bytes(self._buffer[4 : 4 + length])))
            del self._buffer[: 4 + length]
        return frames

    def request_json(self, message: dict) -> dict:
        """One blocking JSON round trip (set-up, ``stats``; not for timed paths
        that have binary frames outstanding on this connection)."""
        self.send(json_frame(message))
        while True:
            for kind, payload in self.receive():
                if kind == "json":
                    return json.loads(payload)

    def hello(self) -> None:
        reply = self.request_json({"id": 0, "op": "hello", "protocols": [wire.WIRE_V2]})
        if not reply.get("ok") or wire.WIRE_V2 not in reply.get("protocols", ()):
            raise RuntimeError(f"server did not grant wire v2: {reply}")


@dataclass
class Counts:
    """Rows and updates attempted and failed, all phases."""

    rows_attempted: int = 0
    rows_refused: int = 0    # status overloaded
    rows_errored: int = 0    # any other non-ok status, or a broken connection
    rows_timed_out: int = 0
    rows_wrong: int = 0
    updates_attempted: int = 0
    updates_failed: int = 0  # error reply or never acknowledged

    @property
    def attempted(self) -> int:
        return self.rows_attempted + self.updates_attempted

    @property
    def failed(self) -> int:
        return (self.rows_refused + self.rows_errored + self.rows_timed_out
                + self.rows_wrong + self.updates_failed)


@dataclass
class Slice:
    """What one closed-loop slice measured."""

    wall_s: float
    rows_ok: int
    rtts_s: list[float] = field(default_factory=list)


class Updater:
    """The churn control connection: one JSON insert/remove per period, one
    outstanding; feeds the :class:`~oracle.UpdateTimeline` the checker reads."""

    def __init__(self, address, rules, schedule, period_s, timeline, counts):
        self.conn = Connection(address)
        self._rules = rules          # wire-encoded churn rule per hot flow
        self._schedule = schedule    # iterator of hot-flow indices
        self._period = period_s
        self._timeline = timeline
        self._counts = counts
        self._present = [False] * len(rules)
        self._next_due = time.perf_counter()
        self._pending: tuple[int, bool, float] | None = None
        self.ack_s: list[float] = []

    def due_in(self, now: float) -> float | None:
        """Seconds until the next update is due; None while one is outstanding."""
        return None if self._pending else max(0.0, self._next_due - now)

    def maybe_send(self, now: float) -> None:
        if self._pending is not None or now < self._next_due:
            return
        flow = next(self._schedule)
        present = not self._present[flow]
        if present:
            message = {"id": flow, "op": "insert", "rule": self._rules[flow]}
        else:
            message = {"id": flow, "op": "remove", "rule_id": self._rules[flow][3]}
        self._counts.updates_attempted += 1
        sent = time.perf_counter()
        self._pending = (flow, present, sent)
        self._timeline.begin(flow, present, sent)
        self.conn.send(json_frame(message))

    def on_readable(self) -> None:
        for _kind, payload in self.conn.receive():
            now = time.perf_counter()
            if self._pending is None:
                continue
            flow, present, sent = self._pending
            self._pending = None
            reply = json.loads(payload)
            if reply.get("ok") and (present or reply.get("removed")):
                self._timeline.ack(flow, now)
                self._present[flow] = present
                self.ack_s.append(now - sent)
            else:
                self._fail(flow)
            self._next_due = max(self._next_due + self._period, now)

    def _fail(self, flow: int) -> None:
        self._counts.updates_failed += 1
        self._timeline.forget(flow)

    def finish(self) -> None:
        """Wait (bounded) for the outstanding ack, then close; an update never
        acknowledged counts as failed."""
        try:
            while self._pending is not None:
                if not select.select([self.conn], [], [], FRAME_TIMEOUT_S)[0]:
                    break
                self.on_readable()
        except OSError:
            pass
        if self._pending is not None:
            self._fail(self._pending[0])
            self._pending = None
        self.conn.close()


class LoadGenerator:
    """Drives slices of closed-loop classify traffic against one server."""

    def __init__(self, address, frames: list[bytes], frame_rows: int, checker,
                 counts: Counts, updater: Updater | None = None):
        self._address = address
        self._frames = frames
        self._rows = frame_rows
        self._checker = checker
        self._counts = counts
        self._updater = updater
        self._cursor = 0
        self._conns: list[Connection] = []

    def close(self) -> None:
        for conn in self._conns:
            conn.close()
        self._conns = []

    def _connections(self, count: int) -> list[Connection]:
        while len(self._conns) < count:
            conn = Connection(self._address)
            conn.hello()
            self._conns.append(conn)
        return self._conns[:count]

    def _send_next(self, conn: Connection) -> None:
        index = self._cursor
        self._cursor = (index + 1) % len(self._frames)
        self._counts.rows_attempted += self._rows
        conn.outstanding[index] = time.perf_counter()
        conn.send(self._frames[index])

    def _on_response(self, conn: Connection, payload: bytes, now: float,
                     result: Slice | None) -> None:
        request_id, status, rule_ids, priorities = wire.decode_classify_response(payload)
        sent = conn.outstanding.pop(request_id)
        if status == wire.STATUS_OVERLOADED:
            self._counts.rows_refused += self._rows
        elif status != wire.STATUS_OK:
            self._counts.rows_errored += self._rows
        else:
            wrong = self._checker.wrong_rows(request_id, rule_ids, priorities, sent, now)
            self._counts.rows_wrong += wrong
            if result is not None:
                result.rows_ok += self._rows - wrong
                result.rtts_s.append(now - sent)

    def _pump(self, conns: list[Connection]) -> list[tuple[Connection, bytes, float]]:
        """One ``select`` round: service the updater, return the classify
        responses that arrived as ``(connection, payload, receive time)``.

        Raises :class:`TimeoutError` when the oldest outstanding frame has
        waited ``FRAME_TIMEOUT_S``.
        """
        updater = self._updater
        now = time.perf_counter()
        oldest = min(min(conn.outstanding.values()) for conn in conns)
        timeout = oldest + FRAME_TIMEOUT_S - now
        if timeout <= 0:
            raise TimeoutError("classify frame unanswered")
        watched: list[Connection] = list(conns)
        if updater is not None:
            updater.maybe_send(now)
            due = updater.due_in(now)
            if due is not None:
                timeout = min(timeout, due)
            watched.append(updater.conn)
        arrived = []
        for conn in select.select(watched, [], [], timeout)[0]:
            if updater is not None and conn is updater.conn:
                updater.on_readable()
            else:
                for _kind, payload in conn.receive():
                    arrived.append((conn, payload, time.perf_counter()))
        return arrived

    def run_slice(self, seconds: float, connections: int, depth: int) -> Slice | None:
        """``connections`` x ``depth`` frames outstanding, measured for ``seconds``.

        The clock starts on the first response and stops on the first one at
        least ``seconds`` later, with the pipeline full on both sides, so the
        rate is not quantised by the frame time.  Returns
        None when the slice broke (frames timed out or a connection failed);
        the lost frames are in the counts.
        """
        self.drain()
        try:
            conns = self._connections(connections)
            for conn in conns:
                for _ in range(depth):
                    self._send_next(conn)
            result = Slice(0.0, 0)
            started: float | None = None
            while True:
                for conn, payload, now in self._pump(conns):
                    if started is None:
                        started = now  # the measured interval begins here
                        self._on_response(conn, payload, now, None)
                    else:
                        self._on_response(conn, payload, now, result)
                        result.wall_s = now - started
                    self._send_next(conn)
                if result.rows_ok and result.wall_s >= seconds:
                    return result
        except TimeoutError:
            self._abandon("rows_timed_out")
        except OSError:
            self._abandon("rows_errored")
        return None

    def drain(self) -> None:
        """Collect the responses still outstanding, unmeasured."""
        try:
            while True:
                busy = [conn for conn in self._conns if conn.outstanding]
                if not busy:
                    return
                for conn, payload, now in self._pump(busy):
                    self._on_response(conn, payload, now, None)
        except TimeoutError:
            self._abandon("rows_timed_out")
        except OSError:
            self._abandon("rows_errored")

    def _abandon(self, counter: str) -> None:
        """Count every outstanding frame as lost and drop the connections."""
        lost = sum(len(conn.outstanding) for conn in self._conns) * self._rows
        setattr(self._counts, counter, getattr(self._counts, counter) + lost)
        self.close()
