"""Persistent shard-worker runtime over ``multiprocessing.shared_memory``.

The ``"workers"`` executor of :class:`~repro.serving.ShardedEngine` — the one
way the serving stack uses N cores.  Handing work to other processes through a
pool pickles every packet batch per shard and tears the pool down on every
engine swap; at serving rates those per-call costs dwarf the lookups.  This
runtime is a data plane that moves bytes, not objects:

* **Snapshot publication** — each shard's
  :class:`~repro.engine.ClassificationEngine` document is written once into a
  shared-memory segment; the long-lived worker process restores the engine
  from it at start-up.  An engine swap (background retrain) republishes the
  snapshot under a bumped *generation* counter in the shard's control block;
  the worker picks the new generation up between batches and acknowledges it,
  at which point the parent unlinks the superseded segment.
* **Columnar request rings** — packets travel as contiguous ``uint64`` blocks
  in per-shard shared-memory ring slots (sequence-numbered, fixed geometry).
  Submitting a batch is one vectorized copy per shard; no per-packet Python
  objects and no pickling cross the process boundary.
* **Columnar result rings** — workers answer with fixed-width records
  (``rule_id``, ``priority``, five :class:`~repro.classifiers.base.LookupTrace`
  counters) in a result ring; the parent merges winners by order key
  exactly like the in-process ``serial`` executor.
* **Semaphore doorbells** — a request/result semaphore pair per shard wakes
  the other side without polling loops on the data path (the control loop —
  generation checks, shutdown — runs only between batches, keeping the data
  plane free of it).

Workers are started with the ``spawn`` context so the runtime is safe to
create from multi-threaded parents (the asyncio server's engine executor, a
background retrain thread); ``fork`` would duplicate those threads' locks.
"""

from __future__ import annotations

import atexit
import json
import os
import secrets
import threading
import time
from multiprocessing import get_context
from multiprocessing import resource_tracker as _resource_tracker
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.classifiers.base import TRACE_FIELDS

__all__ = [
    "DEFAULT_SLOT_PACKETS",
    "DEFAULT_SLOTS",
    "PACKET_DTYPE",
    "TRACE_FIELDS",
    "WorkerCrashed",
    "RingGeometry",
    "ShardWorkerRuntime",
]

#: Packets per ring slot: one slot carries up to this many packets, larger
#: batches are pipelined across consecutive slots.
DEFAULT_SLOT_PACKETS = 512

#: Slots per ring; bounds how many batches may be in flight per shard.
DEFAULT_SLOTS = 4

#: Element type of the columnar packet block (covers 32-bit header fields
#: with headroom for wide synthetic schemas).
PACKET_DTYPE = np.uint64

# Control-block word indices (a small uint64 array per shard).
_CTRL_GENERATION = 0   # parent: currently published snapshot generation
_CTRL_SNAP_BYTES = 1   # parent: byte length of that snapshot document
_CTRL_ACK = 2          # worker: last generation it restored an engine from
_CTRL_SHUTDOWN = 3     # parent: non-zero asks the worker to exit
_CTRL_WORDS = 8

_META_SEQ = 0
_META_COUNT = 1
_META_STATUS = 2
_META_WORDS = 4

#: Result-ring status codes.
_STATUS_OK = 0
_STATUS_ERROR = 1


class WorkerCrashed(RuntimeError):
    """A shard worker process died (or timed out) mid-batch."""

    def __init__(self, shard: int, message: str):
        super().__init__(f"shard worker {shard}: {message}")
        self.shard = shard


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting unlink responsibility.

    On Python < 3.13 every attach is registered with the resource tracker,
    which would unlink the parent-owned segment when this process exits.
    Spawned children share the parent's tracker process, so calling
    ``unregister`` after the fact would remove the *parent's* registration
    too; instead, suppress registration for the duration of the attach.
    """
    original_register = _resource_tracker.register
    _resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        _resource_tracker.register = original_register


class RingGeometry:
    """Byte layout of one shard's request/result rings in a single segment."""

    def __init__(
        self,
        slots: int = DEFAULT_SLOTS,
        slot_packets: int = DEFAULT_SLOT_PACKETS,
        num_fields: int = 5,
    ):
        if slots < 1:
            raise ValueError("slots must be at least 1")
        if slot_packets < 1:
            raise ValueError("slot_packets must be at least 1")
        if num_fields < 1:
            raise ValueError("num_fields must be at least 1")
        self.slots = slots
        self.slot_packets = slot_packets
        self.num_fields = num_fields
        itemsize = np.dtype(np.uint64).itemsize
        self.req_meta_off = 0
        self.req_block_off = self.req_meta_off + slots * _META_WORDS * itemsize
        self.res_meta_off = (
            self.req_block_off + slots * slot_packets * num_fields * itemsize
        )
        self.res_rule_off = self.res_meta_off + slots * _META_WORDS * itemsize
        self.res_priority_off = self.res_rule_off + slots * slot_packets * itemsize
        self.res_trace_off = self.res_priority_off + slots * slot_packets * itemsize
        self.total_bytes = (
            self.res_trace_off + slots * slot_packets * len(TRACE_FIELDS) * itemsize
        )

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.slots, self.slot_packets, self.num_fields)


class _RingViews:
    """Numpy views over a ring segment's buffer, shared by both sides."""

    def __init__(self, buf, geometry: RingGeometry):
        g = geometry
        self.req_meta = np.ndarray(
            (g.slots, _META_WORDS), dtype=np.uint64, buffer=buf, offset=g.req_meta_off
        )
        self.req_block = np.ndarray(
            (g.slots, g.slot_packets, g.num_fields),
            dtype=PACKET_DTYPE,
            buffer=buf,
            offset=g.req_block_off,
        )
        self.res_meta = np.ndarray(
            (g.slots, _META_WORDS), dtype=np.uint64, buffer=buf, offset=g.res_meta_off
        )
        self.res_rule = np.ndarray(
            (g.slots, g.slot_packets),
            dtype=np.int64,
            buffer=buf,
            offset=g.res_rule_off,
        )
        self.res_priority = np.ndarray(
            (g.slots, g.slot_packets),
            dtype=np.int64,
            buffer=buf,
            offset=g.res_priority_off,
        )
        self.res_trace = np.ndarray(
            (g.slots, g.slot_packets, len(TRACE_FIELDS)),
            dtype=np.int64,
            buffer=buf,
            offset=g.res_trace_off,
        )


def _snapshot_name(prefix: str, shard: int, generation: int) -> str:
    return f"{prefix}s{shard}g{generation}"


def _worker_main(
    prefix: str,
    shard: int,
    geometry_tuple: tuple[int, int, int],
    request_sem,
    result_sem,
) -> None:
    """Shard worker entry point: restore engine, serve ring slots until told
    to shut down.  Runs in a spawned child process."""
    # Imported here (not at module top) only for clarity of what the child
    # needs; spawn re-imports this module either way.
    from repro.engine.engine import ClassificationEngine

    control = _attach(f"{prefix}c{shard}")
    ring = _attach(f"{prefix}r{shard}")
    geometry = RingGeometry(*geometry_tuple)
    views = _RingViews(ring.buf, geometry)
    ctrl = np.ndarray((_CTRL_WORDS,), dtype=np.uint64, buffer=control.buf)
    engine = None
    loaded_generation = -1
    seq = 0
    try:
        while not int(ctrl[_CTRL_SHUTDOWN]):
            generation = int(ctrl[_CTRL_GENERATION])
            if generation != loaded_generation:
                snapshot = _attach(_snapshot_name(prefix, shard, generation))
                nbytes = int(ctrl[_CTRL_SNAP_BYTES])
                document = json.loads(bytes(snapshot.buf[:nbytes]).decode("utf-8"))
                snapshot.close()
                engine = ClassificationEngine.from_document(document)
                loaded_generation = generation
                ctrl[_CTRL_ACK] = generation
                continue
            # Doorbell with a short timeout: the timeout is the *control*
            # loop (generation + shutdown checks), not the data path — a
            # posted semaphore wakes the worker immediately.
            if not request_sem.acquire(timeout=0.05):
                continue
            slot = seq % geometry.slots
            count = int(views.req_meta[slot, _META_COUNT])
            status = _STATUS_OK
            try:
                # Columnar end to end: the ring slot's block goes straight
                # into the engine's classify_block and the result arrays are
                # written in place into the result ring — no per-packet
                # objects on the worker side.  Misses come back per the
                # shared contract: rule_id == -1, priority == 0.
                block = views.req_block[slot, :count]
                trace_out = views.res_trace[slot]
                rule_ids, priorities = engine.classify_block(
                    block, traces=trace_out[:count]
                )
                views.res_rule[slot, :count] = rule_ids
                views.res_priority[slot, :count] = priorities
            except Exception:  # noqa: BLE001 - reported through the ring
                import traceback

                traceback.print_exc()
                status = _STATUS_ERROR
            views.res_meta[slot, _META_SEQ] = seq
            views.res_meta[slot, _META_COUNT] = count
            views.res_meta[slot, _META_STATUS] = status
            result_sem.release()
            seq += 1
    finally:
        # Views must be dropped before the buffers close.
        del views, ctrl
        control.close()
        ring.close()


class ShardWorkerRuntime:
    """N long-lived worker processes serving per-shard columnar rings.

    Built from one engine per shard (:meth:`start` publishes each engine's
    snapshot and spawns its worker).  :meth:`classify_block` fans a columnar
    packet block over every shard and returns per-shard result arrays;
    :meth:`publish` swaps one shard's engine after a retrain.  The runtime is
    oblivious to update overlays — it serves each shard's *built* engine;
    the parent applies overlays on the results.
    """

    def __init__(
        self,
        slots: int = DEFAULT_SLOTS,
        slot_packets: int = DEFAULT_SLOT_PACKETS,
    ):
        self._slots = slots
        self._slot_packets = slot_packets
        self._prefix = f"rqw{os.getpid():x}x{secrets.token_hex(3)}"
        self._lock = threading.Lock()
        self._ctx = get_context("spawn")
        self._geometry: RingGeometry | None = None
        self._controls: list[shared_memory.SharedMemory] = []
        self._rings: list[shared_memory.SharedMemory] = []
        self._snapshots: list[shared_memory.SharedMemory | None] = []
        self._ctrl_views: list[np.ndarray] = []
        self._ring_views: list[_RingViews] = []
        self._request_sems: list = []
        self._result_sems: list = []
        self._processes: list = []
        self._generations: list[int] = []
        self._seq = 0
        self._started = False
        self._closed = False
        self._atexit = None

    # ------------------------------------------------------------- lifecycle

    @property
    def num_shards(self) -> int:
        return len(self._processes)

    def start(self, engines: Sequence, timeout: float = 120.0) -> None:
        """Publish generation-0 snapshots and spawn one worker per shard.

        Blocks until every worker acknowledged its snapshot (i.e. restored
        its engine), so a classify issued right after ``start`` returns never
        races worker start-up.
        """
        if self._started:
            raise RuntimeError("runtime already started")
        if not engines:
            raise ValueError("at least one shard engine is required")
        num_fields = len(engines[0].schema)
        self._geometry = RingGeometry(self._slots, self._slot_packets, num_fields)
        self._atexit = self.close
        atexit.register(self._atexit)
        for shard, engine in enumerate(engines):
            control = shared_memory.SharedMemory(
                name=f"{self._prefix}c{shard}", create=True,
                size=_CTRL_WORDS * 8,
            )
            ring = shared_memory.SharedMemory(
                name=f"{self._prefix}r{shard}", create=True,
                size=self._geometry.total_bytes,
            )
            ctrl = np.ndarray((_CTRL_WORDS,), dtype=np.uint64, buffer=control.buf)
            ctrl[:] = 0
            self._controls.append(control)
            self._rings.append(ring)
            self._ctrl_views.append(ctrl)
            self._ring_views.append(_RingViews(ring.buf, self._geometry))
            self._snapshots.append(None)
            self._generations.append(0)
            self._write_snapshot(shard, engine, generation=0)
            request_sem = self._ctx.Semaphore(0)
            result_sem = self._ctx.Semaphore(0)
            self._request_sems.append(request_sem)
            self._result_sems.append(result_sem)
            process = self._ctx.Process(
                target=_worker_main,
                args=(
                    self._prefix,
                    shard,
                    self._geometry.as_tuple(),
                    request_sem,
                    result_sem,
                ),
                daemon=True,
                name=f"shard-worker-{shard}",
            )
            process.start()
            self._processes.append(process)
        self._started = True
        deadline = time.monotonic() + timeout
        for shard in range(len(self._processes)):
            self._wait_ack(shard, 0, deadline)

    def _write_snapshot(self, shard: int, engine, generation: int) -> None:
        # The built structure only: the parent applies the engine's update
        # overlay to the ring results.
        payload = json.dumps(
            engine.built_document(), separators=(",", ":")
        ).encode("utf-8")
        segment = shared_memory.SharedMemory(
            name=_snapshot_name(self._prefix, shard, generation),
            create=True,
            size=max(len(payload), 1),
        )
        segment.buf[: len(payload)] = payload
        old = self._snapshots[shard]
        self._snapshots[shard] = segment
        ctrl = self._ctrl_views[shard]
        # Size first, generation last: the worker reads the size only after it
        # observes the new generation.
        ctrl[_CTRL_SNAP_BYTES] = len(payload)
        ctrl[_CTRL_GENERATION] = generation
        self._generations[shard] = generation
        self._stale_snapshot = old

    def _wait_ack(self, shard: int, generation: int, deadline: float) -> None:
        ctrl = self._ctrl_views[shard]
        while int(ctrl[_CTRL_ACK]) != generation:
            if not self._processes[shard].is_alive():
                raise WorkerCrashed(shard, "died before acknowledging snapshot")
            if time.monotonic() > deadline:
                raise WorkerCrashed(
                    shard, f"no snapshot ack for generation {generation}"
                )
            time.sleep(0.002)

    def publish(self, shard: int, engine, timeout: float = 120.0) -> int:
        """Republish one shard's engine (after a swap); returns the generation.

        Blocks until the worker acknowledged the new snapshot, then unlinks
        the superseded segment — the worker never touches a snapshot older
        than its acknowledged generation.
        """
        with self._lock:
            self._check_open()
            generation = self._generations[shard] + 1
            self._write_snapshot(shard, engine, generation)
            stale = self._stale_snapshot
            self._stale_snapshot = None
            try:
                self._wait_ack(shard, generation, time.monotonic() + timeout)
            finally:
                if stale is not None:
                    stale.close()
                    try:
                        stale.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass
            return generation

    def generations(self) -> list[int]:
        """Published snapshot generation per shard."""
        return list(self._generations)

    def _check_open(self) -> None:
        if not self._started or self._closed:
            raise RuntimeError("worker runtime is not running")

    # ------------------------------------------------------------- data plane

    def classify_block(
        self, block: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Classify a columnar packet block on every shard.

        Args:
            block: ``(n, num_fields)`` array (any integer dtype; copied into
                the rings as ``uint64``).

        Returns:
            One ``(rule_ids, priorities, traces)`` triple per shard:
            ``rule_ids`` int64 ``(n,)`` with ``-1`` for a miss, ``priorities``
            int64 ``(n,)`` with ``0`` for a miss (the one miss-encoding
            contract shared by every columnar path), ``traces`` int64
            ``(n, 5)`` in :data:`TRACE_FIELDS` order.
        """
        block = np.ascontiguousarray(np.asarray(block), dtype=PACKET_DTYPE)
        if block.ndim != 2:
            raise ValueError("packet block must be 2-dimensional")
        geometry = self._geometry
        if block.shape[1] != geometry.num_fields:
            raise ValueError(
                f"block has {block.shape[1]} fields, rings carry "
                f"{geometry.num_fields}"
            )
        n = block.shape[0]
        num_shards = len(self._processes)
        outputs = [
            (
                np.empty(n, dtype=np.int64),
                np.empty(n, dtype=np.int64),
                np.empty((n, len(TRACE_FIELDS)), dtype=np.int64),
            )
            for _ in range(num_shards)
        ]
        if n == 0:
            return outputs
        chunks = [
            (start, min(start + geometry.slot_packets, n))
            for start in range(0, n, geometry.slot_packets)
        ]
        with self._lock:
            self._check_open()
            base_seq = self._seq
            self._seq += len(chunks)
            submitted = 0
            collected = 0
            while collected < len(chunks):
                # Keep up to `slots` chunks in flight per shard, then drain in
                # order; submission is one vectorized copy per shard.
                while submitted < len(chunks) and submitted - collected < geometry.slots:
                    start, stop = chunks[submitted]
                    seq = base_seq + submitted
                    slot = seq % geometry.slots
                    for shard in range(num_shards):
                        views = self._ring_views[shard]
                        views.req_meta[slot, _META_SEQ] = seq
                        views.req_meta[slot, _META_COUNT] = stop - start
                        views.req_block[slot, : stop - start] = block[start:stop]
                        self._request_sems[shard].release()
                    submitted += 1
                start, stop = chunks[collected]
                seq = base_seq + collected
                slot = seq % geometry.slots
                for shard in range(num_shards):
                    self._acquire_result(shard)
                    views = self._ring_views[shard]
                    if int(views.res_meta[slot, _META_SEQ]) != seq:
                        raise WorkerCrashed(
                            shard,
                            f"result ring out of sequence (expected {seq}, "
                            f"got {int(views.res_meta[slot, _META_SEQ])})",
                        )
                    if int(views.res_meta[slot, _META_STATUS]) != _STATUS_OK:
                        raise WorkerCrashed(shard, "batch classification failed")
                    count = stop - start
                    rule_ids, priorities, traces = outputs[shard]
                    rule_ids[start:stop] = views.res_rule[slot, :count]
                    priorities[start:stop] = views.res_priority[slot, :count]
                    traces[start:stop] = views.res_trace[slot, :count]
                collected += 1
        return outputs

    def _acquire_result(self, shard: int, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while not self._result_sems[shard].acquire(timeout=0.1):
            if not self._processes[shard].is_alive():
                raise WorkerCrashed(shard, "died mid-batch")
            if time.monotonic() > deadline:
                raise WorkerCrashed(shard, "timed out waiting for results")

    # --------------------------------------------------------------- shutdown

    def close(self) -> None:
        """Stop workers and release every shared-memory segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._atexit is not None:
            try:
                atexit.unregister(self._atexit)
            except Exception:  # pragma: no cover
                pass
        for shard, ctrl in enumerate(self._ctrl_views):
            ctrl[_CTRL_SHUTDOWN] = 1
        for sem in self._request_sems:
            sem.release()
        for process in self._processes:
            process.join(timeout=10.0)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5.0)
        # Views must be dropped before the buffers close.
        self._ring_views.clear()
        self._ctrl_views.clear()
        for segment in (
            self._controls
            + self._rings
            + [snap for snap in self._snapshots if snap is not None]
        ):
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self._controls.clear()
        self._rings.clear()
        self._snapshots.clear()

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass
