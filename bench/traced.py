"""The traced run: the workload's stack built in-process, its serve path
replayed under spans recorded from here, around the calls into each layer.

Nothing inside ``src/`` is instrumented.  The serve path of
``AsyncServer._serve_binary`` (decode -> admit -> classify_block -> release ->
encode) is copied in :func:`serve_frame`; spans inside the stack come from
wrapping the public methods of the objects the stack is made of.  End-to-end
numbers never come from here.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.cli import _nm_config  # the server's own NuevoMatch configuration
from repro.engine import ClassificationEngine
from repro.rules.rule import Packet
from repro.serving import CachedEngine, ShardedEngine, wire
from repro.serving.control import PacketBudget
from repro.serving.server import DEFAULT_MAX_QUEUE
from repro.traffic.packet import Trace
from repro.workloads.replay import replay_trace

from oracle import churn_rule
from workloads import CHURN_HOT_FLOWS, FRAME_ROWS, Workload

#: Warm frames replayed per pass (bare stack, bare serve path, traced serve path).
REPLAY_FRAMES = 200
#: The serve path is replayed over 2 x REPLAY_FRAMES frames, bare and traced
#: alternating in chunks of this many, so host drift during the replay cancels
#: in ``trace.overhead_share``.
REPLAY_CHUNK = 25


class Tracer:
    """In-memory spans: ``[name, start_ns, end_ns, parent index, frame id]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.frame = -1
        #: Off: every wrapped call goes straight through (the bare replay).
        self.enabled = False
        self._open = -1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``, inside a span when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        record = [name, 0, 0, self._open, self.frame]
        self._open = len(self.spans)
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._open = record[3]

    def wrap(self, obj, attr: str, name: str) -> None:
        """Replace the bound method ``obj.attr`` by a span-recording one."""
        inner = getattr(obj, attr)
        call = self.call

        def traced(*args, **kwargs):
            return call(name, inner, *args, **kwargs)

        setattr(obj, attr, traced)

    def self_times(self) -> dict[str, dict[int, int]]:
        """``name -> frame -> self ns``: a span's duration minus the part its
        child spans cover, summed per frame."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent, _frame in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for (name, start, end, _parent, frame), covered in zip(self.spans, child_ns):
            out[name][frame] += end - start - covered
        return out

    def totals(self, name: str) -> dict[int, int]:
        """``frame -> total ns`` of the spans called ``name``."""
        out: dict[int, int] = defaultdict(int)
        for span_name, start, end, _parent, frame in self.spans:
            if span_name == name:
                out[frame] += end - start
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome trace-event format (``chrome://tracing``, Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
             "args": {"frame": frame, "span": index, "parent": parent}}
            for index, (name, start, end, parent, frame) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ns"}))


def serve_frame(stack, budget: PacketBudget, payload: bytes, call) -> bytes:
    """One classify frame through the server's binary path, minus asyncio and
    the engine-worker thread hop."""
    request_id, block = call(
        "wire.decode_classify_request", wire.decode_classify_request, payload
    )
    call("PacketBudget.try_acquire", budget.try_acquire, len(block))
    try:
        rule_ids, priorities = stack.classify_block(block)
    finally:
        call("PacketBudget.release", budget.release, len(block))
    return call(
        "wire.encode_classify_response",
        wire.encode_classify_response, request_id, rule_ids, priorities,
    )


# ---------------------------------------------------------------------------
# Building and instrumenting the stack


def build_stack(workload: Workload, rules):
    """The stack ``repro serve`` builds for the workload's flags (cli._cmd_serve).

    Retraining is disabled in-process (threshold 1.0): a background retrain
    would swap the engines the spans are attached to.
    """
    params = {"remainder_classifier": "tm", "config": _nm_config(error_threshold=64)}
    if workload.shards <= 1:
        stack = ClassificationEngine.build(rules, classifier="nm", **params)
    else:
        stack = ShardedEngine.build(
            rules, shards=workload.shards, classifier="nm",
            executor=workload.executor, retrain_threshold=1.0, **params,
        )
    if workload.cache_size > 0:
        stack = CachedEngine(stack, capacity=workload.cache_size)
    return stack


def _parts(stack):
    """``(cached or None, sharded or None, [shard engines])`` of a stack."""
    cached = stack if isinstance(stack, CachedEngine) else None
    base = cached.engine if cached else stack
    if isinstance(base, ShardedEngine):
        return cached, base, [shard.engine for shard in base._shards]
    return cached, None, [base]


def instrument(tracer: Tracer, stack) -> None:
    cached, sharded, engines = _parts(stack)
    if cached is not None:
        tracer.wrap(cached, "classify_block", "CachedEngine.classify_block")
        tracer.wrap(cached.cache, "probe_block", "FlowCache.probe_block")
        tracer.wrap(cached.cache, "fill_block", "FlowCache.fill_block")
    if sharded is not None:
        tracer.wrap(sharded, "classify_block", "ShardedEngine.classify_block")
    for engine in engines:
        tracer.wrap(engine, "classify_block", "ClassificationEngine.classify_block")
        nm = engine.classifier
        tracer.wrap(nm, "classify_block", "NuevoMatch.classify_block")
        for iset in nm.isets:
            tracer.wrap(iset, "lookup_block", "ISetIndex.lookup_block")
            tracer.wrap(iset.model, "query_batch_detailed", "RQRMI.query_batch_detailed")
        tracer.wrap(
            nm.remainder, "classify_block_with_floors",
            "remainder.classify_block_with_floors",
        )


# ---------------------------------------------------------------------------
# Measurement helpers


def _median_us(samples_ns) -> float:
    return statistics.median(samples_ns) / 1e3 if samples_ns else 0.0


def _time_each(fn, items) -> list[int]:
    out = []
    for item in items:
        start = time.perf_counter_ns()
        fn(item)
        out.append(time.perf_counter_ns() - start)
    return out


def _per_frame_median(by_frame: dict[int, int], frames: int) -> float:
    """Median ns per frame of a ``frame -> ns`` map (absent frames count 0)."""
    return statistics.median(by_frame.get(frame, 0) for frame in range(frames))


def run_traced(workload: Workload, rules, block: np.ndarray,
               out_dir: Path) -> dict[str, float]:
    """Build, replay, measure; returns the in-process layer metrics."""
    metrics: dict[str, float] = {}
    start = time.perf_counter()
    stack = build_stack(workload, rules)
    metrics["pipeline.build_s"] = time.perf_counter() - start
    try:
        _measure(workload, stack, block, out_dir, metrics)
    finally:
        stack.close()
    return metrics


def _measure(workload, stack, block, out_dir, metrics) -> None:
    cached, sharded, engines = _parts(stack)
    workers = sharded is not None and sharded.executor == "workers"
    blocks = [block[i : i + FRAME_ROWS] for i in range(0, len(block), FRAME_ROWS)]
    replay = [blocks[i % len(blocks)] for i in range(REPLAY_FRAMES)]
    payloads = [
        wire.encode_classify_request(i, blocks[i % len(blocks)])
        for i in range(2 * REPLAY_FRAMES)
    ]
    budget = PacketBudget(DEFAULT_MAX_QUEUE)

    # Static structure: the paper's coverage / compression numbers.
    stats = [engine.classifier.statistics() for engine in engines]
    total_rules = sum(len(engine.ruleset) for engine in engines)
    metrics["core.num_isets"] = sum(s["num_isets"] for s in stats)
    metrics["core.remainder_rules"] = sum(s["remainder_rules"] for s in stats)
    metrics["core.coverage"] = 1.0 - metrics["core.remainder_rules"] / total_rules
    metrics["core.max_error"] = max(s["max_error"] for s in stats)
    metrics["core.rqrmi_bytes"] = sum(s["rqrmi_bytes"] for s in stats)
    metrics["core.index_bytes"] = sum(
        engine.memory_footprint().index_bytes for engine in engines
    )
    metrics["flowcache.footprint_bytes"] = cached.cache.footprint_bytes() if cached else 0

    # First block (spawns the shard workers on that executor), then one pass
    # over the whole trace: cache filled, lazy arrays built.
    start = time.perf_counter()
    stack.classify_block(blocks[0])
    metrics["workers.first_block_s"] = time.perf_counter() - start if workers else 0.0
    for chunk in blocks:
        stack.classify_block(chunk)
    metrics["stack.block_us"] = _median_us(_time_each(stack.classify_block, replay))

    # Sharding layer: the real executor's block against its shards' own work.
    for name in ("sharded.block_us", "sharded.shard_sum_us", "sharded.shard_max_us",
                 "sharded.fanout_us_frame", "sharded.imbalance", "workers.rtt_us_1row"):
        metrics[name] = 0.0
    if sharded is not None:
        shard_ns = np.array([_time_each(e.classify_block, replay) for e in engines])
        block_us = _median_us(_time_each(sharded.classify_block, replay))
        sum_us = float(np.median(shard_ns.sum(axis=0))) / 1e3
        max_us = float(np.median(shard_ns.max(axis=0))) / 1e3
        metrics["sharded.block_us"] = block_us
        metrics["sharded.shard_sum_us"] = sum_us
        metrics["sharded.shard_max_us"] = max_us
        metrics["sharded.fanout_us_frame"] = block_us - (max_us if workers else sum_us)
        metrics["sharded.imbalance"] = float(
            np.median(shard_ns.max(axis=0) / shard_ns.mean(axis=0))
        )
        if workers:
            metrics["workers.rtt_us_1row"] = _median_us(
                _time_each(sharded.classify_block, [b[:1] for b in replay])
            )

    # Spans need the shard engines in this process: on the workers executor the
    # serve path is replayed over the same engines through the serial fan-out.
    twin = ShardedEngine(engines, executor="serial", retrain_threshold=1.0) if workers else stack
    tracer = Tracer()
    instrument(tracer, twin)
    # Bare and traced chunks alternate over *different* consecutive frames of
    # the trace: replaying a frame twice in a row would hit the flow cache
    # (and warm CPU caches) the second time.
    bare_ns, traced_ns = [], []
    for index, payload in enumerate(payloads):
        tracer.enabled = (index // REPLAY_CHUNK) % 2 == 1
        samples = traced_ns if tracer.enabled else bare_ns
        tracer.frame = len(traced_ns)
        start = time.perf_counter_ns()
        tracer.call("serve_frame", serve_frame, twin, budget, payload, tracer.call)
        samples.append(time.perf_counter_ns() - start)
    tracer.enabled = False
    tracer.write_chrome_trace(out_dir / f"trace-{workload.name}.json")
    metrics["trace.overhead_share"] = (
        statistics.median(traced_ns) / statistics.median(bare_ns) - 1.0
    )

    self_ns = tracer.self_times()
    frames = len(traced_ns)

    def self_pkt(name: str) -> float:
        return _per_frame_median(self_ns.get(name, {}), frames) / FRAME_ROWS

    metrics["wire.decode_req_ns_pkt"] = self_pkt("wire.decode_classify_request")
    metrics["wire.encode_resp_ns_pkt"] = self_pkt("wire.encode_classify_response")
    metrics["control.admit_ns_frame"] = FRAME_ROWS * (
        self_pkt("PacketBudget.try_acquire") + self_pkt("PacketBudget.release")
    )
    metrics["flowcache.probe_ns_pkt"] = self_pkt("FlowCache.probe_block")
    metrics["flowcache.fill_ns_pkt"] = self_pkt("FlowCache.fill_block")
    metrics["flowcache.self_ns_pkt"] = self_pkt("CachedEngine.classify_block")
    metrics["engine.block_ns_pkt"] = (
        _per_frame_median(tracer.totals("ClassificationEngine.classify_block"), frames)
        / FRAME_ROWS
    )
    metrics["engine.validate_ns_pkt"] = self_pkt("ClassificationEngine.classify_block")
    metrics["core.rqrmi_ns_pkt"] = self_pkt("RQRMI.query_batch_detailed")
    metrics["core.validate_ns_pkt"] = self_pkt("ISetIndex.lookup_block")
    metrics["core.remainder_ns_pkt"] = self_pkt("remainder.classify_block_with_floors")
    metrics["core.merge_ns_pkt"] = self_pkt("NuevoMatch.classify_block")

    # Client-side codecs.
    responses = [serve_frame(stack, budget, p, tracer.call) for p in payloads[:64]]
    metrics["wire.encode_req_ns_pkt"] = statistics.median(_time_each(
        lambda pair: wire.encode_classify_request(*pair), list(enumerate(replay[:64]))
    )) / FRAME_ROWS
    metrics["wire.decode_resp_ns_pkt"] = statistics.median(
        _time_each(wire.decode_classify_response, responses)
    ) / FRAME_ROWS

    # Cost model for the same stack and traffic.
    model_trace = Trace(
        [Packet(tuple(int(v) for v in row)) for row in block[:2048]], name=workload.name
    )
    metrics["model.ns_pkt"] = replay_trace(stack, model_trace).modelled_latency_ns

    # Update path, last because it mutates the stack: exact-match rules over
    # distinct flows of the trace, as the churn workload issues them.
    flows = np.unique(block, axis=0)[:CHURN_HOT_FLOWS]
    churn = [churn_rule(k, flow) for k, flow in enumerate(flows)]
    for name in ("updates.insert_us", "updates.remove_us", "updates.adjust_ns_pkt",
                 "flowcache.invalidate_us"):
        metrics[name] = 0.0
    if sharded is not None:
        clean_ns = statistics.median(_time_each(sharded.classify_block, replay[:64]))
        metrics["updates.insert_us"] = _median_us(_time_each(stack.insert, churn))
        overlay_ns = statistics.median(_time_each(sharded.classify_block, replay[:64]))
        metrics["updates.adjust_ns_pkt"] = (overlay_ns - clean_ns) / FRAME_ROWS
        metrics["updates.remove_us"] = _median_us(
            _time_each(stack.remove, [rule.rule_id for rule in churn])
        )
    if cached is not None:
        metrics["flowcache.invalidate_us"] = _median_us(
            _time_each(cached.cache.invalidate_insert, churn)
        )
