"""Trace replay: one harness from generator trace to serving-stack report.

``replay_trace`` plays a :class:`~repro.traffic.Trace` through any engine
stack's ``classify_block`` — a bare
:class:`~repro.engine.ClassificationEngine`, a multi-core
:class:`~repro.serving.ShardedEngine`, or either wrapped in a
:class:`~repro.serving.CachedEngine` — and reports:

* **measured** — wall-clock throughput and p50/p99 per-packet latency over
  the served batches, plus the flow-cache hit rate when a cache is present;
* **modelled** — a cache-aware latency estimate: misses priced by the
  :class:`~repro.simulation.CostModel` against the engine's structures
  (per-shard for sharded engines), hits priced by where the flow cache's
  footprint lands in the :class:`~repro.simulation.CacheHierarchy` — the same
  placement reasoning the paper applies to index structures (§2.2, §5.2.1).

``make_trace`` maps the paper's trace names (§5.1.1) to the generators:
``uniform``, ``zipf`` (with the four top-3%-share skew settings 80/85/90/95 of
Figure 12) and ``caida`` (heavy-tailed flows with bursty arrivals).

The CLI front-end is ``repro replay``; the scenario-matrix regression suite
(``tests/test_replay_scenarios.py``) uses the same entry points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.engine import ClassificationEngine
from repro.rules.rule import RuleSet
from repro.serving import CachedEngine, ShardedEngine
from repro.simulation import (
    CostModel,
    evaluate_classifier_batched,
    evaluate_sharded,
)
from repro.traffic import (
    Trace,
    generate_caida_like_trace,
    generate_uniform_trace,
    generate_zipf_trace,
)

__all__ = [
    "TRACE_KINDS",
    "ReplayReport",
    "build_scenario_engine",
    "make_trace",
    "replay_trace",
    "run_scenario",
]

#: Trace regimes of §5.1.1, in CLI spelling.
TRACE_KINDS = ("uniform", "zipf", "caida")


def make_trace(
    kind: str,
    ruleset: RuleSet,
    num_packets: int,
    seed: int = 1,
    skew: int = 95,
    burstiness: float = 0.7,
) -> Trace:
    """Generate a trace of the given §5.1.1 regime over ``ruleset``.

    ``skew`` is the Zipf top-3%-flow traffic share (80/85/90/95, Figure 12)
    and only applies to ``kind="zipf"``; ``burstiness`` only to ``"caida"``.
    """
    if kind == "uniform":
        return generate_uniform_trace(ruleset, num_packets, seed=seed)
    if kind == "zipf":
        return generate_zipf_trace(ruleset, num_packets, top3_share=skew, seed=seed)
    if kind == "caida":
        return generate_caida_like_trace(
            ruleset, num_packets, seed=seed, burstiness=burstiness
        )
    raise ValueError(f"unknown trace kind {kind!r}; expected one of {TRACE_KINDS}")


def build_scenario_engine(
    ruleset: RuleSet,
    shards: int = 1,
    cache_size: int = 0,
    classifier: str | type = "tm",
    executor: str = "serial",
    background_retraining: bool = True,
    **params,
):
    """Build the engine a scenario names: ``shards`` × optional flow cache.

    ``shards <= 1`` builds a plain :class:`ClassificationEngine`; more builds
    a :class:`ShardedEngine`.  ``cache_size > 0`` wraps the result in a
    :class:`CachedEngine` (with its invalidation listener wired into the
    sharded engine's update queue).  ``params`` go to the classifier build.
    """
    if shards <= 1:
        engine = ClassificationEngine.build(ruleset, classifier=classifier, **params)
    else:
        engine = ShardedEngine.build(
            ruleset,
            shards=shards,
            classifier=classifier,
            executor=executor,
            background_retraining=background_retraining,
            **params,
        )
    if cache_size > 0:
        return CachedEngine(engine, capacity=cache_size)
    return engine


@dataclass
class ReplayReport:
    """What one trace replay measured (and what the cost model predicts)."""

    trace: str
    engine: str
    shards: int
    cache_size: int
    batch_size: int
    packets: int
    matched: int
    hit_rate: float
    wall_seconds: float
    throughput_pps: float
    latency_p50_ns: float
    latency_p99_ns: float
    modelled_latency_ns: float
    modelled_throughput_pps: float
    cache: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready payload (the shape ``BENCH`` lines and the CLI print)."""
        return {
            "trace": self.trace,
            "engine": self.engine,
            "shards": self.shards,
            "cache_size": self.cache_size,
            "batch_size": self.batch_size,
            "packets": self.packets,
            "matched": self.matched,
            "hit_rate": round(self.hit_rate, 4),
            "wall_seconds": round(self.wall_seconds, 4),
            "throughput_pps": round(self.throughput_pps, 1),
            "latency_p50_ns": round(self.latency_p50_ns, 1),
            "latency_p99_ns": round(self.latency_p99_ns, 1),
            "modelled_latency_ns": round(self.modelled_latency_ns, 2),
            "modelled_throughput_pps": round(self.modelled_throughput_pps, 1),
            "cache": self.cache,
        }


def _unwrap(engine) -> tuple[object, Optional[CachedEngine]]:
    """(underlying engine, cache wrapper or None)."""
    if isinstance(engine, CachedEngine):
        return engine.engine, engine
    return engine, None


def _engine_label(engine) -> str:
    base, cached = _unwrap(engine)
    if isinstance(base, ShardedEngine):
        label = f"sharded[{base.num_shards}]"
    else:
        label = f"engine[{base.classifier_name}]"
    return f"cached({label})" if cached is not None else label


def _num_shards(engine) -> int:
    base, _cached = _unwrap(engine)
    return base.num_shards if isinstance(base, ShardedEngine) else 1


def _modelled_miss_latency_ns(
    base, trace: Trace, cost_model: CostModel, batch_size: int, max_packets: int
) -> float:
    """Cost-model latency of the slow path (the engine without the cache)."""
    if isinstance(base, ShardedEngine):
        report = evaluate_sharded(
            base, trace, cost_model, batch_size=batch_size, max_packets=max_packets
        )
    else:
        report = evaluate_classifier_batched(
            base.classifier,
            trace,
            cost_model,
            batch_size=batch_size,
            max_packets=max_packets,
        )
    return report.avg_latency_ns


def replay_trace(
    engine,
    trace: Trace,
    batch_size: int = 128,
    cost_model: CostModel | None = None,
    model_packets: int = 2000,
) -> ReplayReport:
    """Play ``trace`` through ``engine`` batch by batch and report.

    The trace is packed into one uint64 block up front and each batch is a
    slice driven through ``classify_block`` — no per-packet objects anywhere
    on the serve path, which is what the measured numbers are meant to price.

    Each batch call is timed; per-packet latency percentiles are taken over
    the batches (a batch's packets share its latency).  The modelled numbers
    combine the cost model's slow-path estimate (capped at ``model_packets``
    packets to bound modelling cost) with a flow-cache hit priced at the
    cache footprint's hierarchy level plus one hash.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    cost_model = cost_model or CostModel()
    base, cached = _unwrap(engine)
    stats_before = replace(cached.cache.stats) if cached else None

    packets = list(trace)
    matched = 0
    per_packet_ns: list[float] = []
    batch_sizes: list[int] = []
    wall = 0.0
    block = np.array([tuple(packet) for packet in packets], dtype=np.uint64)
    for start in range(0, len(block), batch_size):
        chunk = block[start : start + batch_size]
        begin = time.perf_counter()
        rule_ids, _priorities = engine.classify_block(chunk)
        elapsed = time.perf_counter() - begin
        wall += elapsed
        matched += int((rule_ids >= 0).sum())
        per_packet_ns.append(elapsed * 1e9 / len(chunk))
        batch_sizes.append(len(chunk))

    if cached is not None:
        assert stats_before is not None
        # Every reported counter is windowed to this replay, so repeated
        # replays on one warm engine stay internally consistent (the
        # capacity/entries/footprint fields describe the cache *now*).
        after = cached.cache.stats
        window = replace(
            after,
            hits=after.hits - stats_before.hits,
            misses=after.misses - stats_before.misses,
            insertions=after.insertions - stats_before.insertions,
            evictions=after.evictions - stats_before.evictions,
            invalidations=after.invalidations - stats_before.invalidations,
            dropped_fills=after.dropped_fills - stats_before.dropped_fills,
        )
        hit_rate = window.hit_rate
        cache_stats = {
            "capacity": cached.cache.capacity,
            "entries": len(cached.cache),
            "footprint_bytes": cached.cache.footprint_bytes(),
            **window.as_dict(),
        }
    else:
        hit_rate = 0.0
        cache_stats = {}

    miss_ns = _modelled_miss_latency_ns(
        base, trace, cost_model, batch_size, max_packets=model_packets
    )
    if cached is not None:
        assert cost_model.cache is not None
        hit_ns = (
            cost_model.cache.access_latency_ns(cached.cache.footprint_bytes())
            + cost_model.hash_ns
        )
        modelled_ns = hit_rate * hit_ns + (1.0 - hit_rate) * miss_ns
    else:
        modelled_ns = miss_ns

    latencies = np.repeat(np.asarray(per_packet_ns), np.asarray(batch_sizes))
    return ReplayReport(
        trace=trace.name,
        engine=_engine_label(engine),
        shards=_num_shards(engine),
        cache_size=cached.cache.capacity if cached else 0,
        batch_size=batch_size,
        packets=len(packets),
        matched=matched,
        hit_rate=hit_rate,
        wall_seconds=wall,
        throughput_pps=len(packets) / wall if wall > 0 else 0.0,
        latency_p50_ns=float(np.percentile(latencies, 50)) if len(latencies) else 0.0,
        latency_p99_ns=float(np.percentile(latencies, 99)) if len(latencies) else 0.0,
        modelled_latency_ns=modelled_ns,
        modelled_throughput_pps=1e9 / modelled_ns if modelled_ns > 0 else 0.0,
        cache=cache_stats,
    )


def run_scenario(
    ruleset: RuleSet,
    trace_kind: str = "zipf",
    num_packets: int = 10_000,
    skew: int = 95,
    shards: int = 1,
    cache_size: int = 0,
    classifier: str | type = "tm",
    executor: str = "serial",
    batch_size: int = 128,
    seed: int = 1,
    cost_model: CostModel | None = None,
    **params,
) -> ReplayReport:
    """Build a scenario's engine, generate its trace, replay, and clean up.

    One call = one cell of the scenario matrix {trace} × {cache} × {shards}.
    """
    trace = make_trace(trace_kind, ruleset, num_packets, seed=seed, skew=skew)
    engine = build_scenario_engine(
        ruleset,
        shards=shards,
        cache_size=cache_size,
        classifier=classifier,
        executor=executor,
        **params,
    )
    try:
        return replay_trace(
            engine, trace, batch_size=batch_size, cost_model=cost_model
        )
    finally:
        engine.close()
