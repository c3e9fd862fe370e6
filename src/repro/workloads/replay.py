"""Trace replay: the one home of "build or load a stack, play a trace, report".

``build_scenario_engine`` builds the stack a scenario names (shards × optional
flow cache) and ``load_stack`` restores one from a snapshot of either kind;
every stack the CLI serves or replays comes from one of the two.
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

The CLI front-end is ``repro replay`` — the only local trace run; ``repro
serve`` is the network server over the same two stack factories.  The
scenario-matrix regression suite (``tests/test_replay_scenarios.py``) uses the
same entry points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.engine import ClassificationEngine, read_document
from repro.rules.rule import RuleSet
from repro.serving import DEFAULT_RETRAIN_THRESHOLD, CachedEngine, ShardedEngine
from repro.simulation import CostModel, evaluate_classifier, evaluate_sharded
from repro.traffic import (
    Trace,
    generate_caida_like_trace,
    generate_uniform_trace,
    generate_zipf_trace,
)

__all__ = [
    "SNAPSHOT_SUFFIXES",
    "TRACE_KINDS",
    "ReplayReport",
    "build_scenario_engine",
    "load_stack",
    "make_trace",
    "replay_trace",
    "run_scenario",
]

#: Trace regimes of §5.1.1, in CLI spelling.
TRACE_KINDS = ("uniform", "zipf", "caida")

#: A path ending in one of these names a snapshot, anything else a rule-set
#: file (the convention ``repro serve`` and ``repro replay`` share).
SNAPSHOT_SUFFIXES = (".json", ".json.gz")


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
    retrain_threshold: float = DEFAULT_RETRAIN_THRESHOLD,
    **params,
):
    """Build the engine a scenario names: ``shards`` × optional flow cache.

    ``shards <= 1`` builds a plain :class:`ClassificationEngine` (which never
    retrains, so ``executor`` and the retrain arguments do not apply); more
    builds a :class:`ShardedEngine`.  ``cache_size > 0`` wraps the result in
    a :class:`CachedEngine` (with its invalidation listener wired into the
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
            retrain_threshold=retrain_threshold,
            background_retraining=background_retraining,
            **params,
        )
    return _with_cache(engine, cache_size)


def load_stack(path, executor: str = "serial", cache_size: int = 0):
    """Restore the stack a snapshot holds, whichever kind wrote it.

    Dispatches on the document's ``kind``: a ``ShardedEngine.save`` file
    restores sharded (on ``executor`` — a deployment choice, not snapshot
    state), anything else goes to :meth:`ClassificationEngine.from_document`,
    which raises ``ValueError`` for a file that is no engine snapshot (as
    ``read_document`` does for one that is not JSON).  ``cache_size > 0``
    fronts the restored stack with a flow cache, as in
    :func:`build_scenario_engine`.
    """
    document = read_document(path)
    if not isinstance(document, dict):
        raise ValueError("not an engine snapshot (the document is no JSON object)")
    if document.get("kind") == "sharded-engine":
        engine = ShardedEngine.from_document(document, executor=executor)
    else:
        engine = ClassificationEngine.from_document(document)
    return _with_cache(engine, cache_size)


def _with_cache(engine, cache_size: int):
    """``engine`` behind a ``cache_size``-entry flow cache (``0``: as it is)."""
    return CachedEngine(engine, capacity=cache_size) if cache_size > 0 else engine


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
    cached = engine if isinstance(engine, CachedEngine) else None
    base = cached.engine if cached else engine
    sharded = isinstance(base, ShardedEngine)
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

    # The slow path (the engine without the cache), priced per shard when sharded.
    if sharded:
        miss = evaluate_sharded(
            base, trace, cost_model, batch_size=batch_size, max_packets=model_packets
        )
    else:
        miss = evaluate_classifier(
            base.classifier, trace, cost_model, max_packets=model_packets
        )
    miss_ns = miss.avg_latency_ns
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
    label = (
        f"sharded[{base.num_shards}]" if sharded else f"engine[{base.classifier_name}]"
    )
    return ReplayReport(
        trace=trace.name,
        engine=f"cached({label})" if cached else label,
        shards=base.num_shards if sharded else 1,
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
