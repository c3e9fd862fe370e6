"""Every metric the benchmark reports: unit, direction, bound, and for a layer
metric the ``metric@workload`` it is predicted to move (the interaction map).

``python3 bench/metrics.py`` prints the ``BENCHMARK.json`` these tables and
:mod:`workloads` define; ``bench/selftest.py`` checks the committed file
against it.  The file's schema has no place for the layer and the prediction,
so they live here and in ``bench/README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: Seconds one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 12

ALL = "uniform_nocache,zipf_cached,sharded_uniform,update_churn"


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


@dataclass(frozen=True)
class Layer:
    name: str  # "<layer>.<what>": the prefix is the module the number belongs to
    unit: str
    better: str
    #: ``end-to-end metric(s) @ workload(s)`` this metric should move; on every
    #: workload not named the prediction is *no change*.  Empty: a context
    #: number that explains others but predicts nothing itself.
    moves: str
    definition: str


END_TO_END = [
    EndToEnd("pps", "pkt/s", "higher", 0.25,
             "correct rows / wall, pooled over the throughput slices "
             "(2 connections x 4 frames outstanding)"),
    EndToEnd("p50_us", "us", "lower", 0.25,
             "median round trip of one 128-row frame, pooled over the latency "
             "slices (1 connection x 1 frame outstanding, generator on the "
             "server's CPUs)"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median over fresh servers of child spawn -> 'listening on' line "
             "(import + parse + train + bind)"),
    EndToEnd("rss_mb", "MiB", "lower", 0.10,
             "peak RSS (VmHWM) summed over the server process tree at the end "
             "of the run"),
]

_Z, _U, _S, _C = "zipf_cached", "uniform_nocache", "sharded_uniform", "update_churn"

PER_LAYER = [
    # ---- A: read from outside the server process during the server run ----
    Layer("server.cpu_us_pkt", "us/pkt", "lower", f"pps@{ALL}",
          "server-tree utime+stime from /proc / correct rows, throughput slices"),
    Layer("server.overhead_us_frame", "us/frame", "lower",
          f"pps,p50_us@{_Z},{_S}",
          "128e6/pps - stack.block_us: per-frame time only wire, event loop, "
          "admission and the executor hop can explain"),
    Layer("server.unattributed_us_frame", "us/frame", "lower", f"p50_us@{_Z}",
          "p50_us - the in-process serve path of the same frames (TCP + event "
          "loop + thread hop)"),
    Layer("server.rtt_p99_us", "us", "lower", f"p50_us@{_Z}",
          "p99 of the pooled latency-slice round trips (see server.rtt_samples)"),
    Layer("server.rtt_samples", "count", "higher", "",
          "round trips pooled for server.rtt_p99_us; below 1000 the p99 has "
          "fewer than ten samples beyond it"),
    Layer("server.rtt_us_1row", "us", "lower", f"p50_us@{_Z}",
          "median round trip of 1-row frames, one outstanding: the per-request floor"),
    Layer("server.stats_p50_us", "us", "lower", f"p50_us@{ALL}",
          "the server's own p50 classify service time (stats op, end of run)"),
    Layer("server.stats_p99_us", "us", "lower", "",
          "the server's own p99 classify service time (stats op, end of run)"),
    Layer("control.shed_pkts", "count", "lower", f"pps@{ALL}",
          "packets refused by the admission budget between warm-up and end"),
    Layer("flowcache.hit_rate", "ratio", "higher", f"pps@{_Z},{_C}",
          "FlowCache hits / probes between warm-up and end (stats op)"),
    Layer("flowcache.evictions", "count", "lower", f"pps@{_C}",
          "LRU evictions between warm-up and end"),
    Layer("flowcache.invalidations", "count", "lower", f"pps@{_C}",
          "entries dropped by update invalidation between warm-up and end"),
    Layer("updates.applied", "count", "higher", "",
          "inserts + removes the server applied between warm-up and end"),
    Layer("updates.retrains_completed", "count", "higher", "",
          "background retrains swapped in between warm-up and end"),
    Layer("updates.retrain_s", "s", "lower", f"pps@{_C}",
          "rebuild-to-swap seconds of those retrains, summed"),
    Layer("updates.ack_p50_us", "us", "lower", f"pps@{_C}",
          "client-timed median insert/remove ack"),
    Layer("updates.ack_p90_us", "us", "lower", f"pps@{_C}",
          "client-timed p90 insert/remove ack"),
    Layer("workers.leaked_shm", "count", "lower", "",
          "new /dev/shm/rqw* segments left after the server exited on SIGINT"),
    Layer("loadgen.cpu_share", "ratio", "lower", "",
          "generator CPU / wall over the measured slices; above 0.5 the run is "
          "flagged generator_bound"),
    Layer("loadgen.fail_share", "ratio", "lower", "",
          "rows refused, errored, timed out or wrong plus failed updates / "
          "attempted, all phases (0 at seed, so it cannot be an end-to-end metric)"),
    # ---- B: the in-process traced run ----
    Layer("wire.decode_req_ns_pkt", "ns/pkt", "lower", f"pps@{_Z}",
          "self time of wire.decode_classify_request"),
    Layer("wire.encode_resp_ns_pkt", "ns/pkt", "lower", f"pps@{_Z}",
          "self time of wire.encode_classify_response"),
    Layer("wire.encode_req_ns_pkt", "ns/pkt", "lower", "",
          "client side: wire.encode_classify_request"),
    Layer("wire.decode_resp_ns_pkt", "ns/pkt", "lower", "",
          "client side: wire.decode_classify_response"),
    Layer("control.admit_ns_frame", "ns/frame", "lower", f"pps@{_Z}",
          "PacketBudget.try_acquire + release"),
    Layer("flowcache.probe_ns_pkt", "ns/pkt", "lower", f"pps@{_Z},{_C}",
          "FlowCache.probe_block"),
    Layer("flowcache.self_ns_pkt", "ns/pkt", "lower", f"pps@{_Z},{_C}",
          "CachedEngine.classify_block - probe - engine - fill"),
    Layer("flowcache.fill_ns_pkt", "ns/pkt", "lower", f"pps@{_C}",
          "FlowCache.fill_block"),
    Layer("flowcache.invalidate_us", "us", "lower", f"pps@{_C}",
          "FlowCache.invalidate_insert on a full cache"),
    Layer("flowcache.footprint_bytes", "bytes", "lower", f"rss_mb@{_Z},{_C}",
          "FlowCache.footprint_bytes()"),
    Layer("engine.block_ns_pkt", "ns/pkt", "lower", f"pps,p50_us@{_U},{_S}",
          "ClassificationEngine.classify_block, summed over shards"),
    Layer("engine.validate_ns_pkt", "ns/pkt", "lower", f"pps@{_U},{_S}",
          "self time of ClassificationEngine.classify_block (validate_block)"),
    Layer("core.rqrmi_ns_pkt", "ns/pkt", "lower", f"pps,p50_us@{_U},{_S}",
          "RQRMI.query_batch_detailed: inference + bounded search (Fig. 14)"),
    Layer("core.validate_ns_pkt", "ns/pkt", "lower", f"pps,p50_us@{_U},{_S}",
          "ISetIndex.lookup_block - query_batch_detailed: candidate validation"),
    Layer("core.remainder_ns_pkt", "ns/pkt", "lower", f"pps,p50_us@{_U},{_S}",
          "remainder classify_block_with_floors with the iSet floors"),
    Layer("core.merge_ns_pkt", "ns/pkt", "lower", f"pps,p50_us@{_U},{_S}",
          "NuevoMatch.classify_block - iSets - remainder"),
    Layer("core.coverage", "ratio", "higher", f"pps@{_U},{_S}",
          "share of rules indexed by RQ-RMIs"),
    Layer("core.num_isets", "count", "lower", f"pps@{_U},{_S}", "iSets, summed over shards"),
    Layer("core.remainder_rules", "count", "lower", f"pps@{_U},{_S}",
          "rules left to the remainder classifier, summed over shards"),
    Layer("core.max_error", "count", "lower", f"pps@{_U},{_S}",
          "largest RQ-RMI error bound (secondary search window)"),
    Layer("core.rqrmi_bytes", "bytes", "lower", f"rss_mb@{ALL}", "RQ-RMI model bytes"),
    Layer("core.index_bytes", "bytes", "lower", f"rss_mb@{ALL}",
          "memory_footprint().index_bytes: the paper's compression claim"),
    Layer("model.ns_pkt", "ns/pkt", "lower", "",
          "cost model's latency for the same stack and trace (replay_trace), "
          "to set beside stack.block_us"),
    Layer("stack.block_us", "us/frame", "lower", f"pps,p50_us@{ALL}",
          "the workload's full in-process stack, classify_block per frame"),
    Layer("sharded.block_us", "us/frame", "lower", f"pps,p50_us@{_S},{_C}",
          "ShardedEngine.classify_block per frame, real executor"),
    Layer("sharded.shard_sum_us", "us/frame", "lower", f"pps@{_S},{_C}",
          "per-shard engine.classify_block, summed"),
    Layer("sharded.shard_max_us", "us/frame", "lower", f"p50_us@{_S}",
          "per-shard engine.classify_block, slowest shard"),
    Layer("sharded.fanout_us_frame", "us/frame", "lower", f"pps,p50_us@{_S}",
          "sharded.block_us - shard sum (serial) or - shard max (workers)"),
    Layer("sharded.imbalance", "ratio", "lower", f"p50_us@{_S}",
          "slowest shard / mean shard"),
    Layer("workers.rtt_us_1row", "us", "lower", f"p50_us@{_S}",
          "1-row block through the shared-memory rings"),
    Layer("workers.first_block_s", "s", "lower", f"p50_us@{_S}",
          "first block on the workers executor: spawns the shard workers, lazily "
          "at seed, so the first frame pays it and setup_s does not"),
    Layer("updates.insert_us", "us", "lower", f"pps@{_C}",
          "in-process insert, cache listener attached (eviction before ack inside)"),
    Layer("updates.remove_us", "us", "lower", f"pps@{_C}", "in-process remove, same"),
    Layer("updates.adjust_ns_pkt", "ns/pkt", "lower", f"pps@{_C}",
          "sharded block cost with a 64-rule overlay pending - clean"),
    Layer("pipeline.build_s", "s", "lower", f"setup_s@{ALL}",
          "in-process build of the workload's stack"),
    Layer("rules.parse_s", "s", "lower", f"setup_s@{ALL}", "parse_classbench_file"),
    Layer("setup.import_s", "s", "lower", f"setup_s@{ALL}", "import numpy + repro.cli"),
    Layer("trace.overhead_share", "ratio", "lower", "",
          "span-wrapped serve path / the same path bare - 1"),
    Layer("trace.engine_share", "ratio", "higher", "",
          "engine.block_ns_pkt per frame / (128e6/pps): how much of the "
          "saturated frame time the engine explains"),
]


def benchmark_json() -> dict:
    from workloads import WORKLOADS

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
