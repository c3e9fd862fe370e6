"""The four serving workloads: server configuration, traffic and the reason for each.

One :class:`Workload` is the single source for both the ``repro serve`` flags
of the untraced run and the in-process stack of the traced run, so the two
always describe the same system.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Rows per classify frame (the server's ``DEFAULT_MAX_BATCH``).
FRAME_ROWS = 128

#: The rule-set is a constant of the benchmark, not a function of ``--seed``:
#: different ClassBench seeds train structurally different engines (per-frame
#: cost 2.1-3.3 ms across seeds 1-8), which would swamp every bound.  The seed
#: drives the traffic and the update schedule.
RULESET_APPLICATION = "acl1"
RULESET_RULES = 8000
RULESET_SEED = 1

#: Hot flows the churn workload inserts exact-match rules over.
CHURN_HOT_FLOWS = 64
#: One update per this many seconds, one outstanding.
CHURN_UPDATE_PERIOD_S = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trace_kind: str  # "uniform" | "zipf"
    trace_packets: int
    shards: int
    executor: str | None
    cache_size: int
    retrain_threshold: float | None = None
    churn: bool = False

    def server_flags(self) -> list[str]:
        """``repro serve`` flags after the rule-set path."""
        flags = [
            "--listen", "127.0.0.1:0", "--no-adaptive",
            "--classifier", "nm", "--remainder", "tm",
            "--shards", str(self.shards), "--cache-size", str(self.cache_size),
        ]
        if self.executor is not None:
            flags += ["--executor", self.executor]
        if self.retrain_threshold is not None:
            flags += ["--retrain-threshold", str(self.retrain_threshold)]
        return flags


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="uniform_nocache",
            why="Uniform trace, no flow cache: NuevoMatch inference + TupleMerge "
                "remainder do most of each frame; an engine kernel shows here "
                "and nowhere else.",
            trace_kind="uniform", trace_packets=16384,
            shards=1, executor=None, cache_size=0,
        ),
        Workload(
            name="zipf_cached",
            why="Zipf-95 flows fit the 4096-entry cache, hit rate -> 1: wire, "
                "event loop, admission and FlowCache probe are the whole cost; "
                "an engine kernel must not show here.",
            trace_kind="zipf", trace_packets=32768,
            shards=1, executor=None, cache_size=4096,
        ),
        Workload(
            name="sharded_uniform",
            why="Same engine work as uniform_nocache reached through 2-shard "
                "fan-out/merge and the shared-memory worker rings: prices the "
                "sharding layer itself (overhead, not scaling, on 2 cores).",
            trace_kind="uniform", trace_packets=16384,
            shards=2, executor="workers", cache_size=0,
        ),
        Workload(
            name="update_churn",
            why="Zipf-95 flows exceed the 1024-entry cache while inserts/removes "
                "hit hot flows: fills, evictions, invalidation, overlay and a "
                "background retrain; a read-path gain that taxes writes shows.",
            trace_kind="zipf", trace_packets=32768,
            shards=2, executor="serial", cache_size=1024,
            retrain_threshold=0.07, churn=True,
        ),
    )
}
