"""End-to-end workload scenarios: trace replay through the serving stack.

The paper evaluates classifiers under three traffic regimes (§5.1.1): uniform
(the worst case for locality, Figures 8–11), Zipf-skewed at four settings of
top-3%-flow traffic share (80–95%, Figure 12) and a CAIDA-derived trace with
real temporal locality.  :mod:`repro.workloads.replay` drives any of those
traces through any engine configuration — cached or uncached, one shard or
many — and reports what an operator would measure: cache hit rate, wall-clock
throughput and per-packet latency percentiles, next to the cost-model's
cache-placement estimate.

Network serving is measured over the wire by the benchmark in ``bench/``
(see ``bench/README.md``), with its own load generator.
"""

from repro.workloads.replay import (
    SNAPSHOT_SUFFIXES,
    TRACE_KINDS,
    ReplayReport,
    build_scenario_engine,
    load_stack,
    make_trace,
    replay_trace,
    run_scenario,
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
