"""Flow-cache locality — hit rate and latency across the paper's skew settings.

Figure 12 evaluates skewed traffic at four Zipf settings, parameterised by the
share of traffic the 3% most frequent flows carry (80/85/90/95%), plus a
CAIDA-like trace.  This benchmark replays each of those traces through the
same engine twice — uncached and fronted by a
:class:`~repro.serving.FlowCache` — and records what the exact-match hot path
buys in each regime: the cache hit rate tracks the trace's skew, and the
cache-aware modelled latency collapses toward the hit cost as the hot flows
absorb the traffic (the same mechanism that narrows the paper's speedups at
high skew).

Results land in the BENCH json format (``benchmarks/results/
flowcache_locality.json`` plus a ``BENCH {...}`` stdout line).
"""

from __future__ import annotations

from repro.traffic import ZIPF_ALPHAS
from repro.workloads import run_scenario

from bench_helpers import bench_cost_model, current_scale, report, report_json, ruleset
from repro.analysis import format_table

#: TupleMerge shards keep build time negligible: the sweep measures the cache.
CLASSIFIER = "tm"
CACHE_SIZE = 4096
SHARDS = 2


def _scenario_traces() -> list[tuple[str, str, int]]:
    """(label, trace kind, skew) — the four Zipf settings plus CAIDA-like."""
    cells = [(f"zipf-{share}", "zipf", share) for share in sorted(ZIPF_ALPHAS)]
    cells.append(("caida", "caida", 0))
    return cells


def test_flowcache_locality():
    scale = current_scale()
    application = scale["applications"][0]
    size = scale["sizes"]["10K"]
    rules = ruleset(application, size)
    num_packets = max(20 * scale["trace_packets"], 4000)
    cost_model = bench_cost_model()

    rows = []
    series = []
    hit_rates = []
    for label, kind, skew in _scenario_traces():
        cached = run_scenario(
            rules,
            trace_kind=kind,
            num_packets=num_packets,
            skew=skew or 95,
            shards=SHARDS,
            cache_size=CACHE_SIZE,
            classifier=CLASSIFIER,
            cost_model=cost_model,
            seed=41,
        )
        uncached = run_scenario(
            rules,
            trace_kind=kind,
            num_packets=num_packets,
            skew=skew or 95,
            shards=SHARDS,
            cache_size=0,
            classifier=CLASSIFIER,
            cost_model=cost_model,
            seed=41,
        )
        if kind == "zipf":
            hit_rates.append(cached.hit_rate)
        series.append(
            {
                "trace": label,
                "cached": cached.as_dict(),
                "uncached": uncached.as_dict(),
            }
        )
        rows.append(
            [
                label,
                f"{cached.hit_rate:.1%}",
                round(cached.modelled_latency_ns, 1),
                round(uncached.modelled_latency_ns, 1),
                round(cached.throughput_pps / 1e3, 1),
                round(uncached.throughput_pps / 1e3, 1),
            ]
        )

    text = format_table(
        ["trace", "hit rate", "cached ns (model)", "uncached ns (model)",
         "cached kpps", "uncached kpps"],
        rows,
        title=f"Flow-cache locality ({CLASSIFIER} × {SHARDS} shards, "
              f"{application} {size} rules, cache {CACHE_SIZE})",
    )
    report("flowcache_locality", text)
    report_json(
        "flowcache_locality",
        config={
            "classifier": CLASSIFIER,
            "application": application,
            "rules": size,
            "shards": SHARDS,
            "cache_size": CACHE_SIZE,
            "trace_packets": num_packets,
            "batch_size": 128,
        },
        measured={"series": series},
        summary={
            "zipf95_hit_rate": next(
                (
                    s["cached"]["hit_rate"]
                    for s in series
                    if s["trace"] == "zipf-95"
                ),
                None,
            ),
        },
    )

    # Shape checks: hotter traces hit more, and by the highest skew setting
    # the cached modelled latency must beat the uncached slow path.
    assert hit_rates == sorted(hit_rates), "hit rate should rise with skew"
    zipf95_cached = next(s for s in series if s["trace"] == "zipf-95")
    assert (
        zipf95_cached["cached"]["modelled_latency_ns"]
        < zipf95_cached["uncached"]["modelled_latency_ns"]
    )
