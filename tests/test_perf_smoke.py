"""Performance smoke test: flow-cached replay of a skewed trace.

Marked ``perf`` and deselected from the default (tier-1) run via
``addopts = -m "not perf"`` in ``pyproject.toml``; the dedicated CI perf job
runs ``pytest -m perf``.  The assertions are deliberately loose — they pin
that the cached hot path works at all under the paper's highest-skew setting
(zipf-95, §5.1.1), not a specific machine's numbers.
"""

from __future__ import annotations

import pytest

from repro.rules import generate_classbench
from repro.workloads import run_scenario

pytestmark = pytest.mark.perf


def test_zipf95_replay_hits_cache_and_moves_packets():
    rules = generate_classbench("acl1", 1000, seed=7)
    report = run_scenario(
        rules,
        trace_kind="zipf",
        num_packets=8000,
        skew=95,
        shards=1,
        cache_size=2048,
        classifier="tm",
        batch_size=128,
        seed=9,
    )
    assert report.packets == 8000
    # The paper's zipf-95 trace concentrates >95% of traffic in 3% of flows;
    # a 2K-entry exact-match cache must absorb well over half the packets.
    assert report.hit_rate > 0.5, f"hit rate {report.hit_rate:.1%}"
    assert report.throughput_pps > 0
    assert report.latency_p99_ns >= report.latency_p50_ns > 0


def test_cached_sharded_replay_beats_uncached_in_the_model():
    rules = generate_classbench("acl1", 2000, seed=7)
    cached = run_scenario(
        rules, trace_kind="zipf", num_packets=6000, skew=95,
        shards=2, cache_size=4096, classifier="tm", executor="serial", seed=9,
    )
    uncached = run_scenario(
        rules, trace_kind="zipf", num_packets=6000, skew=95,
        shards=2, cache_size=0, classifier="tm", executor="serial", seed=9,
    )
    assert cached.modelled_latency_ns < uncached.modelled_latency_ns
    assert cached.matched == uncached.matched
