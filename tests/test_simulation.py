"""Tests for the cache model, cost model, vectorisation model and perf harness."""

import pytest

from repro.classifiers import CutSplitClassifier, TupleMergeClassifier
from repro.classifiers.base import LookupTrace
from repro.core.nuevomatch import NuevoMatch
from repro.simulation import (
    CacheHierarchy,
    CostModel,
    evaluate_classifier,
    evaluate_classifier_batched,
    evaluate_nuevomatch,
    inference_time_ns,
    measure_inference_ns,
    speedup,
    table1_model,
)
from repro.traffic import generate_uniform_trace, generate_zipf_trace
from _helpers import fast_nm_config


class TestCacheHierarchy:
    def test_placement_levels(self):
        cache = CacheHierarchy.xeon_silver_4116()
        assert cache.placement_level(10 * 1024) == "L1"
        assert cache.placement_level(500 * 1024) == "L2"
        assert cache.placement_level(8 * 1024 * 1024) == "L3"
        assert cache.placement_level(64 * 1024 * 1024) == "DRAM"

    def test_latency_monotone_in_footprint(self):
        cache = CacheHierarchy.xeon_silver_4116()
        sizes = [1024, 100 * 1024, 4 * 1024 * 1024, 100 * 1024 * 1024]
        latencies = [cache.placement_latency_ns(s) for s in sizes]
        assert all(a < b for a, b in zip(latencies[:-1], latencies[1:]))

    def test_l3_limit_pushes_structures_to_dram(self):
        full = CacheHierarchy.xeon_silver_4116()
        limited = CacheHierarchy.xeon_silver_4116(l3_limit_bytes=1_500_000)
        footprint = 8 * 1024 * 1024
        assert limited.placement_latency_ns(footprint) > full.placement_latency_ns(footprint)

    def test_locality_reduces_latency(self):
        cache = CacheHierarchy.xeon_silver_4116()
        big = 8 * 1024 * 1024
        assert cache.access_latency_ns(big, locality=0.9) < cache.access_latency_ns(big, 0.0)

    def test_contention_slows_l3_only(self):
        normal = CacheHierarchy.xeon_silver_4116()
        contended = CacheHierarchy.xeon_silver_4116()
        contended.l3_contention = 2.0
        l3_size = 8 * 1024 * 1024
        l1_size = 10 * 1024
        assert contended.placement_latency_ns(l3_size) > normal.placement_latency_ns(l3_size)
        assert contended.placement_latency_ns(l1_size) == normal.placement_latency_ns(l1_size)

    def test_describe(self):
        info = CacheHierarchy.xeon_silver_4116().describe()
        assert [lvl["name"] for lvl in info["levels"]] == ["L1", "L2", "L3"]


class TestCostModel:
    def test_lookup_latency_components(self):
        model = CostModel()
        trace = LookupTrace(index_accesses=3, rule_accesses=2, model_accesses=3,
                            compute_ops=64, hash_ops=1)
        breakdown = model.lookup_latency(trace, index_bytes=500_000, rule_bytes=10_000_000,
                                         model_bytes=20_000)
        assert breakdown.total_ns == pytest.approx(
            breakdown.model_ns + breakdown.index_ns + breakdown.rule_ns
            + breakdown.compute_ns + breakdown.hash_ns
        )
        assert breakdown.rule_ns > breakdown.index_ns > 0
        assert breakdown.model_ns < breakdown.index_ns

    def test_wider_vectors_cut_compute(self):
        narrow = CostModel(vector_width=1)
        wide = CostModel(vector_width=8)
        trace = LookupTrace(compute_ops=64)
        assert (
            wide.lookup_latency(trace, 0, 0).compute_ns
            < narrow.lookup_latency(trace, 0, 0).compute_ns
        )

    def test_with_locality_copies(self):
        base = CostModel()
        skewed = base.with_locality(0.8)
        assert skewed.locality == 0.8
        assert base.locality == 0.0

    def test_classifier_lookup_latency(self, acl_small):
        tm = TupleMergeClassifier.build(acl_small)
        packet = acl_small.sample_packets(1, seed=1)[0]
        trace = tm.classify_traced(packet).trace
        breakdown = CostModel().classifier_lookup_latency(tm, trace)
        assert breakdown.total_ns > 0


class TestVectorizationModel:
    def test_table1_trend(self):
        times = table1_model()
        assert times["Serial"] > times["SSE"] > times["AVX"]
        # Calibration should land near the paper's numbers.
        assert times["Serial"] == pytest.approx(126, rel=0.05)
        assert times["SSE"] == pytest.approx(62, rel=0.10)
        assert times["AVX"] == pytest.approx(49, rel=0.10)

    def test_inference_time_validation(self):
        with pytest.raises(ValueError):
            inference_time_ns(0)

    def test_measured_inference_positive(self):
        assert measure_inference_ns(lanes=4, iterations=50) > 0


class TestPerfHarness:
    def test_baseline_report_fields(self, acl_medium):
        tm = TupleMergeClassifier.build(acl_medium)
        trace = generate_uniform_trace(acl_medium, 50, seed=1)
        report = evaluate_classifier(tm, trace, CostModel(), cores=2)
        assert report.cores == 2
        assert report.packets == 50
        assert report.avg_latency_ns > 0
        assert report.throughput_pps > 0
        assert report.as_row()["classifier"] == "tm"

    def test_batched_report_matches_per_packet_costs(self, acl_medium):
        # The per-batch latency of an aggregated trace equals the sum of the
        # per-packet latencies (the cost model is linear in the trace counts),
        # so batch-mode and per-packet evaluation agree on the average.
        tm = TupleMergeClassifier.build(acl_medium)
        trace = generate_uniform_trace(acl_medium, 60, seed=4)
        per_packet = evaluate_classifier(tm, trace, CostModel())
        batched = evaluate_classifier_batched(tm, trace, CostModel(), batch_size=16)
        assert batched.packets == 60
        assert batched.extra["num_batches"] == 4
        assert batched.avg_latency_ns == pytest.approx(
            per_packet.avg_latency_ns, rel=1e-9
        )

    def test_sharded_report_prices_per_shard_trace_columns(self, acl_small, monkeypatch):
        """``evaluate_sharded`` prices each batch at its slowest shard, from
        the column sums of that shard's trace block — equal to aggregating the
        shard classifier's scalar traces, with no per-packet result objects
        built in the modelled run."""
        from repro.classifiers.base import ClassificationResult, LookupTrace
        from repro.serving import ShardedEngine
        from repro.simulation import evaluate_sharded
        from repro.simulation.perf import SYNC_OVERHEAD_NS

        trace = generate_uniform_trace(acl_small, 48, seed=6)
        packets = list(trace)
        cost_model = CostModel()
        with ShardedEngine.build(acl_small, shards=2, classifier="tm") as sharded:
            classifiers = [shard.engine.classifier for shard in sharded._shards]
            expected_ns = 0.0
            for start in range(0, len(packets), 16):
                chunk = packets[start : start + 16]
                expected_ns += max(
                    cost_model.classifier_lookup_latency(
                        classifier,
                        LookupTrace.aggregate(
                            classifier.classify_traced(p).trace for p in chunk
                        ),
                    ).total_ns
                    for classifier in classifiers
                ) + SYNC_OVERHEAD_NS * len(chunk)
            built = []
            real_init = ClassificationResult.__init__
            monkeypatch.setattr(
                ClassificationResult,
                "__init__",
                lambda self, *a, **k: built.append(1) or real_init(self, *a, **k),
            )
            report = evaluate_sharded(sharded, trace, cost_model, batch_size=16)
        assert built == []
        assert report.extra["num_batches"] == 3 and report.cores == 2
        assert report.avg_latency_ns == pytest.approx(
            expected_ns / len(packets), rel=1e-9
        )

    def test_batched_rejects_bad_batch_size(self, acl_medium):
        tm = TupleMergeClassifier.build(acl_medium)
        with pytest.raises(ValueError):
            evaluate_classifier_batched(tm, [], batch_size=0)

    def test_two_cores_double_throughput(self, acl_medium):
        tm = TupleMergeClassifier.build(acl_medium)
        trace = generate_uniform_trace(acl_medium, 50, seed=2)
        one = evaluate_classifier(tm, trace, CostModel(), cores=1)
        two = evaluate_classifier(tm, trace, CostModel(), cores=2)
        assert two.throughput_pps == pytest.approx(2 * one.throughput_pps, rel=1e-6)
        assert two.avg_latency_ns == pytest.approx(one.avg_latency_ns, rel=1e-6)

    def test_nuevomatch_modes(self, nm_acl_medium, acl_medium):
        trace = generate_uniform_trace(acl_medium, 50, seed=3)
        parallel = evaluate_nuevomatch(nm_acl_medium, trace, CostModel(), mode="parallel")
        single = evaluate_nuevomatch(nm_acl_medium, trace, CostModel(), mode="single")
        assert parallel.cores == 2 and single.cores == 1
        assert parallel.avg_latency_ns > 0 and single.avg_latency_ns > 0
        assert "avg_breakdown" in single.extra
        with pytest.raises(ValueError):
            evaluate_nuevomatch(nm_acl_medium, trace, CostModel(), mode="triple")

    def test_speedup_helper(self, nm_acl_medium, acl_medium):
        trace = generate_uniform_trace(acl_medium, 40, seed=4)
        tm = TupleMergeClassifier.build(acl_medium)
        base = evaluate_classifier(tm, trace, CostModel(), cores=2)
        nm = evaluate_nuevomatch(nm_acl_medium, trace, CostModel(), mode="parallel")
        factors = speedup(nm, base)
        assert factors["latency"] > 0 and factors["throughput"] > 0

    def test_skewed_traffic_reduces_gap(self, acl_medium, nm_acl_medium):
        tm = TupleMergeClassifier.build(acl_medium)
        uniform = generate_uniform_trace(acl_medium, 60, seed=5)
        skewed = generate_zipf_trace(acl_medium, 60, top3_share=95, seed=5)
        plain_model = CostModel()
        skew_model = CostModel().with_locality(0.8)
        uniform_speedup = speedup(
            evaluate_nuevomatch(nm_acl_medium, uniform, plain_model),
            evaluate_classifier(tm, uniform, plain_model, cores=2),
        )["throughput"]
        skew_speedup = speedup(
            evaluate_nuevomatch(nm_acl_medium, skewed, skew_model),
            evaluate_classifier(tm, skewed, skew_model, cores=2),
        )["throughput"]
        # Figure 12: locality narrows NuevoMatch's advantage.
        assert skew_speedup <= uniform_speedup + 0.15
