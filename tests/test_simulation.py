"""Tests for the cache model, cost model, vectorisation model and perf harness."""

import pytest

from repro.classifiers import TupleMergeClassifier, build_classifier
from repro.classifiers.base import LookupTrace
from repro.core.config import RQRMIConfig
from repro.core.nuevomatch import NuevoMatch
from repro.core.rqrmi import RQRMI, RangeSet
from repro.rules import generate_classbench
from repro.simulation import (
    CacheHierarchy,
    CostModel,
    evaluate_classifier,
    evaluate_nuevomatch,
    evaluate_sharded,
    inference_time_ns,
    measure_inference_ns,
    speedup,
    table1_model,
)
from repro.traffic import generate_uniform_trace, generate_zipf_trace
from _helpers import fast_nm_config, scalar_arrays


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
        ranges = RangeSet.from_integer_ranges(
            [(10 * i, 10 * i + 4) for i in range(64)], 1 << 16
        )
        model = RQRMI.train(ranges, RQRMIConfig(stage_widths=[1, 4], adam_epochs=40))
        assert measure_inference_ns(model, lanes=4, iterations=50) > 0


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

    def test_sharded_report_prices_per_shard_trace_columns(self, acl_small, monkeypatch):
        """``evaluate_sharded`` prices each batch at its slowest shard, from
        the column sums of that shard's trace block — equal to aggregating the
        shard classifier's scalar traces, with no per-packet result objects
        built in the modelled run."""
        from repro.classifiers.base import ClassificationResult, trace_from_row
        from repro.serving import ShardedEngine
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
                        trace_from_row(scalar_arrays(classifier, chunk)[2].sum(axis=0)),
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

    def test_empty_trace_reports_zero(self, acl_small):
        from repro.serving import ShardedEngine

        tm = TupleMergeClassifier.build(acl_small)
        report = evaluate_classifier(tm, [])
        assert (report.packets, report.avg_latency_ns, report.throughput_pps) == (0, 0, 0)
        with ShardedEngine.build(acl_small, shards=2, classifier="tm") as sharded:
            report = evaluate_sharded(sharded, [])
        assert (report.packets, report.avg_latency_ns, report.throughput_pps) == (0, 0, 0)

    @pytest.mark.parametrize("evaluate", ["classifier", "nuevomatch"])
    def test_max_packets_zero_prices_nothing(self, evaluate, nm_acl_medium, acl_medium):
        trace = generate_uniform_trace(acl_medium, 20, seed=7)
        if evaluate == "classifier":
            report = evaluate_classifier(nm_acl_medium, trace, max_packets=0)
        else:
            report = evaluate_nuevomatch(nm_acl_medium, trace, max_packets=0)
        assert (report.packets, report.avg_latency_ns, report.throughput_pps) == (0, 0, 0)

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


# Modelled latencies (ns/packet) recorded at the parent commit (20b7336),
# before ``evaluate_classifier`` became the block path and the per-packet
# scalar loop and ``evaluate_classifier_batched`` were deleted: acl1/2000
# (seed 1) x 1500-packet uniform and zipf-95 traces (seed 1), ``CostModel()``.
#: ``evaluate_classifier(c, trace, CostModel(), cores=2).avg_latency_ns``.
PARENT_CLASSIFIER_NS = {
    "linear/uniform": 5851.435583333333,
    "linear/zipf": 5211.334736111131,
    "tss/uniform": 986.7180416666731,
    "tss/zipf": 975.1105138888978,
    "tm/uniform": 185.45405555555573,
    "tm/zipf": 187.55629166666682,
    "hicuts/uniform": 75.53084722222233,
    "hicuts/zipf": 74.35912500000023,
    "cs/uniform": 149.44586309523856,
    "cs/zipf": 152.4655992063502,
    "nc/uniform": 504.65187499999934,
    "nc/zipf": 510.5485972222217,
    "nm/uniform": 93.80419047619031,
    "nm/zipf": 91.88820039682535,
}
#: ``evaluate_sharded`` on the uniform trace, keyed ``shards/batch_size`` (tm).
PARENT_SHARDED_NS = {
    "2/16": 181.78436111111114,
    "2/128": 181.7843611111111,
    "4/16": 125.38367063492063,
    "4/128": 125.38367063492063,
}
#: ``replay_trace(stack, zipf).modelled_latency_ns`` per tm stack (cache: 256).
PARENT_REPLAY_NS = {
    "plain": 187.55629166666665,
    "cached": 53.73360419444443,
    "sharded": 181.40449999999998,
    "cached-sharded": 52.08902522222221,
}
# Recorded at d5761a5, before ``evaluate_nuevomatch`` became a block-path run:
# ``evaluate_nuevomatch(nm, trace, CostModel(), mode=mode)`` for nm over tm
# (``fast_nm_config()``), keyed ``mode/trace`` →
# (avg_latency_ns, breakdown fields, ``extra["avg_breakdown"]`` or None).
PARENT_NM_MODES = {
    "parallel/uniform": (
        75.54822817460331,
        {"model_ns": 0.025396825396825397, "index_ns": 37.3034920634923,
         "rule_ns": 4.241714285714182, "compute_ns": 0.345625, "hash_ns": 33.632},
        None,
    ),
    "parallel/zipf": (
        70.78000793650813,
        {"model_ns": 0.0, "index_ns": 34.70031746031777,
         "rule_ns": 4.092190476190361, "compute_ns": 0.3275, "hash_ns": 31.66},
        None,
    ),
    "single/uniform": (
        93.80419047619031,
        {"model_ns": 9.5238095238093, "index_ns": 44.100380952381,
         "rule_ns": 14.976000000000003, "compute_ns": 3.04,
         "hash_ns": 22.163999999999998},
        {"inference_ops": 40.0, "search_accesses": 3.906,
         "validation_accesses": 1.0473333333333332,
         "remainder_accesses": 8.068666666666667},
    ),
    "single/zipf": (
        91.88820039682535,
        {"model_ns": 9.5238095238093, "index_ns": 43.236126984127196,
         "rule_ns": 14.866222222222206, "compute_ns": 3.0360416666666667,
         "hash_ns": 21.226},
        {"inference_ops": 40.0, "search_accesses": 3.997333333333333,
         "validation_accesses": 1.0333333333333334,
         "remainder_accesses": 7.757333333333333},
    ),
}


@pytest.fixture(scope="module")
def pinned_rules():
    return generate_classbench("acl1", 2000, seed=1)


@pytest.fixture(scope="module")
def pinned_traces(pinned_rules):
    return {
        "uniform": generate_uniform_trace(pinned_rules, 1500, seed=1),
        "zipf": generate_zipf_trace(pinned_rules, 1500, top3_share=95, seed=1),
    }


class TestParentPins:
    """The one priced lookup loop reproduces what the parent's loops said."""

    @pytest.mark.parametrize(
        "name", ["linear", "tss", "tm", "hicuts", "cs", "nc", "nm"]
    )
    def test_evaluate_classifier(self, name, pinned_rules, pinned_traces):
        params = (
            {"remainder_classifier": "tm", "config": fast_nm_config()}
            if name == "nm"
            else {}
        )
        classifier = build_classifier(name, pinned_rules, **params)
        for kind, trace in pinned_traces.items():
            report = evaluate_classifier(classifier, trace, CostModel(), cores=2)
            assert report.packets == 1500 and report.extra == {}
            assert report.avg_latency_ns == pytest.approx(
                PARENT_CLASSIFIER_NS[f"{name}/{kind}"], rel=1e-9
            )
            assert report.breakdown.total_ns == report.avg_latency_ns

    @pytest.mark.parametrize("mode", ["parallel", "single"])
    def test_evaluate_nuevomatch(self, mode, pinned_rules, pinned_traces):
        from dataclasses import asdict

        nm = build_classifier(
            "nm", pinned_rules, remainder_classifier="tm", config=fast_nm_config()
        )
        for kind, trace in pinned_traces.items():
            latency, breakdown, avg_breakdown = PARENT_NM_MODES[f"{mode}/{kind}"]
            report = evaluate_nuevomatch(nm, trace, CostModel(), mode=mode)
            assert report.packets == 1500
            assert report.avg_latency_ns == pytest.approx(latency, rel=1e-9)
            assert asdict(report.breakdown) == pytest.approx(breakdown, rel=1e-9)
            assert report.extra.get("avg_breakdown") == (
                None if avg_breakdown is None else pytest.approx(avg_breakdown, rel=1e-9)
            )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_evaluate_sharded(self, shards, pinned_rules, pinned_traces):
        from repro.serving import ShardedEngine

        with ShardedEngine.build(pinned_rules, shards=shards, classifier="tm") as sharded:
            for batch_size in (16, 128):
                report = evaluate_sharded(
                    sharded, pinned_traces["uniform"], CostModel(), batch_size=batch_size
                )
                assert report.avg_latency_ns == pytest.approx(
                    PARENT_SHARDED_NS[f"{shards}/{batch_size}"], rel=1e-9
                )
        with pytest.raises(ValueError):
            evaluate_sharded(sharded, [], batch_size=0)

    @pytest.mark.parametrize("label", list(PARENT_REPLAY_NS))
    def test_replay_trace(self, label, pinned_rules, pinned_traces):
        from repro.workloads import build_scenario_engine, replay_trace

        stack = build_scenario_engine(
            pinned_rules,
            shards=2 if "sharded" in label else 1,
            cache_size=256 if "cached" in label else 0,
            classifier="tm",
        )
        with stack:
            report = replay_trace(stack, pinned_traces["zipf"])
        assert report.modelled_latency_ns == pytest.approx(
            PARENT_REPLAY_NS[label], rel=1e-9
        )
