"""Figure 7 and §3.9 — throughput over time under rule updates.

Figure 7 sketches throughput as a function of time for a stream of updates
with periodic retraining: the slower the retraining, the deeper and longer the
throughput dips; instantaneous retraining (the green curve) is the upper
bound.  §3.9 also estimates that a 500K rule-set with minute-long retraining
sustains ~4K updates/second at about half the update-free speedup.

This benchmark reproduces the curve with the analytical model of
:mod:`repro.core.updates` (parameterised by measured NuevoMatch / remainder
throughputs) and exercises the online-update path — the engine's overlay — on
a real classifier.
"""

from repro.analysis import format_table
from repro.core.updates import sustained_update_rate, throughput_over_time
from repro.engine import ClassificationEngine
from repro.rules.rule import Rule
from repro.simulation import CostModel, evaluate_classifier, evaluate_nuevomatch
from repro.traffic import generate_uniform_trace

from bench_helpers import (
    bench_cost_model,
    bench_nm_config,
    build_baseline,
    build_nuevomatch,
    current_scale,
    report,
    report_json,
    rows_as_records,
    ruleset,
)


def test_fig7_throughput_under_updates(benchmark):
    scale = current_scale()
    size = scale["sizes"]["500K"]
    application = scale["applications"][0]
    rules = ruleset(application, size)
    trace = generate_uniform_trace(rules, scale["trace_packets"], seed=61)
    cost_model = bench_cost_model()

    nm = build_nuevomatch("tm", application, size)
    baseline = build_baseline("tm", application, size)
    nm_tp = evaluate_nuevomatch(nm, trace, cost_model, mode="parallel").throughput_pps
    rem_tp = evaluate_classifier(baseline, trace, cost_model, cores=2).throughput_pps

    update_rate = size * 0.004          # ~0.4% of the rules change per second
    horizon = 400.0
    rows = []
    series_by_training = {}
    for training_time in (0.0, 30.0, 90.0):
        series = throughput_over_time(
            total_rules=size,
            update_rate=update_rate,
            retrain_period=120.0,
            training_time=training_time,
            nuevomatch_throughput=nm_tp,
            remainder_throughput=rem_tp,
            horizon=horizon,
            step=10.0,
        )
        series_by_training[training_time] = [value for _, value in series]
        for t, value in series:
            rows.append([training_time, t, round(value / 1e6, 3)])

    sustained = sustained_update_rate(
        total_rules=size, training_time=60.0,
        nuevomatch_throughput=nm_tp, remainder_throughput=rem_tp,
    )

    headers = ["training time s", "time s", "throughput Mpps"]
    text = format_table(
        headers,
        rows,
        title="Figure 7: throughput over time under updates (retrain every 120s)",
    )
    text += (
        f"\n\nsustained update rate at half speedup, 60s training: "
        f"{sustained:,.0f} updates/s (paper: ~4,000/s at 500K rules)"
    )
    report("fig7_updates", text)
    report_json(
        "fig7_updates",
        config={
            "application": application,
            "rules": size,
            "update_rate": update_rate,
            "retrain_period_s": 120.0,
            "horizon_s": horizon,
        },
        modelled={"rows": rows_as_records(headers, rows)},
        summary={"sustained_updates_per_s": round(sustained, 1)},
    )

    # Shape checks: zero training time dominates slower retraining, and the
    # degraded curve stays between the remainder and NuevoMatch throughputs.
    assert sum(series_by_training[0.0]) >= sum(series_by_training[90.0])
    assert min(series_by_training[90.0]) >= rem_tp * 0.99
    assert max(series_by_training[90.0]) <= nm_tp * 1.01

    # Exercise the real update path: additions land in the engine's overlay
    # and are still found; the benchmark times single-rule insertion.
    small_rules = ruleset(application, scale["sizes"]["10K"])
    engine = ClassificationEngine.build(
        small_rules, classifier="nm", remainder_classifier="tm",
        config=bench_nm_config("tm"),
    )
    counter = [1_000_000]

    def add_one():
        rule_id = counter[0]
        counter[0] += 1
        engine.insert(
            Rule(((7, 7), (9, 9), (80, 80), (443, 443), (6, 6)),
                 priority=0, rule_id=rule_id)
        )

    benchmark(add_one)
    assert engine.classify((7, 9, 80, 443, 6)) is not None
