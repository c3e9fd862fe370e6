"""§5.2.1 — performance under L3 cache contention.

The paper restricts the L3 cache to 1.5 MB with Intel CAT while running the
500K rule-set (1): CutSplit loses about half of its throughput while
NuevoMatch-with-CutSplit loses only ~30%, so restricting the shared cache
*increases* NuevoMatch's relative advantage.  We reproduce the experiment by
re-running the cost model with a 1.5 MB L3.
"""

import numpy as np

from repro.analysis import format_table
from repro.simulation import (
    CacheHierarchy,
    CostModel,
    evaluate_classifier,
    evaluate_nuevomatch,
    speedup,
)
from repro.traffic import generate_uniform_trace

from bench_helpers import (
    bench_cost_model,
    build_baseline,
    build_nuevomatch,
    current_scale,
    report,
    report_json,
    rows_as_records,
    ruleset,
)

PAPER = {"cs_loss": 0.50, "nm_loss": 0.30}


def test_sec521_l3_contention(benchmark):
    scale = current_scale()
    size = scale["sizes"]["500K"]
    application = scale["applications"][0]
    rules = ruleset(application, size)
    trace = generate_uniform_trace(rules, scale["trace_packets"], seed=81)

    baseline = build_baseline("cs", application, size)
    nm = build_nuevomatch("cs", application, size)

    results = {}
    for label, l3_limit in (("full L3 (16MB)", None), ("restricted L3 (1.5MB)", 1_500_000)):
        cost_model = bench_cost_model(l3_limit_bytes=l3_limit)
        cs_report = evaluate_classifier(baseline, trace, cost_model, cores=2)
        nm_report = evaluate_nuevomatch(nm, trace, cost_model, mode="parallel")
        results[label] = (cs_report.throughput_pps, nm_report.throughput_pps,
                          speedup(nm_report, cs_report)["throughput"])

    full_cs, full_nm, full_speedup = results["full L3 (16MB)"]
    limited_cs, limited_nm, limited_speedup = results["restricted L3 (1.5MB)"]
    cs_loss = 1.0 - limited_cs / full_cs if full_cs else 0.0
    nm_loss = 1.0 - limited_nm / full_nm if full_nm else 0.0

    rows = [
        ["cs", round(full_cs / 1e6, 2), round(limited_cs / 1e6, 2),
         f"{cs_loss:.0%}", f"{PAPER['cs_loss']:.0%}"],
        ["nm w/ cs", round(full_nm / 1e6, 2), round(limited_nm / 1e6, 2),
         f"{nm_loss:.0%}", f"{PAPER['nm_loss']:.0%}"],
        ["nm speedup", round(full_speedup, 2), round(limited_speedup, 2), "-", "-"],
    ]
    headers = ["metric", "full L3 (Mpps / x)", "1.5MB L3 (Mpps / x)", "loss",
               "paper loss"]
    text = format_table(
        headers,
        rows,
        title="§5.2.1: L3 contention — CutSplit vs NuevoMatch w/ CutSplit",
    )
    report("sec521_l3_contention", text)
    report_json(
        "sec521_l3_contention",
        config={"application": application, "rules": size,
                "l3_limit_bytes": 1_500_000},
        modelled={"rows": rows_as_records(headers, rows)},
        summary={
            "cs_loss": round(cs_loss, 3),
            "nm_loss": round(nm_loss, 3),
            "full_speedup": round(full_speedup, 3),
            "limited_speedup": round(limited_speedup, 3),
        },
    )

    # Shape checks: the baseline suffers at least as much as NuevoMatch from
    # the restricted L3, so the speedup does not shrink.
    assert cs_loss >= nm_loss - 1e-9
    assert limited_speedup >= full_speedup - 1e-9

    # Time the path that serves: one 128-row block of the same trace.
    block = np.array([tuple(packet) for packet in trace.packets[:128]], dtype=np.uint64)
    benchmark(lambda: baseline.classify_block(block))
