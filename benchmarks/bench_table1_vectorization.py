"""Table 1 — submodel inference time vs. vector instruction width.

Paper values: Serial(1) 126 ns, SSE(4) 62 ns, AVX(8) 49 ns per submodel
inference.  We report (a) the calibrated analytic model for those widths and
(b) wall-clock numpy inference at the equivalent lane counts: the lookup's own
walk (``repro.core.rqrmi.route``) over the stacked stages of a trained
RQ-RMI — the first iSet of NuevoMatch on acl1/8000 — in ns per key per
stage, which shows the same monotone trend on the machine running the
benchmarks.
"""

import numpy as np

from repro.analysis import format_table
from repro.core.config import NuevoMatchConfig, RQRMIConfig
from repro.core.nuevomatch import NuevoMatch
from repro.core.rqrmi import route
from repro.rules import generate_classbench
from repro.simulation import VECTOR_WIDTHS, inference_time_ns, measure_inference_ns

from bench_helpers import report, report_json, rows_as_records

PAPER_TABLE1 = {"Serial": 126.0, "SSE": 62.0, "AVX": 49.0}


def _trained_model():
    nm = NuevoMatch.build(
        generate_classbench("acl1", 8000, seed=1),
        remainder_classifier="tm",
        config=NuevoMatchConfig(
            max_isets=4, min_iset_coverage=0.05, rqrmi=RQRMIConfig(error_threshold=64)
        ),
    )
    return nm.isets[0].model


def test_table1_vectorization(benchmark):
    model = _trained_model()
    rows = []
    for name, width in VECTOR_WIDTHS.items():
        modelled = inference_time_ns(width)
        measured = measure_inference_ns(model, lanes=width, iterations=500)
        rows.append([name, width, PAPER_TABLE1[name], round(modelled, 1), round(measured, 1)])
    headers = ["instruction set", "floats/insn", "paper ns", "model ns",
               "route ns/key/stage"]
    text = format_table(
        headers,
        rows,
        title=(
            "Table 1: submodel inference time vs. vectorization "
            f"(route over stages {model.stage_widths})"
        ),
    )
    report("table1_vectorization", text)
    report_json(
        "table1_vectorization",
        config={"widths": dict(VECTOR_WIDTHS), "stage_widths": model.stage_widths},
        measured={"rows": rows_as_records(headers, rows)},
    )

    # Shape checks: wider vectors are never slower.
    modelled = [inference_time_ns(w) for w in VECTOR_WIDTHS.values()]
    assert modelled == sorted(modelled, reverse=True)

    keys = np.random.default_rng(1).random(8)
    benchmark(lambda: route(model.stacked, model.stage_widths, keys))
