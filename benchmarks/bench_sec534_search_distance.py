"""§5.3.4 — secondary-search distance: bound vs. actual distance distribution.

The paper measures ~40 ns to retrieve a rule with an exact prediction and
75–80 ns for search distances of 64–256 (binary search), and observes that the
*actual* distance is usually far below the trained worst-case bound: with a
bound of 128, 80% of lookups stay within distance 64 and 60% within 32.  This
benchmark reproduces both observations on trained models: the modelled search
cost as a function of the bound, and the distribution of actual prediction
errors relative to the configured bound.
"""

import numpy as np

from repro.analysis import format_table
from repro.core.rqrmi import RQRMI, RangeSet
from repro.simulation import CostModel

from bench_helpers import (
    bench_rqrmi_config,
    current_scale,
    report,
    report_json,
    rows_as_records,
    ruleset,
)
from repro.core.isets import partition_isets


def test_sec534_search_distance(benchmark):
    scale = current_scale()
    size = scale["sizes"]["500K"]
    application = scale["applications"][0]
    rules = ruleset(application, size)

    # Train an RQ-RMI over the largest iSet with a loose bound (128) and look
    # at the distribution of actual prediction errors for matching keys.
    partition = partition_isets(rules, max_isets=1)
    iset = partition.isets[0]
    domain = rules.schema[iset.dim].domain_size
    range_set = RangeSet.from_integer_ranges(iset.ranges(), domain)
    model = RQRMI.train(range_set, bench_rqrmi_config(error_threshold=128))

    rng = np.random.default_rng(3)
    ranges = iset.ranges()
    indices = rng.choice(len(ranges), size=min(2000, len(ranges)), replace=False)
    keys = []
    for index in indices:
        lo, hi = ranges[int(index)]
        keys.append(int(rng.integers(lo, hi + 1)))
    found, predicted, _bounds = model.query_batch_detailed(np.array(keys))
    np.testing.assert_array_equal(found, indices)
    distances = np.abs(predicted - indices)

    fraction_rows = []
    for limit in (8, 16, 32, 64, 128):
        fraction_rows.append([limit, round(100.0 * float(np.mean(distances <= limit)), 1)])
    fraction_text = format_table(
        ["distance <=", "% of lookups"],
        fraction_rows,
        title="Actual prediction-error distribution (bound trained at 128)",
    )

    # Modelled secondary-search cost vs. bound: log2(window) dependent accesses
    # into the (DRAM-resident) value array.
    cost_model = CostModel()
    cost_rows = []
    for bound in (0, 64, 128, 256, 512, 1024):
        window = 2 * bound + 1
        accesses = max(1, int(np.ceil(np.log2(window + 1))))
        rule_latency = cost_model.cache.access_latency_ns(16_000_000) + cost_model.access_overhead_ns
        cost_rows.append([bound, accesses, round(accesses * rule_latency, 1)])
    cost_text = format_table(
        ["search bound", "binary-search accesses", "modelled search ns"],
        cost_rows,
        title="Secondary-search cost vs. bound (paper: 40ns exact, 75-80ns for 64-256)",
    )
    report("sec534_search_distance", fraction_text + "\n\n" + cost_text)
    report_json(
        "sec534_search_distance",
        config={"application": application, "rules": size, "trained_bound": 128},
        measured={
            "distances": rows_as_records(["distance <=", "% of lookups"],
                                         fraction_rows),
        },
        modelled={
            "search_cost": rows_as_records(
                ["search bound", "binary-search accesses", "modelled search ns"],
                cost_rows,
            ),
        },
        summary={
            "fraction_within_64": round(float(np.mean(distances <= 64)), 3),
        },
    )

    # Shape checks: most lookups are far below the worst-case bound, and the
    # modelled cost grows only logarithmically with the bound.
    assert float(np.mean(distances <= 64)) > 0.6
    assert cost_rows[-1][2] < cost_rows[1][2] * 3

    key = int(rng.integers(0, domain))
    one_key = np.array([key])
    benchmark(lambda: model.query_batch(one_key))
