#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 bench/selftest.py --quick``.

* the consistency checker against a hand-built update timeline, including a
  deliberately stale answer that must be caught;
* ``BENCHMARK.json`` against the tables in ``metrics.py`` / ``workloads.py``;
* with ``--quick``: all four workloads end to end (1000 rules, sub-second
  slices, real server child, traced run), every metric present and a number,
  no failed row.  About half a minute; meant for CI wiring by a later change.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as metric_tables  # noqa: E402
import run  # noqa: E402
from oracle import ChurnFrameChecker, UpdateTimeline  # noqa: E402


def check_timeline() -> None:
    """One hot flow (row 0) and one cold row; insert acked over [10, 11],
    remove over [20, 21], a third update sent at 30 and never acknowledged."""
    timeline = UpdateTimeline(1)
    block = np.array([[1, 2, 3, 4, 6], [9, 9, 9, 9, 9]], dtype=np.uint64)
    checker = ChurnFrameChecker(
        base_ids=np.array([5, 7]), base_priorities=np.array([5, 7]), frame_rows=2,
        block=block, flows=block[:1], present_ids=np.array([1_000_000]),
        present_priorities=np.array([0]), timeline=timeline,
    )
    absent = (np.array([5, 7]), np.array([5, 7]))
    present = (np.array([1_000_000, 7]), np.array([0, 7]))

    def wrong(answer, sent, received) -> int:
        return checker.wrong_rows(0, *answer, sent, received)

    assert wrong(absent, 5, 6) == 0 and wrong(present, 5, 6) == 1, "before any update"
    timeline.begin(0, True, 10.0)
    assert wrong(absent, 10.2, 10.4) == 0 and wrong(present, 10.2, 10.4) == 0, "in flight"
    timeline.ack(0, 11.0)
    assert wrong(present, 12, 13) == 0, "after the insert's ack"
    assert wrong(absent, 12, 13) == 1, "stale answer after an acknowledged insert"
    assert wrong(absent, 9, 12) == 0 and wrong(present, 9, 12) == 0, "frame spans the insert"
    assert wrong(absent, 10.5, 12) == 0, "sent before the ack: either state"
    timeline.begin(0, False, 20.0)
    timeline.ack(0, 21.0)
    assert wrong(absent, 22, 23) == 0, "after the remove's ack"
    assert wrong(present, 22, 23) == 1, "stale answer after an acknowledged remove"
    assert wrong(present, 12, 19) == 0 and wrong(absent, 12, 19) == 1, "between the two"
    timeline.begin(0, True, 30.0)
    assert wrong(absent, 31, 32) == 0 and wrong(present, 31, 32) == 0, "unacknowledged"
    assert wrong((np.array([5, 8]), np.array([5, 7])), 5, 6) == 1, "cold row wrong"
    assert wrong((np.array([5]), np.array([5])), 5, 6) == 2, "short response"


def check_benchmark_json() -> None:
    committed = json.loads((run.REPO_ROOT / "BENCHMARK.json").read_text())
    assert committed == metric_tables.benchmark_json(), (
        "BENCHMARK.json differs from bench/metrics.py: regenerate it with "
        "`python3 bench/metrics.py > BENCHMARK.json`"
    )
    readme = (run.BENCH_DIR / "README.md").read_text()
    missing = [m.name for m in metric_tables.END_TO_END + metric_tables.PER_LAYER
               if f"`{m.name}`" not in readme]
    assert not missing, f"bench/README.md does not describe {missing}"


def check_quick() -> None:
    for name, workload in run.WORKLOADS.items():
        report = run.run_workload(workload, seed=1, seconds=1.5, traced=True,
                                  rules_scale=1000)
        assert report["failed"] == 0, (name, report["counts"])
        assert report["attempted"] > 0, name
        for traced in (False, True):
            line = json.loads(run.contract_line({**report, "traced": traced}))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, name
            table = metric_tables.PER_LAYER if traced else metric_tables.END_TO_END
            assert list(line["metrics"]) == [m.name for m in table], name
            for metric, entry in line["metrics"].items():
                assert math.isfinite(entry["value"]), (name, metric, entry)
        for metric in metric_tables.END_TO_END:
            assert report["end_to_end"][metric.name] > 0, (name, metric.name)
        if workload.churn:
            assert report["per_layer"]["updates.applied"] > 0, name
        assert (run.OUT_DIR / f"trace-{name}.json").is_file(), name
        print(f"ok {name}: {report['end_to_end']['pps']:.0f} pkt/s, "
              f"{report['attempted']} attempted, 0 failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="also run all four workloads end to end at small scale")
    args = parser.parse_args()
    check_timeline()
    print("ok consistency checker")
    check_benchmark_json()
    print("ok BENCHMARK.json")
    if args.quick:
        check_quick()
    return 0


if __name__ == "__main__":
    if run.server_proc.SUPERVISED_ENV not in os.environ:
        sys.exit(run.server_proc.supervise(__file__, sys.argv[1:]))
    sys.exit(main())
