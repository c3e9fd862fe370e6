#!/usr/bin/env python3
"""Print the benchmark trajectory: one row per PR and workload, as a frontier.

Every PR that runs ``bench/run.py`` commits its ``schema: 2`` report as
``BENCH_<pr>.json`` at the repo root, with ``pr``, ``git_rev`` and
``src_loc`` (``find src -name '*.py' | xargs wc -l``) added.  A report
backfilled from CHANGES.md's per-run lists says ``"reconstructed": true`` and
has ``"host": null``.  Every set in ``sets`` is one run per workload.  A
report may also carry ``parent``: the parent commit's ``pr``, ``git_rev``,
``src_loc`` and ``sets``, run on the same host alongside it.

For each workload this prints one row per PR (and per such parent re-run):
PR, LOC, ``pps`` median and IQR, ``p50_us`` median and IQR over the runs,
and whether the row is on the frontier of fewer lines, more ``pps`` and
lower ``p50_us`` or dominated by another row (the
performance–complexity–latency view).  Numbers from different hosts are
not comparable, so a row is only compared with rows from the same host: the
reconstructed rows form one group, and each measured host its own.

    python scripts/bench_trajectory.py            # every BENCH_*.json here
    python scripts/bench_trajectory.py --dir DIR  # somewhere else

A malformed file is an error: the script names it and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from numbers import Real
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
METRICS = ("pps", "p50_us")


class Malformed(ValueError):
    """A BENCH file that does not have the shape described above."""


def _check(condition: bool, path: Path, message: str) -> None:
    if not condition:
        raise Malformed(f"{path.name}: {message}")


def _runs(sets, path: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [one value per set]}}`` of a ``sets`` list."""
    _check(isinstance(sets, list) and sets, path, "no sets")
    runs: dict[str, dict[str, list[float]]] = {}
    for number, entry in enumerate(sets):
        _check(isinstance(entry, dict), path, f"set {number} is not an object")
        for workload, result in entry.items():
            end_to_end = result.get("end_to_end") if isinstance(result, dict) else None
            _check(isinstance(end_to_end, dict), path,
                   f"set {number}: {workload} has no end_to_end block")
            for metric in METRICS:
                value = end_to_end.get(metric)
                _check(isinstance(value, Real) and not isinstance(value, bool) and value > 0,
                       path, f"set {number}: {workload} {metric} is not a positive number")
                runs.setdefault(workload, {m: [] for m in METRICS})[metric].append(value)
    return runs


def _point(block: dict, path: Path, label: str, host: str) -> dict:
    for key, kind in (("pr", int), ("src_loc", int), ("git_rev", str)):
        _check(isinstance(block.get(key), kind), path,
               f"{label}: {key!r} is not a {kind.__name__}")
    _check(block["src_loc"] > 0, path, f"{label}: src_loc is not positive")
    return {"pr": block["pr"], "label": label, "loc": block["src_loc"], "host": host,
            "runs": _runs(block.get("sets"), path)}


def load(path: Path) -> list[dict]:
    """One BENCH file, checked: its row (and its parent re-run's, if any), each
    ``{"pr", "label", "loc", "host", "runs": {workload: {metric: [values]}}}``."""
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise Malformed(f"{path.name}: {error}") from error
    _check(isinstance(report, dict), path, "not a JSON object")
    _check(report.get("schema") == 2, path, "schema is not 2")
    _check(isinstance(report.get("reconstructed"), bool), path, "'reconstructed' is not a bool")
    _check(path.stem == f"BENCH_{report.get('pr')}", path, f"names PR {report.get('pr')}")
    host = report.get("host", "missing")
    _check(isinstance(host, dict) or (host is None and report["reconstructed"]),
           path, "host must be an object (null only when reconstructed)")
    where = (
        f"{host.get('cores', '?')} cores, {host.get('cpu_model', '?')}"
        if isinstance(host, dict) else "reconstructed"
    )
    points = [_point(report, path, str(report["pr"]), where)]
    if "parent" in report:
        parent = report["parent"]
        _check(isinstance(parent, dict), path, "parent is not an object")
        label = f"{parent.get('pr')} (re-run by {report['pr']})"
        points.append(_point(parent, path, label, where))
    return points


def _median_iqr(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = np.percentile(values, (25, 50, 75))
    return float(median), float(q3 - q1)


def _dominates(a: dict, b: dict) -> bool:
    """``a`` is no worse than ``b`` on LOC, pps and p50 and better on one."""
    no_worse = a["loc"] <= b["loc"] and a["pps"] >= b["pps"] and a["p50_us"] <= b["p50_us"]
    better = a["loc"] < b["loc"] or a["pps"] > b["pps"] or a["p50_us"] < b["p50_us"]
    return no_worse and better


def trajectory(points: list[dict]) -> str:
    """The per-workload tables as text."""
    workloads = sorted({w for point in points for w in point["runs"]})
    hosts = list(dict.fromkeys(point["host"] for point in points))
    lines = ["hosts: " + "; ".join(f"H{i + 1} = {h}" for i, h in enumerate(hosts)), ""]
    for workload in workloads:
        rows = []
        for point in sorted(points, key=lambda p: (p["pr"], p["label"] != str(p["pr"]))):
            runs = point["runs"].get(workload)
            if runs is None:
                continue
            pps, pps_iqr = _median_iqr(runs["pps"])
            p50, p50_iqr = _median_iqr(runs["p50_us"])
            rows.append({**point, "runs": len(runs["pps"]), "pps": pps, "pps_iqr": pps_iqr,
                         "p50_us": p50, "p50_iqr": p50_iqr})
        lines += [f"## {workload}", "",
                  "| PR | LOC | runs | host | pps median | pps IQR | p50_us median "
                  "| p50_us IQR | frontier (same host) |",
                  "|---|---|---|---|---|---|---|---|---|"]
        for row in rows:
            better = [other["label"] for other in rows
                      if other["host"] == row["host"] and _dominates(other, row)]
            status = "dominated by " + ", ".join(better) if better else "frontier"
            lines.append(
                f"| {row['label']} | {row['loc']} | {row['runs']} "
                f"| H{hosts.index(row['host']) + 1} "
                f"| {row['pps']:.0f} | {row['pps_iqr']:.0f} | {row['p50_us']:.1f} "
                f"| {row['p50_iqr']:.1f} | {status} |"
            )
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path, default=REPO_ROOT,
                        help="directory holding the BENCH_<pr>.json files")
    args = parser.parse_args(argv)
    paths = sorted(args.dir.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json under {args.dir}", file=sys.stderr)
        return 1
    try:
        points = [point for path in paths for point in load(path)]
    except Malformed as error:
        print(f"malformed: {error}", file=sys.stderr)
        return 1
    print(trajectory(points))
    return 0


if __name__ == "__main__":
    sys.exit(main())
