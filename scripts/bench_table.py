#!/usr/bin/env python3
"""Render the BENCH json results into the README's benchmark table.

Benchmarks that matter to the serving/build story emit machine-readable
payloads into ``benchmarks/results/<experiment>.json`` (the ``BENCH`` line
printed on stdout holds the same document).  This script turns whichever
results exist into one markdown table, so the README's numbers are always
regenerated, never hand-typed:

    python scripts/bench_table.py            # print the table
    python scripts/bench_table.py --write    # rewrite the README section
    python scripts/bench_table.py --check    # exit 1 if README is stale

The README section is delimited by ``<!-- BENCH_TABLE_START -->`` /
``<!-- BENCH_TABLE_END -->`` markers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
README = REPO_ROOT / "README.md"
START = "<!-- BENCH_TABLE_START -->"
END = "<!-- BENCH_TABLE_END -->"


def _fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def _rows_training_pipeline(data: dict) -> list[tuple[str, str, str]]:
    config = data.get("config", {})
    summary = data["summary"]
    name = f"RQ-RMI training ({config.get('ruleset', '?')})"
    return [
        (name, "warm-start retrain vs cold retrain",
         f"{_fmt(summary['warm_speedup'])}x faster"),
        (name, "retrain-to-swap latency, warm vs cold",
         f"{_fmt(summary['retrain_to_swap_speedup'])}x faster "
         f"({_fmt(summary['retrain_to_swap_warm_s'] * 1e3, 0)} ms)"),
    ]


def _rows_sharded_scaling(data: dict) -> list[tuple[str, str, str]]:
    config = data.get("config", {})
    summary = data.get("summary", {})
    series = data.get("modelled", {}).get("series", [])
    if not series:
        return []
    base = series[0]
    best = max(series, key=lambda row: row.get("throughput_pps", 0.0))
    name = (f"sharded scaling ({config.get('application')}/"
            f"{config.get('rules')})")
    speedup = best["throughput_pps"] / max(base["throughput_pps"], 1.0)
    rows = [
        (name, f"modelled throughput at {best['shards']} shards vs 1",
         f"{_fmt(speedup)}x "
         f"({_fmt(best['throughput_pps'] / 1e6)} Mpps)"),
    ]
    if "workers_scaling" in summary:
        scaling = summary["workers_scaling"]
        rows.append(
            (name,
             f"workers executor, measured, 8 vs 1 shards "
             f"({config.get('cores', '?')} cores)",
             # One core cannot show scale-out: the bench reports a string.
             scaling if isinstance(scaling, str) else
             f"{_fmt(scaling)}x "
             f"({_fmt(summary['workers_top_pps'] / 1e3, 1)} kpps)"),
        )
    if "cached_columnar_pps" in summary:
        rows.append(
            (name,
             "cached columnar serve path, measured, warm zipf-95 single shard",
             f"{_fmt(summary['cached_columnar_pps'] / 1e6)} Mpps "
             f"({_fmt(summary['columnar_model_gap'], 1)}x of modelled)"),
        )
    return rows


def _rows_flowcache_locality(data: dict) -> list[tuple[str, str, str]]:
    config = data.get("config", {})
    series = data.get("measured", {}).get("series", [])
    rows = []
    name = (f"flow cache ({config.get('application')}/{config.get('rules')}, "
            f"{config.get('cache_size')} entries)")
    for entry in series:
        label = entry.get("trace") or entry.get("label") or "?"
        cached = entry.get("cached", {})
        if "zipf" in str(label) and "95" in str(label) and cached:
            rows.append((name, f"hit rate on {label}",
                         f"{cached.get('hit_rate', 0.0):.0%}"))
    if not rows and series:
        cached = series[-1].get("cached", {})
        rows.append((name, "hit rate (most skewed trace)",
                     f"{cached.get('hit_rate', 0.0):.0%}"))
    return rows


def _rows_server_throughput(data: dict) -> list[tuple[str, str, str]]:
    config = data.get("config", {})
    summary = data["summary"]
    rows_per_frame = config.get("frame_rows", "?")
    name = (f"network serving ({config.get('application')}/"
            f"{config.get('rules')}, {config.get('connections')} conns)")
    return [
        (name,
         f"{rows_per_frame}-row vs 1-row classify frames, {stack} "
         f"{config.get('classifier')} stack",
         f"{_fmt(summary[f'{stack}_frame_speedup'])}x faster "
         f"({_fmt(summary[f'{stack}_rows{rows_per_frame}_pps'] / 1e3, 1)} kpps)")
        for stack in ("uncached", "cached")
        if f"{stack}_frame_speedup" in summary
    ]


def _rows_overload_control(data: dict) -> list[tuple[str, str, str]]:
    config = data.get("config", {})
    summary = data["summary"]
    slo_ms = summary["slo_p99_us"] / 1e3
    burst_x = config.get("burst_pps", 0.0) / max(summary["capacity_pps"], 1.0)
    name = (f"overload control (SLO p99 {slo_ms:.0f} ms, "
            f"{burst_x:.0f}x-capacity burst)")
    return [
        (name, "adaptive p99 of admitted traffic under burst",
         f"{_fmt(summary['adaptive_burst_p99_us'] / 1e3, 1)} ms "
         f"(static: {_fmt(summary['static_burst_p99_us'] / 1e3, 0)} ms)"),
        (name, "adaptive shed fraction, burst vs steady",
         f"{summary['adaptive_burst_shed_fraction']:.0%} vs "
         f"{summary['adaptive_steady_shed_fraction']:.0%}"),
        (name, "p99 after the burst clears (recovery)",
         f"{_fmt(summary['adaptive_recovery_p99_us'] / 1e3, 1)} ms"),
    ]


_RENDERERS = {
    "training_pipeline": _rows_training_pipeline,
    "sharded_scaling": _rows_sharded_scaling,
    "flowcache_locality": _rows_flowcache_locality,
    "server_throughput": _rows_server_throughput,
    "overload_control": _rows_overload_control,
}


def build_table(results_dir: Path = RESULTS_DIR) -> str:
    rows: list[tuple[str, str, str]] = []
    for path in sorted(results_dir.glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        renderer = _RENDERERS.get(path.stem)
        if renderer is None:
            continue
        try:
            rows.extend(renderer(data))
        except KeyError:
            continue
    if not rows:
        return "_No benchmark results yet — run `pytest benchmarks/ -s`._"
    lines = [
        "| benchmark | metric | result |",
        "|---|---|---|",
    ]
    for name, metric, result in rows:
        lines.append(f"| {name} | {metric} | {result} |")
    lines.append("")
    lines.append("_Generated by `python scripts/bench_table.py --write` from "
                 "`benchmarks/results/*.json` (REPRO_SCALE=ci; a row that "
                 "depends on the host's cores names their count; regenerate "
                 "with `pytest benchmarks/ -s`)._")
    return "\n".join(lines)


def _spliced_readme(table: str) -> str:
    text = README.read_text()
    if START not in text or END not in text:
        raise SystemExit(
            f"README.md is missing the {START} / {END} markers"
        )
    head, rest = text.split(START, 1)
    _, tail = rest.split(END, 1)
    return f"{head}{START}\n{table}\n{END}{tail}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="rewrite the README benchmark section in place")
    mode.add_argument("--check", action="store_true",
                      help="exit non-zero when the README section is stale")
    args = parser.parse_args(argv)

    table = build_table()
    if args.write:
        README.write_text(_spliced_readme(table))
        print(f"updated {README}")
        return 0
    if args.check:
        if README.read_text() != _spliced_readme(table):
            print("README benchmark table is stale; run "
                  "`python scripts/bench_table.py --write`", file=sys.stderr)
            return 1
        print("README benchmark table is up to date")
        return 0
    print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
