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


_RENDERERS = {
    "training_pipeline": _rows_training_pipeline,
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
                 "`benchmarks/results/*.json` (REPRO_SCALE=ci; regenerate "
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
