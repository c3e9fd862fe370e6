#!/usr/bin/env python3
"""The serving benchmark: ``python3 bench/run.py [--workload NAME] [--seed N]``.

Generates a rule-set and traffic, starts the real program
(``python -m repro serve ... --listen 127.0.0.1:0``) as a child process, drives
it over loopback TCP with wire v2 in a closed loop, checks every response row
against linear search and prints every metric by name with its unit.  With
``--trace 1`` it also builds the same stack in-process and replays the serve
path under spans for the per-layer numbers.  See ``bench/README.md``.

Contract mode (what a driver runs)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Without
``--workload`` every workload runs untraced and traced and a full report
(host block, slice spreads) is printed as one JSON document.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit("bench/run.py: no src/repro next to bench/ -- nothing to benchmark")
sys.path.insert(0, str(REPO_ROOT / "src"))

import server_proc  # noqa: E402
from server_proc import ServerProc, split_affinity  # noqa: E402

if __name__ == "__main__" and server_proc.SUPERVISED_ENV not in os.environ:
    # This process only watches; the benchmark runs in a child of it.
    sys.exit(server_proc.supervise(__file__, sys.argv[1:]))

_import_started = time.perf_counter()
import numpy as np  # noqa: E402
import repro.cli  # noqa: E402,F401  (what the server child imports)
IMPORT_S = time.perf_counter() - _import_started

from repro.engine.serialization import rule_to_state  # noqa: E402
from repro.rules.classbench import generate_classbench  # noqa: E402
from repro.rules.parser import parse_classbench_file, write_classbench_file  # noqa: E402
from repro.workloads.replay import make_trace  # noqa: E402

import loadgen  # noqa: E402
import metrics as metric_tables  # noqa: E402
import oracle  # noqa: E402
from workloads import (  # noqa: E402
    CHURN_HOT_FLOWS, CHURN_UPDATE_PERIOD_S, FRAME_ROWS, RULESET_APPLICATION,
    RULESET_RULES, RULESET_SEED, WORKLOADS, Workload,
)

#: Fresh servers timed for ``setup_s`` in an untraced run (the last one serves).
SETUP_SAMPLES = 3
WARMUP_S = 1.0
#: Throughput/latency slice pairs; one more slice of 1-row frames follows.
SLICE_PAIRS = 8
THROUGHPUT_SHAPE = (2, 4)  # connections x outstanding frames
LATENCY_SHAPE = (1, 1)


# ---------------------------------------------------------------------------
# Inputs


def make_inputs(workload: Workload, seed: int, rules_scale: int) -> dict:
    """Rule-set file, trace block, encoded frames and oracle answers."""
    OUT_DIR.mkdir(exist_ok=True)
    rules_path = OUT_DIR / "rules.txt"
    write_classbench_file(
        generate_classbench(RULESET_APPLICATION, rules_scale, RULESET_SEED), rules_path
    )
    started = time.perf_counter()
    rules = parse_classbench_file(rules_path)  # exactly what the server will parse
    parse_s = time.perf_counter() - started
    trace = make_trace(workload.trace_kind, rules, workload.trace_packets, seed + 7)
    block = np.array([packet.values for packet in trace.packets], dtype=np.uint64)
    ids, priorities = oracle.linear_answers(rules, block)
    return {
        "rules_path": rules_path, "rules": rules, "parse_s": parse_s,
        "block": block, "ids": ids, "priorities": priorities,
    }


def make_churn(inputs: dict, seed: int, address, counts) -> tuple:
    """The churn workload's updater and the checker that follows its timeline."""
    block, rules = inputs["block"], inputs["rules"]
    flows = oracle.hot_flows(block, inputs["priorities"], CHURN_HOT_FLOWS)
    churn_rules = [oracle.churn_rule(k, flow) for k, flow in enumerate(flows)]
    present_ids, present_priorities = oracle.linear_answers(
        rules.subset(list(rules.rules) + churn_rules), flows
    )
    timeline = oracle.UpdateTimeline(len(flows))
    rng = random.Random(seed + 11)
    schedule = (rng.randrange(len(flows)) for _ in itertools.count())
    updater = loadgen.Updater(
        address, [rule_to_state(rule) for rule in churn_rules], schedule,
        CHURN_UPDATE_PERIOD_S, timeline, counts,
    )

    def checker(rows: int, upto: int | None = None):
        return oracle.ChurnFrameChecker(
            inputs["ids"][:upto], inputs["priorities"][:upto], rows, block[:upto],
            flows, present_ids, present_priorities, timeline,
        )

    return updater, checker


# ---------------------------------------------------------------------------
# The server run


def _walk(document, *path, default=0):
    for key in path:
        if not isinstance(document, dict) or key not in document:
            return default
        document = document[key]
    return document


def _stats_counters(stats: dict) -> dict[str, float]:
    """The counters read from the ``stats`` op; a missing key reads 0."""
    engine = stats.get("engine", {})
    cache = engine.get("cache", {})  # present when a CachedEngine fronts the stack
    updates = (engine.get("engine", {}) if cache else engine).get("updates", {})
    return {
        "shed_pkts": _walk(stats, "server", "budget", "rejected_packets"),
        "hits": cache.get("hits", 0), "misses": cache.get("misses", 0),
        "evictions": cache.get("evictions", 0),
        "invalidations": cache.get("invalidations", 0),
        "applied": updates.get("inserts_applied", 0) + updates.get("removes_applied", 0),
        "retrains": updates.get("retrains_completed", 0),
        "retrain_s": updates.get("retrain_seconds_total", 0.0),
    }


def _spread(values: list[float]) -> float:
    """IQR / median of the slice values: the noise next to the number."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def serve_and_measure(workload: Workload, inputs: dict, seed: int, seconds: float,
                      setup_samples: int) -> dict:
    """Spawn fresh servers for ``setup_s``, drive the last one, stop it."""
    original = os.sched_getaffinity(0)
    generator_cpus, server_cpus = split_affinity()
    flags = workload.server_flags()
    setups = []
    os.sched_setaffinity(0, generator_cpus)
    try:
        for _ in range(setup_samples - 1):
            with ServerProc(REPO_ROOT, inputs["rules_path"], flags, OUT_DIR, server_cpus) as spare:
                spare.wait_listening()
                setups.append(spare.setup_s)
        with ServerProc(REPO_ROOT, inputs["rules_path"], flags, OUT_DIR, server_cpus) as server:
            address = server.wait_listening()
            setups.append(server.setup_s)
            result = _drive(workload, inputs, seed, seconds, server, address,
                            generator_cpus, server_cpus)
            result["leaked_shm"] = server.stop()
    finally:
        os.sched_setaffinity(0, original)
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    result["affinity"] = {"generator": sorted(generator_cpus), "server": sorted(server_cpus)}
    return result


def _drive(workload, inputs, seed, seconds, server, address,
           generator_cpus, server_cpus) -> dict:
    counts = loadgen.Counts()

    def latency_slice(source, slice_s):
        # One frame outstanding: client and server strictly alternate, so they
        # lose nothing by sharing a CPU, and the round trip is then free of the
        # cross-CPU wake-up from idle (halt exit + IPI), which on a virtual
        # machine is the noisiest part of it and the hypervisor's, not the
        # program's (slice spread 2x lower, measured).
        os.sched_setaffinity(0, server_cpus)
        try:
            return source.run_slice(slice_s, *LATENCY_SHAPE)
        finally:
            os.sched_setaffinity(0, generator_cpus)

    block = inputs["block"]
    one_row_count = 256
    if workload.churn:
        updater, make_checker = make_churn(inputs, seed, address, counts)
        checker, one_row_checker = make_checker(FRAME_ROWS), make_checker(1, one_row_count)
    else:
        updater = None
        checker = oracle.FrameChecker(inputs["ids"], inputs["priorities"], FRAME_ROWS)
        one_row_checker = oracle.FrameChecker(inputs["ids"], inputs["priorities"], 1)
    frames = loadgen.encode_frames(block, FRAME_ROWS)
    generator = loadgen.LoadGenerator(address, frames, FRAME_ROWS, checker, counts, updater)
    one_row = loadgen.LoadGenerator(
        address, loadgen.encode_frames(block[:one_row_count], 1), 1, one_row_checker,
        counts, updater,
    )
    control = loadgen.Connection(address)
    try:
        generator.run_slice(WARMUP_S, *THROUGHPUT_SHAPE)
        generator.drain()
        before = _stats_counters(control.request_json({"id": 1, "op": "stats"})["stats"])

        slice_s = seconds / (2 * SLICE_PAIRS + 1)
        throughput, latency = [], []
        server_cpu_s, server_cpu_rows = 0.0, 0
        wall_started, cpu_started = time.perf_counter(), time.process_time()
        for _ in range(SLICE_PAIRS):
            # Nothing is outstanding at either CPU reading, so the rows sent
            # in between are the rows the CPU time was spent on.
            generator.drain()
            cpu_before, rows_before = server.cpu_seconds(), counts.rows_attempted
            piece = generator.run_slice(slice_s, *THROUGHPUT_SHAPE)
            generator.drain()
            if piece is not None:
                server_cpu_s += server.cpu_seconds() - cpu_before
                server_cpu_rows += counts.rows_attempted - rows_before
                throughput.append(piece)
            piece = latency_slice(generator, slice_s)
            if piece is not None:
                latency.append(piece)
        generator.drain()
        single = latency_slice(one_row, slice_s)
        one_row.drain()
        generator_share = (time.process_time() - cpu_started) / (
            time.perf_counter() - wall_started
        )

        final = control.request_json({"id": 2, "op": "stats"})["stats"]
        after = _stats_counters(final)
        rss_mb = server.peak_rss_mib()
    finally:
        if updater is not None:
            updater.finish()
        generator.close()
        one_row.close()
        control.close()
    if not throughput or not latency or single is None:
        raise RuntimeError(f"every slice of a kind failed: {counts}")

    pps = [piece.rows_ok / piece.wall_s for piece in throughput]
    p50 = [statistics.median(piece.rtts_s) * 1e6 for piece in latency]
    pooled = sorted(rtt for piece in latency for rtt in piece.rtts_s)
    delta = {key: after[key] - before[key] for key in after}
    probes = delta["hits"] + delta["misses"]
    acks = sorted(updater.ack_s) if updater is not None else []
    layer = {
        "server.cpu_us_pkt": server_cpu_s * 1e6 / server_cpu_rows,
        "server.rtt_p99_us": pooled[min(len(pooled) - 1, int(0.99 * len(pooled)))] * 1e6,
        "server.rtt_samples": len(pooled),
        "server.rtt_us_1row": statistics.median(single.rtts_s) * 1e6,
        "server.stats_p50_us": _walk(final, "server", "p50_us"),
        "server.stats_p99_us": _walk(final, "server", "p99_us"),
        "control.shed_pkts": delta["shed_pkts"],
        "flowcache.hit_rate": delta["hits"] / probes if probes else 0.0,
        "flowcache.evictions": delta["evictions"],
        "flowcache.invalidations": delta["invalidations"],
        "updates.applied": delta["applied"],
        "updates.retrains_completed": delta["retrains"],
        "updates.retrain_s": delta["retrain_s"],
        "updates.ack_p50_us": statistics.median(acks) * 1e6 if acks else 0.0,
        "updates.ack_p90_us": acks[int(0.9 * len(acks))] * 1e6 if acks else 0.0,
        "loadgen.cpu_share": generator_share,
        "loadgen.fail_share": counts.failed / counts.attempted,
    }
    return {
        # Pooled over the slices, not the median of the slice values: under
        # churn a slice either meets a background retrain or does not, and the
        # median of eight values from two modes flips between the modes.
        "pps": sum(piece.rows_ok for piece in throughput)
               / sum(piece.wall_s for piece in throughput),
        "p50_us": statistics.median(pooled) * 1e6, "rss_mb": rss_mb,
        "spread": {"pps": _spread(pps), "p50_us": _spread(p50)},
        "slices": {"pps": pps, "p50_us": p50},
        "counts": counts, "layer": layer,
        "generator_bound": generator_share > 0.5,
    }


# ---------------------------------------------------------------------------
# One workload, one run


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 rules_scale: int = RULESET_RULES) -> dict:
    """One run: the end-to-end metrics, or with ``traced`` the per-layer ones."""
    inputs = make_inputs(workload, seed, rules_scale)
    served = serve_and_measure(
        workload, inputs, seed, seconds, setup_samples=1 if traced else SETUP_SAMPLES
    )
    counts = served["counts"]
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "traced": traced,
        "server_flags": workload.server_flags(),
        "attempted": counts.attempted, "failed": counts.failed, "counts": vars(counts),
        "end_to_end": {name: served[name] for name in ("pps", "p50_us", "setup_s", "rss_mb")},
        "slice_spread": served["spread"], "slices": served["slices"],
        "setup_samples": served["setup_samples"],
        "affinity": served["affinity"], "generator_bound": served["generator_bound"],
    }
    if traced:
        import traced as traced_run

        layer = served["layer"]
        layer["workers.leaked_shm"] = served["leaked_shm"]
        layer.update(traced_run.run_traced(workload, inputs["rules"], inputs["block"], OUT_DIR))
        layer["rules.parse_s"] = inputs["parse_s"]
        layer["setup.import_s"] = IMPORT_S
        frame_us = FRAME_ROWS * 1e6 / served["pps"]
        serve_path_us = layer["stack.block_us"] + (
            FRAME_ROWS * (layer["wire.decode_req_ns_pkt"] + layer["wire.encode_resp_ns_pkt"])
            + layer["control.admit_ns_frame"]
        ) / 1e3
        layer["server.overhead_us_frame"] = frame_us - layer["stack.block_us"]
        layer["server.unattributed_us_frame"] = served["p50_us"] - serve_path_us
        layer["trace.engine_share"] = layer["engine.block_ns_pkt"] * FRAME_ROWS / 1e3 / frame_us
        report["per_layer"] = layer
    return report


def contract_line(report: dict) -> str:
    """The driver's last line: ``correct``, ``attempted``, ``failed``, ``metrics``."""
    if report["traced"]:
        table, values = metric_tables.PER_LAYER, report["per_layer"]
    else:
        table, values = metric_tables.END_TO_END, report["end_to_end"]
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in table},
    })


def print_metrics(report: dict) -> None:
    """Every metric by name with its unit, human-readable."""
    print(f"== {report['workload']} seed={report['seed']} "
          f"({'traced' if report['traced'] else 'untraced'}) "
          f"attempted={report['attempted']} failed={report['failed']}"
          f"{' GENERATOR_BOUND' if report['generator_bound'] else ''}")
    for metric in metric_tables.END_TO_END:
        spread = report["slice_spread"].get(metric.name)
        note = f"  (slice IQR/median {spread:.3f})" if spread is not None else ""
        print(f"  {metric.name:32s} {report['end_to_end'][metric.name]:14.4f} {metric.unit}{note}")
    for metric in metric_tables.PER_LAYER if report["traced"] else ():
        print(f"  {metric.name:32s} {report['per_layer'][metric.name]:14.4f} {metric.unit}")


# ---------------------------------------------------------------------------
# Host block, full report, --repeat/--check


def host_block(seed: int) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    generator_cpus, server_cpus = split_affinity()
    return {
        "cores": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "generator_cpus": sorted(generator_cpus), "server_cpus": sorted(server_cpus),
        "cpu_model": model, "python": platform.python_version(),
        "numpy": np.__version__, "git_rev": rev, "seed": seed,
        "transport": "loopback TCP (127.0.0.1), wire v2",
    }


def run_all(names: list[str], seed: int, seconds: float, traced_too: bool) -> dict:
    reports = {}
    for name in names:
        untraced = run_workload(WORKLOADS[name], seed, seconds, traced=False)
        print_metrics(untraced)
        reports[name] = untraced
        if traced_too:
            traced = run_workload(WORKLOADS[name], seed, seconds, traced=True)
            print_metrics(traced)
            untraced["per_layer"] = traced["per_layer"]
            untraced["failed"] += traced["failed"]
            untraced["attempted"] += traced["attempted"]
    return reports


def check_repeats(first: dict, second: dict) -> list[str]:
    """End-to-end metrics of two sets that differ by more than their bound."""
    problems = []
    for name in first:
        for metric in metric_tables.END_TO_END:
            a = first[name]["end_to_end"][metric.name]
            b = second[name]["end_to_end"][metric.name]
            if abs(a - b) / min(a, b) > metric.bound:
                problems.append(f"{metric.name}@{name}: {a:.4f} vs {b:.4f} "
                                f"(bound {metric.bound})")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload in contract mode (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=metric_tables.RUN_SECONDS,
                        help="seconds one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 reports the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: run the untraced set this many times")
    parser.add_argument("--check", action="store_true",
                        help="with --repeat 2: fail if the two sets disagree "
                             "beyond a metric's own bound")
    args = parser.parse_args(argv)

    if args.workload:
        report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              traced=bool(args.trace))
        print_metrics(report)
        print(contract_line(report))
        return 0

    names = list(WORKLOADS)
    sets = [run_all(names, args.seed, args.seconds, traced_too=args.repeat == 1)]
    for repeat in range(1, args.repeat):
        # Alternate the order so slow host drift does not favour one set.
        order = names[::-1] if repeat % 2 else names
        sets.append(run_all(order, args.seed, args.seconds, traced_too=False))
    problems = check_repeats(sets[0], sets[1]) if args.check and len(sets) > 1 else []
    failed = sum(report["failed"] for reports in sets for report in reports.values())
    print(json.dumps({
        "schema": 2, "host": host_block(args.seed),
        "sets": [{name: reports[name] for name in names} for reports in sets],
        "check": problems, "failed": failed,
    }))
    for problem in problems:
        print(f"DISAGREE {problem}", file=sys.stderr)
    return 1 if problems or failed else 0


if __name__ == "__main__":
    sys.exit(main())
