"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — write a ClassBench-like or forwarding rule-set to a file in
  ClassBench text format.
* ``inspect``  — print structural statistics of a rule-set file (diversity,
  iSet coverage, estimated centrality).
* ``build``    — build a classifier (NuevoMatch or a baseline) over a rule-set
  file and report its structure: footprint, coverage, error bounds.
* ``compare``  — build NuevoMatch and a baseline over the same rule-set and
  report the modelled latency/throughput speedups on a uniform trace.
* ``engine``   — the serving API: ``engine save`` builds a
  :class:`~repro.engine.ClassificationEngine` and persists it with its
  training provenance (``--warm-start SNAPSHOT`` seeds the RQ-RMI submodels
  from a previous engine), ``engine load`` inspects a saved engine.
* ``serve``    — the network server: build the stack a rule-set file and
  ``--shards N`` / ``--executor serial|workers`` / ``--cache-size K`` name
  (one shard is a plain engine, more a
  :class:`~repro.serving.ShardedEngine`), or restore one from a
  ``.json``/``.json.gz`` snapshot of either kind; ``--save`` persists it,
  ``--listen HOST:PORT`` serves it over asyncio TCP (binary classify-batch
  frames for lookups, length-prefixed JSON for hello/insert/remove/stats)
  with a packet-weighted admission budget (``--max-queue``) for
  backpressure, and one of the two is required.  ``--retrain-threshold``
  sets the remainder fraction at which a shard retrains in the background
  (a single engine never retrains, so the flag is rejected with
  ``--shards 1``).  ``--adaptive`` (implied by ``--slo-p99-us``) runs the
  overload controller: the budget — and the cache, when one is configured —
  retunes each window against the p99 SLO.
* ``replay``   — the one local trace run: drive a §5.1.1 trace
  (``--trace {uniform,zipf,caida}``, ``--skew`` for the Figure-12 Zipf
  settings) through any engine configuration (``--shards N``,
  ``--cache-size K`` for the exact-match flow cache) and report hit rate,
  measured throughput, p50/p99 latency and the cache-aware modelled latency.
  ``--ruleset`` takes a rule-set file or a snapshot of either kind; without
  it a synthetic ClassBench rule-set is generated.

Classifier choice lists are generated from the registry
(:func:`repro.classifiers.available_classifiers`), so newly registered
classifiers appear automatically.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import format_kv, format_table
from repro.classifiers import available_classifiers, build_classifier
from repro.core.config import NuevoMatchConfig, RQRMIConfig
from repro.core.metrics import partition_quality
from repro.core.nuevomatch import NuevoMatch
from repro.engine import ClassificationEngine
from repro.rules import (
    CLASSBENCH_APPLICATIONS,
    generate_classbench,
    generate_stanford_backbone,
    parse_classbench_file,
    write_classbench_file,
)
from repro.serving import DEFAULT_MAX_QUEUE, EXECUTORS, run_server
from repro.serving.updates import DEFAULT_RETRAIN_THRESHOLD
from repro.simulation import (
    CostModel,
    evaluate_classifier,
    evaluate_nuevomatch,
    speedup,
)
from repro.traffic import ZIPF_ALPHAS, generate_uniform_trace
from repro.workloads import (
    SNAPSHOT_SUFFIXES,
    TRACE_KINDS,
    build_scenario_engine,
    load_stack,
    make_trace,
    replay_trace,
)

__all__ = ["main", "build_parser"]


def _baseline_choices() -> list[str]:
    """Registry names usable as a stand-alone baseline / remainder index."""
    return [name for name in available_classifiers() if name != "nm"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NuevoMatch / RQ-RMI packet classification reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic rule-set file")
    gen.add_argument("output", help="destination file (ClassBench text format)")
    gen.add_argument("--application", default="acl1",
                     choices=list(CLASSBENCH_APPLICATIONS) + ["stanford"])
    gen.add_argument("--rules", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=0)

    ins = sub.add_parser("inspect", help="print structural statistics of a rule-set")
    ins.add_argument("ruleset", help="ClassBench-format rule-set file")
    ins.add_argument("--isets", type=int, default=4)

    build = sub.add_parser("build", help="build a classifier and report its structure")
    build.add_argument("ruleset", help="ClassBench-format rule-set file")
    build.add_argument("--classifier", default="nm", choices=available_classifiers())
    build.add_argument("--remainder", default="tm", choices=_baseline_choices())
    build.add_argument("--error-threshold", type=int, default=64)

    cmp_ = sub.add_parser("compare", help="compare NuevoMatch against a baseline")
    cmp_.add_argument("ruleset", help="ClassBench-format rule-set file")
    cmp_.add_argument("--baseline", default="tm", choices=_baseline_choices())
    cmp_.add_argument("--packets", type=int, default=500)
    cmp_.add_argument("--error-threshold", type=int, default=64)

    engine = sub.add_parser("engine", help="build, persist and inspect engines")
    engine_sub = engine.add_subparsers(dest="engine_command", required=True)

    save = engine_sub.add_parser(
        "save", help="build a ClassificationEngine and persist it to disk"
    )
    save.add_argument("ruleset", help="ClassBench-format rule-set file")
    save.add_argument("output", help="engine snapshot path (.json or .json.gz)")
    save.add_argument("--classifier", default="nm", choices=available_classifiers())
    save.add_argument("--remainder", default="tm", choices=_baseline_choices())
    save.add_argument("--error-threshold", type=int, default=64)
    save.add_argument("--warm-start", metavar="SNAPSHOT",
                      help="seed RQ-RMI training from this engine snapshot: "
                           "unchanged submodels are reused, changed ones "
                           "retrain from the old weights (cold fallback when "
                           "the error bound regresses)")

    load = engine_sub.add_parser(
        "load", help="load a saved engine and print its structure"
    )
    load.add_argument("engine", help="engine snapshot path")

    sharded = sub.add_parser(
        "serve", help="serve an engine stack over TCP (--listen) and/or "
                      "persist it (--save)"
    )
    sharded.add_argument(
        "ruleset", help="ClassBench-format rule-set file, or a .json/.json.gz "
                        "snapshot (`repro serve --save`, `repro engine save`)"
    )
    sharded.add_argument("--shards", type=int, default=2)
    sharded.add_argument("--classifier", default="nm", choices=available_classifiers())
    sharded.add_argument("--remainder", default="tm", choices=_baseline_choices())
    sharded.add_argument("--executor", default=None, choices=list(EXECUTORS),
                         help="fan-out strategy; default: 'workers' (the "
                              "persistent shared-memory shard-worker runtime) "
                              "when building with --shards > 1, else 'serial' "
                              "(in-process; also the default for snapshots)")
    sharded.add_argument("--retrain-threshold", type=float, default=None,
                         help="remainder fraction at which a shard retrains "
                              f"(default {DEFAULT_RETRAIN_THRESHOLD}); needs a "
                              "sharded engine, i.e. not --shards 1")
    sharded.add_argument("--error-threshold", type=int, default=64)
    sharded.add_argument("--save", help="persist the engine (not its flow "
                                        "cache) to this snapshot path")
    sharded.add_argument("--listen", metavar="HOST:PORT",
                         help="serve binary classify-batch frames and JSON "
                              "insert/remove/stats over asyncio TCP; PORT 0 "
                              "picks an ephemeral port")
    sharded.add_argument("--max-queue", type=int, default=DEFAULT_MAX_QUEUE,
                         help="admission budget in packets; frames beyond it "
                              "are shed with status 'overloaded'")
    sharded.add_argument("--cache-size", type=int, default=0,
                         help="front the engine with an exact-match flow "
                              "cache of this many entries")
    sharded.add_argument("--slo-p99-us", type=float, default=None,
                         help="p99 service-time objective (microseconds) for "
                              "the overload controller; implies --adaptive "
                              "unless --no-adaptive is given")
    sharded.add_argument("--adaptive", default=None,
                         action=argparse.BooleanOptionalAction,
                         help="self-tune the admission budget (and the flow "
                              "cache, with --cache-size) against the p99 SLO "
                              "each control window")

    replay = sub.add_parser(
        "replay", help="replay a generated trace through the serving stack"
    )
    replay.add_argument("--ruleset",
                        help="ClassBench-format rule-set file, or a .json/"
                             ".json.gz snapshot of either kind, whose shards "
                             "and classifier then apply (default: generate a "
                             "synthetic rule-set, see --application/--rules)")
    replay.add_argument("--application", default="acl1",
                        choices=list(CLASSBENCH_APPLICATIONS))
    replay.add_argument("--rules", type=int, default=2000,
                        help="synthetic rule count when no --ruleset is given")
    replay.add_argument("--trace", default="zipf", choices=list(TRACE_KINDS))
    replay.add_argument("--skew", type=int, default=95,
                        choices=sorted(ZIPF_ALPHAS),
                        help="Zipf top-3%%-flow traffic share (Figure 12)")
    replay.add_argument("--packets", type=int, default=20_000)
    replay.add_argument("--cache-size", type=int, default=0,
                        help="flow-cache entries; 0 serves uncached")
    replay.add_argument("--shards", type=int, default=1)
    replay.add_argument("--classifier", default="tm",
                        choices=available_classifiers(),
                        help="per-shard classifier (tm by default so replay "
                             "measures serving, not RQ-RMI training)")
    replay.add_argument("--remainder", default="tm", choices=_baseline_choices())
    replay.add_argument("--error-threshold", type=int, default=64)
    replay.add_argument("--executor", default="serial", choices=list(EXECUTORS))
    replay.add_argument("--batch-size", type=int, default=128)
    replay.add_argument("--seed", type=int, default=1)
    replay.add_argument("--json", action="store_true",
                        help="emit the report as one JSON line instead of a table")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.application == "stanford":
        ruleset = generate_stanford_backbone(args.rules, seed=args.seed)
        print(f"generated {len(ruleset)} forwarding rules", file=sys.stderr)
        # Forwarding rules are single-field; store them as 5-tuple wildcards so
        # the ClassBench format applies.
        from repro.rules.fields import FIVE_TUPLE
        from repro.rules.rule import Rule, RuleSet

        widened = RuleSet(
            [
                Rule(
                    ((0, 0xFFFFFFFF), rule.ranges[0], (0, 65535), (0, 65535), (0, 255)),
                    priority=rule.priority,
                    action=rule.action,
                    rule_id=rule.rule_id,
                )
                for rule in ruleset
            ],
            FIVE_TUPLE,
            name=ruleset.name,
        )
        write_classbench_file(widened, args.output)
    else:
        ruleset = generate_classbench(args.application, args.rules, seed=args.seed)
        write_classbench_file(ruleset, args.output)
        print(f"generated {len(ruleset)} {args.application} rules", file=sys.stderr)
    print(args.output)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    ruleset = parse_classbench_file(args.ruleset)
    quality = partition_quality(ruleset, num_isets=args.isets)
    print(format_kv(
        {
            "rules": len(ruleset),
            "fields": len(ruleset.schema),
            "max diversity": round(quality["max_diversity"], 3),
            "centrality (lower bound)": quality["centrality_lower_bound"],
            "remainder fraction": round(quality["remainder_fraction"], 3),
        },
        title=f"rule-set {ruleset.name}",
    ))
    coverage = quality["cumulative_coverage"]
    print()
    print(format_table(
        ["iSets", "coverage %"],
        [[i + 1, round(100 * c, 1)] for i, c in enumerate(coverage)],
    ))
    return 0


def _nm_config(error_threshold: int) -> NuevoMatchConfig:
    return NuevoMatchConfig(
        max_isets=4,
        min_iset_coverage=0.05,
        rqrmi=RQRMIConfig(error_threshold=error_threshold),
    )


def _build_params(args: argparse.Namespace) -> dict:
    """Classifier ``build`` parameters from ``--classifier``/``--remainder``/
    ``--error-threshold`` (only NuevoMatch takes any)."""
    if args.classifier != "nm":
        return {}
    return {
        "remainder_classifier": args.remainder,
        "config": _nm_config(args.error_threshold),
    }


def _cmd_build(args: argparse.Namespace) -> int:
    ruleset = parse_classbench_file(args.ruleset)
    classifier = build_classifier(args.classifier, ruleset, **_build_params(args))
    stats = classifier.statistics()
    printable = {
        key: (round(value, 4) if isinstance(value, float) else value)
        for key, value in stats.items()
        if not isinstance(value, (dict, list))
    }
    print(format_kv(printable, title=f"{stats['name']} over {ruleset.name}"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    ruleset = parse_classbench_file(args.ruleset)
    baseline = build_classifier(args.baseline, ruleset)
    nm = NuevoMatch.build(
        ruleset,
        remainder_classifier=type(baseline),
        config=_nm_config(args.error_threshold),
    )
    trace = generate_uniform_trace(ruleset, args.packets, seed=1)
    cost_model = CostModel()
    baseline_report = evaluate_classifier(baseline, trace, cost_model, cores=2)
    nm_report = evaluate_nuevomatch(nm, trace, cost_model, mode="parallel")
    factors = speedup(nm_report, baseline_report)
    print(format_table(
        ["classifier", "index KB", "latency ns", "throughput Mpps"],
        [
            [baseline.name,
             round(baseline.memory_footprint().index_bytes / 1024, 1),
             round(baseline_report.avg_latency_ns, 1),
             round(baseline_report.throughput_pps / 1e6, 3)],
            [f"nm({baseline.name})",
             round(nm.memory_footprint().index_bytes / 1024, 1),
             round(nm_report.avg_latency_ns, 1),
             round(nm_report.throughput_pps / 1e6, 3)],
        ],
        title=f"NuevoMatch vs {baseline.name} on {ruleset.name} "
              f"({len(ruleset)} rules, modelled, 2 cores)",
    ))
    print(f"\nspeedup: {factors['latency']:.2f}x latency, "
          f"{factors['throughput']:.2f}x throughput "
          f"(coverage {nm.coverage:.1%}, {nm.num_isets} iSets)")
    return 0


def _print_engine_stats(
    engine: ClassificationEngine, title: str, extra: dict | None = None
) -> None:
    stats = {**engine.statistics(), **(extra or {})}
    printable = {
        key: (round(value, 4) if isinstance(value, float) else value)
        for key, value in stats.items()
        if not isinstance(value, (dict, list))
    }
    print(format_kv(printable, title=title))


def _cmd_engine_save(args: argparse.Namespace) -> int:
    import time

    warm_from = None
    if args.warm_start:
        if args.classifier != "nm":
            print(
                f"error: classifier {args.classifier!r} has no trained state; "
                "--warm-start applies to nm",
                file=sys.stderr,
            )
            return 2
        warm_from = ClassificationEngine.load(args.warm_start)
        if warm_from.classifier_name != "nm":
            print(
                f"error: --warm-start snapshot holds a "
                f"{warm_from.classifier_name!r} classifier; warm starting "
                "applies to trained (nm) engines",
                file=sys.stderr,
            )
            return 2
    ruleset = parse_classbench_file(args.ruleset)
    start = time.perf_counter()
    engine = ClassificationEngine.build(
        ruleset,
        classifier=args.classifier,
        warm_from=warm_from,
        **_build_params(args),
    )
    build_seconds = time.perf_counter() - start
    engine.save(args.output)
    training = engine.metadata.get("training", {})
    _print_engine_stats(
        engine,
        f"engine[{engine.classifier_name}] over {ruleset.name}",
        {
            "build wall s": build_seconds,
            **{f"training {key}": value for key, value in training.items()},
        },
    )
    print(args.output)
    return 0


def _cmd_engine_load(args: argparse.Namespace) -> int:
    engine = ClassificationEngine.load(args.engine)
    _print_engine_stats(
        engine,
        f"engine[{engine.classifier_name}] over {engine.ruleset.name} "
        f"({len(engine.ruleset)} rules)",
    )
    return 0


def _listen_address(listen: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` --listen argument (empty host = 127.0.0.1)."""
    host, sep, port = listen.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"error: --listen expects HOST:PORT, got {listen!r}")
    return host or "127.0.0.1", int(port)


def _cmd_serve_listen(args: argparse.Namespace, engine) -> int:
    """Network-serving mode: front ``engine`` with an AsyncServer."""
    host, port = _listen_address(args.listen)
    # Naming an SLO implies wanting it enforced; --no-adaptive still wins.
    adaptive = (
        args.adaptive
        if args.adaptive is not None
        else args.slo_p99_us is not None
    )
    try:
        stats = run_server(
            engine,
            host,
            port,
            max_queue=args.max_queue,
            slo_p99_us=args.slo_p99_us,
            adaptive=adaptive,
            ready=lambda server: print(
                f"listening on {server.host}:{server.port} "
                f"(max_queue={args.max_queue}, "
                f"cache_size={args.cache_size}, "
                f"adaptive={'on' if adaptive else 'off'})",
                file=sys.stderr,
                flush=True,
            ),
        )
    finally:
        engine.close()
    server_stats = stats.get("server", {})
    budget = server_stats.get("budget", {})
    controller = server_stats.get("controller") or {}
    print(format_kv(
        {
            "requests served": server_stats.get("requests_served", 0),
            "frames served": server_stats.get("binary_batches", 0),
            "admitted frames": budget.get("admitted", 0),
            "rejected frames": budget.get("rejected", 0),
            "admitted packets": budget.get("admitted_packets", 0),
            "shed packets": budget.get("rejected_packets", 0),
            "latency p50 us": round(server_stats.get("p50_us", 0.0), 1),
            "latency p99 us": round(server_stats.get("p99_us", 0.0), 1),
            **(
                {
                    "slo p99 us": controller.get("slo_p99_us"),
                    "control windows": controller.get("windows", 0),
                    "slo breaches": controller.get("breaches", 0),
                    "budget limit": controller.get("limit"),
                }
                if controller
                else {}
            ),
        },
        title="server shutdown statistics",
    ))
    return 0


def _is_snapshot(path) -> bool:
    """Whether ``serve`` / ``replay`` read ``path`` as a snapshot rather than
    a rule-set file."""
    return str(path or "").endswith(SNAPSHOT_SUFFIXES)


def _load_stack(args: argparse.Namespace, executor: str):
    """The stack the snapshot ``args.ruleset`` holds — ``None``, after one
    line on stderr, when it is no snapshot this build reads."""
    try:
        stack = load_stack(args.ruleset, executor=executor, cache_size=args.cache_size)
    except ValueError as error:
        # Not JSON, no snapshot, or another format version.
        print(
            f"error: {args.ruleset} is not an engine snapshot this build "
            f"reads: {error} (rule-set files must not use a .json/.json.gz "
            "extension)",
            file=sys.stderr,
        )
        return None
    print(
        "restored from snapshot: --shards/--classifier/--remainder/"
        "--retrain-threshold come from the snapshot",
        file=sys.stderr,
    )
    return stack


def _build_stack(args: argparse.Namespace, ruleset, executor: str, **build):
    """The stack ``serve`` / ``replay`` flags name, built over ``ruleset``."""
    return build_scenario_engine(
        ruleset,
        shards=args.shards,
        cache_size=args.cache_size,
        classifier=args.classifier,
        executor=executor,
        **build,
        **_build_params(args),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    if not (args.listen or args.save):
        print(
            "error: `repro serve` is the network server: give --listen "
            "HOST:PORT and/or --save PATH (`repro replay` runs a local trace)",
            file=sys.stderr,
        )
        return 2
    if _is_snapshot(args.ruleset):
        # The executor is not snapshot state: a restore without --executor
        # serves in-process.
        stack = _load_stack(args, args.executor or "serial")
        if stack is None:
            return 2
    elif args.shards <= 1 and args.retrain_threshold is not None:
        # A plain engine has no retrain lifecycle; dropping the flag silently
        # would let the overlay grow for the server's life.
        print(
            "error: --retrain-threshold needs a sharded engine; a single "
            "engine never retrains (use --shards 2)",
            file=sys.stderr,
        )
        return 2
    else:
        # Multi-shard builds default to the shared-memory worker runtime —
        # the one executor that uses more than one core; a single shard is a
        # plain engine with nothing to fan out.
        stack = _build_stack(
            args,
            parse_classbench_file(args.ruleset),
            args.executor or ("workers" if args.shards > 1 else "serial"),
            retrain_threshold=(
                DEFAULT_RETRAIN_THRESHOLD
                if args.retrain_threshold is None
                else args.retrain_threshold
            ),
        )
    if args.save:
        # The flow cache is not snapshot state: persist the engine behind it.
        (stack.engine if args.cache_size > 0 else stack).save(args.save)
        print(args.save)
    if args.listen:
        return _cmd_serve_listen(args, stack)
    stack.close()
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    if _is_snapshot(args.ruleset):
        stack = _load_stack(args, args.executor)
        if stack is None:
            return 2
        ruleset = stack.ruleset
    else:
        if args.ruleset:
            ruleset = parse_classbench_file(args.ruleset)
        else:
            ruleset = generate_classbench(args.application, args.rules, seed=args.seed)
        stack = _build_stack(args, ruleset, args.executor)
    with stack:
        trace = make_trace(
            args.trace, ruleset, args.packets, seed=args.seed, skew=args.skew
        )
        report = replay_trace(stack, trace, batch_size=args.batch_size)
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
        return 0
    trace_label = (
        f"{args.trace}-{args.skew}" if args.trace == "zipf" else args.trace
    )
    print(format_kv(
        {
            "trace": trace_label,
            "ruleset": f"{ruleset.name} ({len(ruleset)} rules)",
            "shards": report.shards,
            "cache size": report.cache_size,
            "packets": report.packets,
            "matched": report.matched,
            "cache hit rate": f"{report.hit_rate:.1%}",
            "measured kpps": round(report.throughput_pps / 1e3, 1),
            "latency p50 ns/pkt": round(report.latency_p50_ns, 1),
            "latency p99 ns/pkt": round(report.latency_p99_ns, 1),
            "modelled latency ns/pkt": round(report.modelled_latency_ns, 1),
            "modelled throughput Mpps": round(
                report.modelled_throughput_pps / 1e6, 3
            ),
        },
        title=f"replay {trace_label} through {report.engine}",
    ))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "inspect": _cmd_inspect,
    "build": _cmd_build,
    "compare": _cmd_compare,
    "serve": _cmd_serve,
    "replay": _cmd_replay,
}

_ENGINE_COMMANDS = {
    "save": _cmd_engine_save,
    "load": _cmd_engine_load,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "engine":
        return _ENGINE_COMMANDS[args.engine_command](args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
