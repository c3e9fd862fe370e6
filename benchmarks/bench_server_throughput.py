"""Network-serving throughput — the frame-width × concurrency sweep.

The paper's throughput comes from running RQ-RMI inference over a block of
packets, and the :class:`~repro.serving.server.AsyncServer` serves a lookup
the same way: one wire-v2 classify-batch frame is one ``classify_block``
call.  Batching is therefore the *client's* dial.  This benchmark prices it:
a zipf-95 trace (§5.1.1) is offered open-loop to an in-process server across
a {rows per frame} × {per-connection in-flight window} sweep, on the two
stacks ``repro serve --classifier nm --remainder tm`` runs — the plain
NuevoMatch engine and the same engine behind a flow cache (``--cache-size``).

Reported per cell: client-observed throughput (packets/s) and p50/p99
latency.  One floor, hardware-independent because both sides pay the same
per-frame costs (framing, a task, an executor hop, admission) and differ only
in how many rows amortize them: at the heaviest window, 64-row frames must
reach at least ``FRAME_FLOOR`` × the throughput of 1-row frames on both
stacks (measured at ``ci`` scale on 2 vCPUs: 12–14× uncached, 16–25×
cached).

Results land in the shared BENCH schema (``benchmarks/results/
server_throughput.json`` plus a ``BENCH {...}`` stdout line).
"""

from __future__ import annotations

import asyncio

from repro.engine import ClassificationEngine
from repro.serving import AsyncServer, CachedEngine
from repro.workloads import make_trace, open_loop_load

from bench_helpers import (
    build_nuevomatch,
    current_scale,
    report,
    report_json,
    ruleset,
)
from repro.analysis import format_table

REMAINDER = "tm"
CLASSIFIER = f"nm/{REMAINDER}"
CONNECTIONS = 4
#: Packets per classify-batch frame: 1 is a per-packet sender.
FRAME_ROWS = (1, 8, 64, 512)
#: Per-connection in-flight windows: 1 ≈ closed-loop ping-pong, 32 ≈ heavy
#: concurrent load.
WINDOWS = (1, 8, 32)
#: Flow-cache capacity of the cached stack.
CACHE = 4096
#: 64-row frames vs 1-row frames at the heaviest window.
FLOOR_ROWS = 64
FRAME_FLOOR = 3.0


async def _measure(engine, packets, rows, window):
    async with AsyncServer(engine) as server:
        await server.start("127.0.0.1", 0)
        return await open_loop_load(
            server.host,
            server.port,
            packets,
            connections=CONNECTIONS,
            window=window,
            batch=rows,
        )


def test_server_throughput():
    scale = current_scale()
    application = scale["applications"][0]
    size = scale["sizes"]["10K"]
    rules = ruleset(application, size)
    num_packets = max(10 * scale["trace_packets"], 2000)
    trace = make_trace("zipf", rules, num_packets, seed=59, skew=95)
    packets = [tuple(p) for p in trace]
    engine = ClassificationEngine(build_nuevomatch(REMAINDER, application, size))
    stacks = {"uncached": engine, "cached": CachedEngine(engine, capacity=CACHE)}

    rows = []
    series = []
    pps: dict[tuple[str, int, int], float] = {}
    for stack_name, stack in stacks.items():
        for frame_rows in FRAME_ROWS:
            for window in WINDOWS:
                load = asyncio.run(_measure(stack, packets, frame_rows, window))
                assert load.completed == len(packets)
                assert load.errors == 0 and load.overloaded == 0
                pps[stack_name, frame_rows, window] = load.throughput_rps
                series.append(
                    {
                        "stack": stack_name,
                        "frame_rows": frame_rows,
                        "connections": CONNECTIONS,
                        "window": window,
                        "load": load.as_dict(),
                    }
                )
                rows.append(
                    [
                        stack_name,
                        frame_rows,
                        CONNECTIONS * window,
                        round(load.throughput_rps / 1e3, 2),
                        round(load.latency_p50_us, 1),
                        round(load.latency_p99_us, 1),
                    ]
                )

    text = format_table(
        ["stack", "rows/frame", "frames in flight", "kpps", "p50 us", "p99 us"],
        rows,
        title=f"Server throughput (zipf-95, {CLASSIFIER}, {application} "
              f"{size} rules, {num_packets} packets)",
    )
    report("server_throughput", text)

    heaviest = max(WINDOWS)
    speedups = {
        name: pps[name, FLOOR_ROWS, heaviest] / pps[name, 1, heaviest]
        for name in stacks
    }
    report_json(
        "server_throughput",
        config={
            "classifier": CLASSIFIER,
            "application": application,
            "rules": size,
            "trace": "zipf-95",
            "packets": num_packets,
            "connections": CONNECTIONS,
            "window": heaviest,
            "frame_rows": FLOOR_ROWS,
            "cache": CACHE,
        },
        measured={"sweep": series},
        summary={
            **{
                f"{name}_rows{frame_rows}_pps": round(pps[name, frame_rows, heaviest], 1)
                for name in stacks
                for frame_rows in (1, FLOOR_ROWS)
            },
            **{
                f"{name}_frame_speedup": round(speedup, 3)
                for name, speedup in speedups.items()
            },
        },
    )

    # The one floor: what client-side batching buys a per-packet sender.
    for name, speedup in speedups.items():
        assert speedup >= FRAME_FLOOR, (
            f"{name}: {FLOOR_ROWS}-row frames "
            f"({pps[name, FLOOR_ROWS, heaviest]:.0f} pkt/s) are only "
            f"{speedup:.2f}x 1-row frames ({pps[name, 1, heaviest]:.0f} pkt/s) "
            f"at window {heaviest}; floor is {FRAME_FLOOR}x"
        )
