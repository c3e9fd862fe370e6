"""Overload control — adaptive admission holds the p99 SLO through a burst.

The serving stack's :class:`~repro.serving.control.OverloadController` exists
for one regime: offered load transiently exceeding engine capacity.  This
benchmark builds that regime deterministically — a paced engine whose
``classify_block`` costs ``PACKET_COST_US`` per packet fixes capacity at
``1e6 / PACKET_COST_US`` pps — and drives the same three open-loop phases at
a *static* server (a huge fixed admission budget, no controller) and an
*adaptive* one (packet-weighted budget + AIMD controller against
``SLO_P99_US``):

1. **steady** — 0.6x capacity; both servers must serve it without shedding.
2. **burst** — a square wave peaking at 2x capacity
   (:class:`~repro.workloads.loadgen.BurstProfile`).  The static server
   queues the excess, so its admitted p99 blows through the SLO by an order
   of magnitude; the adaptive server sheds at the budget and its admitted
   p99 stays at or under the SLO.
3. **recovery** — steady again; the adaptive server must return to
   SLO-compliant, (near-)shed-free service, proving backoff is not sticky.

Latency is measured from the *scheduled* arrival (coordinated-omission-safe)
and percentiles cover *admitted* traffic only — shedding is reported
separately, so a server cannot look fast by rejecting everything (an
all-shed window counts as a breach in the controller for the same reason).

CI floors (hardware-independent — both servers run the same paced engine):
the adaptive server's burst p99 ≤ SLO while the static server's burst p99
exceeds it; adaptive steady-state shedding stays ≈ 0.  Results land in the
shared BENCH schema (``benchmarks/results/overload_control.json`` plus the
``BENCH {...}`` stdout line).
"""

from __future__ import annotations

import asyncio
import time

from repro.engine import ClassificationEngine
from repro.serving import (
    AsyncServer,
    ControllerConfig,
    OverloadController,
)
from repro.workloads import BurstProfile, open_loop_load

from bench_helpers import report, report_json, ruleset
from repro.analysis import format_table

CLASSIFIER = "tm"
RULES = 1000

#: Engine pacing: 200us of service time per packet -> 5000 pps capacity.
PACKET_COST_US = 200.0
CAPACITY_PPS = 1e6 / PACKET_COST_US

#: The objective the adaptive server defends.
SLO_P99_US = 50_000.0

#: Offered load: steady at 0.6x capacity, bursts at 2x capacity.
STEADY_PPS = 0.6 * CAPACITY_PPS
BURST_PPS = 2.0 * CAPACITY_PPS
BURST_PERIOD_S = 0.6
BURST_DUTY = 0.5
PHASE_SECONDS = 1.2

#: Client shape: pre-formed binary batches (the production data plane).
CONNECTIONS = 4
WINDOW = 32
BATCH = 8

#: Admission budgets (packets).  The static server's budget is effectively
#: unbounded -- the pre-PR behaviour of the binary path.  The adaptive
#: server starts at a budget whose worst-case backlog (96 x 200us ~ 19ms)
#: sits under the SLO and lets the controller walk it from there.
STATIC_QUEUE = 200_000
ADAPTIVE_QUEUE = 96
CONTROL_WINDOW_S = 0.1


class PacedEngine:
    """Delegating engine whose columnar path costs a fixed time per packet.

    Pinning service time makes capacity exact and the benchmark's floors
    hardware-independent: both servers saturate at the same offered rate on
    any machine.
    """

    def __init__(self, inner, packet_cost_us: float):
        self._inner = inner
        self._packet_cost_s = packet_cost_us * 1e-6

    def classify_block(self, block):
        time.sleep(len(block) * self._packet_cost_s)
        return self._inner.classify_block(block)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _phase_packets(rules, seconds: float, mean_pps: float, seed: int):
    count = int(seconds * mean_pps)
    return [tuple(p) for p in rules.sample_packets(count, seed=seed)]


async def _run_phases(server_factory, rules):
    """One server, three phases; returns {phase: LoadReport}."""
    steady = _phase_packets(rules, PHASE_SECONDS, STEADY_PPS, seed=101)
    burst_profile = BurstProfile(
        STEADY_PPS, BURST_PPS, period_s=BURST_PERIOD_S, duty=BURST_DUTY
    )
    burst_mean = STEADY_PPS * (1 - BURST_DUTY) + BURST_PPS * BURST_DUTY
    burst = _phase_packets(rules, PHASE_SECONDS, burst_mean, seed=103)
    recovery = _phase_packets(rules, PHASE_SECONDS, STEADY_PPS, seed=107)

    reports = {}
    async with server_factory() as server:
        await server.start("127.0.0.1", 0)

        async def drive(packets, rate_pps=None, profile=None):
            return await open_loop_load(
                server.host,
                server.port,
                packets,
                connections=CONNECTIONS,
                window=WINDOW,
                batch=BATCH,
                rate_pps=rate_pps,
                profile=profile,
            )

        reports["steady"] = await drive(steady, rate_pps=STEADY_PPS)
        reports["burst"] = await drive(burst, profile=burst_profile)
        reports["recovery"] = await drive(recovery, rate_pps=STEADY_PPS)
        reports["server"] = server.statistics()["server"]
    return reports


def _shed_fraction(load) -> float:
    return load.overloaded / load.packets if load.packets else 0.0


def test_overload_control():
    rules = ruleset("acl1", RULES)
    inner = ClassificationEngine.build(rules, classifier=CLASSIFIER)
    engine = PacedEngine(inner, PACKET_COST_US)

    def static_server():
        return AsyncServer(engine, max_queue=STATIC_QUEUE)

    def adaptive_server():
        controller = OverloadController(
            # headroom 0.5: the budget stops growing once admitted p99
            # passes half the SLO, so one more multiplicative grow step
            # still lands the deadband well under the objective.
            ControllerConfig(
                slo_p99_us=SLO_P99_US,
                window_s=CONTROL_WINDOW_S,
                headroom=0.5,
            ),
            ADAPTIVE_QUEUE,
        )
        return AsyncServer(engine, max_queue=ADAPTIVE_QUEUE, controller=controller)

    static = asyncio.run(_run_phases(static_server, rules))
    adaptive = asyncio.run(_run_phases(adaptive_server, rules))
    inner.close()

    rows = []
    series = {}
    for mode, reports in (("static", static), ("adaptive", adaptive)):
        series[mode] = {
            phase: reports[phase].as_dict()
            for phase in ("steady", "burst", "recovery")
        }
        series[mode]["server"] = reports["server"]
        for phase in ("steady", "burst", "recovery"):
            load = reports[phase]
            rows.append(
                [
                    mode,
                    phase,
                    load.packets,
                    load.completed,
                    load.overloaded,
                    f"{_shed_fraction(load):.1%}",
                    round(load.latency_p50_us / 1e3, 1),
                    round(load.latency_p99_us / 1e3, 1),
                ]
            )

    text = format_table(
        ["server", "phase", "offered", "admitted", "shed", "shed %",
         "p50 ms", "p99 ms"],
        rows,
        title=(
            f"Overload control (capacity {CAPACITY_PPS:.0f} pps, SLO p99 "
            f"{SLO_P99_US / 1e3:.0f} ms, burst {BURST_PPS / CAPACITY_PPS:.0f}x "
            f"capacity)"
        ),
    )
    report("overload_control", text)

    controller_stats = adaptive["server"]["controller"]
    summary = {
        "slo_p99_us": SLO_P99_US,
        "capacity_pps": CAPACITY_PPS,
        "static_burst_p99_us": round(static["burst"].latency_p99_us, 1),
        "adaptive_burst_p99_us": round(adaptive["burst"].latency_p99_us, 1),
        "adaptive_recovery_p99_us": round(
            adaptive["recovery"].latency_p99_us, 1
        ),
        "static_burst_shed_fraction": round(_shed_fraction(static["burst"]), 4),
        "adaptive_burst_shed_fraction": round(
            _shed_fraction(adaptive["burst"]), 4
        ),
        "adaptive_steady_shed_fraction": round(
            _shed_fraction(adaptive["steady"]), 4
        ),
        "control_windows": controller_stats["windows"],
        "slo_breach_windows": controller_stats["breaches"],
    }
    report_json(
        "overload_control",
        config={
            "classifier": CLASSIFIER,
            "rules": RULES,
            "packet_cost_us": PACKET_COST_US,
            "slo_p99_us": SLO_P99_US,
            "steady_pps": STEADY_PPS,
            "burst_pps": BURST_PPS,
            "burst_period_s": BURST_PERIOD_S,
            "burst_duty": BURST_DUTY,
            "phase_seconds": PHASE_SECONDS,
            "connections": CONNECTIONS,
            "window": WINDOW,
            "batch": BATCH,
            "static_queue": STATIC_QUEUE,
            "adaptive_queue": ADAPTIVE_QUEUE,
            "control_window_s": CONTROL_WINDOW_S,
        },
        measured=series,
        summary=summary,
    )

    # Sanity: nothing errored, every offered packet was admitted or shed.
    for mode, reports in (("static", static), ("adaptive", adaptive)):
        for phase in ("steady", "burst", "recovery"):
            load = reports[phase]
            assert load.errors == 0, f"{mode}/{phase} saw errors"
            assert load.completed + load.overloaded == load.packets

    # Steady state (0.6x capacity) is comfortable for both servers.
    assert _shed_fraction(static["steady"]) == 0.0
    assert _shed_fraction(adaptive["steady"]) <= 0.02, (
        "adaptive server shed steady-state load it had capacity for"
    )
    assert adaptive["steady"].latency_p99_us <= SLO_P99_US

    # The 2x burst: the static server queues its way far past the SLO...
    assert static["burst"].latency_p99_us > SLO_P99_US, (
        f"static burst p99 {static['burst'].latency_p99_us:.0f}us did not "
        f"violate the {SLO_P99_US:.0f}us SLO -- burst is not overloading"
    )
    # ...while the adaptive server sheds the excess and holds the SLO for
    # the traffic it admits.
    assert adaptive["burst"].latency_p99_us <= SLO_P99_US, (
        f"adaptive burst p99 {adaptive['burst'].latency_p99_us:.0f}us "
        f"breached the {SLO_P99_US:.0f}us SLO"
    )
    assert _shed_fraction(adaptive["burst"]) > 0.0, (
        "adaptive server never shed during a 2x-capacity burst"
    )
    # And it recovers: post-burst service is SLO-compliant again.
    assert adaptive["recovery"].latency_p99_us <= SLO_P99_US
    assert _shed_fraction(adaptive["recovery"]) <= 0.05
    assert controller_stats["windows"] >= 3
