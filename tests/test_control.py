"""Deterministic unit tests for the overload-control policy.

Everything in :mod:`repro.serving.control` is a pure state machine over an
injectable clock, so every decision here is exact: budgets reject at
*exactly* the packet boundary, windows roll at *exactly* ``window_s``, an SLO
breach shrinks the admission limit by *exactly* ``backoff``, and a steady
in-deadband load produces *zero* limit changes (no oscillation).
The asyncio loop that applies these decisions is covered end-to-end in
``tests/test_async_server.py``.
"""

from __future__ import annotations

import pytest

from repro.serving.control import (
    CacheTuner,
    ControllerConfig,
    OverloadController,
    PacketBudget,
    QueueFullError,
)


class FakeClock:
    """A manually advanced monotonic clock (seconds, like time.monotonic)."""

    def __init__(self):
        self.us = 0.0

    def __call__(self) -> float:
        return self.us / 1e6

    def advance_us(self, us: float) -> None:
        self.us += us


# ---------------------------------------------------------------------------
# PacketBudget


class TestPacketWeightedAdmission:
    """``limit`` bounds *packets*, not requests: a frame costs its row count
    (a 10k-row batch cannot hide in one queue slot).  Moved here from the
    deleted ``tests/test_request_batcher.py``, against the budget directly."""

    def test_rejects_at_exactly_the_packet_boundary(self):
        budget = PacketBudget(10)
        budget.try_acquire(4)
        budget.try_acquire(6)  # exactly at capacity: admitted
        assert budget.in_flight == 10
        with pytest.raises(QueueFullError):
            budget.try_acquire(1)
        assert budget.stats.admitted == 2
        assert budget.stats.admitted_packets == 10
        assert budget.stats.rejected == 1
        assert budget.stats.rejected_packets == 1

    def test_oversized_request_admits_only_when_idle(self):
        """Progress guarantee: a request wider than the whole budget is
        admitted when nothing is in flight (otherwise it could never be
        served), but blocks everything else until it completes."""
        budget = PacketBudget(8)
        budget.try_acquire(1000)
        assert budget.in_flight == 1000
        with pytest.raises(QueueFullError):
            budget.try_acquire(1)
        budget.release(1000)
        budget.try_acquire(1)  # back to normal once the giant completes
        with pytest.raises(QueueFullError):
            budget.try_acquire(1000)  # not idle: the giant must wait its turn

    def test_shared_budget_couples_two_admission_points(self):
        """Two callers drawing on one budget (two connections' frames): load
        admitted by either sheds the other, and frees for either."""
        budget = PacketBudget(10)
        first, second = budget.try_acquire, budget.try_acquire
        first(8)
        second(2)
        with pytest.raises(QueueFullError):
            second(1)
        budget.release(8)  # the first caller's frame completes
        second(7)
        assert budget.in_flight == 9

    def test_limit_is_live(self):
        """What the overload controller does per window: a new ``limit``
        applies to the very next admission."""
        budget = PacketBudget(10)
        budget.limit = 4
        budget.try_acquire(4)
        with pytest.raises(QueueFullError):
            budget.try_acquire(1)
        budget.limit = 5
        budget.try_acquire(1)


class TestPacketBudget:
    def test_release_frees_capacity_and_clamps_at_zero(self):
        budget = PacketBudget(10)
        budget.try_acquire(10)
        budget.release(4)
        budget.try_acquire(4)
        assert budget.in_flight == 10
        budget.release(100)  # over-release clamps, never goes negative
        assert budget.in_flight == 0

    def test_shrinking_the_limit_below_in_flight_only_blocks_new_work(self):
        budget = PacketBudget(100)
        budget.try_acquire(60)
        budget.limit = 10  # the controller backing off mid-flight
        with pytest.raises(QueueFullError):
            budget.try_acquire(1)
        budget.release(60)
        budget.try_acquire(10)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_rejects_invalid_limit(self, limit):
        with pytest.raises(ValueError):
            PacketBudget(limit)

    def test_rejects_invalid_acquire(self):
        with pytest.raises(ValueError):
            PacketBudget(4).try_acquire(0)

    def test_as_dict_shape(self):
        payload = PacketBudget(4).as_dict()
        assert set(payload) == {
            "limit", "in_flight", "admitted", "admitted_packets",
            "rejected", "rejected_packets",
        }


# ---------------------------------------------------------------------------
# OverloadController


def make_controller(**overrides) -> tuple[OverloadController, FakeClock]:
    clock = FakeClock()
    config = dict(
        slo_p99_us=1_000.0, window_s=0.1, headroom=0.7,
        min_queue=64, max_queue=1 << 20, queue_growth=1.25, backoff=0.5,
    )
    config.update(overrides)
    controller = OverloadController(ControllerConfig(**config), 1024, clock=clock)
    return controller, clock


def roll(controller: OverloadController, clock: FakeClock) -> int:
    """Advance exactly one window and close it; returns the new limit."""
    clock.advance_us(controller.config.window_s * 1e6)
    limit = controller.maybe_roll()
    assert limit is not None
    return limit


class TestControllerWindows:
    def test_window_rolls_at_exactly_window_s(self):
        controller, clock = make_controller(window_s=0.1)
        assert controller.due_in() == pytest.approx(0.1)
        assert controller.maybe_roll() is None  # not due: window stays open
        clock.advance_us(99_999.0)
        assert controller.maybe_roll() is None
        clock.advance_us(1.0)  # exactly window_s
        assert controller.due_in() == 0.0
        assert controller.maybe_roll() is not None
        assert controller.windows == 1
        # The next window opens at the roll, not at the last observation.
        assert controller.due_in() == pytest.approx(0.1)

    def test_idle_window_holds(self):
        controller, clock = make_controller()
        assert roll(controller, clock) == 1024
        assert controller.holds == 1
        assert controller.last_window.decision == "hold"


class TestControllerPolicy:
    def test_slo_breach_shrinks_the_budget(self):
        controller, clock = make_controller(slo_p99_us=1_000.0, backoff=0.5)
        controller.observe_completion(5_000.0, packets=32)
        assert roll(controller, clock) == 512      # 1024 * 0.5
        assert controller.limit == 512
        assert controller.breaches == 1
        assert controller.last_window.decision == "breach"
        assert controller.last_window.p99_us > 1_000.0

    def test_headroom_without_sheds_leaves_the_budget_alone(self):
        controller, clock = make_controller(slo_p99_us=1_000.0, headroom=0.7)
        controller.observe_completion(100.0, packets=32)  # far under headroom
        assert roll(controller, clock) == 1024     # healthy and no sheds
        assert controller.grows == 1
        assert controller.last_window.decision == "grow"

    def test_deadband_between_headroom_and_slo_holds(self):
        controller, clock = make_controller(slo_p99_us=1_000.0, headroom=0.7)
        controller.observe_completion(800.0, packets=32)  # in (700, 1000)
        controller.observe_shed(500)  # even while shedding
        assert roll(controller, clock) == 1024
        assert controller.holds == 1

    def test_budget_grows_only_when_shedding_while_healthy(self):
        controller, clock = make_controller(queue_growth=1.25)
        controller.observe_completion(100.0, packets=32)
        controller.observe_shed(500)  # budget, not engine, is the bottleneck
        assert roll(controller, clock) == int(1024 * 1.25) + 1

    def test_total_shed_window_counts_as_breach(self):
        """Nothing completed but traffic was shed: the degenerate breach
        (there are no latency samples, yet the server is clearly drowning)."""
        controller, clock = make_controller()
        controller.observe_shed(100)
        assert roll(controller, clock) == 512
        assert controller.breaches == 1

    def test_percentiles_are_packet_weighted(self):
        """One slow 512-packet batch must dominate p99 over a few fast
        singles — and vice versa, one slow single packet among 512 fast
        ones must not trip the SLO."""
        slow_heavy, clock = make_controller(slo_p99_us=1_000.0)
        slow_heavy.observe_completion(20_000.0, packets=512)
        slow_heavy.observe_completion(100.0, packets=5)
        roll(slow_heavy, clock)
        assert slow_heavy.breaches == 1

        fast_heavy, clock = make_controller(slo_p99_us=1_000.0)
        fast_heavy.observe_completion(100.0, packets=512)
        fast_heavy.observe_completion(20_000.0, packets=1)
        roll(fast_heavy, clock)
        assert fast_heavy.breaches == 0
        assert fast_heavy.grows == 1

    def test_repeated_breaches_clamp_at_the_floor(self):
        controller, clock = make_controller(min_queue=64)
        for _ in range(50):
            controller.observe_completion(50_000.0, packets=16)
            roll(controller, clock)
        assert controller.limit == 64

    def test_repeated_growth_clamps_at_the_ceiling(self):
        controller, clock = make_controller(max_queue=2048)
        for _ in range(50):
            controller.observe_completion(50.0, packets=16)
            controller.observe_shed(1)
            roll(controller, clock)
        assert controller.limit == 2048


class TestControllerConvergence:
    def test_no_oscillation_on_a_step_load(self):
        """A step load that lands in the deadband after one backoff must
        converge: one breach, then the identical limit every window after."""
        controller, clock = make_controller(slo_p99_us=1_000.0, headroom=0.7)

        def service_p99(limit: int) -> float:
            # A synthetic server: latency scales with admitted backlog; at
            # the initial 1024 packets it breaches, at 512 it sits in the
            # deadband.
            return limit * 1.5

        history = []
        for _ in range(20):
            controller.observe_completion(service_p99(controller.limit), packets=64)
            history.append(roll(controller, clock))
        assert controller.breaches == 1           # the single step response
        assert set(history) == {512}              # then a fixed point
        assert controller.holds == 19

    def test_admission_budget_converges_after_shedding_stops(self):
        """Budget grows while healthy sheds persist, then freezes: growth is
        driven by sheds, so the fixed point is 'no sheds at low latency'."""
        controller, clock = make_controller()
        limits = []
        for window in range(12):
            controller.observe_completion(100.0, packets=32)
            if window < 4:  # sheds only in the first four windows
                controller.observe_shed(10)
            limits.append(roll(controller, clock))
        assert limits[0] < limits[1] < limits[2] < limits[3]  # growing
        assert len(set(limits[3:])) == 1          # frozen once sheds stop

    def test_decisions_and_limits_match_the_parent_commit(self):
        """The budget dial is the parent's, untouched by removing the batch
        and delay dials: for one observation script the (decision, limit)
        sequence equals what commit 4d46e0d produced as (decision,
        settings.max_queue) — recorded there, hard-coded here.  Each entry:
        completions [(latency_us, packets)], shed packets, occupancy."""
        script = [
            ([(300.0, 128), (450.0, 64)], 0, 192),    # healthy, no shed
            ([(200.0, 128)], 512, 1024),              # healthy + shed: grows
            ([(250.0, 256)], 128, 1281),
            ([(800.0, 128), (900.0, 128)], 0, 700),   # deadband
            ([(5000.0, 512), (100.0, 5)], 300, 1602),
            ([(20000.0, 1), (100.0, 512)], 0, 513),   # one slow single
            ([], 0, 0),                               # idle
            ([], 4096, 801),                          # all shed
            ([(1500.0, 64)], 64, 400),
            ([(1500.0, 64)], 0, 200),
            ([(1500.0, 64)], 0, 100),                 # reaches the floor
            ([(1500.0, 64)], 0, 64),                  # stays there
            ([(100.0, 64)], 640, 64),                 # recovers from it
            ([(699.9, 64)], 1, 81),                   # just under headroom
            ([(700.0, 64)], 1, 102),                  # exactly headroom
            ([(1000.0, 64)], 1, 102),                 # exactly the SLO
            ([(1000.1, 64)], 0, 102),                 # just over it
        ]
        recorded_at_parent = [
            ("grow", 1024), ("grow", 1281), ("grow", 1602), ("hold", 1602),
            ("breach", 801), ("grow", 801), ("hold", 801), ("breach", 400),
            ("breach", 200), ("breach", 100), ("breach", 64), ("breach", 64),
            ("grow", 81), ("grow", 102), ("hold", 102), ("hold", 102),
            ("breach", 64),
        ]
        controller, clock = make_controller()
        observed = []
        for completions, shed, occupancy in script:
            for latency_us, packets in completions:
                controller.observe_completion(latency_us, packets)
            controller.observe_shed(shed)
            controller.observe_queue(occupancy)
            limit = roll(controller, clock)
            observed.append((controller.last_window.decision, limit))
        assert observed == recorded_at_parent
        assert (controller.breaches, controller.grows, controller.holds) == (7, 6, 4)

    def test_as_dict_exposes_decisions(self):
        controller, clock = make_controller()
        controller.observe_completion(5_000.0, packets=4)
        controller.observe_queue(17)
        roll(controller, clock)
        payload = controller.as_dict()
        assert payload["windows"] == 1
        assert payload["breaches"] == 1
        assert payload["limit"] == 512
        assert payload["last_window"]["decision"] == "breach"
        assert payload["last_window"]["queue_peak"] == 17
        assert payload["last_window"]["completed_packets"] == 4


class TestControllerConfigValidation:
    @pytest.mark.parametrize("overrides", [
        {"slo_p99_us": 0.0},
        {"window_s": 0.0},
        {"headroom": 1.0},
        {"headroom": 0.0},
        {"min_queue": 0},
        {"min_queue": 1 << 21},       # above max_queue
        {"queue_growth": 1.0},
        {"backoff": 1.0},
        {"backoff": 0.0},
    ])
    def test_rejects_invalid_configuration(self, overrides):
        with pytest.raises(ValueError):
            make_controller(**overrides)

    def test_initial_limit_is_clamped_into_the_envelope(self):
        config = ControllerConfig(slo_p99_us=1_000.0, min_queue=256, max_queue=4096)
        assert OverloadController(config, 1).limit == 256
        assert OverloadController(config, 1 << 30).limit == 4096


# ---------------------------------------------------------------------------
# CacheTuner


class TestCacheTuner:
    def test_ignores_windows_with_too_few_probes(self):
        tuner = CacheTuner(min_probes=256)
        assert tuner.on_window(512, hits=10, misses=10) == 512
        assert tuner.resizes == 0

    def test_probes_double_while_marginal_gain_pays(self):
        tuner = CacheTuner(min_gain=0.02, min_probes=100)
        assert tuner.on_window(256, hits=500, misses=500) == 512   # probe up
        assert tuner.on_window(512, hits=600, misses=400) == 1024  # +0.10: pays
        assert tuner.on_window(1024, hits=700, misses=300) == 2048
        assert tuner.resizes == 3

    def test_unpaying_doubling_reverts_and_settles(self):
        tuner = CacheTuner(min_gain=0.02, min_probes=100)
        assert tuner.on_window(256, hits=500, misses=500) == 512
        # The doubling bought only +0.005 hit rate: undo it and settle.
        assert tuner.on_window(512, hits=505, misses=495) == 256
        assert tuner.on_window(256, hits=500, misses=500) == 256  # settled
        assert tuner.on_window(256, hits=510, misses=490) == 256
        assert tuner.as_dict()["mode"] == "settled"

    def test_hit_rate_collapse_reopens_probing(self):
        tuner = CacheTuner(min_gain=0.02, min_probes=100)
        tuner.on_window(256, hits=500, misses=500)
        tuner.on_window(512, hits=505, misses=495)   # settle back at 256
        # The workload shifted: the settled rate collapses, probing reopens.
        assert tuner.on_window(256, hits=200, misses=800) == 512
        assert tuner.as_dict()["mode"] == "probing"

    def test_capacity_never_exceeds_max(self):
        tuner = CacheTuner(max_capacity=512, min_probes=100)
        assert tuner.on_window(256, hits=500, misses=500) == 512
        # At the ceiling the gain paid, but there is nowhere left to grow.
        assert tuner.on_window(512, hits=900, misses=100) == 512
        assert tuner.as_dict()["mode"] == "settled"

    @pytest.mark.parametrize("kwargs", [
        {"min_capacity": 0},
        {"min_capacity": 2048, "max_capacity": 1024},
        {"min_gain": 0.0},
        {"min_gain": 1.0},
        {"min_probes": 0},
    ])
    def test_rejects_invalid_configuration(self, kwargs):
        with pytest.raises(ValueError):
            CacheTuner(**kwargs)
