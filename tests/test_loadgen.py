"""Unit and integration tests for the open-loop load generator.

Covers the time-varying offered-rate profiles (ramp / burst schedules) and
pins the per-*packet* latency accounting of batched runs: ``completed``
counts packets, so percentiles must weight an N-packet batch N times.  The
percentile pin runs against a monkeypatched fake client so the latency mix
is exact and deterministic.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.engine import ClassificationEngine
from repro.rules import generate_classbench
from repro.serving import AsyncServer, ServerError
from repro.workloads import BurstProfile, RampProfile, open_loop_load
from repro.workloads import loadgen as loadgen_module

pytestmark = pytest.mark.timeout(120)


class TestRampProfile:
    def test_offsets_start_at_zero_and_gaps_shrink(self):
        offsets = RampProfile(100.0, 200.0).offsets(101)
        assert offsets[0] == 0.0
        gaps = np.diff(offsets)
        assert (gaps > 0).all()
        # Rate doubles across the run: first gap at 100pps, last near 200pps.
        assert gaps[0] == pytest.approx(1 / 100.0)
        assert gaps[-1] == pytest.approx(1 / 200.0, rel=0.02)
        assert (np.diff(gaps) < 0).all(), "ramp gaps must shrink monotonically"

    def test_flat_ramp_is_constant_rate(self):
        gaps = np.diff(RampProfile(500.0, 500.0).offsets(50))
        assert gaps == pytest.approx(np.full(49, 1 / 500.0))

    def test_degenerate_sizes(self):
        assert RampProfile(10.0, 20.0).offsets(0).shape == (0,)
        assert RampProfile(10.0, 20.0).offsets(1) == pytest.approx([0.0])

    @pytest.mark.parametrize("start,end", [(0.0, 10.0), (10.0, 0.0), (-1.0, 5.0)])
    def test_rejects_nonpositive_rates(self, start, end):
        with pytest.raises(ValueError, match="positive"):
            RampProfile(start, end)


class TestBurstProfile:
    def test_square_wave_alternates_between_both_rates(self):
        profile = BurstProfile(100.0, 1000.0, period_s=0.5, duty=0.2)
        offsets = profile.offsets(200)
        gaps = np.diff(offsets)
        burst_gaps = np.isclose(gaps, 1 / 1000.0)
        base_gaps = np.isclose(gaps, 1 / 100.0)
        # Every gap is one of the two rates, and both phases appear: the
        # schedule crosses burst→base and base→burst boundaries.
        assert (burst_gaps | base_gaps).all()
        assert burst_gaps.any() and base_gaps.any()
        # The first burst lasts duty*period = 0.1s at 1000pps = 100 packets.
        assert burst_gaps[:99].all()
        assert base_gaps[100:139].all()
        # After the base phase fills the period, the next burst opens.
        assert burst_gaps[140:199].any()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_pps": 0.0, "burst_pps": 10.0},
            {"base_pps": 10.0, "burst_pps": -1.0},
            {"base_pps": 10.0, "burst_pps": 20.0, "period_s": 0.0},
            {"base_pps": 10.0, "burst_pps": 20.0, "duty": 0.0},
            {"base_pps": 10.0, "burst_pps": 20.0, "duty": 1.0},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            BurstProfile(**kwargs)


class TestProfileValidation:
    def test_rate_and_profile_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            asyncio.run(
                open_loop_load(
                    "127.0.0.1",
                    1,
                    [(1, 1)],
                    rate_pps=100,
                    profile=RampProfile(10.0, 20.0),
                )
            )


class _FakeClient:
    """Stands in for AsyncClient: deterministic latency per packet value.

    Packets with first field < 32 take ``SLOW_S``; 32..39 take ``FAST_S``;
    >= 40 are shed with an ``overloaded`` error.  Frames act on their first
    row, so runs whose frame boundaries align with those bands behave
    identically packet-for-packet in batch=1 and batch>1 modes.
    """

    SLOW_S = 0.05
    FAST_S = 0.001

    @classmethod
    async def connect(cls, host, port):
        return cls()

    async def _respond(self, lead_value: int, count: int) -> list[dict]:
        if lead_value >= 40:
            raise ServerError("shed", code="overloaded")
        await asyncio.sleep(self.SLOW_S if lead_value < 32 else self.FAST_S)
        return [
            {"matched": False, "rule_id": None, "priority": None}
            for _ in range(count)
        ]

    async def classify_batch(self, group):
        return await self._respond(int(group[0][0]), len(group))

    async def stats(self):
        return {}

    async def close(self):
        pass

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc):
        await self.close()


class TestPerPacketLatencySamples:
    """Batched runs must record one latency sample per packet.

    32 slow packets arrive as one batch and 8 fast ones as another: the
    packet-weighted p50 is the slow latency.  Sampling once per *batch*
    (the old bug) would average the two batches and report ~half of it.
    """

    PACKETS = [(i, i) for i in range(40)]

    def _run(self, monkeypatch, batch):
        monkeypatch.setattr(loadgen_module, "AsyncClient", _FakeClient)
        return asyncio.run(
            open_loop_load(
                "127.0.0.1",
                1,
                self.PACKETS,
                connections=1,
                window=64,
                batch=batch,
            )
        )

    def test_batched_percentiles_match_per_packet_ground_truth(self, monkeypatch):
        batched = self._run(monkeypatch, batch=32)
        assert batched.completed == 40
        assert batched.latency_p50_us > 40_000, (
            "p50 must be the slow-batch latency: 32 of 40 packets are slow, "
            "so per-batch sampling (2 samples) is the only way to land lower"
        )

    def test_batch_modes_agree_on_percentiles_and_shed_counts(self, monkeypatch):
        single = self._run(monkeypatch, batch=1)
        batched = self._run(monkeypatch, batch=32)
        assert single.completed == batched.completed == 40
        assert single.latency_p50_us > 40_000
        assert batched.latency_p50_us == pytest.approx(
            single.latency_p50_us, rel=0.3
        )

    def test_sheds_are_counted_not_sampled(self, monkeypatch):
        monkeypatch.setattr(loadgen_module, "AsyncClient", _FakeClient)
        packets = [(i, i) for i in range(32, 48)]  # 8 fast, 8 shed
        reports = [
            asyncio.run(
                open_loop_load(
                    "127.0.0.1",
                    1,
                    packets,
                    connections=1,
                    window=32,
                    batch=batch,
                )
            )
            for batch in (1, 8)
        ]
        for report in reports:
            assert report.completed == 8
            assert report.overloaded == 8
            assert report.errors == 0
            # Sheds return instantly; admitted-only percentiles stay at the
            # fast service time instead of being dragged down toward zero.
            assert report.latency_p50_us > 500

    def test_oversized_last_batch_still_counts_every_packet(self, monkeypatch):
        monkeypatch.setattr(loadgen_module, "AsyncClient", _FakeClient)
        packets = [(i, i) for i in range(32, 39)]  # 7 fast packets, batch=4
        report = asyncio.run(
            open_loop_load(
                "127.0.0.1",
                1,
                packets,
                connections=1,
                window=8,
                batch=4,
            )
        )
        assert report.completed == 7


class TestProfileIntegration:
    def test_ramp_profile_drives_a_real_server(self):
        async def scenario():
            rules = generate_classbench("acl1", 60, seed=19)
            engine = ClassificationEngine.build(rules, classifier="tm")
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                packets = [tuple(p) for p in rules.sample_packets(120, seed=23)]
                report = await open_loop_load(
                    server.host,
                    server.port,
                    packets,
                    connections=2,
                    window=16,
                    profile=RampProfile(2000.0, 6000.0),
                )
            engine.close()
            assert report.completed == 120
            assert report.errors == 0
            assert report.profile == "ramp"
            # Mean offered rate sits between the ramp's endpoints.
            assert 2000.0 < report.offered_rate_pps < 6000.0
            assert report.as_dict()["profile"] == "ramp"

        asyncio.run(asyncio.wait_for(scenario(), timeout=60))

    def test_no_profile_reports_none(self):
        async def scenario():
            rules = generate_classbench("acl1", 40, seed=29)
            engine = ClassificationEngine.build(rules, classifier="tm")
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                packets = [tuple(p) for p in rules.sample_packets(20, seed=31)]
                report = await open_loop_load(
                    server.host, server.port, packets, connections=1
                )
            engine.close()
            assert report.profile is None and report.offered_rate_pps is None

        asyncio.run(asyncio.wait_for(scenario(), timeout=60))
