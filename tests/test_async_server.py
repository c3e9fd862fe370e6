"""End-to-end tests for the asyncio serving front-end.

Extends the ``tests/test_replay_scenarios.py`` pattern over the wire: an
:class:`~repro.serving.server.AsyncServer` on an ephemeral port, concurrent
clients firing interleaved classify/insert/remove ops, and every response
checked against :class:`LinearSearchClassifier`-style ground truth over the
rules live at that instant.  Every asyncio scenario is wrapped in a hard
``asyncio.wait_for`` deadline so a hung event loop fails the test instead of
stalling the whole run (CI additionally applies pytest-timeout).
"""

from __future__ import annotations

import asyncio
import itertools

import pytest

from repro.engine import ClassificationEngine
from repro.rules import generate_classbench
from repro.rules.rule import Rule
from repro.serving import (
    AsyncClient,
    AsyncServer,
    CachedEngine,
    ControllerConfig,
    ControlSettings,
    OverloadController,
    ServerError,
    ShardedEngine,
)
from repro.workloads import build_scenario_engine, make_trace, open_loop_load

from _helpers import fast_nm_config

SCENARIO_DEADLINE = 120.0

pytestmark = pytest.mark.timeout(180)


def run_scenario_coro(coro):
    """Run an async test body under a hard deadline."""
    async def _guarded():
        await asyncio.wait_for(coro, timeout=SCENARIO_DEADLINE)

    asyncio.run(_guarded())


def ground_truth(rules, packet):
    """Linear search with the serving stack's total order (priority, rule_id)."""
    best = None
    for rule in rules:
        if rule.matches(packet) and (
            best is None
            or (rule.priority, rule.rule_id) < (best.priority, best.rule_id)
        ):
            best = rule
    return best


def result_key(rule):
    return None if rule is None else (rule.priority, rule.rule_id)


def response_key(response):
    return (response["priority"], response["rule_id"]) if response["matched"] else None


@pytest.fixture(scope="module")
def server_rules():
    return generate_classbench("acl1", 300, seed=17)


#: {plain, sharded} × {uncached, cached} engine stacks behind the server.
STACKS = list(itertools.product([1, 2], [0, 256]))


def build_stack(ruleset, shards, cache_size):
    return build_scenario_engine(
        ruleset,
        shards=shards,
        cache_size=cache_size,
        classifier="tm",
        executor="serial",
        background_retraining=False,
    )


class TestConcurrentClients:
    @pytest.mark.parametrize("shards,cache_size", STACKS)
    def test_concurrent_clients_with_interleaved_updates(
        self, server_rules, shards, cache_size
    ):
        """N clients classify zipf traffic in concurrent bursts while rules are
        inserted and removed between bursts; every response must equal linear
        search over the rules live at that moment."""

        async def scenario():
            engine = build_stack(server_rules, shards, cache_size)
            try:
                async with AsyncServer(
                    engine, max_batch=32, max_delay_us=500
                ) as server:
                    await server.start("127.0.0.1", 0)
                    clients = [
                        await AsyncClient.connect(server.host, server.port)
                        for _ in range(4)
                    ]
                    updater = clients[0]
                    live = {rule.rule_id: rule for rule in server_rules}
                    trace = make_trace(
                        "zipf", server_rules, 360, seed=29, skew=95
                    )
                    packets = [tuple(p) for p in trace]
                    next_id = 500_000
                    for step, start in enumerate(range(0, len(packets), 60)):
                        burst = packets[start : start + 60]
                        # All clients fire their shares concurrently: these
                        # requests coalesce into shared micro-batches.
                        responses = await asyncio.gather(
                            *(
                                clients[i % len(clients)].classify(packet)
                                for i, packet in enumerate(burst)
                            )
                        )
                        rules_now = list(live.values())
                        for packet, response in zip(burst, responses):
                            assert response_key(response) == result_key(
                                ground_truth(rules_now, packet)
                            ), f"stale/wrong match for {packet} at step {step}"
                        if step % 2 == 0:
                            # Pin this burst's first packet with a new winner.
                            rule = Rule(
                                tuple((v, v) for v in burst[0]),
                                priority=0,
                                rule_id=next_id,
                            )
                            await updater.insert(rule)
                            live[rule.rule_id] = rule
                            next_id += 1
                        else:
                            winner = next(
                                (r for r in responses if r["matched"]), None
                            )
                            if winner is not None:
                                assert await updater.remove(winner["rule_id"])
                                del live[winner["rule_id"]]
                    stats = await updater.stats()
                    assert stats["server"]["batcher"]["mean_batch_size"] > 1.0
                    for client in clients:
                        await client.close()
            finally:
                engine.close()

        run_scenario_coro(scenario())

    def test_responses_bit_identical_to_direct_classify_batch(self, server_rules):
        """The served path returns exactly what engine.classify_batch returns
        for the same packets (same rule identity per packet)."""

        async def scenario():
            engine = ClassificationEngine.build(server_rules, classifier="tm")
            direct = engine.classify_batch(
                server_rules.sample_packets(80, seed=31)
            )
            packets = [tuple(p) for p in server_rules.sample_packets(80, seed=31)]
            async with AsyncServer(engine, max_batch=16) as server:
                await server.start("127.0.0.1", 0)
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    served = await asyncio.gather(
                        *(client.classify(packet) for packet in packets)
                    )
            assert [response_key(r) for r in served] == [
                result_key(result.rule) for result in direct
            ]

        run_scenario_coro(scenario())


class TestBackpressure:
    def test_overload_rejects_with_code_and_recovers(self, server_rules):
        async def scenario():
            engine = ClassificationEngine.build(server_rules, classifier="tm")
            # A queue of 1 and a delay far longer than the burst: exactly one
            # request is accepted per dispatch cycle, the rest bounce.
            async with AsyncServer(
                engine, max_batch=64, max_delay_us=200_000, max_queue=1
            ) as server:
                await server.start("127.0.0.1", 0)
                packets = [tuple(p) for p in server_rules.sample_packets(20, seed=37)]
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    outcomes = await asyncio.gather(
                        *(client.classify(packet) for packet in packets),
                        return_exceptions=True,
                    )
                    rejected = [
                        exc
                        for exc in outcomes
                        if isinstance(exc, ServerError) and exc.code == "overloaded"
                    ]
                    served = [o for o in outcomes if isinstance(o, dict)]
                    unexpected = [
                        o
                        for o in outcomes
                        if not isinstance(o, dict)
                        and not (
                            isinstance(o, ServerError) and o.code == "overloaded"
                        )
                    ]
                    assert unexpected == []
                    assert rejected, "bounded queue never pushed back"
                    assert served, "backpressure starved every request"
                    for packet, response in zip(packets, outcomes):
                        if isinstance(response, dict):
                            assert response_key(response) == result_key(
                                ground_truth(server_rules.rules, packet)
                            )
                    assert server.batcher.stats.rejected == len(rejected)
                    # The server keeps serving correctly after shedding load.
                    again = await client.classify(packets[0])
                    assert response_key(again) == result_key(
                        ground_truth(server_rules.rules, packets[0])
                    )
                    # Rejected requests are not counted as served work.
                    assert server._requests_served == len(served) + 1

        run_scenario_coro(scenario())


class _SlowBlockEngine:
    """Delegating engine wrapper whose classify_block takes ``delay_s``.

    Slowing only the columnar path keeps control traffic (stats, updates)
    fast while binary classify batches pile up against the packet budget.
    """

    def __init__(self, inner, delay_s: float):
        self._inner = inner
        self.delay_s = delay_s

    def classify_block(self, block):
        import time

        time.sleep(self.delay_s)
        return self._inner.classify_block(block)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestBinaryAdmission:
    def test_binary_flood_sheds_with_overloaded_status(self, server_rules):
        """Binary classify batches charge the shared packet budget: a flood
        wider than the budget gets STATUS_OVERLOADED (surfaced as a
        ServerError with code 'overloaded') instead of queueing without
        bound — the admission hole the fast path used to have."""

        async def scenario():
            inner = ClassificationEngine.build(server_rules, classifier="tm")
            engine = _SlowBlockEngine(inner, delay_s=0.05)
            async with AsyncServer(
                engine, max_batch=64, max_delay_us=100, max_queue=48
            ) as server:
                await server.start("127.0.0.1", 0)
                packets = [
                    tuple(p) for p in server_rules.sample_packets(32, seed=71)
                ]
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    assert client.wire_v2, "flood must ride the binary path"
                    outcomes = await asyncio.gather(
                        *(client.classify_batch(packets) for _ in range(8)),
                        return_exceptions=True,
                    )
                    served = [o for o in outcomes if isinstance(o, list)]
                    shed = [
                        o
                        for o in outcomes
                        if isinstance(o, ServerError) and o.code == "overloaded"
                    ]
                    unexpected = [
                        o
                        for o in outcomes
                        if o not in served and o not in shed
                    ]
                    assert unexpected == []
                    assert served, "admission starved every binary batch"
                    assert shed, "binary flood never hit the packet budget"
                    for responses in served:
                        assert len(responses) == len(packets)
                        for packet, response in zip(packets, responses):
                            assert response_key(response) == result_key(
                                ground_truth(server_rules.rules, packet)
                            )
                    # Sheds are packet-weighted in the shared budget's stats.
                    assert server.budget.stats.rejected == len(shed)
                    assert (
                        server.budget.stats.rejected_packets
                        == len(shed) * len(packets)
                    )
                    # The server recovers once the flood drains.
                    again = await client.classify_batch(packets[:4])
                    assert len(again) == 4
                    stats = server.statistics()["server"]
                    assert stats["adaptive"] is False
                    assert stats["controller"] is None
                    assert (
                        stats["budget"]["rejected_packets"]
                        == server.budget.stats.rejected_packets
                    )
            inner.close()

        run_scenario_coro(scenario())


class TestDataPathReadsNoRuleset:
    @pytest.mark.xfail(
        strict=True,
        reason="open bug, fix held back: `_serve_binary` still reads "
        "`engine.ruleset` per frame (one-line fix: `len(engine.schema)` at "
        "construction); it moves update_churn pps ~20x, so it needs a PR that "
        "claims the gain -- CHANGES.md, PR 12",
    )
    @pytest.mark.parametrize("cache_size", [0, 256])
    def test_binary_frames_never_read_sharded_ruleset(
        self, server_rules, cache_size, monkeypatch
    ):
        """``ShardedEngine.ruleset`` rebuilds and sorts the live rules on every
        read (tens of ms at 8k rules) and the server reads it per binary frame,
        on the event-loop thread.  The target: constructing the server and
        serving frames read it zero times — the field count comes from the
        stack's ``schema``, once."""
        reads = []
        real = ShardedEngine.ruleset.fget
        monkeypatch.setattr(
            ShardedEngine,
            "ruleset",
            property(lambda self: reads.append(1) or real(self)),
        )

        async def scenario():
            engine = build_stack(server_rules, shards=2, cache_size=cache_size)
            try:
                async with AsyncServer(engine) as server:
                    await server.start("127.0.0.1", 0)
                    packets = [
                        tuple(p) for p in server_rules.sample_packets(32, seed=83)
                    ]
                    async with await AsyncClient.connect(
                        server.host, server.port
                    ) as client:
                        assert client.wire_v2
                        for _ in range(8):
                            responses = await client.classify_batch(packets)
                            assert [response_key(r) for r in responses] == [
                                result_key(ground_truth(server_rules.rules, p))
                                for p in packets
                            ]
                        # A frame of the wrong width is still rejected.
                        with pytest.raises(ServerError):
                            await client.classify_batch([(1, 2, 3)])
                    assert server._binary_batches == 8
            finally:
                engine.close()

        run_scenario_coro(scenario())
        assert reads == []


class TestAdaptiveServer:
    def test_ramp_adapts_dials_without_stale_matches(self, server_rules):
        """Under a ramp of growing bursts with interleaved updates, the
        controller (given an unmeetable SLO so every window breaches) shrinks
        the batching dials — and every admitted response still matches
        linear-search ground truth over the rules live at that instant."""

        async def scenario():
            engine = ClassificationEngine.build(server_rules, classifier="tm")
            controller = OverloadController(
                ControllerConfig(slo_p99_us=1.0, window_s=0.05),
                ControlSettings(
                    max_batch=128, max_delay_us=400.0, max_queue=4096
                ),
            )
            async with AsyncServer(
                engine,
                max_batch=128,
                max_delay_us=400,
                max_queue=4096,
                controller=controller,
            ) as server:
                await server.start("127.0.0.1", 0)
                trace = make_trace("zipf", server_rules, 360, seed=73, skew=90)
                packets = [tuple(p) for p in trace]
                live = {rule.rule_id: rule for rule in server_rules}
                next_id = 700_000
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    cursor = 0
                    for step, burst_size in enumerate(
                        [10, 20, 30, 40, 60, 80, 120]
                    ):
                        burst = packets[cursor : cursor + burst_size]
                        cursor += burst_size
                        outcomes = await asyncio.gather(
                            *(client.classify(packet) for packet in burst),
                            return_exceptions=True,
                        )
                        rules_now = list(live.values())
                        for packet, outcome in zip(burst, outcomes):
                            if isinstance(outcome, ServerError):
                                assert outcome.code == "overloaded"
                                continue
                            assert response_key(outcome) == result_key(
                                ground_truth(rules_now, packet)
                            ), f"stale/wrong match for {packet} at step {step}"
                        # Mutate the ruleset while the dials are moving.
                        rule = Rule(
                            tuple((v, v) for v in burst[0]),
                            priority=0,
                            rule_id=next_id,
                        )
                        await client.insert(rule)
                        live[rule.rule_id] = rule
                        next_id += 1
                        # Let at least one control window close per step.
                        await asyncio.sleep(0.06)
                    stats = await client.stats()
                server_stats = stats["server"]
                assert server_stats["adaptive"] is True
                control = server_stats["controller"]
                assert control["windows"] >= 3
                assert control["breaches"] >= 1
                # Every completed window breached the 1us SLO, so the dials
                # must have walked down from their initial settings.
                assert server.batcher.max_batch < 128
                assert server.batcher.max_delay_us < 400.0
                assert server_stats["max_batch"] == server.batcher.max_batch
                assert control["settings"]["max_batch"] == server.batcher.max_batch
            engine.close()

        run_scenario_coro(scenario())


class TestProtocol:
    def test_error_responses_and_stats_op(self, server_rules):
        async def scenario():
            engine = ClassificationEngine.build(server_rules, classifier="tm")
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    with pytest.raises(ServerError) as excinfo:
                        await client.request("frobnicate")
                    assert excinfo.value.code == "bad-request"
                    with pytest.raises(ServerError):
                        await client.request("classify")  # missing packet
                    # Removing a missing rule is a successful op that reports
                    # removed=False.
                    assert await client.remove(10_000_000) is False
                    stats = await client.stats()
                    # Every stack takes updates; there is no flag to report.
                    assert "supports_updates" not in stats["server"]
                    assert stats["server"]["max_batch"] == server.batcher.max_batch
                    assert stats["engine"]["name"] == "tm"

        run_scenario_coro(scenario())

    def test_single_shard_nm_server_takes_inserts_and_rejects_malformed_ones(
        self, server_rules
    ):
        """What ``repro serve RULES --listen`` builds by default — a plain
        NuevoMatch engine — answers ``insert`` with ``ok`` (``bad-request`` at
        the parent commit); a rule outside the schema is ``bad-request`` and
        changes nothing."""

        async def scenario():
            engine = ClassificationEngine.build(
                server_rules,
                classifier="nm",
                remainder_classifier="tm",
                config=fast_nm_config(),
            )
            packet = tuple(server_rules.sample_packets(1, seed=67)[0])
            full = [[0, spec.max_value] for spec in server_rules.schema]
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    for ranges in ([[0, 10], [0, 10]], [[0, 2**40]] + full[1:]):
                        with pytest.raises(ServerError) as excinfo:
                            await client.request(
                                "insert", rule=[ranges, 0, "bad", 600_000]
                            )
                        assert excinfo.value.code == "bad-request"
                    stats = await client.stats()
                    assert stats["engine"]["overlay_inserted"] == 0
                    assert stats["engine"]["live_rules"] == len(server_rules)
                    pin = Rule(
                        tuple((v, v) for v in packet), priority=0, rule_id=600_001
                    )
                    assert (await client.insert(pin))["ok"] is True
                    assert (await client.classify(packet))["rule_id"] == 600_001
                    assert await client.remove(600_001) is True
                    assert (await client.classify(packet))["rule_id"] != 600_001

        run_scenario_coro(scenario())

    def test_stop_completes_with_idle_client_still_connected(self, server_rules):
        """An idle but connected client must not wedge shutdown (Python 3.12+
        makes Server.wait_closed wait for handlers, which only finish on
        client EOF — the server closes lingering connections itself), and a
        request against the stopped server fails fast instead of hanging."""

        async def scenario():
            engine = ClassificationEngine.build(server_rules, classifier="tm")
            server = AsyncServer(engine)
            await server.start("127.0.0.1", 0)
            client = await AsyncClient.connect(server.host, server.port)
            packet = tuple(server_rules.sample_packets(1, seed=61)[0])
            await client.classify(packet)
            await asyncio.wait_for(server.stop(), timeout=10)
            with pytest.raises((ConnectionError, ServerError, RuntimeError)):
                await asyncio.wait_for(client.classify(packet), timeout=10)
            await client.close()

        run_scenario_coro(scenario())

    def test_sharded_cached_stack_reports_its_stats(self, server_rules):
        async def scenario():
            sharded = ShardedEngine.build(
                server_rules,
                shards=2,
                classifier="tm",
                executor="serial",
                background_retraining=False,
            )
            engine = CachedEngine(sharded, capacity=128)
            try:
                async with AsyncServer(engine) as server:
                    await server.start("127.0.0.1", 0)
                    async with await AsyncClient.connect(
                        server.host, server.port
                    ) as client:
                        packet = tuple(server_rules.sample_packets(1, seed=41)[0])
                        await client.classify(packet)
                        await client.classify(packet)  # second hits the cache
                        stats = await client.stats()
                        assert stats["engine"]["name"] == "cached"
                        assert stats["engine"]["cache"]["hits"] >= 1
                        assert stats["engine"]["engine"]["num_shards"] == 2
            finally:
                engine.close()

        run_scenario_coro(scenario())


class TestRunServer:
    def test_blocking_front_end_serves_until_shutdown(self, server_rules):
        """The CLI's engine room: run_server blocks a worker thread, serves
        real clients, and returns final statistics on shutdown."""
        import threading

        engine = ClassificationEngine.build(server_rules, classifier="tm")
        holder: dict = {}
        ready_event = threading.Event()
        shutdown = asyncio.Event()  # binds to the server's loop when awaited

        def on_ready(server):
            holder["address"] = (server.host, server.port)
            holder["loop"] = asyncio.get_running_loop()
            ready_event.set()

        from repro.serving import run_server
        from repro.workloads import run_load

        thread = threading.Thread(
            target=lambda: holder.__setitem__(
                "stats",
                run_server(
                    engine,
                    "127.0.0.1",
                    0,
                    max_batch=32,
                    max_delay_us=200,
                    ready=on_ready,
                    shutdown=shutdown,
                ),
            ),
            daemon=True,
        )
        thread.start()
        assert ready_event.wait(timeout=15), "server never became ready"
        host, port = holder["address"]
        packets = [tuple(p) for p in server_rules.sample_packets(120, seed=53)]
        report = run_load(host, port, packets, connections=2, window=16)
        holder["loop"].call_soon_threadsafe(shutdown.set)
        thread.join(timeout=30)
        assert not thread.is_alive(), "run_server did not shut down"
        assert report.completed == 120 and report.errors == 0
        stats = holder["stats"]["server"]
        assert stats["requests_served"] >= 120
        assert stats["batcher"]["batches"] >= 1
        engine.close()


class TestOpenLoopLoadGenerator:
    def test_open_loop_load_reports_and_coalesces(self, server_rules):
        async def scenario():
            engine = ClassificationEngine.build(server_rules, classifier="tm")
            trace = make_trace("zipf", server_rules, 600, seed=43, skew=95)
            async with AsyncServer(
                engine, max_batch=64, max_delay_us=200
            ) as server:
                await server.start("127.0.0.1", 0)
                report = await open_loop_load(
                    server.host,
                    server.port,
                    list(trace),
                    connections=3,
                    window=16,
                )
            assert report.packets == 600
            assert report.completed == 600
            assert report.errors == 0 and report.overloaded == 0
            assert report.throughput_rps > 0
            assert report.latency_p99_us >= report.latency_p50_us > 0
            # Concurrent connections must actually coalesce.
            assert report.mean_batch_size > 1.0
            payload = report.as_dict()
            assert payload["mean_batch_size"] == pytest.approx(
                report.mean_batch_size, abs=1e-3
            )

        run_scenario_coro(scenario())

    def test_batched_load_rides_wire_v2_with_json_pin(self, server_rules):
        async def scenario():
            engine = ClassificationEngine.build(server_rules, classifier="tm")
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                packets = [
                    tuple(p) for p in server_rules.sample_packets(96, seed=48)
                ]
                batched = await open_loop_load(
                    server.host, server.port, packets, connections=2, batch=8
                )
                pinned = await open_loop_load(
                    server.host,
                    server.port,
                    packets,
                    connections=2,
                    batch=8,
                    protocol="json",
                )
            assert batched.protocol == "v2" and batched.batch == 8
            assert pinned.protocol == "json"
            for report in (batched, pinned):
                assert report.completed == 96
                assert report.errors == 0
                assert report.matched == batched.matched
            assert batched.server["server"]["binary_batches"] >= 96 // 8
            with pytest.raises(ValueError, match="batch"):
                await open_loop_load(server.host, server.port, packets, batch=0)
            with pytest.raises(ValueError, match="protocol"):
                await open_loop_load(
                    server.host, server.port, packets, protocol="v3"
                )

        run_scenario_coro(scenario())

    def test_rate_limited_load_respects_offered_rate(self, server_rules):
        async def scenario():
            engine = ClassificationEngine.build(server_rules, classifier="tm")
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                packets = [
                    tuple(p) for p in server_rules.sample_packets(200, seed=47)
                ]
                report = await open_loop_load(
                    server.host,
                    server.port,
                    packets,
                    connections=2,
                    window=8,
                    rate_pps=4000,
                )
            assert report.completed == 200
            # Open-loop pacing: the run cannot finish faster than the offered
            # rate allows (allowing generous scheduler slack).
            assert report.throughput_rps <= 4000 * 1.5

        run_scenario_coro(scenario())
