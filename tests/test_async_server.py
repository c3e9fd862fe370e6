"""End-to-end tests for the asyncio serving front-end.

Extends the ``tests/test_replay_scenarios.py`` pattern over the wire: an
:class:`~repro.serving.server.AsyncServer` on an ephemeral port, concurrent
clients firing interleaved classify-batch frames and insert/remove ops, and
every response checked against :class:`LinearSearchClassifier`-style ground
truth over the rules live at that instant.  Every asyncio scenario is wrapped in a hard
``asyncio.wait_for`` deadline so a hung event loop fails the test instead of
stalling the whole run (CI additionally applies pytest-timeout).
"""

from __future__ import annotations

import asyncio
import itertools
import sys
import threading
import time

import pytest

from repro.engine import ClassificationEngine
from repro.rules import generate_classbench
from repro.rules.rule import Rule
from repro.serving import (
    AsyncClient,
    AsyncServer,
    CachedEngine,
    ControllerConfig,
    OverloadController,
    ServerError,
    ShardedEngine,
)
from repro.workloads import build_scenario_engine, make_trace

from repro.serving import wire

from _helpers import (
    RawPeer,
    block_keys,
    block_of,
    fast_nm_config,
    linear_keys,
    serve_packets,
)

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


def build_stack(ruleset, shards, cache_size, executor="serial"):
    return build_scenario_engine(
        ruleset,
        shards=shards,
        cache_size=cache_size,
        classifier="tm",
        executor=executor,
        background_retraining=False,
    )


class TestWireConformance:
    """The conformance contract, taken over the wire: on every stack the
    benchmark serves — plain, cached, sharded in-process, sharded over the
    shared-memory workers — frames of 128 rows and of 1 row carry exactly
    linear search over the rules live after acknowledged updates."""

    @pytest.mark.parametrize(
        "shards,cache_size,executor",
        [(1, 0, "serial"), (1, 256, "serial"), (2, 0, "serial"), (2, 256, "workers")],
        ids=["plain", "cached", "sharded-serial", "sharded-workers-cached"],
    )
    def test_served_frames_equal_linear_search(
        self, server_rules, shards, cache_size, executor
    ):
        async def scenario():
            engine = build_stack(server_rules, shards, cache_size, executor)
            packets = [tuple(p) for p in server_rules.sample_packets(128, seed=97)]
            try:
                async with AsyncServer(engine) as server:
                    await server.start("127.0.0.1", 0)
                    async with await AsyncClient.connect(
                        server.host, server.port
                    ) as client:
                        live = list(server_rules)
                        for step in range(3):
                            wide = await client.classify_batch(packets)
                            narrow = await asyncio.gather(
                                *map(client.classify, packets[:16])
                            )
                            expected = linear_keys(live, packets)
                            assert [response_key(r) for r in wide] == expected
                            assert [response_key(r) for r in narrow] == expected[:16]
                            # Pin a packet with a new best rule, drop an old
                            # winner; the next round must see both.
                            pin = Rule(
                                tuple((v, v) for v in packets[step]),
                                priority=0,
                                rule_id=800_000 + step,
                            )
                            await client.insert(pin)
                            live.append(pin)
                            loser = next(r["rule_id"] for r in wide if r["matched"])
                            assert await client.remove(loser)
                            live = [r for r in live if r.rule_id != loser]
            finally:
                engine.close()

        run_scenario_coro(scenario())


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
                async with AsyncServer(engine) as server:
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
                    frames = 0
                    for step, start in enumerate(range(0, len(packets), 60)):
                        burst = packets[start : start + 60]
                        # All clients fire concurrently: two send their share
                        # as one frame, two pipeline it as 1-row frames.
                        shares = [burst[i :: len(clients)] for i in range(4)]
                        answers = await asyncio.gather(
                            clients[0].classify_batch(shares[0]),
                            clients[1].classify_batch(shares[1]),
                            asyncio.gather(*map(clients[2].classify, shares[2])),
                            asyncio.gather(*map(clients[3].classify, shares[3])),
                        )
                        frames += 2 + len(shares[2]) + len(shares[3])
                        responses = [None] * len(burst)
                        for i, answer in enumerate(answers):
                            responses[i :: len(clients)] = answer
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
                    assert stats["server"]["binary_batches"] == frames
                    assert stats["server"]["budget"]["in_flight"] == 0
                    for client in clients:
                        await client.close()
            finally:
                engine.close()

        run_scenario_coro(scenario())

    def test_responses_bit_identical_to_direct_classify_batch(self, server_rules):
        """The served path returns exactly what engine.classify_batch returns
        for the same packets (same rule identity per packet); an empty batch
        is ``[]``, as it is in-process."""

        async def scenario():
            engine = ClassificationEngine.build(server_rules, classifier="tm")
            direct = engine.classify_batch(
                server_rules.sample_packets(80, seed=31)
            )
            packets = [tuple(p) for p in server_rules.sample_packets(80, seed=31)]
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    pipelined = await asyncio.gather(
                        *(client.classify(packet) for packet in packets)
                    )
                    one_frame = await client.classify_batch(packets)
                    assert await client.classify_batch([]) == []
            expected = [result_key(result.rule) for result in direct]
            assert [response_key(r) for r in pipelined] == expected
            assert [response_key(r) for r in one_frame] == expected

        run_scenario_coro(scenario())


class _SlowBlockEngine:
    """Delegating engine wrapper whose classify_block takes ``delay_s``.

    Slowing only the columnar path keeps control traffic (stats, updates)
    fast while binary classify batches pile up against the packet budget.
    ``fail_on`` makes any block with a row whose first value equals it raise
    instead — wherever that row sits in a coalesced block.  ``gate``, when
    given, holds every call until it is set.  ``blocks`` records the row
    count of each call.
    """

    def __init__(
        self,
        inner,
        delay_s: float,
        fail_on: int | None = None,
        gate: threading.Event | None = None,
    ):
        self._inner = inner
        self.delay_s = delay_s
        self.fail_on = fail_on
        self.gate = gate
        self.blocks: list[int] = []

    def classify_block(self, block):
        self.blocks.append(len(block))
        if self.gate is not None:
            assert self.gate.wait(timeout=SCENARIO_DEADLINE), "gate never opened"
        time.sleep(self.delay_s)
        if self.fail_on is not None and any(
            int(row[0]) == self.fail_on for row in block
        ):
            raise RuntimeError("engine exploded")
        return self._inner.classify_block(block)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestBackpressure:
    def test_overload_rejects_with_code_and_recovers(self, server_rules):
        async def scenario():
            inner = ClassificationEngine.build(server_rules, classifier="tm")
            # A budget of one packet behind a slow engine: of a pipelined
            # burst of 1-row frames the first is admitted, the ones that
            # arrive while it is in flight bounce.
            engine = _SlowBlockEngine(inner, delay_s=0.02)
            async with AsyncServer(engine, max_queue=1) as server:
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
                    assert len(rejected) + len(served) == len(outcomes)
                    assert rejected, "bounded budget never pushed back"
                    assert served, "backpressure starved every frame"
                    for packet, response in zip(packets, outcomes):
                        if isinstance(response, dict):
                            assert response_key(response) == result_key(
                                ground_truth(server_rules.rules, packet)
                            )
                    assert server.budget.stats.rejected == len(rejected)
                    # The server keeps serving correctly after shedding load.
                    again = await client.classify(packets[0])
                    assert response_key(again) == result_key(
                        ground_truth(server_rules.rules, packets[0])
                    )
                    # Rejected frames are not counted as served work.
                    assert server._requests_served == len(served) + 1
            inner.close()

        run_scenario_coro(scenario())


class TestBinaryAdmission:
    def test_binary_flood_sheds_with_overloaded_status(self, server_rules):
        """Binary classify batches charge the packet budget: a flood
        wider than the budget gets STATUS_OVERLOADED (surfaced as a
        ServerError with code 'overloaded') instead of queueing without
        bound — the admission hole the fast path used to have."""

        async def scenario():
            inner = ClassificationEngine.build(server_rules, classifier="tm")
            engine = _SlowBlockEngine(inner, delay_s=0.05)
            async with AsyncServer(engine, max_queue=48) as server:
                await server.start("127.0.0.1", 0)
                packets = [
                    tuple(p) for p in server_rules.sample_packets(32, seed=71)
                ]
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
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
                    # Sheds are packet-weighted in the budget's stats.
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


async def drain_responses(peer: RawPeer, expected: int) -> list:
    """Read binary responses until ``expected`` arrived or the server hung
    up, then prove nothing further comes: ``[(request_id, status, rows)]``."""
    responses = []
    while len(responses) < expected:
        frame = await peer.recv()
        if frame is None:
            return responses
        kind, (request_id, status, rule_ids, _priorities) = frame
        assert kind == "binary"
        responses.append((request_id, status, len(rule_ids)))
    try:
        extra = await peer.recv(timeout=0.2)
    except asyncio.TimeoutError:
        extra = None
    assert extra is None, f"a frame was answered twice: {extra}"
    return responses


class TestExactlyOnce:
    """Every frame put on the wire is answered exactly once — what the deleted
    ``RequestBatcher`` tests (``TestNoDropNoDouble``, ``TestAsyncDispatcher``)
    guaranteed for queued JSON requests, restated on the one surviving path.
    Frames are sent by hand so a duplicate response could not hide in
    ``AsyncClient``'s id matching."""

    @pytest.mark.parametrize("connections", [1, 3])
    def test_pipelined_frames_each_get_one_response(
        self, server_rules, connections
    ):
        async def scenario():
            inner = ClassificationEngine.build(server_rules, classifier="tm")
            engine = _SlowBlockEngine(inner, delay_s=0.001)
            packets = [tuple(p) for p in server_rules.sample_packets(7, seed=91)]
            frames = 40
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                peers = [
                    await RawPeer.open(server.host, server.port)
                    for _ in range(connections)
                ]

                async def drive(peer: RawPeer, base: int):
                    for index in range(frames):  # all in flight before any read
                        await peer.send_block(base + index, packets[: 1 + index % 7])
                    return await drain_responses(peer, frames)

                answered = await asyncio.gather(
                    *(drive(peer, 1000 * n) for n, peer in enumerate(peers))
                )
                for n, responses in enumerate(answered):
                    # Any order, but each id once, OK, with its own row count.
                    assert sorted(responses) == [
                        (1000 * n + index, wire.STATUS_OK, 1 + index % 7)
                        for index in range(frames)
                    ]
                assert server.budget.in_flight == 0
                assert server.budget.stats.admitted == frames * connections
                assert server._binary_batches == frames * connections
                for peer in peers:
                    await peer.close()
            inner.close()

        run_scenario_coro(scenario())

    def test_engine_failure_answers_only_that_frame_with_status_error(
        self, server_rules
    ):
        async def scenario():
            inner = ClassificationEngine.build(server_rules, classifier="tm")
            packets = [tuple(p) for p in server_rules.sample_packets(6, seed=93)]
            poison = (2**40 + 7,) + packets[0][1:]
            engine = _SlowBlockEngine(inner, delay_s=0.0, fail_on=poison[0])
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                peer = await RawPeer.open(server.host, server.port)
                for request_id in range(10):
                    rows = [poison] + packets if request_id == 4 else packets
                    await peer.send_block(request_id, rows)
                responses = await drain_responses(peer, 10)
                assert sorted(responses) == [
                    (request_id, wire.STATUS_ERROR, 0)
                    if request_id == 4
                    else (request_id, wire.STATUS_OK, len(packets))
                    for request_id in range(10)
                ]
                # The failed frame gave its budget back and is not "served".
                assert server.budget.in_flight == 0
                assert server.budget.stats.admitted == 10
                assert server._binary_batches == 9
                await peer.close()
            inner.close()

        run_scenario_coro(scenario())

    def test_stop_with_frames_in_flight_answers_or_disconnects_each(
        self, server_rules
    ):
        async def scenario():
            inner = ClassificationEngine.build(server_rules, classifier="tm")
            engine = _SlowBlockEngine(inner, delay_s=0.01)
            packets = [tuple(p) for p in server_rules.sample_packets(4, seed=95)]
            server = AsyncServer(engine)
            await server.start("127.0.0.1", 0)
            peer = await RawPeer.open(server.host, server.port)
            for request_id in range(30):
                await peer.send_block(request_id, packets)
            while server.budget.stats.admitted < 30:  # all reached the server
                await asyncio.sleep(0.005)
            await server.stop()  # bounded by the scenario deadline
            # stop() waited for every admitted frame: nothing holds budget.
            assert server.budget.in_flight == 0
            # Each frame was answered at most once before the clean hang-up.
            responses = await drain_responses(peer, 30)
            assert len({request_id for request_id, _, _ in responses}) == len(responses)
            assert all(status == wire.STATUS_OK for _, status, _ in responses)
            assert await peer.recv() is None  # then a clean EOF, not a reset
            await peer.close()
            inner.close()

        run_scenario_coro(scenario())


async def send_rows(peer: RawPeer, request_id: int, block) -> None:
    """Put an ``(n, fields)`` block on the wire as one frame (``n`` may be 0,
    which ``RawPeer.send_block``'s list of packets cannot express)."""
    wire.write_binary_frame(
        peer.writer, wire.encode_classify_request(request_id, block)
    )
    await peer.writer.drain()


async def read_answers(peer: RawPeer, expected: int) -> dict:
    """The next ``expected`` binary responses: ``{request_id: (status,
    keys)}`` with ``keys`` as :func:`block_keys` gives them."""
    answers = {}
    while len(answers) < expected:
        kind, (request_id, status, rule_ids, priorities) = await peer.recv()
        assert kind == "binary" and request_id not in answers
        answers[request_id] = (status, block_keys(rule_ids, priorities))
    return answers


async def wait_until(condition) -> None:
    while not condition():
        await asyncio.sleep(0.002)


class TestCoalescedBlocks:
    """Frames queued while the engine worker is busy run as one
    ``classify_block`` over their concatenated rows (ROADMAP 1c), and the
    answers are split back per frame.  A gated engine holds the first block
    so the rest are certainly queued behind it."""

    def test_queued_frames_share_one_block_and_split_back(self, server_rules):
        async def scenario():
            inner = ClassificationEngine.build(server_rules, classifier="tm")
            gate = threading.Event()
            engine = _SlowBlockEngine(inner, delay_s=0.0, gate=gate)
            block = block_of(server_rules.sample_packets(16, seed=97))
            # (request_id, first row, rows) per connection.  The 0-row frame
            # is answered ok with no rows, without admission or an engine
            # block, and must not disturb its neighbours.
            plans = [
                [(0, 0, 3), (1, 3, 0), (2, 3, 7), (3, 10, 1), (4, 11, 5)],
                [(10, 1, 6), (11, 7, 2), (12, 0, 16), (13, 9, 4)],
            ]
            frames = {
                request_id: block[first : first + rows]
                for plan in plans
                for request_id, first, rows in plan
            }
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                peers = [
                    await RawPeer.open(server.host, server.port) for _ in plans
                ]
                try:
                    await send_rows(peers[0], 0, frames[0])
                    await wait_until(lambda: engine.blocks)  # held at the gate
                    for peer, plan in zip(peers, plans):
                        for request_id, _, _ in plan:
                            if request_id != 0:
                                await send_rows(peer, request_id, frames[request_id])
                    admitted = sum(len(rows) > 0 for rows in frames.values())
                    await wait_until(
                        lambda: server.budget.stats.admitted == admitted
                    )
                finally:
                    gate.set()
                answers = [
                    await read_answers(peer, len(plan))
                    for peer, plan in zip(peers, plans)
                ]
                # Frame 0 alone, then every frame queued behind it as one.
                assert engine.blocks == [
                    3,
                    sum(len(rows) for rows in frames.values()) - 3,
                ]
                for by_id, plan in zip(answers, plans):
                    assert sorted(by_id) == [request_id for request_id, _, _ in plan]
                    for request_id, _, rows in plan:
                        expected = (
                            wire.STATUS_OK,
                            block_keys(*inner.classify_block(frames[request_id])),
                        )
                        assert by_id[request_id] == expected, request_id
                stats = server.statistics()["server"]
                assert stats["engine_blocks"] == 2
                assert stats["binary_batches"] == admitted
                assert stats["requests_served"] == len(frames)
                assert server.budget.in_flight == 0
                for peer in peers:
                    await peer.close()
            inner.close()

        run_scenario_coro(scenario())

    def test_a_poisoned_frame_mid_block_fails_alone(self, server_rules):
        async def scenario():
            inner = ClassificationEngine.build(server_rules, classifier="tm")
            packets = [tuple(p) for p in server_rules.sample_packets(6, seed=93)]
            poison = (2**40 + 7,) + packets[0][1:]
            gate = threading.Event()
            engine = _SlowBlockEngine(
                inner, delay_s=0.0, fail_on=poison[0], gate=gate
            )
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                peer = await RawPeer.open(server.host, server.port)
                try:
                    await peer.send_block(0, packets)
                    await wait_until(lambda: engine.blocks)  # held at the gate
                    for request_id in range(1, 10):
                        poisoned = packets[:3] + [poison] + packets[3:]
                        await peer.send_block(
                            request_id, poisoned if request_id == 5 else packets
                        )
                    await wait_until(lambda: server.budget.stats.admitted == 10)
                finally:
                    gate.set()
                responses = await drain_responses(peer, 10)
                assert sorted(responses) == [
                    (request_id, wire.STATUS_ERROR, 0)
                    if request_id == 5
                    else (request_id, wire.STATUS_OK, len(packets))
                    for request_id in range(10)
                ]
                # Frames 1-9 shared a block with the poisoned row in its
                # middle; it raised, so each of them re-ran alone.
                assert engine.blocks == [6, 9 * 6 + 1] + [6] * 4 + [7] + [6] * 4
                assert server.statistics()["server"]["engine_blocks"] == 11
                assert server.budget.in_flight == 0
                assert server.budget.stats.admitted == 10
                assert server._binary_batches == 9
                await peer.close()
            inner.close()

        run_scenario_coro(scenario())

    def test_hand_off_under_contention(self, server_rules):
        """More connections than cores pipeline frames of 1-9 rows while the
        interpreter switches threads every microsecond, so the event loop's
        appends and the worker's swaps of the queue interleave as finely as
        they can.  Every row is classified exactly once (a lost or doubled
        frame breaks the row count) and every frame gets its own answer."""

        async def scenario():
            inner = ClassificationEngine.build(server_rules, classifier="tm")
            engine = _SlowBlockEngine(inner, delay_s=0.0005)
            block = block_of(server_rules.sample_packets(16, seed=103))
            expected = block_keys(*inner.classify_block(block))
            connections, frames = 6, 40
            plans = [
                [(n * frames + i, (n + i) % 7, 1 + (n * 5 + i) % 9) for i in range(frames)]
                for n in range(connections)
            ]

            async def drive(peer: RawPeer, plan):
                for request_id, first, rows in plan:
                    await send_rows(peer, request_id, block[first : first + rows])
                return await read_answers(peer, len(plan))

            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                peers = [
                    await RawPeer.open(server.host, server.port)
                    for _ in range(connections)
                ]
                answers = await asyncio.gather(
                    *(drive(peer, plan) for peer, plan in zip(peers, plans))
                )
                stats = server.statistics()["server"]
                assert server.budget.in_flight == 0
                for peer in peers:
                    await peer.close()
            inner.close()
            for by_id, plan in zip(answers, plans):
                for request_id, first, rows in plan:
                    assert by_id[request_id] == (
                        wire.STATUS_OK,
                        expected[first : first + rows],
                    ), request_id
            total_frames = connections * frames
            assert sum(engine.blocks) == sum(
                rows for plan in plans for _, _, rows in plan
            )
            assert stats["binary_batches"] == total_frames
            assert stats["engine_blocks"] == len(engine.blocks) < total_frames

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_scenario_coro(scenario())
        finally:
            sys.setswitchinterval(interval)

    def test_frames_sent_after_an_ack_see_the_update(self, server_rules):
        """Eviction before ack across coalesced blocks.  A flow cache sits
        behind a gated engine; connection A has frames queued for the engine
        (their block not started yet) when connection B's update arrives.
        Every frame A sends after B's ack answers linear search over the
        updated rules, though frames sent before it may still be waiting.
        Were the ack sent before the update ran, those later frames would
        join the queued block that runs ahead of the update."""

        async def scenario():
            inner = ClassificationEngine.build(server_rules, classifier="tm")
            gate = threading.Event()
            gate.set()
            engine = _SlowBlockEngine(
                CachedEngine(inner, 256), delay_s=0.0, gate=gate
            )
            packets = [
                tuple(int(v) for v in p)
                for p in server_rules.sample_packets(8, seed=101)
            ]
            pin = Rule(tuple((v, v) for v in packets[0]), priority=0, rule_id=800_000)
            unpinned = linear_keys(server_rules.rules, packets)
            pinned = linear_keys(list(server_rules.rules) + [pin], packets)
            assert pinned != unpinned
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                peer = await RawPeer.open(server.host, server.port)
                updater = await AsyncClient.connect(server.host, server.port)
                try:
                    await peer.send_block(0, packets)  # fills the cache
                    assert await read_answers(peer, 1) == {
                        0: (wire.STATUS_OK, unpinned)
                    }
                    old, first = unpinned, 1
                    for update, new in (
                        (lambda: updater.insert(pin), pinned),
                        (lambda: updater.remove(pin.rule_id), unpinned),
                    ):
                        gate.clear()
                        held = len(engine.blocks) + 1
                        await peer.send_block(first, packets)
                        await wait_until(lambda: len(engine.blocks) == held)
                        for request_id in (first + 1, first + 2):
                            await peer.send_block(request_id, packets)
                        await wait_until(
                            lambda: server.budget.stats.admitted == first + 3
                        )
                        acked = asyncio.ensure_future(update())
                        # The ack can only come once the update ran, and the
                        # update runs behind the gate.
                        done, _ = await asyncio.wait({acked}, timeout=0.2)
                        if not done:
                            gate.set()
                            await acked
                        after_ack = range(first + 3, first + 6)
                        for request_id in after_ack:
                            await peer.send_block(request_id, packets)
                        await wait_until(
                            lambda: server.budget.stats.admitted == first + 6
                        )
                        gate.set()
                        answers = await read_answers(peer, 6)
                        for request_id, (status, keys) in answers.items():
                            assert status == wire.STATUS_OK
                            if request_id in after_ack:
                                assert keys == new, request_id
                            else:
                                assert keys in (old, new), request_id
                        old, first = new, first + 6
                finally:
                    gate.set()
                assert max(engine.blocks) > len(packets), "no frames coalesced"
                await updater.close()
                await peer.close()
            inner.close()

        run_scenario_coro(scenario())


class TestDataPathReadsNoRuleset:
    @pytest.mark.parametrize("cache_size", [0, 256])
    def test_binary_frames_never_read_sharded_ruleset(
        self, server_rules, cache_size, monkeypatch
    ):
        """``ShardedEngine.ruleset`` rebuilds and sorts the live rules on every
        read (milliseconds at 8k rules), so constructing the server and
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
    def test_ramp_adapts_budget_without_stale_matches(self, server_rules):
        """Under a ramp of growing bursts with interleaved updates, the
        controller (given an unmeetable SLO so every window breaches) shrinks
        the admission budget — and every admitted response still matches
        linear-search ground truth over the rules live at that instant."""

        async def scenario():
            engine = ClassificationEngine.build(server_rules, classifier="tm")
            controller = OverloadController(
                ControllerConfig(slo_p99_us=1.0, window_s=0.05), 4096
            )
            async with AsyncServer(
                engine, max_queue=4096, controller=controller
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
                        # Mutate the ruleset while the budget is moving.
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
                # Every completed window breached the 1us SLO, so the budget
                # must have walked down from its initial limit.
                assert server.budget.limit < 4096
                assert server_stats["max_queue"] == server.budget.limit
                assert control["limit"] == server.budget.limit
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
                    with pytest.raises(ServerError, match="v2") as excinfo:
                        await client.request("classify", packet=[1, 2, 3, 4, 5])
                    assert excinfo.value.code == "bad-request"
                    # Removing a missing rule is a successful op that reports
                    # removed=False.
                    assert await client.remove(10_000_000) is False
                    stats = await client.stats()
                    # Every stack takes updates; there is no flag to report.
                    assert "supports_updates" not in stats["server"]
                    assert stats["server"]["max_queue"] == server.budget.limit
                    assert stats["engine"]["name"] == "tm"

        run_scenario_coro(scenario())

    def test_stats_op_names_the_iset_kernel(self, server_rules, iset_kernel):
        """A NuevoMatch engine's ``stats`` say which iSet lookup serves it:
        the compiled kernel, or the numpy body where it cannot be built."""
        async def scenario():
            engine = ClassificationEngine.build(
                server_rules, classifier="nm", remainder_classifier="tm",
                config=fast_nm_config(),
            )
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    await client.classify_batch(server_rules.sample_packets(4, seed=1))
                    stats = await client.stats()
                    assert stats["engine"]["iset_kernel"] == iset_kernel

        run_scenario_coro(scenario())

    def test_hello_needs_a_protocols_list(self, server_rules):
        async def scenario():
            engine = ClassificationEngine.build(server_rules, classifier="tm")
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    for fields in ({}, {"protocols": "v2"}):
                        with pytest.raises(ServerError, match="protocols") as excinfo:
                            await client.request("hello", **fields)
                        assert excinfo.value.code == "bad-request"
                    granted = await client.request("hello", protocols=["v2", "v9"])
                    assert granted["protocols"] == ["v2"]
                    assert server._requests_served == 0  # hello is not work

        run_scenario_coro(scenario())

    def test_control_ops_charge_no_admission(self, server_rules):
        """docs/PROTOCOL.md: only classify-batch frames draw on the budget —
        a server shedding lookups still takes updates and answers stats."""

        async def scenario():
            inner = ClassificationEngine.build(server_rules, classifier="tm")
            engine = _SlowBlockEngine(inner, delay_s=0.2)
            packet = tuple(server_rules.sample_packets(1, seed=99)[0])
            async with AsyncServer(engine, max_queue=1) as server:
                await server.start("127.0.0.1", 0)
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    slow = asyncio.ensure_future(client.classify(packet))
                    while server.budget.in_flight == 0:
                        await asyncio.sleep(0.005)
                    with pytest.raises(ServerError) as excinfo:
                        await client.classify(packet)  # the budget is full
                    assert excinfo.value.code == "overloaded"
                    pin = Rule(
                        tuple((v, v) for v in packet), priority=0, rule_id=900_000
                    )
                    assert (await client.insert(pin))["ok"] is True
                    assert await client.remove(pin.rule_id) is True
                    budget = (await client.stats())["server"]["budget"]
                    assert (budget["admitted"], budget["rejected"]) == (1, 1)
                    assert (await slow)["matched"] is not None
            inner.close()

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

    def test_negative_priority_insert_is_a_bad_request(self, server_rules):
        """A priority the next rebuild would rewrite is refused at the one
        validation point; over the wire that is ``bad-request``, nothing is
        applied and the connection goes on working."""

        async def scenario():
            full = [[0, spec.max_value] for spec in server_rules.schema]
            with ShardedEngine.build(
                server_rules, shards=2, classifier="tm", executor="serial"
            ) as engine:
                async with AsyncServer(engine) as server:
                    await server.start("127.0.0.1", 0)
                    async with await AsyncClient.connect(
                        server.host, server.port
                    ) as client:
                        with pytest.raises(ServerError) as excinfo:
                            await client.request(
                                "insert", rule=[full, -1, "shadow", 610_000]
                            )
                        assert excinfo.value.code == "bad-request"
                        assert "negative priority" in str(excinfo.value)
                        stats = await client.stats()
                        assert stats["engine"]["updates"]["inserts_applied"] == 0
                        reply = await client.request(
                            "insert", rule=[full, 0, "shadow", 610_000]
                        )
                        assert reply["ok"] is True
                        stats = await client.stats()
                        assert stats["engine"]["updates"]["inserts_applied"] == 1

        run_scenario_coro(scenario())

    def test_insert_outside_the_order_key_range_is_a_bad_request(self, server_rules):
        """A priority of 2**31 - 1 or more, or an id of 2**32 or more, has no
        order key below ``NO_FLOOR``: ``bad-request``, and the engine answers
        exactly as before."""

        async def scenario():
            full = [[0, spec.max_value] for spec in server_rules.schema]
            engine = ClassificationEngine.build(server_rules, classifier="tm")
            packets = server_rules.sample_packets(32, seed=71)
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    before = await client.classify_batch(packets)
                    for priority, rule_id in ((2**31 - 1, 620_000), (0, 2**32)):
                        with pytest.raises(ServerError) as excinfo:
                            await client.request(
                                "insert", rule=[full, priority, "wide", rule_id]
                            )
                        assert excinfo.value.code == "bad-request"
                        assert "order key" in str(excinfo.value)
                    stats = await client.stats()
                    assert stats["engine"]["overlay_inserted"] == 0
                    assert stats["engine"]["live_rules"] == len(server_rules)
                    assert await client.classify_batch(packets) == before

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


class TestFrameAccounting:
    """The server counts one binary batch per frame and admits every row of
    it, whatever the frame width, a short tail frame or a frame wider than
    the whole trace; concurrent connections add up frame by frame, and every
    row still carries linear search."""

    @pytest.mark.parametrize(
        "shards,cache_size,connections,per_connection,batch",
        [
            (1, 0, 1, 60, 1),
            (1, 0, 1, 100, 8),
            (1, 0, 1, 128, 64),
            (1, 0, 1, 100, 100),
            (1, 0, 1, 100, 128),
            (1, 0, 2, 50, 8),
            (1, 0, 3, 200, 16),
            (1, 256, 1, 90, 1),
            (1, 256, 2, 37, 5),
            (2, 0, 2, 64, 7),
            (2, 256, 3, 16, 1),
            (2, 256, 1, 300, 128),
        ],
    )
    def test_every_frame_is_one_batch_and_every_row_is_answered(
        self, server_rules, shards, cache_size, connections, per_connection, batch
    ):
        async def send(host, port, packets):
            async with await AsyncClient.connect(host, port) as client:
                responses = []
                for start in range(0, len(packets), batch):
                    responses += await client.classify_batch(
                        packets[start : start + batch]
                    )
                return responses

        async def scenario():
            engine = build_stack(server_rules, shards, cache_size)
            trace = make_trace(
                "zipf", server_rules, connections * per_connection, seed=43, skew=95
            )
            packets = [tuple(int(v) for v in p) for p in trace]
            streams = [
                packets[i * per_connection : (i + 1) * per_connection]
                for i in range(connections)
            ]
            try:
                async with AsyncServer(engine) as server:
                    await server.start("127.0.0.1", 0)
                    answered = await asyncio.gather(
                        *(send(server.host, server.port, s) for s in streams)
                    )
                    stats = server.statistics()["server"]
            finally:
                engine.close()
            for stream, responses in zip(streams, answered):
                assert [response_key(r) for r in responses] == linear_keys(
                    server_rules, stream
                )
            frames = -(-per_connection // batch)
            assert stats["binary_batches"] == connections * frames
            assert stats["requests_served"] == connections * frames
            assert stats["budget"]["admitted_packets"] == len(packets)
            assert stats["budget"]["rejected_packets"] == 0

        run_scenario_coro(scenario())


class TestRunServer:
    def test_blocking_front_end_serves_until_shutdown(self, server_rules):
        """The CLI's engine room: run_server blocks a worker thread, serves
        real clients, and returns final statistics on shutdown."""
        engine = ClassificationEngine.build(server_rules, classifier="tm")
        holder: dict = {}
        ready_event = threading.Event()
        shutdown = asyncio.Event()  # binds to the server's loop when awaited

        def on_ready(server):
            holder["address"] = (server.host, server.port)
            holder["loop"] = asyncio.get_running_loop()
            ready_event.set()

        from repro.serving import run_server

        thread = threading.Thread(
            target=lambda: holder.__setitem__(
                "stats",
                run_server(
                    engine,
                    "127.0.0.1",
                    0,
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
        answered = serve_packets(host, port, packets)
        holder["loop"].call_soon_threadsafe(shutdown.set)
        thread.join(timeout=30)
        assert not thread.is_alive(), "run_server did not shut down"
        assert answered == 120
        stats = holder["stats"]["server"]
        assert stats["requests_served"] >= 120
        assert stats["binary_batches"] == 120   # 1-row frames
        assert stats["budget"]["admitted_packets"] == 120
        engine.close()
