"""Tests for wire protocol v2: codecs, negotiation, what each vintage of
client sees, and the served-equals-direct property.

The codec tests are pure (no sockets).  The end-to-end tests drive a live
:class:`AsyncServer`; the compatibility tests speak frames by hand
(``_helpers.RawPeer``) so they pin what docs/PROTOCOL.md promises a pre-v2
client (``bad-request`` for a JSON ``classify``), a v2 client, and a client
from a later version (an empty grant) — and that :class:`AsyncClient` fails
loudly rather than degrading when ``"v2"`` is not granted.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ClassificationEngine
from repro.rules.rule import Rule, RuleSet
from repro.serving import AsyncClient, AsyncServer, ServerError
from repro.serving import wire

from _helpers import RawPeer, block_keys, block_of

VALUES = st.integers(min_value=0, max_value=7)
PACKETS = st.tuples(VALUES, VALUES, VALUES, VALUES, VALUES)
RANGES = st.tuples(
    *[st.tuples(VALUES, VALUES).map(lambda pair: tuple(sorted(pair)))] * 5
)

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
I64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)

SCENARIO_DEADLINE = 60.0


class TestCodecs:
    @settings(max_examples=50)
    @given(
        request_id=U64,
        rows=st.lists(
            st.lists(U64, min_size=1, max_size=8), min_size=1, max_size=20
        ).filter(lambda rows: len({len(row) for row in rows}) == 1),
    )
    def test_request_round_trip(self, request_id, rows):
        block = np.array(rows, dtype=np.uint64)
        payload = wire.encode_classify_request(request_id, block)
        decoded_id, decoded = wire.decode_classify_request(payload)
        assert decoded_id == request_id
        np.testing.assert_array_equal(decoded, block)

    @settings(max_examples=50)
    @given(
        request_id=U64,
        pairs=st.lists(st.tuples(I64, I64), min_size=0, max_size=20),
    )
    def test_response_round_trip(self, request_id, pairs):
        rule_ids = np.array([p[0] for p in pairs], dtype=np.int64)
        priorities = np.array([p[1] for p in pairs], dtype=np.int64)
        payload = wire.encode_classify_response(request_id, rule_ids, priorities)
        decoded_id, status, decoded_ids, decoded_pris = (
            wire.decode_classify_response(payload)
        )
        assert decoded_id == request_id
        assert status == wire.STATUS_OK
        np.testing.assert_array_equal(decoded_ids, rule_ids)
        np.testing.assert_array_equal(decoded_pris, priorities)

    def test_error_response_round_trip(self):
        payload = wire.encode_error_response(9, wire.STATUS_OVERLOADED)
        request_id, status, rule_ids, priorities = wire.decode_classify_response(
            payload
        )
        assert (request_id, status) == (9, wire.STATUS_OVERLOADED)
        assert len(rule_ids) == 0 and len(priorities) == 0
        with pytest.raises(ValueError, match="non-OK"):
            wire.encode_error_response(9, wire.STATUS_OK)

    def test_decode_rejects_malformed_payloads(self):
        good = wire.encode_classify_request(1, np.ones((2, 5), dtype=np.uint64))
        with pytest.raises(wire.WireError, match="shorter"):
            wire.decode_classify_request(good[:4])
        with pytest.raises(wire.WireError, match="length"):
            wire.decode_classify_request(good + b"\x00" * 8)
        with pytest.raises(wire.WireError, match="unknown binary request op"):
            wire.decode_classify_request(b"\x7f" + good[1:])
        response = wire.encode_classify_response(
            1, np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64)
        )
        with pytest.raises(wire.WireError, match="shorter"):
            wire.decode_classify_response(response[:4])
        with pytest.raises(wire.WireError, match="length"):
            wire.decode_classify_response(response[:-8])
        with pytest.raises(wire.WireError, match="unknown binary response op"):
            wire.decode_classify_response(b"\x7f" + response[1:])

    def test_packet_block_validation(self):
        with pytest.raises(ValueError, match="at least one packet"):
            wire.packet_block([])
        with pytest.raises(ValueError, match="same width"):
            wire.packet_block([(1, 2, 3), (1, 2)])
        with pytest.raises(ValueError, match="non-negative"):
            wire.packet_block([(1, -2, 3)])
        block = wire.packet_block([(1, 2, 3), (4, 5, 6)])
        assert block.dtype == np.dtype("<u8") and block.shape == (2, 3)
        passthrough = wire.packet_block(np.ones((3, 5), dtype=np.int64))
        assert passthrough.dtype == np.dtype("<u8")

    def test_frame_magic_disjoint_from_json_lengths(self):
        # A JSON frame's first byte is its length's high byte; the 4 MiB cap
        # keeps it 0x00, so 0xB2 can never be mistaken for JSON.
        assert (wire.MAX_JSON_FRAME >> 24) == 0
        assert wire.FRAME_MAGIC > 0


def _tiny_engine(rules):
    return ClassificationEngine.build(
        RuleSet(list(rules), name="wire"), classifier="tss"
    )


@st.composite
def initial_rules(draw, min_rules=2, max_rules=5):
    ranges = draw(st.lists(RANGES, min_size=min_rules, max_size=max_rules))
    return [Rule(r, priority=index, rule_id=index) for index, r in enumerate(ranges)]


def response_keys(responses) -> list:
    """AsyncClient response dicts as ``(priority, rule_id)`` keys."""
    return [
        (r["priority"], r["rule_id"]) if r["matched"] else None for r in responses
    ]


def run(coro):
    asyncio.run(asyncio.wait_for(coro, timeout=SCENARIO_DEADLINE))


class TestNegotiation:
    def test_hello_grants_v2_and_batches_travel_as_frames(self, acl_small):
        async def scenario():
            engine = ClassificationEngine.build(acl_small, classifier="tm")
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    packets = acl_small.sample_packets(8, seed=5)
                    responses = await client.classify_batch(packets)
                    assert len(responses) == 8
                    assert all(r["matched"] for r in responses)
                    # classify() is the one-row case of the same frame.
                    assert await client.classify(packets[0]) == responses[0]
                    stats = (await client.stats())["server"]
                    assert stats["binary_batches"] == 2
                    # What described the deleted JSON data plane is gone.
                    for key in ("wire_v2", "batcher", "queue_depth",
                                "queued_packets", "max_batch"):
                        assert key not in stats

        run(scenario())

    def test_hello_from_a_newer_version_gets_an_empty_grant(self, acl_small):
        """ROADMAP 4b: a hello offering only tokens this server does not know
        is answered with the empty intersection, and the connection stays a
        working control connection."""

        async def scenario():
            engine = ClassificationEngine.build(acl_small, classifier="tm")
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                peer = await RawPeer.open(server.host, server.port)
                await peer.send_json(id=1, op="hello", protocols=["v3"])
                assert await peer.recv() == (
                    "json", {"ok": True, "protocols": [], "id": 1}
                )
                await peer.send_json(id=2, op="hello", protocols=["v3", "v2"])
                assert (await peer.recv())[1]["protocols"] == ["v2"]
                await peer.send_json(id=3, op="stats")
                kind, reply = await peer.recv()
                assert kind == "json" and reply["ok"] and reply["id"] == 3
                assert reply["stats"]["server"]["requests_served"] == 0
                await peer.close()

        run(scenario())

    @pytest.mark.parametrize("vintage", ["grants-nothing", "pre-v2"])
    def test_connect_fails_loudly_without_a_v2_grant(self, vintage):
        """No data plane in common: ``connect`` raises and closes its socket
        instead of returning a client that cannot classify — against a server
        that grants nothing and against one that predates ``hello``."""

        async def scenario():
            hung_up = asyncio.Event()

            async def other_server(reader, writer):
                while (frame := await wire.read_any_frame(reader)) is not None:
                    request = frame[1]
                    if vintage == "grants-nothing":
                        reply = {"ok": True, "protocols": []}
                    else:
                        reply = {
                            "ok": False,
                            "error": f"unknown op {request['op']!r}",
                            "code": "bad-request",
                        }
                    wire.write_json_frame(writer, {"id": request["id"], **reply})
                    await writer.drain()
                hung_up.set()
                writer.close()

            listener = await asyncio.start_server(other_server, "127.0.0.1", 0)
            async with listener:
                port = listener.sockets[0].getsockname()[1]
                with pytest.raises(ServerError) as excinfo:
                    await AsyncClient.connect("127.0.0.1", port)
                assert excinfo.value.code == "unsupported-protocol"
                assert "['v2']" in str(excinfo.value)   # what was offered
                assert "granted []" in str(excinfo.value)
                await asyncio.wait_for(hung_up.wait(), timeout=10)

        run(scenario())

    def test_json_classify_is_bad_request_and_costs_no_admission(self, acl_small):
        """What a pre-v2 client sees: its JSON classify is refused with a
        message naming the upgrade, the budget never hears of it, and the
        connection keeps working — for control ops and for v2 frames."""

        async def scenario():
            engine = ClassificationEngine.build(acl_small, classifier="tm")
            packet = tuple(acl_small.sample_packets(1, seed=7)[0])
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                peer = await RawPeer.open(server.host, server.port)
                before = server.budget.as_dict()
                await peer.send_json(id=7, op="classify", packet=list(packet))
                kind, reply = await peer.recv()
                assert kind == "json" and reply["id"] == 7
                assert reply["ok"] is False and reply["code"] == "bad-request"
                assert "v2" in reply["error"] and "hello" in reply["error"]
                assert server.budget.as_dict() == before
                assert server._requests_served == 0
                await peer.send_block(8, [packet])
                kind, (request_id, status, rule_ids, priorities) = await peer.recv()
                assert (kind, request_id, status) == ("binary", 8, wire.STATUS_OK)
                direct = engine.classify_block(block_of([packet]))
                assert block_keys(rule_ids, priorities) == block_keys(*direct)
                await peer.send_json(id=9, op="stats")
                assert (await peer.recv())[1]["stats"]["server"]["binary_batches"] == 1
                await peer.close()

        run(scenario())

    def test_frame_without_hello_is_served(self, acl_small):
        """docs/PROTOCOL.md: the server accepts both frame kinds on a
        connection at any time — ``hello`` is how a client *learns* what the
        server speaks, not a gate."""

        async def scenario():
            engine = ClassificationEngine.build(acl_small, classifier="tm")
            packets = [tuple(p) for p in acl_small.sample_packets(16, seed=8)]
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                peer = await RawPeer.open(server.host, server.port)
                await peer.send_block(41, packets)
                kind, (request_id, status, rule_ids, priorities) = await peer.recv()
                assert (kind, request_id, status) == ("binary", 41, wire.STATUS_OK)
                direct = engine.classify_block(block_of(packets))
                assert block_keys(rule_ids, priorities) == block_keys(*direct)
                await peer.close()

        run(scenario())

    def test_binary_bad_width_maps_to_bad_request(self, acl_small):
        async def scenario():
            engine = ClassificationEngine.build(acl_small, classifier="tm")
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    with pytest.raises(ServerError) as excinfo:
                        await client.classify_batch([(1, 2, 3)])  # schema is 5-wide
                    assert excinfo.value.code == "bad-request"
                    # The connection survives the rejected batch.
                    packet = acl_small.sample_packets(1, seed=9)[0]
                    assert (await client.classify(packet))["matched"]

        run(scenario())


async def _compare_served_to_direct(rules, batches):
    engine = _tiny_engine(rules)
    async with AsyncServer(engine) as server:
        await server.start("127.0.0.1", 0)
        async with await AsyncClient.connect(server.host, server.port) as client:
            for batch in batches:
                served = await client.classify_batch(batch)
                direct = block_keys(*engine.classify_block(block_of(batch)))
                assert response_keys(served) == direct, (
                    f"wire and engine disagree on {batch}: {served} != {direct}"
                )


class TestServedEqualsDirect:
    @settings(max_examples=15, deadline=None)
    @given(
        rules=initial_rules(),
        batches=st.lists(
            st.lists(PACKETS, min_size=1, max_size=6), min_size=1, max_size=4
        ),
    )
    def test_served_frames_equal_direct_classify_block(self, rules, batches):
        """The wire is invisible in the results: for arbitrary rule-sets and
        batches a served frame carries exactly the engine's own
        ``classify_block`` answer."""
        run(_compare_served_to_direct(rules, batches))


class TestJsonFraming:
    """The one JSON framing (``wire.write_json_frame`` / ``read_any_frame``)
    both the server and the client use."""

    class _Sink:
        def __init__(self):
            self.data = b""

        def write(self, chunk: bytes) -> None:
            self.data += chunk

    def test_json_and_binary_frames_round_trip_through_one_reader(self):
        async def scenario():
            sink = self._Sink()
            message = {"id": 3, "op": "stats", "note": "h\u00e9"}
            payload = wire.encode_error_response(5, wire.STATUS_ERROR)
            wire.write_json_frame(sink, message)
            wire.write_binary_frame(sink, payload)
            reader = asyncio.StreamReader()
            reader.feed_data(sink.data)
            reader.feed_eof()
            assert await wire.read_any_frame(reader) == ("json", message)
            assert await wire.read_any_frame(reader) == ("binary", payload)
            assert await wire.read_any_frame(reader) is None  # clean EOF

        run(scenario())

    @pytest.mark.parametrize(
        "raw",
        [
            (wire.MAX_JSON_FRAME + 1).to_bytes(4, "big"),    # oversized length
            (9).to_bytes(4, "big") + b"not json!",           # undecodable body
        ],
        ids=["oversized", "not-json"],
    )
    def test_server_refuses_a_malformed_json_frame_and_hangs_up(
        self, acl_small, raw
    ):
        async def scenario():
            engine = ClassificationEngine.build(acl_small, classifier="tm")
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                peer = await RawPeer.open(server.host, server.port)
                peer.writer.write(raw)
                await peer.writer.drain()
                kind, reply = await peer.recv()
                assert kind == "json" and reply["id"] is None
                assert reply["code"] == "bad-request"
                assert reply["error"] == "malformed frame"
                assert await peer.recv() is None
                await peer.close()
                # The listener itself is unharmed.
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    assert (await client.stats())["server"]["connections"] == 1

        run(scenario())


class TestChunkedBatches:
    """Batches larger than one 24-bit frame: the client chunks instead of
    aborting the connection, and a failed send never leaks a pending future."""

    def test_max_block_rows_arithmetic(self):
        cap = wire.MAX_BINARY_FRAME
        # The request side binds for schemas with >= 2 fields (8 bytes per
        # field beats the 16-byte response record).
        assert wire.max_block_rows(5) == (cap - wire._REQ_HEADER.size) // 40
        # Single-field schemas are response-bound.
        assert wire.max_block_rows(1) == (cap - wire._RES_HEADER.size) // 16
        with pytest.raises(ValueError, match="at least one field"):
            wire.max_block_rows(0)
        # A frame at exactly max_block_rows fits under the cap.
        rows = wire.max_block_rows(5)
        payload_bytes = wire._REQ_HEADER.size + rows * 5 * 8
        assert payload_bytes <= cap < payload_bytes + 5 * 8

    def test_write_binary_frame_rejects_oversized_payload(self):
        with pytest.raises(ValueError, match="exceeds"):
            wire.write_binary_frame(None, b"x" * (wire.MAX_BINARY_FRAME + 1))

    def test_oversized_batch_round_trips_via_chunking(self, acl_small, monkeypatch):
        """With the frame cap shrunk to 4 rows, an 18-packet batch must travel
        as 5 pipelined frames and come back identical to the engine's own
        answer — no connection abort, no leaked pending futures."""

        async def scenario():
            engine = ClassificationEngine.build(acl_small, classifier="tm")
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    fields = len(acl_small.schema)
                    monkeypatch.setattr(
                        wire,
                        "MAX_BINARY_FRAME",
                        wire._REQ_HEADER.size + 4 * fields * 8,
                    )
                    assert wire.max_block_rows(fields) == 4
                    packets = acl_small.sample_packets(18, seed=11)
                    binary = await client.classify_batch(packets)
                    assert response_keys(binary) == block_keys(
                        *engine.classify_block(block_of(packets))
                    )
                    assert client._binary_pending == {}
                    stats = await client.stats()
                    assert stats["server"]["binary_batches"] == 5  # ceil(18/4)
                    # The connection is still healthy for further batches.
                    again = await client.classify_batch(packets[:3])
                    assert len(again) == 3

        run(scenario())

    def test_failed_send_pops_pending_future(self, acl_small, monkeypatch):
        """A write failure must drop the request's pending entry (so a later
        response to a reused id cannot be mis-delivered) and leave the
        connection usable once writes succeed again."""

        async def scenario():
            engine = ClassificationEngine.build(acl_small, classifier="tm")
            async with AsyncServer(engine) as server:
                await server.start("127.0.0.1", 0)
                async with await AsyncClient.connect(
                    server.host, server.port
                ) as client:
                    packets = acl_small.sample_packets(6, seed=12)
                    real_write = wire.write_binary_frame

                    def failing_write(writer, payload):
                        raise ConnectionResetError("injected write failure")

                    monkeypatch.setattr(wire, "write_binary_frame", failing_write)
                    with pytest.raises(ConnectionResetError):
                        await client.classify_batch(packets)
                    assert client._binary_pending == {}
                    monkeypatch.setattr(wire, "write_binary_frame", real_write)
                    responses = await client.classify_batch(packets)
                    assert len(responses) == 6
                    assert client._binary_pending == {}

        run(scenario())
