"""Property tests (hypothesis) for the network serving path.

The invariant is the one ``tests/test_flowcache_properties.py`` pins for the
in-process cache, lifted over the wire: for *arbitrary* interleavings of
concurrent classify bursts with inserts and removes through an
:class:`~repro.serving.server.AsyncServer`, no response is ever a stale or
wrong-priority match — every classify whose request was sent after an
update's ack must equal linear search over the rules live at that instant
(total order ``(priority, rule_id)``).  A burst's packets travel as v2
frames — the first half pipelined as concurrent 1-row frames, the rest as
one frame — updates are the sequence points; the update-queue contract makes
exactly that pattern well-defined.

The rule/packet universe is deliberately tiny (5-tuple values in 0..7) so
flows collide, rules overlap, and the flow cache in front of the engine has
real invalidation work to do.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ClassificationEngine
from repro.rules.rule import Rule, RuleSet
from repro.serving import AsyncClient, AsyncServer, CachedEngine

VALUES = st.integers(min_value=0, max_value=7)
PACKETS = st.tuples(VALUES, VALUES, VALUES, VALUES, VALUES)
RANGES = st.tuples(
    *[st.tuples(VALUES, VALUES).map(lambda pair: tuple(sorted(pair)))] * 5
)

SCENARIO_DEADLINE = 60.0


def linear_best(rules, packet):
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


@st.composite
def initial_rules(draw, min_rules=2, max_rules=5):
    ranges = draw(st.lists(RANGES, min_size=min_rules, max_size=max_rules))
    return [
        Rule(r, priority=index, rule_id=index) for index, r in enumerate(ranges)
    ]


#: One step: a burst of concurrent classifies, an insert, or a remove.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("classify"), st.lists(PACKETS, min_size=1, max_size=6)),
        st.tuples(st.just("insert"), RANGES),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=40)),
    ),
    min_size=1,
    max_size=12,
)


async def drive_server(rules, ops, capacity):
    """Run the op sequence against a served cached engine, checking every
    response against ground truth over the live rules."""
    live = {rule.rule_id: rule for rule in rules}
    engine = CachedEngine(
        ClassificationEngine.build(
            RuleSet(list(rules), name="prop"), classifier="tss"
        ),
        capacity=capacity,
    )
    next_priority = len(rules)
    next_id = 100
    try:
        async with AsyncServer(engine) as server:
            await server.start("127.0.0.1", 0)
            async with await AsyncClient.connect(
                server.host, server.port
            ) as client:
                for op, payload in ops:
                    if op == "classify":
                        half = len(payload) // 2
                        *singles, rest = await asyncio.gather(
                            *(client.classify(packet) for packet in payload[:half]),
                            client.classify_batch(payload[half:]),
                        )
                        responses = singles + rest
                        rules_now = list(live.values())
                        for packet, response in zip(payload, responses):
                            expected = result_key(linear_best(rules_now, packet))
                            actual = response_key(response)
                            assert actual == expected, (
                                f"stale/wrong match for {packet}: "
                                f"{actual} != {expected}"
                            )
                    elif op == "insert":
                        rule = Rule(
                            payload, priority=next_priority, rule_id=next_id
                        )
                        next_priority += 1
                        next_id += 1
                        await client.insert(rule)
                        live[rule.rule_id] = rule
                    else:  # remove
                        present = payload in live
                        assert await client.remove(payload) == present
                        live.pop(payload, None)
    finally:
        engine.close()


@settings(max_examples=20, deadline=None)
@given(
    rules=initial_rules(),
    ops=OPS,
    capacity=st.integers(min_value=0, max_value=4),
)
def test_served_interleavings_never_return_stale_match(rules, ops, capacity):
    async def scenario():
        await asyncio.wait_for(
            drive_server(rules, ops, capacity), timeout=SCENARIO_DEADLINE
        )

    asyncio.run(scenario())
