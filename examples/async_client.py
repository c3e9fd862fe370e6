#!/usr/bin/env python3
"""Network serving: an AsyncServer, a batching client, live updates.

Run with::

    python examples/async_client.py

The script builds a sharded + flow-cached engine stack, serves it in-process
over the asyncio TCP protocol (ephemeral port), then plays both sides of the
wire: a trace sent as binary classify-batch frames (``classify_batch`` — one
frame, one ``classify_block`` call on the server — pipelined several deep),
an online ``insert`` whose effect is visible to the very next lookup (the
eviction-before-ack contract, over the network), and a ``stats`` call
showing what the admission budget counted and what the frames cost.  It
checks itself: served results must equal the engine's own, and the update
must change the winner (a mismatch raises).

Against a server started from the CLI, only the client half applies::

    repro serve rules.txt --shards 2 --cache-size 4096 --listen 127.0.0.1:8590
    # then: await AsyncClient.connect("127.0.0.1", 8590)
"""

import asyncio

import numpy as np

from repro import generate_classbench
from repro.rules.rule import Rule
from repro.serving import AsyncClient, AsyncServer, CachedEngine, ShardedEngine
from repro.workloads import make_trace


async def main() -> None:
    print("Building a 2-shard TupleMerge stack behind a 1K-entry flow cache...")
    rules = generate_classbench("acl1", 2_000, seed=7)
    engine = CachedEngine(
        ShardedEngine.build(rules, shards=2, classifier="tm"), capacity=1024
    )

    async with AsyncServer(engine) as server:
        await server.start("127.0.0.1", 0)  # port 0 = ephemeral
        print(f"  serving on {server.host}:{server.port}\n")

        # connect() says hello and insists on wire v2: lookups have one way
        # across the wire, so a server that cannot grant it is an error.
        async with await AsyncClient.connect(server.host, server.port) as client:
            # Batching is the client's job: each classify_batch is one binary
            # frame and one engine call.  Frames pipeline on one connection.
            trace = make_trace("zipf", rules, 512, seed=3, skew=95)
            packets = [tuple(packet) for packet in trace]
            print(f"Classifying {len(packets)} zipf-95 packets as 64-row frames...")
            frames = await asyncio.gather(
                *(
                    client.classify_batch(packets[start : start + 64])
                    for start in range(0, len(packets), 64)
                )
            )
            responses = [response for frame in frames for response in frame]
            matched = sum(response["matched"] for response in responses)
            print(f"  {matched}/{len(packets)} packets matched a rule")
            rule_ids, _priorities = engine.classify_block(
                np.array(packets, dtype=np.uint64)
            )
            served = [r["rule_id"] if r["matched"] else -1 for r in responses]
            assert served == rule_ids.tolist(), "wire and engine disagree"

            # An online update: once insert() returns, the very next lookup
            # must see the new rule — stale flow-cache entries were evicted
            # before the server acknowledged the insert.
            packet = packets[0]
            before = await client.classify(packet)  # a one-row frame
            override = Rule(
                tuple((value, value) for value in packet),
                priority=0,
                rule_id=1_000_000,
            )
            await client.insert(override)
            after = await client.classify(packet)
            print(f"\nOnline update: winner {before['rule_id']} -> "
                  f"{after['rule_id']} (priority {after['priority']})")
            assert after["rule_id"] == override.rule_id != before["rule_id"]
            await client.remove(override.rule_id)
            assert (await client.classify(packet)) == before

            stats = await client.stats()
            budget = stats["server"]["budget"]
            print("\nAdmission and latency:")
            print(f"  {budget['admitted']} frames / {budget['admitted_packets']} "
                  f"packets admitted, {budget['rejected']} frames / "
                  f"{budget['rejected_packets']} packets shed "
                  f"(budget {budget['limit']} packets)")
            print(f"  classify p50 {stats['server']['p50_us']:.0f} us, "
                  f"p99 {stats['server']['p99_us']:.0f} us per frame")
            cache = stats["engine"]["cache"]
            probes = cache["hits"] + cache["misses"]
            print(f"  flow cache: {cache['hits']} hits / "
                  f"{probes} probes (hit rate {cache['hit_rate']:.1%})")

    engine.close()


if __name__ == "__main__":
    asyncio.run(main())
