#!/usr/bin/env python3
"""Scenario: online rule updates with periodic retraining (the paper's §3.9).

Network policies change continuously: rules are added, deleted and modified
while traffic keeps flowing.  Updated rules go to a slow path that grows — the
engine's update overlay, probed after the built NuevoMatch — and the RQ-RMIs
are retrained periodically over the live rules.  This example:

1. applies a stream of updates to a live ``ClassificationEngine`` and verifies
   correctness against linear search over the evolving live rules;
2. shows the remainder fraction growing until the retraining threshold fires
   (here the caller decides when to ``rebuild``; sharded serving schedules it
   in the background, see ``docs/serving.md``);
3. plots (textually) the analytical throughput-over-time curve of Figure 7 and
   the sustained-update-rate estimate.

Run with::

    python examples/online_updates.py [--rules 5000] [--updates 800]
"""

import argparse
import random

from repro import ClassificationEngine, NuevoMatchConfig, generate_classbench
from repro.analysis import format_series
from repro.core.config import RQRMIConfig
from repro.core.updates import sustained_update_rate, throughput_over_time
from repro.rules.rule import Rule

RETRAIN_THRESHOLD = 0.25


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rules", type=int, default=5_000)
    parser.add_argument("--updates", type=int, default=800)
    args = parser.parse_args()

    print(f"Building NuevoMatch over {args.rules} rules (TupleMerge remainder)...")
    rules = generate_classbench("ipc1", args.rules, seed=3)
    engine = ClassificationEngine.build(
        rules,
        classifier="nm",
        remainder_classifier="tm",
        config=NuevoMatchConfig(
            max_isets=4, min_iset_coverage=0.05, rqrmi=RQRMIConfig(error_threshold=64)
        ),
    )
    rng = random.Random(9)

    print(f"Applying {args.updates} updates "
          "(50% additions, 30% deletions, 20% action changes)...")
    next_id = args.rules
    live_ids = {rule.rule_id for rule in rules}
    retrains = 0
    for step in range(args.updates):
        kind = rng.random()
        if kind < 0.5:
            value = rng.randrange(0, 1 << 32)
            rule = Rule(
                ((value, value), (value ^ 0xFFFF, value ^ 0xFFFF),
                 (0, 65535), (rng.randrange(1, 65536),) * 2, (6, 6)),
                priority=rng.randrange(args.rules), rule_id=next_id,
            )
            engine.insert(rule)
            live_ids.add(next_id)
            next_id += 1
        elif kind < 0.8 and live_ids:
            victim = rng.choice(sorted(live_ids))
            if engine.remove(victim):
                live_ids.discard(victim)
        else:
            # An action change is an insert under the rule's own id.
            victim = engine.rules_by_id()[rng.choice(sorted(live_ids))]
            engine.insert(
                Rule(victim.ranges, victim.priority, f"updated-{step}", victim.rule_id)
            )

        if engine.remainder_fraction() >= RETRAIN_THRESHOLD:
            print(f"  step {step}: remainder fraction "
                  f"{engine.remainder_fraction():.1%} -> retraining")
            engine = engine.rebuild()
            retrains += 1

    print(f"Done: {retrains} retrainings, final remainder fraction "
          f"{engine.remainder_fraction():.1%}")

    print("\nVerifying the updated classifier against the live rule-set...")
    live = engine.live_ruleset()
    assert {rule.rule_id for rule in live} == live_ids
    mismatches = 0
    for packet in live.sample_packets(300, seed=11):
        expected = live.match(packet)
        actual = engine.classify(packet)
        if (expected is None) != (actual is None) or (
            expected is not None and actual.priority != expected.priority
        ):
            mismatches += 1
    print(f"  {mismatches} mismatches out of 300 packets")

    print("\nAnalytical throughput-over-time (Figure 7 shape), 500K-rule scale:")
    series = throughput_over_time(
        total_rules=500_000, update_rate=2_000, retrain_period=120.0,
        training_time=60.0, nuevomatch_throughput=2.4e6,
        remainder_throughput=1.0e6, horizon=600.0, step=60.0,
    )
    print(format_series(
        [int(t) for t, _ in series], [round(v / 1e6, 2) for _, v in series],
        x_label="time s", y_label="throughput Mpps",
    ))
    rate = sustained_update_rate(500_000, 60.0, 2.4e6, 1.0e6)
    print(f"\nSustained update rate at half the speedup (60s training): "
          f"{rate:,.0f} updates/s (paper: ~4,000/s)")


if __name__ == "__main__":
    main()
