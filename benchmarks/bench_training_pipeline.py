"""Training benchmark — cold and warm-start build times.

The paper's Figure 15 measures absolute RQ-RMI training cost; this benchmark
measures what the warm start of :func:`repro.core.pipeline.train_rqrmi` buys
on the build path.  There is one trainer and it runs inline:

* **cold build** — the reference build time of the rule-set;
* **warm retrain** — rebuilding after an update workload (rule modifications,
  removals and insertions) with submodels seeded/reused from the previous
  engine, against the same rebuild done cold;
* **retrain-to-swap latency** — the rebuild-to-swap wall time of the
  ``UpdateQueue`` path (always ``engine.rebuild(warm=True)``), against
  ``engine.rebuild(warm=False)`` of the same engine at the same moment.

Every timed engine is verified against linear-search ground truth before its
number is reported, so the speedups never come at the cost of the certified
error-bound contract.

Emits the BENCH json line / ``benchmarks/results/training_pipeline.json``
consumed by ``scripts/bench_table.py``.
"""

import time

import numpy as np

from repro.analysis import format_table
from repro.core.nuevomatch import NuevoMatch
from repro.rules.rule import Rule
from repro.serving import ShardedEngine

from bench_helpers import bench_nm_config, current_scale, report, report_json, ruleset

#: Modification fraction of the update workload (§3.9-style churn).
UPDATE_FRACTION = 0.02


def _timed(fn, repeats: int = 1):
    """Run ``fn`` ``repeats`` times; report the fastest wall time (noise-robust)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _update_workload(rules, fraction: float, seed: int = 7):
    """Apply matching-set changes, removals and insertions to ``rules``."""
    rng = np.random.default_rng(seed)
    all_rules = list(rules)
    budget = max(3, int(len(all_rules) * fraction))
    victims = sorted(rng.choice(len(all_rules), size=budget, replace=False).tolist())
    third = max(1, budget // 3)
    modified = set(victims[:third])
    removed = set(victims[third: 2 * third])
    max_id = max(rule.rule_id for rule in all_rules)

    new_rules = []
    for position, rule in enumerate(all_rules):
        if position in removed:
            continue
        if position in modified:
            ranges = list(rule.ranges)
            lo, hi = ranges[0]
            ranges[0] = (lo, min(0xFFFFFFFF, hi + 1))
            new_rules.append(Rule(tuple(ranges), priority=rule.priority,
                                  action=rule.action, rule_id=rule.rule_id))
        else:
            new_rules.append(rule)
    # Insertions: near-duplicates of existing rules at fresh ids.
    for offset, position in enumerate(victims[2 * third:]):
        donor = all_rules[position]
        new_rules.append(Rule(donor.ranges, priority=donor.priority + 100_000,
                              action=donor.action, rule_id=max_id + offset + 1))
    return rules.subset(new_rules, name=f"{rules.name}-updated")


def _verify(classifier, rules, seed: int) -> None:
    classifier.verify(rules.sample_packets(200, seed=seed))


def _retrain_to_swap_seconds(rules, config) -> tuple[float, float]:
    """Insert until the threshold trips; ``(cold, warm)`` rebuild seconds.

    Warm is the rebuild-to-swap latency the ``UpdateQueue`` records; cold is
    ``rebuild(warm=False)`` of the engine it swapped in, i.e. a from-scratch
    build over exactly the rules the warm retrain was built over.
    """
    probe = rules.sample_packets(100, seed=17)
    with ShardedEngine.build(
        rules, shards=1, classifier="nm", remainder_classifier="tm",
        config=config, background_retraining=False, retrain_threshold=0.2,
    ) as engine:
        donor = rules.rules[0]
        max_id = max(rule.rule_id for rule in rules)
        for index in range(1, len(rules)):
            engine.insert(Rule(donor.ranges, priority=200_000 + index,
                               action=donor.action, rule_id=max_id + index))
            if engine.updates.retrains_completed:
                engine.verify(probe)
                swapped_in = engine._shards[0].engine
                rebuilt, cold_s = _timed(lambda: swapped_in.rebuild(warm=False))
                rebuilt.verify(probe)
                return cold_s, engine.updates.last_retrain_seconds
        raise AssertionError("retrain threshold never tripped")


def test_training_pipeline(benchmark):
    scale = current_scale()
    size = scale["sizes"]["100K"]
    rules = ruleset("acl1", size)
    config = bench_nm_config("tm")

    nm_base, cold_build_s = _timed(
        lambda: NuevoMatch.build(rules, remainder_classifier="tm", config=config),
        repeats=3,
    )
    _verify(nm_base, rules, seed=11)

    updated = _update_workload(rules, UPDATE_FRACTION)
    retrain_cold = lambda: NuevoMatch.build(
        updated, remainder_classifier="tm", config=config
    )
    retrain_warm = lambda: NuevoMatch.build(
        updated, remainder_classifier="tm", config=config, warm_from=nm_base
    )
    nm_cold, cold_retrain_s = _timed(retrain_cold, repeats=2)
    nm_warm, warm_s = _timed(retrain_warm, repeats=2)
    _verify(nm_cold, updated, seed=13)
    _verify(nm_warm, updated, seed=13)

    swap_rules = ruleset("acl1", max(400, size // 8))
    swap_cold_s, swap_warm_s = _retrain_to_swap_seconds(swap_rules, config)

    warm_speedup = cold_retrain_s / warm_s
    swap_speedup = swap_cold_s / swap_warm_s

    rows = [
        ["cold build", round(cold_build_s, 3), "1.00x"],
        ["retrain after updates (cold)", round(cold_retrain_s, 3), "1.00x"],
        ["retrain after updates (warm)", round(warm_s, 3),
         f"{warm_speedup:.2f}x"],
        ["retrain-to-swap (cold)", round(swap_cold_s, 3), "1.00x"],
        ["retrain-to-swap (warm)", round(swap_warm_s, 3),
         f"{swap_speedup:.2f}x"],
    ]
    report(
        "training_pipeline",
        format_table(
            ["path", "seconds", "speedup"], rows,
            title=f"RQ-RMI training on acl1/{size} "
                  f"(update churn {UPDATE_FRACTION:.0%})",
        ),
    )
    warm_prov = nm_warm.training_provenance
    report_json(
        "training_pipeline",
        config={
            "ruleset": f"acl1/{size}",
            "update_fraction": UPDATE_FRACTION,
        },
        measured={
            "cold_build_s": cold_build_s,
            "cold_retrain_s": cold_retrain_s,
            "warm_s": warm_s,
            "retrain_to_swap_cold_s": swap_cold_s,
            "retrain_to_swap_warm_s": swap_warm_s,
            "warm_submodels_reused": warm_prov["submodels_reused"],
            "warm_submodels_trained": warm_prov["submodels_trained"],
            "warm_cold_fallbacks": warm_prov["cold_fallbacks"],
        },
        summary={
            "warm_speedup": warm_speedup,
            "retrain_to_swap_speedup": swap_speedup,
            "retrain_to_swap_warm_s": swap_warm_s,
        },
    )

    # Asserted loosely enough for CI noise: a warm retrain at least 3x faster
    # than a cold retrain of the same rules.
    assert warm_speedup >= 3.0, f"warm retrain only {warm_speedup:.2f}x"
