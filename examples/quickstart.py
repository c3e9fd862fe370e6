#!/usr/bin/env python3
"""Quickstart: build a ClassificationEngine, batch-classify, save and reload.

Run with::

    python examples/quickstart.py

The script generates a ClassBench-like ACL rule-set, builds a
:class:`~repro.engine.ClassificationEngine` over NuevoMatch with a TupleMerge
remainder, classifies a packet trace in vectorized batches, verifies against
linear search, and round-trips the trained engine through save/load — the
training cost is paid once, the snapshot restores instantly.
"""

import os
import tempfile
import time

from repro import ClassificationEngine, NuevoMatchConfig, generate_classbench
from repro.core.config import RQRMIConfig
from repro.traffic import generate_uniform_trace
from repro.workloads import replay_trace


def main() -> None:
    print("Generating a 10,000-rule ACL-like rule-set (ClassBench acl1 profile)...")
    rules = generate_classbench("acl1", 10_000, seed=42)
    print(f"  {len(rules)} rules, per-field diversity: "
          f"{ {k: round(v, 2) for k, v in rules.diversity().items()} }")

    print("\nBuilding the engine (NuevoMatch, TupleMerge remainder, error bound 64)...")
    engine = ClassificationEngine.build(
        rules,
        classifier="nm",
        remainder_classifier="tm",
        config=NuevoMatchConfig(
            max_isets=4,
            min_iset_coverage=0.05,
            rqrmi=RQRMIConfig(error_threshold=64),
        ),
    )
    stats = engine.statistics()
    print(f"  iSets: {stats['num_isets']}, coverage: {stats['coverage']:.1%}, "
          f"remainder rules: {stats['remainder_rules']}")
    print(f"  RQ-RMI models: {stats['rqrmi_bytes'] / 1024:.1f} KB, "
          f"max prediction error: {stats['max_error']}")
    print(f"  build time: {stats['build_seconds']:.1f}s "
          f"(training: {stats['training_seconds']:.1f}s)")

    print("\nServing a uniform packet trace in 128-packet batches...")
    trace = generate_uniform_trace(rules, 1_000, seed=7)
    report = replay_trace(engine, trace, batch_size=128)
    print(f"  {report.packets} packets served, {report.matched} matched "
          f"({report.throughput_pps / 1e3:.0f} kpps measured, "
          f"{report.modelled_latency_ns:.0f} ns/packet modelled)")

    print("Verifying against the linear-search oracle...")
    checked = engine.verify(trace)
    print(f"  {checked} packets classified, all matching the oracle")

    result = engine.classify_batch(trace[:1])[0]
    print(f"\nExample lookup for packet {tuple(trace[0])}:")
    print(f"  matched rule id {result.rule.rule_id} (priority {result.rule.priority}, "
          f"action {result.rule.action!r})")
    print(f"  lookup touched {result.trace.model_accesses} model stages, "
          f"{result.trace.rule_accesses} rule entries, "
          f"{result.trace.index_accesses} index nodes")

    print("\nPersisting the trained engine and loading it back...")
    path = os.path.join(tempfile.gettempdir(), "quickstart.engine.json.gz")
    engine.save(path)
    start = time.perf_counter()
    restored = ClassificationEngine.load(path)
    load_seconds = time.perf_counter() - start
    size_kb = os.path.getsize(path) / 1024
    print(f"  snapshot: {size_kb:.1f} KB, restored in {load_seconds:.2f}s "
          f"(vs {stats['build_seconds']:.1f}s to build)")
    same = all(
        (a.rule.rule_id if a.rule else None) == (b.rule.rule_id if b.rule else None)
        for a, b in zip(engine.classify_batch(trace), restored.classify_batch(trace))
    )
    print(f"  restored engine output identical: {same}")
    os.unlink(path)


if __name__ == "__main__":
    main()
