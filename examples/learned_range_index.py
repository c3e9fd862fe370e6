#!/usr/bin/env python3
"""Scenario: using the RQ-RMI on its own as a learned range index.

The RQ-RMI is useful beyond packet classification: it answers "which of these
disjoint ranges contains this key?" with a few hundred bytes of neural-network
weights per thousand ranges and a provable worst-case search bound.  This
example indexes a set of numeric ranges directly, inspects the model structure
(stages, error bounds, transition inputs), and demonstrates the correctness
guarantee by exhaustively checking every key of a small domain.

Run with::

    python examples/learned_range_index.py [--ranges 2000]
"""

import argparse

import numpy as np

from repro.analysis import format_kv, format_table
from repro.core.config import RQRMIConfig
from repro.core.rqrmi import RQRMI, RangeSet


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranges", type=int, default=2_000)
    parser.add_argument("--domain-bits", type=int, default=32)
    args = parser.parse_args()

    domain = 1 << args.domain_bits
    rng = np.random.default_rng(7)
    points = np.sort(rng.choice(domain, size=2 * args.ranges, replace=False).astype(np.int64))
    ranges = [(int(points[2 * i]), int(points[2 * i + 1])) for i in range(args.ranges)]
    print(f"Indexing {args.ranges} disjoint ranges over a {args.domain_bits}-bit domain...")

    range_set = RangeSet.from_integer_ranges(ranges, domain)
    model = RQRMI.train(range_set, RQRMIConfig(error_threshold=32))

    print()
    print(format_kv({
        "stages": str(model.stage_widths),
        "submodels trained": model.report.submodels_trained,
        "retrain attempts": model.report.retrain_attempts,
        "model size (bytes)": model.size_bytes(),
        "worst-case error bound": model.max_error,
        "training seconds": round(model.report.training_seconds, 2),
    }, title="Trained RQ-RMI"))

    print("\nSample queries (key -> predicted index, bound, found range):")
    samples = []
    for _ in range(8):
        idx = int(rng.integers(0, args.ranges))
        lo, hi = sorted(ranges)[idx]
        samples.append((int(rng.integers(lo, hi + 1)), f"[{lo}, {hi}]"))
    keys = np.array([key for key, _true_range in samples])
    found, predicted, bounds = model.query_batch_detailed(keys)
    rows = [
        [key, int(p), int(b), int(f) if f >= 0 else None, true_range]
        for (key, true_range), f, p, b in zip(samples, found, predicted, bounds)
    ]
    print(format_table(["key", "predicted idx", "bound", "found idx", "true range"], rows))

    print("\nExhaustive correctness check on a small 16-bit instance...")
    small_domain = 1 << 16
    small_points = np.sort(
        np.random.default_rng(1).choice(small_domain, size=200, replace=False).astype(np.int64)
    )
    small_ranges = [(int(small_points[2 * i]), int(small_points[2 * i + 1])) for i in range(100)]
    small_set = RangeSet.from_integer_ranges(small_ranges, small_domain)
    small_model = RQRMI.train(small_set, RQRMIConfig(stage_widths=[1, 4], error_threshold=16))
    found = small_model.query_batch(np.arange(small_domain))
    wrong = 0
    for key in range(small_domain):
        expected = small_set.locate(small_set.scale_key(key))
        if found[key] != (-1 if expected is None else expected):
            wrong += 1
    print(f"  checked {small_domain} keys, {wrong} incorrect answers "
          f"(the analytical error bound guarantees 0)")


if __name__ == "__main__":
    main()
