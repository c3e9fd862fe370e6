"""Dispatch budget: interpreter-level calls per lookup block (ROADMAP 12).

Per-call overhead, not arithmetic, is what a block costs in this process, so
the number of Python-to-C dispatches a lookup makes is gated like a metric.
``_helpers.dispatch_count`` counts them with ``sys.setprofile``.  The RQ-RMI
query walks the stacked stages in a fixed sequence of array operations, so its
count does not depend on the block size (or on the leaves a block reaches);
neither does the hash-family kernel's, whose probe steps are fixed by its
index and whose bucket scan is the one fixed sequence of array calls the
forest's leaves share.  The NuevoMatch block lookup — on the compiled iSet
kernel and on its numpy fallback — and that kernel stay within committed
budgets, which a change may lower but not raise.  Rules are ClassBench
acl1/8000 (seed 1) under the serving benchmark's NuevoMatch configuration;
traffic is uniform (seed 2).

Each iSet binds its compiled kernel on its first untraced lookup (about 95
calls per iSet, once per process), so the budgets count lookups after one
warm-up block, as a server's first frame leaves them.
"""

import numpy as np
import pytest

from repro.core import native
from repro.core.config import NuevoMatchConfig, RQRMIConfig
from repro.core.nuevomatch import NuevoMatch
from repro.rules import generate_classbench
from repro.traffic.generators import generate_uniform_trace

from _helpers import dispatch_count, iset_floors

ROWS = (1, 128, 2048)

#: Calls one ``NuevoMatch.classify_block`` (``nm/tm``) makes on acl1/8000 at
#: any of :data:`ROWS` with the compiled iSet kernel: its measured maximum,
#: 52 (each iSet is one kernel call of about six dispatches; the remainder
#: makes 30).  The numpy iSet body made 125-139 under a budget of 139.
CLASSIFY_BLOCK_BUDGET = 52

#: The same lookup on the numpy iSet body, the fallback where the kernel
#: cannot be built: measured 129-136 (the first blocks of a process made
#: 132-139 before the kernel existed).
NUMPY_CLASSIFY_BLOCK_BUDGET = 139

#: Calls the ``nm/tm`` remainder's ``classify_block_with_floors`` (the
#: hash-family kernel, no trace counters) makes at any of :data:`ROWS`,
#: floored or not (30 unfloored, 28 floored; the padded bucket compare made
#: 42 and 40, and the ``searchsorted`` probe before it 53).
HASH_KERNEL_BUDGET = 30


@pytest.fixture(scope="module")
def acl8000():
    rules = generate_classbench("acl1", 8000, seed=1)
    nm = NuevoMatch.build(
        rules, remainder_classifier="tm",
        config=NuevoMatchConfig(
            max_isets=4, min_iset_coverage=0.05,
            rqrmi=RQRMIConfig(error_threshold=64),
        ),
    )
    trace = generate_uniform_trace(rules, max(ROWS), seed=2)
    packets = np.array([packet.values for packet in trace.packets], dtype=np.uint64)
    nm.classify_block(packets[:1])  # binds the iSets' kernels
    return nm, packets


def test_rqrmi_query_makes_the_same_calls_at_every_block_size(acl8000):
    nm, packets = acl8000
    assert nm.isets
    for iset in nm.isets:
        keys = packets[:, iset.dim]
        counts = {
            rows: dispatch_count(iset.model.query_batch_detailed, keys[:rows])
            for rows in ROWS
        }
        assert len(set(counts.values())) == 1, counts


def test_nuevomatch_block_lookup_stays_within_its_budget(acl8000, needs_native):
    nm, packets = acl8000
    counts = {rows: dispatch_count(nm.classify_block, packets[:rows]) for rows in ROWS}
    assert len(set(counts.values())) == 1, counts
    assert max(counts.values()) <= CLASSIFY_BLOCK_BUDGET, counts


def test_numpy_fallback_stays_within_its_budget(acl8000, monkeypatch):
    monkeypatch.setattr(native, "_library", False)
    nm, packets = acl8000
    counts = {rows: dispatch_count(nm.classify_block, packets[:rows]) for rows in ROWS}
    assert max(counts.values()) <= NUMPY_CLASSIFY_BLOCK_BUDGET, counts


def test_hash_kernel_makes_the_same_calls_at_every_block_size(acl8000):
    nm, packets = acl8000
    for floored in (False, True):
        counts = {}
        for rows in ROWS:
            block = packets[:rows].astype(np.int64)
            floors = iset_floors(nm, block)
            counts[rows] = dispatch_count(
                nm.remainder.classify_block_with_floors,
                block,
                floors if floored else None,
            )
        assert len(set(counts.values())) == 1, (floored, counts)
        assert max(counts.values()) <= HASH_KERNEL_BUDGET, (floored, counts)
