"""Performance smoke tests: flow-cached replay, the hash-family and forest
kernels, the hash family's direct-addressed probe and offset-list bucket
scan, the compiled iSet kernel, and wire frame batching.

Marked ``perf`` and deselected from the default (tier-1) run via
``addopts = -m "not perf"`` in ``pyproject.toml``; the dedicated CI perf job
runs ``pytest -m perf``.  The assertions are deliberately loose — they pin
that the cached hot path works at all under the paper's highest-skew setting
(zipf-95, §5.1.1), that the columnar kernels beat the per-row walks they
replaced, and that batching rows per frame pays, not a specific machine's
numbers.
"""

from __future__ import annotations

import asyncio
import time
from functools import partial

import numpy as np
import pytest

from repro.classifiers import build_classifier
from repro.cli import _nm_config
from repro.core import native
from repro.core.nuevomatch import NuevoMatch
from repro.engine import ClassificationEngine
from repro.rules import generate_classbench
from repro.rules.rule import NO_FLOOR
from repro.serving import AsyncClient, AsyncServer
from repro.traffic import generate_uniform_trace
from repro.workloads import run_scenario

import _scalar_reference as reference
from _helpers import block_of, fast_nm_config, iset_floors

pytestmark = pytest.mark.perf


def test_zipf95_replay_hits_cache_and_moves_packets():
    rules = generate_classbench("acl1", 1000, seed=7)
    report = run_scenario(
        rules,
        trace_kind="zipf",
        num_packets=8000,
        skew=95,
        shards=1,
        cache_size=2048,
        classifier="tm",
        batch_size=128,
        seed=9,
    )
    assert report.packets == 8000
    # The paper's zipf-95 trace concentrates >95% of traffic in 3% of flows;
    # a 2K-entry exact-match cache must absorb well over half the packets.
    assert report.hit_rate > 0.5, f"hit rate {report.hit_rate:.1%}"
    assert report.throughput_pps > 0
    assert report.latency_p99_ns >= report.latency_p50_ns > 0


def test_cached_sharded_replay_beats_uncached_in_the_model():
    rules = generate_classbench("acl1", 2000, seed=7)
    cached = run_scenario(
        rules, trace_kind="zipf", num_packets=6000, skew=95,
        shards=2, cache_size=4096, classifier="tm", executor="serial", seed=9,
    )
    uncached = run_scenario(
        rules, trace_kind="zipf", num_packets=6000, skew=95,
        shards=2, cache_size=0, classifier="tm", executor="serial", seed=9,
    )
    assert cached.modelled_latency_ns < uncached.modelled_latency_ns
    assert cached.matched == uncached.matched


async def _windowed_pps(engine, block, rows: int, window: int = 8) -> float:
    """Packets/s of ``block`` sent as ``rows``-row frames over one
    connection with at most ``window`` frames in flight."""
    slots = asyncio.Semaphore(window)

    async def send(client, frame):
        try:
            await client.classify_batch(frame)
        finally:
            slots.release()

    async with AsyncServer(engine) as server:
        await server.start("127.0.0.1", 0)
        async with await AsyncClient.connect(server.host, server.port) as client:
            start = time.perf_counter()
            sends = []
            for first in range(0, len(block), rows):
                await slots.acquire()
                frame = block[first : first + rows]
                sends.append(asyncio.ensure_future(send(client, frame)))
            await asyncio.gather(*sends)
            return len(block) / (time.perf_counter() - start)


def _best_ns(lookup, blocks, floors, repeats: int = 3, traced: bool = True) -> int:
    """Best-of-``repeats`` ns for one pass of ``lookup`` over the blocks
    (with trace counters unless ``traced`` is false)."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for block, row_floors in zip(blocks, floors):
            traces = np.zeros((len(block), 5), dtype=np.int64) if traced else None
            lookup(block, row_floors, traces=traces)
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _serving_remainder(packets: int):
    """The server's engine (acl1/8000, ``nm/tm``, ``_nm_config(64)``) and
    ``packets`` uniform rows (seed 2)."""
    rules = generate_classbench("acl1", 8000, seed=1)
    nm = NuevoMatch.build(rules, remainder_classifier="tm", config=_nm_config(64))
    values = block_of(generate_uniform_trace(rules, packets, seed=2).packets)
    return nm, values.astype(np.int64)


def _blocks_and_floors(nm, values, rows: int, count: int):
    """``count`` ``rows``-row blocks and the engine's own iSet floors."""
    blocks = [values[start : start + rows] for start in range(0, count * rows, rows)]
    return blocks, [iset_floors(nm, block) for block in blocks]


def test_hash_family_kernel_beats_the_scalar_loop():
    """The server's engine: its ``tm`` remainder's columnar
    ``classify_block_with_floors`` must run at least 3x the frozen per-row
    loop over the scalar hash walk (``_scalar_reference``) at 128 rows and
    1.2x at 16, both given the engine's own iSet floors."""
    nm, values = _serving_remainder(2048)
    remainder = nm.remainder
    for rows, speedup in ((128, 3.0), (16, 1.2)):
        blocks, floors = _blocks_and_floors(nm, values, rows, 16)
        kernel = _best_ns(remainder.classify_block_with_floors, blocks, floors)
        loop = _best_ns(
            partial(reference.classify_block_with_floors, remainder), blocks, floors
        )
        assert loop >= speedup * kernel, (
            f"{rows} rows: kernel {kernel / 1e3:.0f} us vs loop {loop / 1e3:.0f} us"
        )


def test_direct_probe_beats_the_searchsorted_kernel():
    """The same remainder under the same floors, without trace counters (as
    the engine serves): the direct-addressed probe must run at least 1.2x
    the frozen ``searchsorted`` kernel (``_scalar_reference``) at 128 rows
    and 1.3x at 1024, best of 7 passes over 8 blocks."""
    nm, values = _serving_remainder(8192)
    remainder = nm.remainder
    for rows, speedup in ((128, 1.2), (1024, 1.3)):
        blocks, floors = _blocks_and_floors(nm, values, rows, 8)
        probe = _best_ns(
            remainder.classify_block_with_floors, blocks, floors, 7, traced=False
        )
        frozen = _best_ns(
            partial(reference.searchsorted_block_with_floors, remainder),
            blocks, floors, 7, traced=False,
        )
        assert frozen >= speedup * probe, (
            f"{rows} rows: probe {probe / 1e3:.0f} us vs searchsorted {frozen / 1e3:.0f} us"
        )


def test_offset_list_scan_beats_the_padded_compare_on_wide_buckets():
    """``tm`` alone on fw1/8000 (seed 1), whose buckets run far past the
    collision limit, uniform blocks (seed 2), no floors or trace counters:
    scanning each bucket's real entries must run at least 1.3x the frozen
    kernel's compare padded to the widest bucket (``_scalar_reference``) at
    128 and at 1024 rows, best of 7 passes over 8 blocks."""
    rules = generate_classbench("fw1", 8000, seed=1)
    tm = build_classifier("tm", rules)
    reference.padded_buckets(tm)  # build the padded rows outside the timing
    values = block_of(generate_uniform_trace(rules, 8192, seed=2).packets).astype(np.int64)
    for rows in (128, 1024):
        blocks = [values[start : start + rows] for start in range(0, 8 * rows, rows)]
        floors = [None] * len(blocks)
        scan = _best_ns(tm.classify_block_with_floors, blocks, floors, 7, traced=False)
        padded = _best_ns(
            partial(reference.searchsorted_block_with_floors, tm),
            blocks, floors, 7, traced=False,
        )
        assert padded >= 1.3 * scan, (
            f"{rows} rows: scan {scan / 1e3:.0f} us vs padded {padded / 1e3:.0f} us"
        )


def test_forest_kernel_beats_the_scalar_walk():
    """``cs`` on acl1/8000 (seed 1), uniform blocks (seed 2): the forest's
    level-synchronous ``classify_block_with_floors`` must run at least 1.5x
    the frozen per-row tree walk (``_scalar_reference``, over node objects
    rebuilt from the same arrays) at 128 rows and 3x at 1024."""
    rules = generate_classbench("acl1", 8000, seed=1)
    cs = build_classifier("cs", rules)
    reference.forest_roots(cs)  # rebuild the node objects outside the timing
    values = block_of(generate_uniform_trace(rules, 4096, seed=2).packets).astype(np.int64)
    for rows, speedup in ((128, 1.5), (1024, 3.0)):
        blocks = [values[start : start + rows] for start in range(0, 4096, rows)][:8]
        floors = [None] * len(blocks)
        kernel = _best_ns(cs.classify_block_with_floors, blocks, floors)
        loop = _best_ns(partial(reference.classify_block_with_floors, cs), blocks, floors)
        assert loop >= speedup * kernel, (
            f"{rows} rows: kernel {kernel / 1e3:.0f} us vs loop {loop / 1e3:.0f} us"
        )


def _isets_lookup(nm):
    """Every iSet of ``nm`` over one block, as ``classify_block`` runs them."""
    def lookup(block, _floors, traces=None):
        best = np.full(len(block), NO_FLOOR, dtype=np.int64)
        for iset in nm.isets:
            iset.lookup_block(block, best, traces=traces)
    return lookup


def test_native_iset_kernel_beats_the_numpy_body(monkeypatch):
    """The server's engine (acl1/8000, ``nm/tm``, ``_nm_config(64)``),
    uniform blocks (seed 2), no trace counters, best of 7 passes over 8
    blocks: the compiled kernel over both iSets must run at least 3x the
    numpy iSet body at 128 and at 1024 rows, and the whole
    ``classify_block`` at least 1.5x at 1024 rows."""
    if native.library() is None:
        pytest.skip("the native iSet kernel cannot be built on this host")
    nm, values = _serving_remainder(8192)
    assert len(nm.isets) == 2
    lib = native.library()
    for rows, lookup, speedup in (
        (128, _isets_lookup(nm), 3.0),
        (1024, _isets_lookup(nm), 3.0),
        (1024, lambda block, _floors, traces=None: nm.classify_block(block), 1.5),
    ):
        blocks = [values[start : start + rows] for start in range(0, 8 * rows, rows)]
        floors = [None] * len(blocks)
        timings = {}
        for path in ("native", "numpy"):
            monkeypatch.setattr(native, "_library", lib if path == "native" else False)
            timings[path] = _best_ns(lookup, blocks, floors, 7, traced=False)
        assert timings["numpy"] >= speedup * timings["native"], (rows, timings)


def test_wide_frames_amortize_per_frame_serving_cost():
    """One frame is one ``classify_block`` call, so rows per frame is the
    client's batching dial: on the uncached ``nm/tm`` engine, 64-row frames
    must move at least 3x the packets/s of 1-row frames."""
    rules = generate_classbench("acl1", 2000, seed=7)
    engine = ClassificationEngine.build(
        rules, classifier="nm", remainder_classifier="tm", config=fast_nm_config()
    )
    block = block_of(rules.sample_packets(2048, seed=59))
    single = asyncio.run(_windowed_pps(engine, block, rows=1))
    wide = asyncio.run(_windowed_pps(engine, block, rows=64))
    engine.close()
    assert wide >= 3.0 * single, f"64-row {wide:.0f} vs 1-row {single:.0f} pkt/s"
