"""The native fused iSet kernel (``core/_iset_kernel.c`` via ``core/native.py``).

The certified error bound covers only the function it was certified on, so
the compiled walk must equal :func:`repro.core.rqrmi.route` bit for bit on
every trained model of the suite, at 4, 8 and 16 hidden units, cold and
warm; the bounded search must give the numpy lookup's answer on every block
size, including an empty block; and the loader must build once, cache, and
fall back to the numpy body for good when it cannot build.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import native
from repro.core.config import RQRMIConfig
from repro.core.nuevomatch import NuevoMatch
from repro.core.rqrmi import RQRMI, RangeSet, route
from repro.rules import generate_classbench
from repro.rules.rule import NO_FLOOR
from repro.traffic.generators import generate_uniform_trace

from _helpers import block_of, fast_nm_config, native_kernel, scalar_arrays
from test_rqrmi import CERTIFIED_CASES, certified_model

pytestmark = pytest.mark.usefixtures("needs_native")


def boundary_keys(model, seed=0, count=4096) -> np.ndarray:
    """Random keys of the model's domain plus 0, ``domain - 1`` and every
    range's ``lo``/``hi`` and their neighbours, clipped to the domain."""
    domain = model.ranges.domain_size
    lo = np.rint(model.ranges.lo * domain).astype(np.int64)
    hi = np.rint(model.ranges.hi * domain).astype(np.int64)
    keys = np.concatenate([
        np.random.default_rng(seed).integers(0, domain, count),
        [0, domain - 1], lo - 1, lo, lo + 1, hi - 1, hi, hi + 1,
    ])
    return np.clip(keys, 0, domain - 1)


def assert_native_route_is_route(model, seed=0):
    xs = boundary_keys(model, seed).astype(np.float64) / model.ranges.domain_size
    slots, outputs = route(model.stacked, model.stage_widths, xs)
    native_slots, native_outputs = native_kernel(model).route(xs)
    assert native_slots.tobytes() == slots.tobytes()
    assert native_outputs.tobytes() == outputs.tobytes()


@functools.cache
def certified_model_with_hidden(count, widths, hidden):
    """A :data:`CERTIFIED_CASES` model (seed 0) with ``hidden`` units."""
    pairs, _ = certified_model(count, widths, 0)
    return RQRMI.train(
        RangeSet.from_integer_ranges(pairs, 1 << 16),
        RQRMIConfig(stage_widths=list(widths), hidden_units=hidden),
    )


class TestRouteBitForBit:
    def test_three_stage_models_cold_and_warm(self, three_stage):
        _case, cold, warm = three_stage
        for iset in cold.isets + warm.isets:
            assert_native_route_is_route(iset.model)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("count,widths", CERTIFIED_CASES)
    def test_certified_models(self, count, widths, seed):
        assert_native_route_is_route(certified_model(count, widths, seed)[1], seed)

    @pytest.mark.parametrize("hidden", [4, 16])
    @pytest.mark.parametrize("count,widths", CERTIFIED_CASES)
    def test_certified_models_at_other_widths(self, count, widths, hidden):
        model = certified_model_with_hidden(count, widths, hidden)
        assert model.stacked[0].hidden_units == hidden
        assert_native_route_is_route(model)


def _probe_block(rules, count=2048, seed=4) -> np.ndarray:
    """Uniform packets interleaved with every rule's lower and upper corner
    (keys on a range bound, where a search one step off answers wrong)."""
    trace = generate_uniform_trace(rules, count, seed=seed)
    uniform = block_of(trace.packets).astype(np.int64)
    corners = np.concatenate([rules.lo, rules.hi])
    rows = np.random.default_rng(seed).permutation(len(corners))[: count // 2]
    block = np.concatenate([uniform[: count - rows.size], corners[rows]])
    return np.ascontiguousarray(block[np.random.default_rng(seed).permutation(count)])


@functools.cache
def _nm_2k(application):
    rules = generate_classbench(application, 2000, seed=1)
    nm = NuevoMatch.build(rules, remainder_classifier="tm", config=fast_nm_config())
    return nm, _probe_block(rules)


@pytest.mark.parametrize("application", ["acl1", "fw1", "ipc1"])
@pytest.mark.parametrize("rows", [0, 1, 128, 2048])
def test_fused_kernel_is_the_numpy_lookup(application, rows, monkeypatch):
    nm, block = _nm_2k(application)
    block = block[:rows]
    assert nm.isets
    native_best = np.full(rows, NO_FLOOR, dtype=np.int64)
    for iset in nm.isets:
        iset.lookup_block(block, native_best)
    native_answer = nm.classify_block(block)
    monkeypatch.setattr(native, "_library", False)
    numpy_best = np.full(rows, NO_FLOOR, dtype=np.int64)
    for iset in nm.isets:
        iset.lookup_block(block, numpy_best)
    numpy_answer = nm.classify_block(block)
    assert native_best.tobytes() == numpy_best.tobytes()
    for ours, theirs in zip(native_answer, numpy_answer):
        assert ours.tobytes() == theirs.tobytes()
    if rows:
        assert (native_best != NO_FLOOR).any()


def test_traced_lookups_keep_the_numpy_body(nm_acl_medium, acl_medium):
    """A traced block runs the array body, so its five counters are the
    frozen walk's row for row, while the untraced answer is the same."""
    packets = acl_medium.sample_packets(300, seed=9)
    block = block_of(packets)
    traces = np.zeros((len(packets), 5), dtype=np.int64)
    ids, priorities = nm_acl_medium.classify_block(block, traces=traces)
    ref_ids, ref_priorities, ref_traces = scalar_arrays(nm_acl_medium, packets)
    assert np.array_equal(ids, ref_ids) and np.array_equal(priorities, ref_priorities)
    assert np.array_equal(traces, ref_traces)
    untraced = nm_acl_medium.classify_block(block)
    assert np.array_equal(untraced[0], ids) and np.array_equal(untraced[1], priorities)


class TestLoader:
    def test_statistics_name_the_kernel(self, nm_acl_medium, monkeypatch):
        assert nm_acl_medium.statistics()["iset_kernel"] == "native"
        monkeypatch.setattr(native, "_library", False)
        assert nm_acl_medium.statistics()["iset_kernel"] == "numpy"

    def test_builds_once_then_loads_from_the_cache(self, monkeypatch, tmp_path):
        builds = []
        real_build = native._build

        def counting_build(target):
            builds.append(target)
            real_build(target)

        monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(native, "_build", counting_build)
        for _ in range(2):
            monkeypatch.setattr(native, "_library", None)
            assert native.library() is not None
        assert len(builds) == 1
        assert [path.name for path in tmp_path.iterdir()] == [builds[0].name]
        assert builds[0].name.startswith("_iset_kernel.") and builds[0].suffix == ".so"

    def test_a_failing_compiler_leaves_a_working_engine_on_numpy(
        self, monkeypatch, tmp_path, acl_small
    ):
        builds = []

        def failing_build(target):
            builds.append(target)
            raise subprocess.CalledProcessError(1, ["cc"])

        monkeypatch.setattr(native, "_library", None)
        monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(native, "_build", failing_build)
        nm = NuevoMatch.build(acl_small, remainder_classifier="tm", config=fast_nm_config())
        packets = acl_small.sample_packets(200, seed=3)
        ref_ids, ref_priorities, _ = scalar_arrays(nm, packets)
        for _ in range(3):
            ids, priorities = nm.classify_block(block_of(packets))
            assert np.array_equal(ids, ref_ids)
            assert np.array_equal(priorities, ref_priorities)
        assert nm.statistics()["iset_kernel"] == "numpy"
        assert len(builds) == 1
        assert list(tmp_path.iterdir()) == []

    def test_importing_the_package_builds_and_loads_nothing(self):
        code = (
            "import repro.cli, repro.core.nuevomatch; "
            "from repro.core import native; "
            "assert native._library is None"
        )
        src = str(Path(native.__file__).resolve().parents[2])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_arrays_the_kernel_cannot_take_get_the_numpy_body(nm_acl_medium, acl_medium):
    """A strided or short ``best_keys``, or a block without the iSet's
    fields, never reaches the kernel's pointers: ``lookup_block`` answers
    the strided view on the numpy body."""
    block = block_of(acl_medium.sample_packets(64, seed=2)).astype(np.int64)
    iset = nm_acl_medium.isets[0]
    kernel = iset.kernel()
    expected = np.full(64, NO_FLOOR, dtype=np.int64)
    assert kernel.lookup(block, expected)
    strided = np.full(128, NO_FLOOR, dtype=np.int64)[::2]
    assert not kernel.lookup(block, strided)
    iset.lookup_block(block, strided)
    assert np.array_equal(strided, expected)
    assert not kernel.lookup(block[:, :2], np.full(64, NO_FLOOR, dtype=np.int64))
    assert not kernel.lookup(block, np.full(63, NO_FLOOR, dtype=np.int64))
