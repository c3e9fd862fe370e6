"""Shared non-fixture helpers for the test suite.

Lives in its own module (not ``conftest.py``) so test files can import it
explicitly: ``from _helpers import fast_nm_config``.  Importing helpers from
``conftest`` is fragile — when pytest collects both ``tests/`` and
``benchmarks/``, the name ``conftest`` resolves to whichever directory's
conftest was imported first.
"""

from __future__ import annotations

import asyncio
import sys
from types import SimpleNamespace

import numpy as np

from repro.classifiers.base import NO_FLOOR, TRACE_FIELDS, Classifier
from repro.core import native
from repro.core.config import NuevoMatchConfig, RQRMIConfig
from repro.core.nuevomatch import NuevoMatch
from repro.rules import generate_classbench
from repro.rules.rule import RuleSet
from repro.serving import AsyncClient, wire

from _nm_reference import classify_detailed
from _scalar_reference import classify_with_floor

#: Fast RQ-RMI settings used across tests (fewer Adam epochs, small widths).
FAST_RQRMI = RQRMIConfig(adam_epochs=80, initial_samples=256)


def fast_nm_config(max_isets: int = 4, min_coverage: float = 0.05) -> NuevoMatchConfig:
    """A NuevoMatch configuration that trains in seconds on small rule-sets."""
    return NuevoMatchConfig(
        max_isets=max_isets,
        min_iset_coverage=min_coverage,
        rqrmi=FAST_RQRMI,
    )


#: The 3-stage models the parent pins and the route test share:
#: ``(application, rules, RQRMIConfig overrides)``.  Cold builds use seed-1
#: rules, warm builds seed-2 rules warm-started from the cold build.
THREE_STAGE_CASES = {
    "acl1-8000": ("acl1", 8000, {}),
    "fw1-4000": ("fw1", 4000, {"stage_widths": [1, 4, 128]}),
    "ipc1-3000": ("ipc1", 3000, {"stage_widths": [1, 8, 32], "hidden_units": 16}),
    "acl1-3000": ("acl1", 3000, {"stage_widths": [1, 4, 16], "hidden_units": 4}),
}


def dispatch_count(function, *args) -> int:
    """Interpreter-level calls one ``function(*args)`` makes: the ``call``
    (Python function) and ``c_call`` (builtin) events ``sys.setprofile``
    sees.  Work inside numpy's C code is invisible to it, so the count is a
    floor on dispatches, not a total — but it is deterministic, which is what
    a budget needs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(previous)
    return count


def key_errors(model, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(|predicted - true|, leaf bound)`` for every in-range key of the
    model's (small) domain: the check below the answer level, where a bound
    one too small shows even when the answer comes out right."""
    keys = np.arange(model.ranges.domain_size)
    _, predicted, bounds = model.query_batch_detailed(keys)
    true = np.searchsorted(pairs[:, 0], keys, side="right") - 1
    inside = (true >= 0) & (keys <= pairs[np.maximum(true, 0), 1])
    return np.abs(predicted - true)[inside], bounds[inside]


def native_kernel(model, lo=None, hi=None) -> native.IsetKernel:
    """The compiled kernel over a bare RQ-RMI: a one-field iSet whose rules
    are the model's ranges (``lo``/``hi`` integer bounds, by default the
    scaled ones times the domain) and whose order key is the range index."""
    domain = model.ranges.domain_size
    if lo is None:
        lo = np.rint(model.ranges.lo * domain).astype(np.int64)
        hi = np.rint(model.ranges.hi * domain).astype(np.int64)
    rules = SimpleNamespace(
        lo=np.asarray(lo, dtype=np.int64).reshape(-1, 1),
        hi=np.asarray(hi, dtype=np.int64).reshape(-1, 1),
        key=np.arange(len(model.ranges), dtype=np.int64),
    )
    return native.IsetKernel(native.library(), model, rules, dim=0)


def native_locate(model, keys, lo=None, hi=None) -> np.ndarray:
    """The fused kernel's answer for each integer key of a bare RQ-RMI: the
    index of the range holding it, ``-1`` where none does."""
    best = np.full(len(keys), NO_FLOOR, dtype=np.int64)
    values = np.ascontiguousarray(np.asarray(keys, dtype=np.int64).reshape(-1, 1))
    assert native_kernel(model, lo, hi).lookup(values, best)
    return np.where(best == NO_FLOOR, -1, best)


def three_stage_builds(case: str) -> tuple[NuevoMatch, NuevoMatch]:
    """The ``(cold, warm)`` NuevoMatch builds of one :data:`THREE_STAGE_CASES`
    entry (``max_isets=4``, ``min_iset_coverage=0.05``, ``error_threshold=16``)."""
    application, count, overrides = THREE_STAGE_CASES[case]
    config = NuevoMatchConfig(
        max_isets=4,
        min_iset_coverage=0.05,
        rqrmi=RQRMIConfig(error_threshold=16, **overrides),
    )
    cold = NuevoMatch.build(
        generate_classbench(application, count, seed=1),
        remainder_classifier="tm", config=config,
    )
    warm = NuevoMatch.build(
        generate_classbench(application, count, seed=2),
        remainder_classifier="tm", config=config, warm_from=cold,
    )
    return cold, warm


def tied_ruleset() -> RuleSet:
    """fw1/400 (seed 1) with ten rules per priority level (priority =
    position // 40) and ids running opposite to position, so the lower id of
    two tied rules is always the later one."""
    source = generate_classbench("fw1", 400, seed=1)
    positions = np.arange(len(source))
    return RuleSet.from_columns(
        source.lo, source.hi, positions // 40, positions[::-1], source.actions,
        source.schema, name="fw1-ties",
    )


def block_of(packets) -> np.ndarray:
    """``packets`` as the ``(n, fields)`` uint64 block ``classify_block`` takes."""
    return np.array([tuple(packet) for packet in packets], dtype=np.uint64)


def iset_floors(nm: NuevoMatch, block: np.ndarray) -> np.ndarray:
    """The floors NuevoMatch hands its remainder: the iSets' best keys."""
    best = np.full(len(block), NO_FLOOR, dtype=np.int64)
    for iset in nm.isets:
        iset.lookup_block(block, best)
    return best


def block_keys(rule_ids, priorities) -> list:
    """Columnar outputs as ``(priority, rule_id)`` keys (``None`` for a miss)."""
    return [
        None if rule_id < 0 else (int(priority), int(rule_id))
        for rule_id, priority in zip(rule_ids, priorities)
    ]


def scalar_arrays(classifier, packets):
    """``(rule_ids, priorities, traces)`` from the per-packet reference of
    ``classifier`` — what every ``classify_block`` must equal row for row
    (misses encode as ``-1``/``0``).  A classifier's ``classify_traced`` is a
    1-row view of its block path, so its reference is the frozen walk:
    ``_nm_reference`` for NuevoMatch, ``_scalar_reference`` for a baseline.
    An engine stack (overlay included) answers through its own 1-row
    ``classify_traced``."""

    def lookup(packet):
        if isinstance(classifier, NuevoMatch):
            return classify_detailed(classifier, packet)[0]
        if isinstance(classifier, Classifier):
            return classify_with_floor(classifier, packet, None)
        return classifier.classify_traced(packet)

    n = len(packets)
    rule_ids = np.full(n, -1, dtype=np.int64)
    priorities = np.zeros(n, dtype=np.int64)
    traces = np.zeros((n, len(TRACE_FIELDS)), dtype=np.int64)
    for row, packet in enumerate(packets):
        result = lookup(tuple(int(v) for v in packet))
        if result.rule is not None:
            rule_ids[row] = result.rule.rule_id
            priorities[row] = result.rule.priority
        traces[row] = [getattr(result.trace, name) for name in TRACE_FIELDS]
    return rule_ids, priorities, traces


def linear_keys(rules, packets) -> list:
    """Linear search over ``rules`` (the live rules of a stack): the best
    ``(priority, rule_id)`` matching each packet, ``None`` for a miss."""
    ordered = sorted(rules, key=lambda rule: (rule.priority, rule.rule_id))
    keys = []
    for packet in packets:
        values = tuple(int(v) for v in packet)
        match = next((rule for rule in ordered if rule.matches(values)), None)
        keys.append(None if match is None else (match.priority, match.rule_id))
    return keys


def serve_packets(host: str, port: int, packets, batch: int = 1) -> int:
    """Send ``packets`` to a server as ``batch``-row classify-batch frames,
    one frame at a time over one connection; the number of answers.  A
    rejected frame raises :class:`~repro.serving.ServerError`."""

    async def _send() -> int:
        block = block_of(packets)
        answered = 0
        async with await AsyncClient.connect(host, port) as client:
            for start in range(0, len(block), batch):
                answered += len(await client.classify_batch(block[start : start + batch]))
        return answered

    return asyncio.run(_send())


class RawPeer:
    """A bare TCP peer that puts frames on the wire by hand — no
    :class:`~repro.serving.AsyncClient`, so no negotiation, id bookkeeping or
    response matching stands between a test and what the server sends."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, host: str, port: int) -> "RawPeer":
        return cls(*await asyncio.open_connection(host, port))

    async def send_json(self, **message) -> None:
        wire.write_json_frame(self.writer, message)
        await self.writer.drain()

    async def send_block(self, request_id: int, packets) -> None:
        wire.write_binary_frame(
            self.writer, wire.encode_classify_request(request_id, block_of(packets))
        )
        await self.writer.drain()

    async def recv(self, timeout: float = 10.0):
        """Next frame: ``("json", dict)``, ``("binary", (request_id, status,
        rule_ids, priorities))``, or ``None`` once the server hung up."""
        frame = await asyncio.wait_for(wire.read_any_frame(self.reader), timeout)
        if frame is not None and frame[0] == "binary":
            return "binary", wire.decode_classify_response(frame[1])
        return frame

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
