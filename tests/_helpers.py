"""Shared non-fixture helpers for the test suite.

Lives in its own module (not ``conftest.py``) so test files can import it
explicitly: ``from _helpers import fast_nm_config``.  Importing helpers from
``conftest`` is fragile — when pytest collects both ``tests/`` and
``benchmarks/``, the name ``conftest`` resolves to whichever directory's
conftest was imported first.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.classifiers.base import TRACE_FIELDS
from repro.core.config import NuevoMatchConfig, RQRMIConfig
from repro.serving import wire

#: Fast RQ-RMI settings used across tests (fewer Adam epochs, small widths).
FAST_RQRMI = RQRMIConfig(adam_epochs=80, initial_samples=256)


def fast_nm_config(max_isets: int = 4, min_coverage: float = 0.05) -> NuevoMatchConfig:
    """A NuevoMatch configuration that trains in seconds on small rule-sets."""
    return NuevoMatchConfig(
        max_isets=max_isets,
        min_iset_coverage=min_coverage,
        rqrmi=FAST_RQRMI,
    )


def block_of(packets) -> np.ndarray:
    """``packets`` as the ``(n, fields)`` uint64 block ``classify_block`` takes."""
    return np.array([tuple(packet) for packet in packets], dtype=np.uint64)


def block_keys(rule_ids, priorities) -> list:
    """Columnar outputs as ``(priority, rule_id)`` keys (``None`` for a miss)."""
    return [
        None if rule_id < 0 else (int(priority), int(rule_id))
        for rule_id, priority in zip(rule_ids, priorities)
    ]


def scalar_arrays(classifier, packets):
    """``(rule_ids, priorities, traces)`` from the scalar ``classify_traced``
    reference path of ``classifier`` — what every ``classify_block`` must equal
    row for row (misses encode as ``-1``/``0``)."""
    n = len(packets)
    rule_ids = np.full(n, -1, dtype=np.int64)
    priorities = np.zeros(n, dtype=np.int64)
    traces = np.zeros((n, len(TRACE_FIELDS)), dtype=np.int64)
    for row, packet in enumerate(packets):
        result = classifier.classify_traced(tuple(int(v) for v in packet))
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
