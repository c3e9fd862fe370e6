"""Multi-core sharded serving: the :class:`ShardedEngine`.

The paper's evaluation scales NuevoMatch by splitting the rule-set across
cores and merging per-core matches by priority (§5).  :class:`ShardedEngine`
reproduces that layer in software: the rule-set is partitioned across ``N``
per-shard :class:`~repro.engine.ClassificationEngine` instances (iSet-aware,
see :func:`repro.core.isets.partition_shards`), ``classify_block`` fans the
block out to every shard and merges the per-shard winners exactly like
NuevoMatch's selector merges its iSets — the smallest rule order key wins
(:func:`~repro.rules.rule.order_key`).  That is the only lookup implemented
here; object results come from the shared
:class:`~repro.engine.stack.EngineStack` materializer.

Executors — two, each with a benchmark workload (``bench/``) measuring it:

* ``"serial"`` (default) — the shards run in-process, one after another.
  Deterministic, no start-up cost, and the right choice on one core or when
  one shard answers in microseconds.
* ``"workers"`` — the persistent shard-worker runtime
  (:mod:`repro.serving.workers`): long-lived spawn processes fed through
  per-shard columnar shared-memory rings, no per-call pickling.  Engine swaps
  republish the shard's snapshot segment instead of tearing workers down.
  This is the one way to use N cores; ``repro serve`` defaults to it when
  ``shards > 1``.

The executor is a deployment choice, not persisted state: snapshots do not
record it and :meth:`ShardedEngine.load` takes it as an argument.

Online updates: each shard's engine owns its update overlay (the §3.9 "delta
remainder", see :mod:`repro.engine.engine`) and applies it in its own
``classify_block``; on the ``workers`` executor the workers hold snapshots of
the built structures only, and the same engines' overlays are applied here to
the ring results.  :class:`~repro.serving.updates.UpdateQueue` routes each
insert/remove to the owning shard's engine and schedules a shard's
``engine.rebuild(warm=True)`` once its remainder fraction crosses the
threshold — a NuevoMatch shard reuses or refines the submodels of the engine
being replaced, and a submodel whose warm start cannot certify its bound
retrains cold; the rebuilt engine (a new object) is swapped in atomically.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.classifiers.base import TRACE_FIELDS, MemoryFootprint
from repro.core.isets import partition_shards
from repro.engine.engine import ClassificationEngine
from repro.engine.stack import EngineStack, validate_block
from repro.engine.serialization import (
    SHARDED_FILE_VERSION,
    read_document,
    write_engine_file,
)
from repro.rules.fields import FieldSchema
from repro.rules.rule import Rule, RuleSet, first_duplicate, result_keys, split_keys
from repro.serving.updates import DEFAULT_RETRAIN_THRESHOLD, UpdateQueue
from repro.serving.workers import ShardWorkerRuntime, WorkerCrashed

__all__ = ["EXECUTORS", "ShardedEngine"]

#: Accepted fan-out strategies: in-process, or the shared-memory worker runtime.
EXECUTORS = ("serial", "workers")

#: ``kind`` discriminator stored in sharded snapshot documents.
_SHARDED_KIND = "sharded-engine"


class _Shard:
    """One shard: its engine and the swap bookkeeping.

    ``lock`` orders updates against the engine swap: an update is applied to
    ``engine`` and a rebuilt engine takes ``engine``'s place only while holding
    it, so no update lands on an engine that was just replaced.
    """

    def __init__(self, index: int, engine: ClassificationEngine):
        self.index = index
        self.engine = engine
        self.lock = threading.RLock()
        self.generation = 0
        self.retraining = False
        self.retrain_count = 0

    def swap(self, rebuilt: ClassificationEngine) -> None:
        """Put the rebuilt engine in place, with the updates it missed."""
        with self.lock:
            rebuilt.carry_overlay(self.engine)
            self.engine = rebuilt
            self.generation += 1
            self.retrain_count += 1
            self.retraining = False

    def statistics(self) -> dict[str, object]:
        with self.lock:
            return {
                "shard": self.index,
                "classifier": self.engine.classifier_name,
                **self.engine.update_statistics(),
                "generation": self.generation,
                "retrain_count": self.retrain_count,
            }


class ShardedEngine(EngineStack):
    """N per-shard engines serving as one classifier, with online updates.

    Build with :meth:`build` (partitions the rule-set and builds one
    :class:`~repro.engine.ClassificationEngine` per shard) or restore with
    :meth:`load`.  ``classify_block`` output is identical to an unsharded
    engine over the same rules: every shard classifies the block against its
    subset and the per-packet winners merge by order key; the merged trace is
    the element-wise sum of the shard traces (the total work performed
    across cores).
    """

    def __init__(
        self,
        engines: Sequence[ClassificationEngine],
        executor: str = "serial",
        retrain_threshold: float = DEFAULT_RETRAIN_THRESHOLD,
        background_retraining: bool = True,
        metadata: dict | None = None,
    ):
        if not engines:
            raise ValueError("a ShardedEngine needs at least one shard")
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        schema = engines[0].ruleset.schema
        if any(engine.ruleset.schema != schema for engine in engines):
            raise ValueError("all shards must share one field schema")
        built_ids = np.concatenate([engine.ruleset.rule_id for engine in engines])
        if (duplicate := first_duplicate(built_ids)) is not None:
            raise ValueError(f"rule id {duplicate} appears in more than one shard")
        self._schema = schema
        self._executor_kind = executor
        self.metadata = dict(metadata or {})
        self._shards = [_Shard(index, engine) for index, engine in enumerate(engines)]
        self.updates = UpdateQueue(
            self._shards,
            retrain_threshold=retrain_threshold,
            background=background_retraining,
        )
        self._worker_runtime: ShardWorkerRuntime | None = None
        self._worker_generations: list[int] | None = None
        self._pool_lock = threading.Lock()
        self._rules_map: dict[int, Rule] | None = None
        self._rules_map_parts: list[dict[int, Rule]] | None = None

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls,
        ruleset: RuleSet,
        shards: int = 2,
        classifier: str | type = "nm",
        executor: str = "serial",
        retrain_threshold: float = DEFAULT_RETRAIN_THRESHOLD,
        background_retraining: bool = True,
        metadata: dict | None = None,
        **params,
    ) -> "ShardedEngine":
        """Partition ``ruleset`` and build one engine per shard.

        Args:
            ruleset: Input rules.
            shards: Shard count, ``1 <= shards <= len(ruleset)``.
            classifier: Registry name/alias or class, as in
                :meth:`ClassificationEngine.build`; every shard uses the same
                classifier and parameters.
            executor: One of :data:`EXECUTORS`.
            retrain_threshold: Remainder fraction triggering a shard retrain.
            background_retraining: Retrain in a worker thread (default) or
                inline during the triggering update (deterministic).
            metadata: Free-form annotations persisted with :meth:`save`.
            **params: Forwarded to each shard's classifier ``build``.
        """
        engines = [
            ClassificationEngine.build(shard_rules, classifier=classifier, **params)
            for shard_rules in partition_shards(ruleset, shards)
        ]
        return cls(
            engines,
            executor=executor,
            retrain_threshold=retrain_threshold,
            background_retraining=background_retraining,
            metadata=metadata,
        )

    # ------------------------------------------------------------------ serve

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def executor(self) -> str:
        return self._executor_kind

    def shard_sizes(self) -> list[int]:
        """Live rule count per shard."""
        return [shard.engine.live_size() for shard in self._shards]

    @property
    def schema(self) -> FieldSchema:
        return self._schema

    @property
    def ruleset(self) -> RuleSet:
        """The live rules across all shards, best first.

        Rebuilt and sorted on every read — for reports and oracles; a data
        path needs only :attr:`schema`."""
        return RuleSet.concat(
            [shard.engine.live_ruleset() for shard in self._shards], name="sharded"
        ).best_first()

    def classify_block_per_shard(
        self, block: np.ndarray, want_traces: bool = False
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
        """Per-shard ``(rule_ids, priorities, traces)`` for a block, overlay
        applied — :meth:`classify_block` before the merge.

        Exposed so the simulation layer can price each shard's work separately
        (per-shard latency → parallel batch latency).  ``traces`` is ``None``
        on the serial executor unless ``want_traces`` — skipping the per-shard
        trace arrays keeps the no-trace serve path allocation-light; the
        worker rings always carry it.
        """
        block = validate_block(block)
        if self._executor_kind == "workers":
            # Sync the runtime first so the workers serve the built structures
            # of the engines whose overlays are applied to their results.
            self._ensure_worker_runtime()
            engines = [shard.engine for shard in self._shards]
            outputs = self._runtime_classify(block)
            for engine, (ids, pris, shard_traces) in zip(engines, outputs):
                engine.adjust_block(block, ids, pris, traces=shard_traces)
            return outputs
        outputs = []
        for shard in self._shards:
            shard_traces = (
                np.zeros((block.shape[0], len(TRACE_FIELDS)), dtype=np.int64)
                if want_traces
                else None
            )
            ids, pris = shard.engine.classify_block(block, traces=shard_traces)
            outputs.append((ids, pris, shard_traces))
        return outputs

    def classify_block(
        self, block: np.ndarray, traces: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar lookup: ``(n, fields)`` block → ``(rule_ids, priorities)``.

        The block fans out columnar to every shard (shared-memory rings for
        ``executor="workers"``, per-shard ``classify_block`` in-process
        otherwise), each shard engine's update overlay applies vectorized
        (:meth:`ClassificationEngine.adjust_block
        <repro.engine.ClassificationEngine.adjust_block>`), and the per-shard
        winners merge as the smallest order key — no per-packet Python objects
        on either executor, with or without pending updates.  Misses carry
        ``rule_id == -1`` and ``priority == 0``; ``traces`` (optional
        ``(n, 5)`` int64, :data:`~repro.classifiers.base.TRACE_FIELDS` order)
        is overwritten with the element-wise sum of the shard traces.
        """
        block = validate_block(block)
        n = block.shape[0]
        if traces is not None:
            traces[:n] = 0
        if n == 0:
            return np.full(0, -1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        outputs = self.classify_block_per_shard(block, traces is not None)
        if traces is not None:
            for _ids, _pris, shard_traces in outputs:
                traces[:n] += shard_traces
        keys = np.minimum.reduce([result_keys(ids, pris) for ids, pris, _ in outputs])
        return split_keys(keys)

    def rules_by_id(self, refresh: bool = False) -> dict[int, Rule]:
        """``rule_id -> Rule`` over the live rules of every shard.

        The merge of the shard engines' own maps, redone only when one of
        them was (an update or a swap gives that shard a new map object), so
        the :class:`EngineStack` materializer resolves columnar ids without
        rebuilding the map per batch.
        """
        parts = [shard.engine.rules_by_id(refresh) for shard in self._shards]
        if self._rules_map_parts is None or any(
            a is not b for a, b in zip(parts, self._rules_map_parts)
        ):
            mapping: dict[int, Rule] = {}
            for part in parts:
                mapping.update(part)
            self._rules_map = mapping
            self._rules_map_parts = parts
        return self._rules_map

    # ---------------------------------------------------------------- fan-out

    def _runtime_classify(
        self, block: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Run a block through the worker runtime, restarting it once if a
        worker died (fresh snapshots, same generations semantics)."""
        runtime = self._ensure_worker_runtime()
        try:
            return runtime.classify_block(block)
        except WorkerCrashed:
            with self._pool_lock:
                if self._worker_runtime is runtime:
                    runtime.close()
                    self._worker_runtime = None
                    self._worker_generations = None
            return self._ensure_worker_runtime().classify_block(block)

    def _ensure_worker_runtime(self) -> ShardWorkerRuntime:
        """The shard-worker runtime, started lazily; engine swaps republish
        the affected shard's snapshot instead of restarting anything."""
        with self._pool_lock:
            generations = [shard.generation for shard in self._shards]
            if self._worker_runtime is None:
                runtime = ShardWorkerRuntime()
                runtime.start([shard.engine for shard in self._shards])
                self._worker_runtime = runtime
                self._worker_generations = generations
            elif generations != self._worker_generations:
                for index, (seen, now) in enumerate(
                    zip(self._worker_generations, generations)
                ):
                    if seen != now:
                        self._worker_runtime.publish(
                            index, self._shards[index].engine
                        )
                self._worker_generations = generations
            return self._worker_runtime

    def close(self) -> None:
        """Stop the shard workers and wait for in-flight retrains."""
        self.updates.join()
        with self._pool_lock:
            if self._worker_runtime is not None:
                runtime, self._worker_runtime = self._worker_runtime, None
                self._worker_generations = None
                runtime.close()

    # ----------------------------------------------------------------- update

    def insert(self, rule: Rule) -> None:
        """Insert a rule online; applied immediately to the owning shard."""
        self.updates.insert(rule)

    def remove(self, rule_id: int) -> bool:
        """Remove a rule online; returns True if it was present."""
        return self.updates.remove(rule_id)

    # ----------------------------------------------------------- introspection

    def memory_footprint(self) -> MemoryFootprint:
        footprint = MemoryFootprint()
        for shard in self._shards:
            footprint = footprint.merge(shard.engine.memory_footprint())
        return footprint

    def statistics(self) -> dict[str, object]:
        return {
            "name": "sharded",
            "num_shards": self.num_shards,
            "executor": self._executor_kind,
            "num_rules": sum(self.shard_sizes()),
            "shards": [shard.statistics() for shard in self._shards],
            "updates": self.updates.statistics(),
            "engine_metadata": dict(self.metadata),
        }

    # ------------------------------------------------------------ persistence

    def save(self, path: str | Path) -> None:
        """Persist all shards — built engines plus their overlays — to one file.

        The document embeds one versioned engine snapshot per shard, so a
        restored :class:`ShardedEngine` serves identically without retraining.
        Paths ending in ``.gz`` are compressed.
        """
        from repro import __version__

        shards_state = []
        for shard in self._shards:
            with shard.lock:
                engine = shard.engine
                shards_state.append(
                    {"engine": engine.built_document(), **engine.overlay_state()}
                )
        write_engine_file(
            path,
            {
                "format": SHARDED_FILE_VERSION,
                "kind": _SHARDED_KIND,
                "repro_version": __version__,
                "retrain_threshold": self.updates.retrain_threshold,
                "metadata": self.metadata,
                "shards": shards_state,
            },
        )

    @classmethod
    def load(
        cls,
        path: str | Path,
        executor: str = "serial",
        background_retraining: bool = True,
    ) -> "ShardedEngine":
        """Restore a sharded engine saved with :meth:`save`."""
        return cls.from_document(read_document(path), executor, background_retraining)

    @classmethod
    def from_document(
        cls,
        document: dict,
        executor: str = "serial",
        background_retraining: bool = True,
    ) -> "ShardedEngine":
        """The sharded engine a :meth:`save` document holds.

        ``executor`` is a deployment choice, not snapshot state: an
        ``"executor"`` key written by an older build is ignored, so those
        snapshots keep loading whatever it names — as are the ``"partitioner"``
        and retrain-policy keys older builds wrote (the split is always
        iSet-aware, a retrain always a warm rebuild).
        """
        kind = document.get("kind")
        if kind != _SHARDED_KIND:
            raise ValueError(
                f"not a sharded-engine snapshot (kind {kind!r}); "
                "single-engine files load with ClassificationEngine.load"
            )
        version = document.get("format")
        if version != SHARDED_FILE_VERSION:
            raise ValueError(
                f"unsupported sharded-engine file format {version!r} "
                f"(this build reads version {SHARDED_FILE_VERSION})"
            )
        engines = [
            ClassificationEngine.from_document(shard_state["engine"])
            for shard_state in document["shards"]
        ]
        sharded = cls(
            engines,
            executor=executor,
            retrain_threshold=document.get(
                "retrain_threshold", DEFAULT_RETRAIN_THRESHOLD
            ),
            background_retraining=background_retraining,
            metadata=document.get("metadata"),
        )
        for engine, shard_state in zip(engines, document["shards"]):
            engine.restore_overlay(shard_state)
        return sharded

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedEngine({self.num_shards} shards, "
            f"{sum(self.shard_sizes())} rules, executor={self._executor_kind!r})"
        )
