"""Multi-core sharded serving: the :class:`ShardedEngine`.

The paper's evaluation scales NuevoMatch by splitting the rule-set across
cores and merging per-core matches by priority (§5).  :class:`ShardedEngine`
reproduces that layer in software: the rule-set is partitioned across ``N``
per-shard :class:`~repro.engine.ClassificationEngine` instances (iSet-aware by
default, see :mod:`repro.serving.partitioning`), ``classify_block`` fans the
block out to every shard, applies each shard's update overlay vectorized, and
merges the per-shard winners exactly like NuevoMatch's selector merges its
iSets — lowest numeric priority wins, ties broken by ``rule_id``.  That is the
only lookup implemented here; object results come from the shared
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

Online updates go through :class:`~repro.serving.updates.UpdateQueue`:
inserts/removes apply immediately to the owning shard's overlay ("delta
remainder") and background retraining folds the overlay back into the shard's
built structure once its remainder fraction crosses the threshold, swapping
the rebuilt engine in atomically.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.classifiers.base import TRACE_FIELDS, MemoryFootprint
from repro.core.nuevomatch import NuevoMatch
from repro.core.pipeline import TrainingPipeline
from repro.engine.engine import ClassificationEngine
from repro.engine.stack import EngineStack, validate_block
from repro.engine.serialization import (
    SHARDED_FILE_VERSION,
    read_document,
    rule_from_state,
    rule_to_state,
    write_engine_file,
)
from repro.rules.fields import FieldSchema
from repro.rules.rule import Rule, RuleSet
from repro.serving.partitioning import PARTITIONERS, partition_for_shards
from repro.serving.updates import DEFAULT_RETRAIN_THRESHOLD, UpdateQueue
from repro.serving.workers import ShardWorkerRuntime, WorkerCrashed

__all__ = ["EXECUTORS", "ShardedEngine"]

#: Accepted fan-out strategies: in-process, or the shared-memory worker runtime.
EXECUTORS = ("serial", "workers")

#: ``kind`` discriminator stored in sharded snapshot documents.
_SHARDED_KIND = "sharded-engine"


def _rules_to_arrays(
    rules: Sequence[Rule], num_fields: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(los, his, priorities, rule_ids)`` for ``rules``, best-first.

    Rows are sorted by ``(priority, rule_id)`` so a first-containment scan
    (``argmax`` over a boolean matrix) yields the best match directly — the
    overlay/rescan passes lean on that ordering.
    """
    ordered = sorted(rules, key=lambda rule: (rule.priority, rule.rule_id))
    count = len(ordered)
    los = np.empty((count, num_fields), dtype=np.int64)
    his = np.empty((count, num_fields), dtype=np.int64)
    priorities = np.empty(count, dtype=np.int64)
    rule_ids = np.empty(count, dtype=np.int64)
    for row, rule in enumerate(ordered):
        for dim, (lo, hi) in enumerate(rule.ranges):
            los[row, dim] = lo
            his[row, dim] = hi
        priorities[row] = rule.priority
        rule_ids[row] = rule.rule_id
    return los, his, priorities, rule_ids


class _Shard:
    """One shard: its engine, the update overlay, and swap bookkeeping.

    The overlay is the shard's *delta remainder*: ``inserted`` holds rules
    added (or modified) since the engine was built, ``removed`` masks rule ids
    deleted from the built structure.  Both carry the update sequence number
    at which they were applied, so a retrain can fold in exactly the updates
    its snapshot covered and keep the rest pending.
    """

    def __init__(self, index: int, engine: ClassificationEngine):
        self.index = index
        self.engine = engine
        self.lock = threading.RLock()
        #: rule_id -> (update sequence, rule)
        self.inserted: dict[int, tuple[int, Rule]] = {}
        #: rule_id -> update sequence at which it was masked
        self.removed: dict[int, int] = {}
        self.update_seq = 0
        self.generation = 0
        self.retraining = False
        self.retrain_count = 0
        self._base_ids: set[int] = set()
        self._base_ids_generation = -1
        self._rule_arrays: tuple | None = None
        self._rule_arrays_generation = -1

    # ------------------------------------------------------------- live view

    def base_ids(self) -> set[int]:
        """Ids of the rules in the built engine (cached per generation)."""
        with self.lock:
            if self._base_ids_generation != self.generation:
                self._base_ids = {rule.rule_id for rule in self.engine.ruleset}
                self._base_ids_generation = self.generation
            return self._base_ids

    def rule_arrays(
        self, engine: ClassificationEngine
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Best-first ``(los, his, priorities, rule_ids)`` over ``engine``'s
        built rules.  Cached per generation when ``engine`` is the shard's
        current engine; built ad hoc for a stale snapshot engine (a retrain
        swapped mid-call — rare)."""
        num_fields = len(engine.ruleset.schema)
        with self.lock:
            if engine is self.engine:
                if self._rule_arrays_generation != self.generation:
                    self._rule_arrays = _rules_to_arrays(
                        list(self.engine.ruleset), num_fields
                    )
                    self._rule_arrays_generation = self.generation
                return self._rule_arrays
        return _rules_to_arrays(list(engine.ruleset), num_fields)

    def live_ids(self) -> set[int]:
        with self.lock:
            return (self.base_ids() - set(self.removed)) | set(self.inserted)

    def live_size(self) -> int:
        with self.lock:
            base_ids = self.base_ids()
            masked = sum(1 for rule_id in self.removed if rule_id in base_ids)
            return len(base_ids) - masked + len(self.inserted)

    def live_ruleset(self) -> RuleSet:
        """The shard's effective rules: base minus masks plus the overlay."""
        with self.lock:
            rules = [
                rule
                for rule in self.engine.ruleset
                if rule.rule_id not in self.removed
            ]
            rules.extend(rule for _seq, rule in self.inserted.values())
            return self.engine.ruleset.subset(rules)

    def remainder_fraction(self) -> float:
        """Fraction of live rules served by the slow path (§3.9).

        For a NuevoMatch shard that is the built-in remainder set plus the
        update overlay; for baseline shards only the overlay counts (the whole
        structure *is* the "remainder").
        """
        with self.lock:
            live = self.live_size()
            if live <= 0:
                return 1.0
            classifier = self.engine.classifier
            base_remainder = (
                len(classifier.partition.remainder)
                if isinstance(classifier, NuevoMatch)
                else 0
            )
            overlay = len(self.inserted) + len(self.removed)
            return min(1.0, (base_remainder + overlay) / live)

    # --------------------------------------------------------------- updates

    def apply_insert(self, rule: Rule, mask_old: bool) -> None:
        with self.lock:
            self.update_seq += 1
            if mask_old:
                self.removed[rule.rule_id] = self.update_seq
            self.inserted[rule.rule_id] = (self.update_seq, rule)

    def apply_remove(self, rule_id: int) -> None:
        with self.lock:
            self.update_seq += 1
            self.inserted.pop(rule_id, None)
            self.removed[rule_id] = self.update_seq

    # ------------------------------------------------------------ retraining

    def begin_retrain(self) -> tuple[RuleSet, int]:
        """Snapshot the live rules; returns (snapshot, snapshot sequence)."""
        with self.lock:
            snapshot_seq = self.update_seq
            return self.live_ruleset(), snapshot_seq

    def complete_retrain(self, new_engine: ClassificationEngine, snapshot_seq: int) -> None:
        """Swap the rebuilt engine in and fold the covered overlay entries."""
        with self.lock:
            new_ids = {rule.rule_id for rule in new_engine.ruleset}
            self.engine = new_engine
            self.inserted = {
                rule_id: (seq, rule)
                for rule_id, (seq, rule) in self.inserted.items()
                if seq > snapshot_seq
            }
            # Masks newer than the snapshot still apply (their base copy is in
            # the rebuilt structure); everything else was already excluded.
            self.removed = {
                rule_id: seq
                for rule_id, seq in self.removed.items()
                if seq > snapshot_seq and rule_id in new_ids
            }
            self.generation += 1
            self.retrain_count += 1
            self.retraining = False

    # -------------------------------------------------------------- serving

    def snapshot(self) -> tuple[ClassificationEngine, list[Rule], frozenset]:
        """Consistent (engine, overlay rules best-first, masked ids) triple."""
        with self.lock:
            overlay = sorted(
                (rule for _seq, rule in self.inserted.values()),
                key=lambda rule: (rule.priority, rule.rule_id),
            )
            return self.engine, overlay, frozenset(self.removed)

    def adjust_block(
        self,
        engine: ClassificationEngine,
        overlay: list[Rule],
        removed: frozenset,
        values: np.ndarray,
        rule_ids: np.ndarray,
        priorities: np.ndarray,
        traces: np.ndarray | None = None,
    ) -> None:
        """Apply the update overlay to the shard's base results, in place.

        ``values`` is the int64 packet block; ``rule_ids``/``priorities`` are
        the shard's base columnar results.  A masked winner costs a rescan of
        every live base rule (one rule access + ``num_fields`` compute ops
        each); overlay rules are then probed best-first, one access each,
        until one matches or the current winner strictly beats the next.
        """
        if not overlay and not removed:
            return
        num_fields = values.shape[1]
        if removed:
            removed_ids = np.fromiter(
                removed, dtype=np.int64, count=len(removed)
            )
            affected = np.flatnonzero(np.isin(rule_ids, removed_ids))
            if affected.size:
                # The built structure returned masked rules: rescan the live
                # base rules for the runner-up, vectorized over the (rare)
                # affected rows (masked rules vanish for good at the next
                # retraining, cf. UpdatableNuevoMatch).
                los, his, base_pris, base_ids = self.rule_arrays(engine)
                live = ~np.isin(base_ids, removed_ids)
                scanned = int(live.sum())
                rows = values[affected]
                contained = (
                    (rows[:, None, :] >= los[None, :, :])
                    & (rows[:, None, :] <= his[None, :, :])
                ).all(axis=2) & live[None, :]
                hit = contained.any(axis=1)
                first = np.where(hit, contained.argmax(axis=1), 0)
                rule_ids[affected] = np.where(hit, base_ids[first], -1)
                priorities[affected] = np.where(hit, base_pris[first], 0)
                if traces is not None:
                    traces[affected, 1] += scanned
                    traces[affected, 3] += scanned * num_fields
        if overlay:
            count = len(overlay)
            o_los, o_his, o_pris, o_ids = _rules_to_arrays(
                overlay, num_fields
            )
            # Overlay rules are probed best-first until the current winner
            # strictly beats the next rule; with the overlay sorted ascending
            # that cutoff is the first "beaten" column.
            has_winner = rule_ids >= 0
            beaten = has_winner[:, None] & (
                (priorities[:, None] < o_pris[None, :])
                | (
                    (priorities[:, None] == o_pris[None, :])
                    & (rule_ids[:, None] < o_ids[None, :])
                )
            )
            stop = np.where(beaten.any(axis=1), beaten.argmax(axis=1), count)
            match = (
                (values[:, None, :] >= o_los[None, :, :])
                & (values[:, None, :] <= o_his[None, :, :])
            ).all(axis=2)
            eligible = match & (np.arange(count)[None, :] < stop[:, None])
            hit = eligible.any(axis=1)
            first = np.where(hit, eligible.argmax(axis=1), 0)
            if traces is not None:
                probed = np.where(hit, first + 1, stop)
                traces[:, 1] += probed
                traces[:, 3] += probed * num_fields
            rule_ids[hit] = o_ids[first[hit]]
            priorities[hit] = o_pris[first[hit]]

    def statistics(self) -> dict[str, object]:
        with self.lock:
            return {
                "shard": self.index,
                "classifier": self.engine.classifier_name,
                "live_rules": self.live_size(),
                "base_rules": len(self.engine.ruleset),
                "overlay_inserted": len(self.inserted),
                "overlay_removed": len(self.removed),
                "remainder_fraction": self.remainder_fraction(),
                "generation": self.generation,
                "retrain_count": self.retrain_count,
            }


def _rebuild_shard_engine(
    shard: _Shard,
    pipeline: "TrainingPipeline | None" = None,
    warm: bool = False,
) -> tuple[ClassificationEngine, int]:
    """Build a fresh engine over a shard's live rules (outside its lock).

    With ``warm`` (the default for sharded serving), a NuevoMatch shard's
    retrain is seeded from the engine being replaced: unchanged submodels are
    reused under their certified bounds and only submodels whose
    responsibility content changed retrain (see
    :mod:`repro.core.pipeline`) — the retrain-to-swap latency shrinks
    accordingly.  Baseline classifiers have no trained state and always
    rebuild from parameters.
    """
    live, snapshot_seq = shard.begin_retrain()
    old = shard.engine.classifier
    if isinstance(old, NuevoMatch):
        classifier = NuevoMatch.build(
            live,
            remainder_classifier=type(old.remainder),
            config=old.config,
            pipeline=pipeline,
            warm_from=old if warm else None,
            **old.remainder.build_params,
        )
    else:
        classifier = type(old).build(live, **old.build_params)
    return (
        ClassificationEngine(classifier, metadata=shard.engine.metadata),
        snapshot_seq,
    )


class ShardedEngine(EngineStack):
    """N per-shard engines serving as one classifier, with online updates.

    Build with :meth:`build` (partitions the rule-set and builds one
    :class:`~repro.engine.ClassificationEngine` per shard) or restore with
    :meth:`load`.  ``classify_block`` output is identical to an unsharded
    engine over the same rules: every shard classifies the block against its
    subset and the per-packet winners merge by ``(priority, rule_id)``; the
    merged trace is the element-wise sum of the shard traces (the total work
    performed across cores).
    """

    def __init__(
        self,
        engines: Sequence[ClassificationEngine],
        partitioner: str = "auto",
        executor: str = "serial",
        retrain_threshold: float = DEFAULT_RETRAIN_THRESHOLD,
        background_retraining: bool = True,
        warm_retrain: bool = True,
        retrain_jobs: int = 1,
        metadata: dict | None = None,
    ):
        if not engines:
            raise ValueError("a ShardedEngine needs at least one shard")
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        schema = engines[0].ruleset.schema
        seen_ids: set[int] = set()
        for engine in engines:
            if engine.ruleset.schema != schema:
                raise ValueError("all shards must share one field schema")
            for rule in engine.ruleset:
                if rule.rule_id in seen_ids:
                    raise ValueError(
                        f"rule id {rule.rule_id} appears in more than one shard"
                    )
                seen_ids.add(rule.rule_id)
        self._schema = schema
        self._partitioner = partitioner
        self._executor_kind = executor
        self.metadata = dict(metadata or {})
        self._warm_retrain = warm_retrain
        self._retrain_jobs = retrain_jobs
        self._retrain_pipeline = (
            TrainingPipeline(jobs=retrain_jobs) if warm_retrain or retrain_jobs > 1
            else None
        )
        self._shards = [_Shard(index, engine) for index, engine in enumerate(engines)]
        self.updates = UpdateQueue(
            self._shards,
            rebuild=self._rebuild_shard,
            retrain_threshold=retrain_threshold,
            background=background_retraining,
        )
        self._worker_runtime: ShardWorkerRuntime | None = None
        self._worker_generations: list[int] | None = None
        self._pool_lock = threading.Lock()
        self._rules_map: dict[int, Rule] | None = None
        self._rules_map_key: tuple | None = None

    def _rebuild_shard(self, shard: _Shard) -> tuple[ClassificationEngine, int]:
        """The UpdateQueue rebuild hook: warm-start through the pipeline."""
        return _rebuild_shard_engine(
            shard, pipeline=self._retrain_pipeline, warm=self._warm_retrain
        )

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls,
        ruleset: RuleSet,
        shards: int = 2,
        classifier: str | type = "nm",
        partitioner: str = "auto",
        executor: str = "serial",
        retrain_threshold: float = DEFAULT_RETRAIN_THRESHOLD,
        background_retraining: bool = True,
        warm_retrain: bool = True,
        retrain_jobs: int = 1,
        pipeline=None,
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
            partitioner: One of :data:`~repro.serving.partitioning.PARTITIONERS`.
            executor: One of :data:`EXECUTORS`.
            retrain_threshold: Remainder fraction triggering a shard retrain.
            background_retraining: Retrain in a worker thread (default) or
                inline during the triggering update (deterministic).
            warm_retrain: Seed shard retrains from the engine being replaced
                (NuevoMatch shards; see :mod:`repro.core.pipeline`).
            retrain_jobs: Process-pool width for a retrain's iSet training.
            pipeline: Optional :class:`~repro.core.pipeline.TrainingPipeline`
                for the *initial* per-shard builds (NuevoMatch only).
            metadata: Free-form annotations persisted with :meth:`save`.
            **params: Forwarded to each shard's classifier ``build``.
        """
        shard_rulesets = partition_for_shards(ruleset, shards, partitioner)
        engines = [
            ClassificationEngine.build(
                shard_rules, classifier=classifier, pipeline=pipeline, **params
            )
            for shard_rules in shard_rulesets
        ]
        return cls(
            engines,
            partitioner=partitioner,
            executor=executor,
            retrain_threshold=retrain_threshold,
            background_retraining=background_retraining,
            warm_retrain=warm_retrain,
            retrain_jobs=retrain_jobs,
            metadata=metadata,
        )

    # ------------------------------------------------------------------ serve

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def executor(self) -> str:
        return self._executor_kind

    @property
    def partitioner(self) -> str:
        return self._partitioner

    def shard_sizes(self) -> list[int]:
        """Live rule count per shard."""
        return [shard.live_size() for shard in self._shards]

    @property
    def schema(self) -> FieldSchema:
        return self._schema

    @property
    def ruleset(self) -> RuleSet:
        """The live rules across all shards, best-priority first.

        Rebuilt and sorted on every read — for reports and oracles; a data
        path needs only :attr:`schema`."""
        rules: list[Rule] = []
        for shard in self._shards:
            rules.extend(shard.live_ruleset().rules)
        rules.sort(key=lambda rule: (rule.priority, rule.rule_id))
        return RuleSet(rules, self._schema, name="sharded")

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
            # Sync the runtime before snapshotting so workers serve the same
            # generation the snapshots describe.
            self._ensure_worker_runtime()
        snapshots = [shard.snapshot() for shard in self._shards]
        if self._executor_kind == "workers":
            outputs = self._runtime_classify(block)
        else:
            outputs = []
            for engine, _overlay, _removed in snapshots:
                shard_traces = (
                    np.zeros((block.shape[0], len(TRACE_FIELDS)), dtype=np.int64)
                    if want_traces
                    else None
                )
                ids, pris = engine.classify_block(block, traces=shard_traces)
                outputs.append((ids, pris, shard_traces))
        if any(overlay or removed for _engine, overlay, removed in snapshots):
            values = block.astype(np.int64, copy=False)
            for shard, (engine, overlay, removed), (ids, pris, shard_traces) in zip(
                self._shards, snapshots, outputs
            ):
                shard.adjust_block(
                    engine, overlay, removed, values, ids, pris, traces=shard_traces
                )
        return outputs

    def classify_block(
        self, block: np.ndarray, traces: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar lookup: ``(n, fields)`` block → ``(rule_ids, priorities)``.

        The block fans out columnar to every shard (shared-memory rings for
        ``executor="workers"``, per-shard ``classify_block`` in-process
        otherwise), the update overlay applies vectorized
        (:meth:`_Shard.adjust_block`), and the per-shard winners merge
        rule-id-aware — no per-packet Python objects on either executor, with
        or without pending updates.  Misses carry ``rule_id == -1`` and
        ``priority == 0``; ``traces`` (optional ``(n, 5)`` int64,
        :data:`~repro.classifiers.base.TRACE_FIELDS` order) is overwritten
        with the element-wise sum of the shard traces.
        """
        block = validate_block(block)
        n = block.shape[0]
        rule_ids = np.full(n, -1, dtype=np.int64)
        priorities = np.zeros(n, dtype=np.int64)
        if traces is not None:
            traces[:n] = 0
        if n == 0:
            return rule_ids, priorities
        outputs = self.classify_block_per_shard(block, traces is not None)
        for index, (ids, pris, shard_traces) in enumerate(outputs):
            if traces is not None:
                traces[:n] += shard_traces
            if index == 0:
                rule_ids[:] = ids
                priorities[:] = pris
            else:
                better = (ids >= 0) & (
                    (rule_ids < 0)
                    | (pris < priorities)
                    | ((pris == priorities) & (ids < rule_ids))
                )
                np.copyto(rule_ids, ids, where=better)
                np.copyto(priorities, pris, where=better)
        return rule_ids, priorities

    def rules_by_id(self, refresh: bool = False) -> dict[int, Rule]:
        """``rule_id -> Rule`` over the live rules of every shard.

        Cached against each shard's ``(generation, update_seq)`` pair so the
        :class:`EngineStack` materializer resolves columnar ids without
        rebuilding the map per batch.
        """
        key = tuple(
            (shard.generation, shard.update_seq) for shard in self._shards
        )
        if refresh or self._rules_map is None or self._rules_map_key != key:
            mapping: dict[int, Rule] = {}
            for shard in self._shards:
                # Original Rule objects, not live_ruleset(): RuleSet
                # normalization rewrites negative priorities, and the overlay
                # serves inserted rules exactly as given.
                with shard.lock:
                    removed = shard.removed
                    for rule in shard.engine.ruleset:
                        if rule.rule_id not in removed:
                            mapping[rule.rule_id] = rule
                    for _seq, rule in shard.inserted.values():
                        mapping[rule.rule_id] = rule
            self._rules_map = mapping
            self._rules_map_key = key
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

    @property
    def supports_updates(self) -> bool:
        """Always True: the overlay absorbs updates for any classifier kind."""
        return True

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
            "partitioner": self._partitioner,
            "warm_retrain": self._warm_retrain,
            "retrain_jobs": self._retrain_jobs,
            "num_rules": sum(self.shard_sizes()),
            "shards": [shard.statistics() for shard in self._shards],
            "updates": self.updates.statistics(),
            "engine_metadata": dict(self.metadata),
        }

    # ------------------------------------------------------------ persistence

    def save(self, path: str | Path) -> None:
        """Persist all shards — engines plus update overlays — to one file.

        The document embeds one versioned engine snapshot per shard, so a
        restored :class:`ShardedEngine` serves identically without retraining.
        Paths ending in ``.gz`` are compressed.
        """
        from repro import __version__

        shards_state = []
        for shard in self._shards:
            with shard.lock:
                shards_state.append(
                    {
                        "engine": shard.engine.to_document(),
                        "inserted": [
                            rule_to_state(rule)
                            for _seq, rule in sorted(shard.inserted.values())
                        ],
                        "removed": sorted(shard.removed),
                    }
                )
        write_engine_file(
            path,
            {
                "format": SHARDED_FILE_VERSION,
                "kind": _SHARDED_KIND,
                "repro_version": __version__,
                "partitioner": self._partitioner,
                "retrain_threshold": self.updates.retrain_threshold,
                "warm_retrain": self._warm_retrain,
                "retrain_jobs": self._retrain_jobs,
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
        """Restore a sharded engine saved with :meth:`save`.

        ``executor`` is a deployment choice, not snapshot state: an
        ``"executor"`` key written by an older build is ignored, so those
        snapshots keep loading whatever it names.
        """
        document = read_document(path)
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
            partitioner=document.get("partitioner", "auto"),
            executor=executor,
            retrain_threshold=document.get(
                "retrain_threshold", DEFAULT_RETRAIN_THRESHOLD
            ),
            background_retraining=background_retraining,
            warm_retrain=document.get("warm_retrain", True),
            retrain_jobs=document.get("retrain_jobs", 1),
            metadata=document.get("metadata"),
        )
        for shard, shard_state in zip(sharded._shards, document["shards"]):
            for rule_id in shard_state.get("removed", []):
                shard.apply_remove(int(rule_id))
            for rule_state in shard_state.get("inserted", []):
                shard.apply_insert(rule_from_state(rule_state), mask_old=False)
        sharded.updates.reindex()
        return sharded

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedEngine({self.num_shards} shards, "
            f"{sum(self.shard_sizes())} rules, executor={self._executor_kind!r})"
        )
