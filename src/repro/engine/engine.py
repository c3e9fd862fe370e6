"""The :class:`ClassificationEngine` serving facade.

The engine owns the build → serve → update → persist lifecycle for any
registered classifier:

* **build** — ``ClassificationEngine.build(ruleset, classifier="nm", ...)``
  resolves the classifier through the registry and constructs it.
* **serve** — :meth:`ClassificationEngine.classify_block` is the lookup (the
  paper's throughput comes from batched, vectorized RQ-RMI inference); the
  object results (``classify_batch``, ``classify_traced``, ``classify``,
  ``serve``, ``verify``) are the :class:`~repro.engine.stack.EngineStack`
  mixin's views over it, shared with the sharded and cached stacks.
* **update** — :meth:`insert` / :meth:`remove` delegate to classifiers that
  implement :class:`~repro.classifiers.base.UpdatableClassifier`.
* **persist** — :meth:`save` / :meth:`load` round-trip the trained structures
  (RQ-RMI submodels, iSet partitions, remainder state) through the versioned
  ``to_state``/``from_state`` protocol, so training cost is paid once per
  rule-set.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from repro.classifiers.base import Classifier, MemoryFootprint, UpdatableClassifier
from repro.classifiers.registry import resolve_classifier
from repro.engine.serialization import (
    ENGINE_FILE_VERSION,
    read_document,
    ruleset_from_state,
    ruleset_to_state,
    write_engine_file,
)
from repro.engine.stack import EngineStack, validate_block
from repro.rules.fields import FieldSchema
from repro.rules.rule import Rule, RuleSet

__all__ = ["ClassificationEngine"]


class ClassificationEngine(EngineStack):
    """Facade over a built classifier: batch serving, updates, persistence."""

    def __init__(
        self,
        classifier: Classifier,
        metadata: dict | None = None,
    ):
        self.classifier = classifier
        self.metadata = dict(metadata or {})
        # Online updates applied through the engine, so save() can persist the
        # *effective* rule-set (the classifier's own ruleset is the build-time
        # snapshot and does not see insert/remove).
        self._inserted: dict[int, Rule] = {}
        self._removed: set[int] = set()
        self._rules_by_id_cache: dict[int, Rule] | None = None

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls,
        ruleset: RuleSet,
        classifier: str | type[Classifier] = "nm",
        metadata: dict | None = None,
        pipeline=None,
        warm_from=None,
        **params,
    ) -> "ClassificationEngine":
        """Build an engine over ``ruleset``.

        Args:
            ruleset: Input rules.
            classifier: Registry name/alias (``"nm"``, ``"tuplemerge"``, …) or
                a :class:`Classifier` subclass.
            metadata: Free-form annotations persisted with :meth:`save`.
            pipeline: A :class:`~repro.core.pipeline.TrainingPipeline` for
                classifiers with trained state (NuevoMatch): stage training
                runs vectorized and fans across ``pipeline.jobs`` processes.
            warm_from: A previous engine (or its classifier) over an earlier
                version of the rules; trained submodels are seeded/reused
                from it (see :meth:`NuevoMatch.build
                <repro.core.nuevomatch.NuevoMatch.build>`).
            **params: Forwarded to the classifier's ``build`` (e.g. ``config``
                for NuevoMatch, ``binth`` for the tree baselines).

        The resulting training provenance (pipeline mode, job count,
        warm-start reuse counters) is recorded under the engine metadata's
        ``"training"`` key and persisted by :meth:`save`.
        """
        classifier_cls = (
            resolve_classifier(classifier) if isinstance(classifier, str) else classifier
        )
        pipelined = pipeline is not None or warm_from is not None
        if pipelined:
            if not getattr(classifier_cls, "supports_training_pipeline", False):
                raise ValueError(
                    f"classifier {classifier_cls.name!r} has no trained state; "
                    "pipeline/warm_from apply to NuevoMatch-style classifiers"
                )
            if warm_from is not None and isinstance(warm_from, cls):
                warm_from = warm_from.classifier
            params["pipeline"] = pipeline
            params["warm_from"] = warm_from
        built = classifier_cls.build(ruleset, **params)
        provenance = getattr(built, "training_provenance", None)
        if pipelined and provenance:
            metadata = dict(metadata or {})
            metadata.setdefault("training", dict(provenance))
        return cls(built, metadata=metadata)

    # ------------------------------------------------------------------ serve

    @property
    def ruleset(self) -> RuleSet:
        return self.classifier.ruleset

    @property
    def schema(self) -> FieldSchema:
        return self.classifier.ruleset.schema

    @property
    def classifier_name(self) -> str:
        return self.classifier.name

    def classify_block(
        self,
        block: np.ndarray,
        traces: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar lookup: ``(n, fields)`` uint64 block → ``(rule_ids, priorities)``.

        The serving data plane's native shape (shared-memory rings, wire
        protocol v2) and the primitive every other lookup surface wraps.
        Misses encode as ``rule_id == -1`` with ``priority == 0``.  ``traces``
        is an optional ``(n, 5)`` int64 out-array filled with per-packet
        lookup counters (:data:`~repro.classifiers.base.TRACE_FIELDS` order).
        Input validation is shared across all engine stacks via
        :func:`~repro.engine.stack.validate_block`.  Classifiers without a
        vectorized path serve blocks through the scalar loop in
        :meth:`Classifier.classify_block <repro.classifiers.base.Classifier.classify_block>`.
        """
        return self.classifier.classify_block(validate_block(block), traces=traces)

    def rules_by_id(self, refresh: bool = False) -> dict[int, Rule]:
        """Map ``rule_id`` → :class:`Rule` over the *effective* rules.

        Used by the :class:`EngineStack` materializer (directly and through
        a wrapping ``CachedEngine``) to resolve columnar ``rule_ids``.
        Cached; invalidated by :meth:`insert`/:meth:`remove`.
        """
        if refresh or self._rules_by_id_cache is None:
            mapping = {rule.rule_id: rule for rule in self.ruleset}
            for rule_id in self._removed:
                mapping.pop(rule_id, None)
            mapping.update(self._inserted)
            self._rules_by_id_cache = mapping
        return self._rules_by_id_cache

    def close(self) -> None:
        """Release serving resources (a plain engine holds none).

        Part of the uniform engine-stack surface — ``classify_block`` /
        ``insert`` / ``remove`` / ``statistics`` / ``close`` — that serving
        front-ends (:class:`~repro.serving.ShardedEngine` wrappers, the
        :class:`~repro.serving.server.AsyncServer`) rely on, so any stack can
        be torn down without type-sniffing.
        """

    # ----------------------------------------------------------------- update

    @property
    def supports_updates(self) -> bool:
        """True when :meth:`insert`/:meth:`remove` will be accepted."""
        return isinstance(self.classifier, UpdatableClassifier)

    def insert(self, rule: Rule) -> None:
        """Insert a rule online (classifiers supporting updates only)."""
        self._updatable().insert(rule)
        self._removed.discard(rule.rule_id)
        self._inserted[rule.rule_id] = rule
        self._rules_by_id_cache = None

    def remove(self, rule_id: int) -> bool:
        """Remove a rule online; returns True if it was present."""
        removed = self._updatable().remove(rule_id)
        if removed:
            if rule_id in self._inserted:
                del self._inserted[rule_id]
            else:
                self._removed.add(rule_id)
            self._rules_by_id_cache = None
        return removed

    def _effective_ruleset(self) -> RuleSet:
        """The build-time rule-set with the engine's online updates applied."""
        if not self._inserted and not self._removed:
            return self.ruleset
        rules = [
            rule
            for rule in self.ruleset
            if rule.rule_id not in self._removed and rule.rule_id not in self._inserted
        ]
        rules.extend(self._inserted.values())
        return self.ruleset.subset(rules)

    def _updatable(self) -> UpdatableClassifier:
        if not isinstance(self.classifier, UpdatableClassifier):
            raise TypeError(
                f"classifier {self.classifier_name!r} does not support online "
                "updates; wrap NuevoMatch in repro.core.UpdatableNuevoMatch or "
                "use an updatable remainder classifier (tss, tm)"
            )
        return self.classifier

    # ----------------------------------------------------------- introspection

    def memory_footprint(self) -> MemoryFootprint:
        return self.classifier.memory_footprint()

    def statistics(self) -> dict[str, object]:
        stats = self.classifier.statistics()
        stats["engine_metadata"] = dict(self.metadata)
        return stats

    # ------------------------------------------------------------ persistence

    def to_document(self) -> dict:
        """The engine's snapshot document (the JSON payload :meth:`save` writes).

        Exposed separately so composite snapshots — the sharded-engine format
        embeds one engine document per shard — reuse the same layout.
        """
        from repro import __version__

        return {
            "format": ENGINE_FILE_VERSION,
            "repro_version": __version__,
            "classifier_kind": self.classifier_name,
            "ruleset": ruleset_to_state(self._effective_ruleset()),
            "classifier": self.classifier.to_state(),
            "metadata": self.metadata,
        }

    @classmethod
    def from_document(cls, document: dict) -> "ClassificationEngine":
        """Inverse of :meth:`to_document` (validates the format version)."""
        if document.get("kind") == "sharded-engine":
            raise ValueError(
                "this is a sharded-engine snapshot; load it with "
                "repro.serving.ShardedEngine.load"
            )
        version = document.get("format")
        if version != ENGINE_FILE_VERSION:
            raise ValueError(
                f"unsupported engine file format {version!r} "
                f"(this build reads version {ENGINE_FILE_VERSION})"
            )
        ruleset = ruleset_from_state(document["ruleset"])
        classifier_cls = resolve_classifier(document["classifier_kind"])
        classifier = classifier_cls.from_state(document["classifier"], ruleset)
        return cls(classifier, metadata=document.get("metadata"))

    def save(self, path: str | Path) -> None:
        """Persist the engine — rules plus trained classifier state — to disk.

        The snapshot restores with :meth:`load` to an engine whose
        ``classify_batch`` output is bitwise-identical to this one's, without
        repeating RQ-RMI training.  An engine that received online
        :meth:`insert`/:meth:`remove` updates is persisted with its *updated*
        rule-set and restored by rebuilding over it: the restored matches
        include every update, though the rebuilt structure's lookup traces may
        differ from the incrementally-updated original's.  Paths ending in
        ``.gz`` are compressed.
        """
        write_engine_file(path, self.to_document())

    @classmethod
    def load(cls, path: str | Path) -> "ClassificationEngine":
        """Restore an engine saved with :meth:`save`.

        The format/kind validation lives in :meth:`from_document` alone, so
        the raw document is read without a second version check.
        """
        return cls.from_document(read_document(path))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClassificationEngine({self.classifier_name!r}, "
            f"{len(self.ruleset)} rules)"
        )
