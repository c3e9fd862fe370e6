"""The :class:`ClassificationEngine` serving facade.

The engine owns the build → serve → update → persist lifecycle for any
registered classifier:

* **build** — ``ClassificationEngine.build(ruleset, classifier="nm", ...)``
  resolves the classifier through the registry and constructs it.
* **serve** — :meth:`ClassificationEngine.classify_block` is the lookup (the
  paper's throughput comes from batched, vectorized RQ-RMI inference); the
  object results (``classify_batch``, ``classify_traced``, ``classify``,
  ``verify``) are the :class:`~repro.engine.stack.EngineStack` mixin's views
  over it, shared with the sharded and cached stacks.
* **update** — the engine is the one updatable unit of the paper's §3.9
  story, for every registered classifier: :meth:`insert` (a new id adds a
  rule, an existing id changes its action or matching set) and :meth:`remove`
  go to the engine's *overlay*, a remainder that :meth:`classify_block`
  serves on every block: the floored linear-search kernel over the overlay,
  with the built answer as the floor (a masked winner is answered by the
  same kernel over the live built rules).  The overlay is the slow path that
  grows; :meth:`remainder_fraction` measures it and :meth:`rebuild` folds it
  into a freshly built engine.
  *When* to rebuild is the caller's policy: a plain engine's owner calls
  :meth:`rebuild` itself, sharded serving schedules it per shard
  (:class:`~repro.serving.updates.UpdateQueue`).
* **persist** — :meth:`save` / :meth:`load` round-trip the trained structures
  (RQ-RMI submodels, iSet partitions, remainder state) through the versioned
  ``to_state``/``from_state`` protocol, so training cost is paid once per
  rule-set; a pending overlay is persisted beside them.
"""

from __future__ import annotations

import threading
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from repro.classifiers.base import Classifier, MemoryFootprint
from repro.classifiers.linear import LinearSearchClassifier
from repro.classifiers.registry import resolve_classifier
from repro.core.nuevomatch import NuevoMatch
from repro.engine.serialization import (
    ENGINE_FILE_VERSION,
    read_document,
    rule_from_state,
    rule_to_state,
    ruleset_from_state,
    ruleset_to_state,
    write_engine_file,
)
from repro.engine.stack import EngineStack, validate_block
from repro.rules.fields import FieldSchema
from repro.rules.rule import Rule, RuleSet, check_order_inputs, result_keys

__all__ = ["ClassificationEngine"]


class _Overlay:
    """The overlay as it serves: the inserted rules' linear search (its
    ``ruleset`` in insertion order), the removed ids, and the live built
    rules' linear search, made on the first masked winner after the removed
    ids differ from ``stale``'s (the overlay this one replaces)."""

    def __init__(self, built: RuleSet, inserted: RuleSet, removed: list[int], stale=None):
        self.inserted = LinearSearchClassifier(inserted)
        self.removed = np.array(removed, dtype=np.int64)
        self._built = built
        if stale is not None and "rescan" in vars(stale):
            if np.array_equal(stale.removed, self.removed):
                self.rescan = stale.rescan

    @cached_property
    def rescan(self) -> LinearSearchClassifier:
        return LinearSearchClassifier(self._built.best_first().without(self.removed))


class ClassificationEngine(EngineStack):
    """Facade over a built classifier: batch serving, updates, persistence.

    The update overlay is the engine's *delta remainder*: ``_inserted`` holds
    rules added (or modified) since the classifier was built, ``_removed``
    masks rule ids deleted from the built structure.  Both carry the update
    sequence number at which they were applied, so a rebuild folds in exactly
    the updates its snapshot covered and :meth:`carry_overlay` keeps the rest.
    """

    def __init__(
        self,
        classifier: Classifier,
        metadata: dict | None = None,
    ):
        self.classifier = classifier
        self.metadata = dict(metadata or {})
        self._lock = threading.RLock()
        #: rule_id -> (update sequence, rule)
        self._inserted: dict[int, tuple[int, Rule]] = {}
        #: rule_id -> update sequence at which it was masked
        self._removed: dict[int, int] = {}
        self._update_seq = 0
        #: Update sequence of the engine this one was rebuilt from that the
        #: built structure already covers (0 for a fresh build).
        self._built_seq = 0
        self._rules_by_id_cache: dict[int, Rule] | None = None
        self._overlay_cache: _Overlay | None = None
        self._overlay_current = False

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls,
        ruleset: RuleSet,
        classifier: str | type[Classifier] = "nm",
        metadata: dict | None = None,
        warm_from=None,
        **params,
    ) -> "ClassificationEngine":
        """Build an engine over ``ruleset``.

        Args:
            ruleset: Input rules.
            classifier: Registry name/alias (``"nm"``, ``"tuplemerge"``, …) or
                a :class:`Classifier` subclass.
            metadata: Free-form annotations persisted with :meth:`save`.
            warm_from: A previous engine (or its classifier) over an earlier
                version of the rules; trained submodels are seeded/reused
                from it (see :meth:`NuevoMatch.build
                <repro.core.nuevomatch.NuevoMatch.build>`).  Only classifiers
                with trained state (NuevoMatch) take one.
            **params: Forwarded to the classifier's ``build`` (e.g. ``config``
                for NuevoMatch, ``binth`` for the tree baselines).

        A NuevoMatch build's training provenance (warm-start reuse / trained /
        fallback counters) is recorded under the engine metadata's
        ``"training"`` key and persisted by :meth:`save`.
        """
        classifier_cls = (
            resolve_classifier(classifier) if isinstance(classifier, str) else classifier
        )
        if issubclass(classifier_cls, NuevoMatch):
            if isinstance(warm_from, cls):
                warm_from = warm_from.classifier
            params.update(warm_from=warm_from)
        elif warm_from is not None:
            raise ValueError(
                f"classifier {classifier_cls.name!r} has no trained state; "
                "warm_from applies to NuevoMatch-style classifiers"
            )
        built = classifier_cls.build(ruleset, **params)
        provenance = getattr(built, "training_provenance", None)
        if provenance:
            metadata = dict(metadata or {})
            metadata.setdefault("training", dict(provenance))
        return cls(built, metadata=metadata)

    # ------------------------------------------------------------------ serve

    @property
    def ruleset(self) -> RuleSet:
        """The rules the classifier was *built* over (see :meth:`live_ruleset`)."""
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
        protocol v2) and the primitive every other lookup surface wraps: the
        built classifier answers the block, then the update overlay applies
        (:meth:`adjust_block`; a no-op check when it is empty).
        Misses encode as ``rule_id == -1`` with ``priority == 0``.  ``traces``
        is an optional ``(n, 5)`` int64 out-array filled with per-packet
        lookup counters (:data:`~repro.classifiers.base.TRACE_FIELDS` order).
        Input validation is shared across all engine stacks via
        :func:`~repro.engine.stack.validate_block`.
        """
        block = validate_block(block)
        rule_ids, priorities = self.classifier.classify_block(block, traces=traces)
        self.adjust_block(block, rule_ids, priorities, traces=traces)
        return rule_ids, priorities

    def adjust_block(
        self,
        block: np.ndarray,
        rule_ids: np.ndarray,
        priorities: np.ndarray,
        traces: np.ndarray | None = None,
    ) -> None:
        """Apply the update overlay to the built classifier's results, in place.

        ``rule_ids``/``priorities`` are the built structure's columnar results
        for ``block`` — computed here by :meth:`classify_block`, or by a shard
        worker that holds a snapshot of the built structure only.  The overlay
        is a remainder (§3.9) served by
        :meth:`LinearSearchClassifier.classify_block_with_floors
        <repro.classifiers.linear.LinearSearchClassifier.classify_block_with_floors>`:
        a row whose winner is masked takes that kernel over the live built
        rules, with no floor; then every row takes it over the inserted rules,
        with the built answer as the floor, and keeps any hit.  Traces are
        the kernel's.  With an empty overlay this is one check.
        """
        if not self._inserted and not self._removed:
            return
        overlay = self._overlay()
        masked = np.flatnonzero(np.isin(rule_ids, overlay.removed))
        if masked.size:
            rows = None if traces is None else traces[masked]
            found = overlay.rescan.classify_block_with_floors(block[masked], None, rows)
            rule_ids[masked], priorities[masked] = found
            if rows is not None:
                traces[masked] = rows
        ids, pris = overlay.inserted.classify_block_with_floors(
            block, result_keys(rule_ids, priorities), traces
        )
        hit = ids >= 0
        rule_ids[hit], priorities[hit] = ids[hit], pris[hit]

    def _overlay(self) -> _Overlay:
        """The overlay's serving form, made on first use after an update."""
        with self._lock:
            if not self._overlay_current:
                self._overlay_cache = _Overlay(
                    self.ruleset,
                    RuleSet([rule for _seq, rule in self._inserted.values()], self.schema),
                    list(self._removed),
                    self._overlay_cache,
                )
                self._overlay_current = True
            return self._overlay_cache

    def rules_by_id(self, refresh: bool = False) -> dict[int, Rule]:
        """Map ``rule_id`` → :class:`Rule` over the *live* rules.

        Used by the :class:`EngineStack` materializer (directly and through
        a wrapping ``CachedEngine``) to resolve columnar ``rule_ids``.
        Cached; invalidated by :meth:`insert`/:meth:`remove`.  Holds the
        original :class:`Rule` objects, not :meth:`live_ruleset`'s: ``RuleSet``
        normalization rewrites negative priorities, and the overlay serves
        inserted rules exactly as given.
        """
        with self._lock:
            if refresh or self._rules_by_id_cache is None:
                mapping = {
                    rule.rule_id: rule
                    for rule in self.ruleset
                    if rule.rule_id not in self._removed
                }
                for _seq, rule in self._inserted.values():
                    mapping[rule.rule_id] = rule
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

    def insert(self, rule: Rule) -> None:
        """Insert a rule online; the next :meth:`classify_block` serves it.

        A new ``rule_id`` adds a rule (the paper's update type iv); an
        existing one replaces that rule — its action (type i) or its matching
        set (type iii): the stale copy is masked and the new version enters
        the overlay.  Raises ``ValueError``, changing nothing, when the rule
        does not fit the engine's schema (field count, every range inside its
        field's domain) or its priority or id falls outside the order key's
        inputs (:func:`~repro.rules.rule.check_order_inputs`): ``RuleSet``
        rewrites a negative one to the rule's position, so such a rule would
        change rank (or name) the moment a rebuild folds the overlay in, a
        negative id is the columnar results' miss encoding, and a key must
        stay below ``NO_FLOOR``.
        """
        self.schema.validate_ranges(rule.ranges)
        check_order_inputs(rule.priority, rule.rule_id)
        with self._lock:
            self._update_seq += 1
            if rule.rule_id in self._inserted or rule.rule_id in self.ruleset.row_of:
                self._removed[rule.rule_id] = self._update_seq
            self._inserted[rule.rule_id] = (self._update_seq, rule)
            self._rules_by_id_cache, self._overlay_current = None, False

    def has_rule(self, rule_id: int) -> bool:
        """True when ``rule_id`` is live: in the overlay, or built and not masked."""
        with self._lock:
            return rule_id in self._inserted or (
                rule_id in self.ruleset.row_of and rule_id not in self._removed
            )

    def remove(self, rule_id: int) -> bool:
        """Remove a rule online (type ii); returns True if it was live.

        The id is masked even when the rule lived only in the overlay: a
        rebuild in flight may already have folded it into the structure that
        :meth:`carry_overlay` is about to take over.
        """
        with self._lock:
            if not self.has_rule(rule_id):
                return False
            self._update_seq += 1
            self._inserted.pop(rule_id, None)
            self._removed[rule_id] = self._update_seq
            self._rules_by_id_cache, self._overlay_current = None, False
            return True

    def live_size(self) -> int:
        """Number of live rules: built, minus masked, plus the overlay's."""
        with self._lock:
            masked = sum(1 for rule_id in self._removed if rule_id in self.ruleset.row_of)
            return len(self.ruleset) - masked + len(self._inserted)

    def live_ruleset(self) -> RuleSet:
        """The live rules: the built rules minus masks plus the overlay."""
        with self._lock:
            overlay = self._overlay().inserted.ruleset  # insertion order
            return RuleSet.concat([self.ruleset.without(self._removed), overlay])

    def remainder_fraction(self) -> float:
        """Fraction of live rules served by the slow path (§3.9).

        For NuevoMatch that is the built-in remainder set plus the update
        overlay; for baseline classifiers only the overlay counts (the whole
        structure *is* the "remainder").
        """
        with self._lock:
            live = self.live_size()
            if live <= 0:
                return 1.0
            base_remainder = (
                len(self.classifier.partition.remainder)
                if isinstance(self.classifier, NuevoMatch)
                else 0
            )
            overlay = len(self._inserted) + len(self._removed)
            return min(1.0, (base_remainder + overlay) / live)

    def rebuild(self, warm: bool = False) -> "ClassificationEngine":
        """A new engine built over the live rules, overlay folded in.

        Same classifier type, configuration and build parameters as this
        engine's.  With ``warm``, a NuevoMatch retrain is seeded from the
        classifier being replaced: unchanged submodels are reused under their
        certified bounds and only submodels whose responsibility content
        changed retrain (see :mod:`repro.core.pipeline`).  Baseline
        classifiers have no trained state and always rebuild from parameters.

        This engine keeps serving while the new one builds.  Updates applied
        to it meanwhile are not in the new engine: whoever swaps the two calls
        ``rebuilt.carry_overlay(old)`` under the lock that keeps updates out.
        """
        with self._lock:
            live, snapshot_seq = self.live_ruleset(), self._update_seq
        old = self.classifier
        if isinstance(old, NuevoMatch):
            classifier = NuevoMatch.build(
                live,
                remainder_classifier=type(old.remainder),
                config=old.config,
                warm_from=old if warm else None,
                **old.remainder.build_params,
            )
        else:
            classifier = type(old).build(live, **old.build_params)
        rebuilt = ClassificationEngine(classifier, metadata=self.metadata)
        rebuilt._built_seq = rebuilt._update_seq = snapshot_seq
        return rebuilt

    def carry_overlay(self, old: "ClassificationEngine") -> None:
        """Take over the updates ``old`` received after this engine's
        :meth:`rebuild` snapshot (everything older is in the built structure)."""
        with old._lock:
            self._inserted = {
                rule_id: (seq, rule)
                for rule_id, (seq, rule) in old._inserted.items()
                if seq > self._built_seq
            }
            # Masks newer than the snapshot still apply (their built copy is in
            # this structure); everything else was already excluded.
            self._removed = {
                rule_id: seq
                for rule_id, seq in old._removed.items()
                if seq > self._built_seq and rule_id in self.ruleset.row_of
            }
            self._update_seq = old._update_seq
            self._rules_by_id_cache, self._overlay_current = None, False

    # ----------------------------------------------------------- introspection

    def memory_footprint(self) -> MemoryFootprint:
        return self.classifier.memory_footprint()

    def update_statistics(self) -> dict[str, object]:
        """Rule counts of the built structure and the update overlay."""
        with self._lock:
            return {
                "live_rules": self.live_size(),
                "base_rules": len(self.ruleset),
                "overlay_inserted": len(self._inserted),
                "overlay_removed": len(self._removed),
                "remainder_fraction": self.remainder_fraction(),
            }

    def statistics(self) -> dict[str, object]:
        stats = self.classifier.statistics()
        stats.update(self.update_statistics())
        stats["engine_metadata"] = dict(self.metadata)
        return stats

    # ------------------------------------------------------------ persistence

    def built_document(self) -> dict:
        """Snapshot document of the *built* structure alone, no overlay.

        What a shard worker restores: it serves the built classifier and the
        parent process applies the overlay to its results.  Composite
        snapshots — the sharded-engine format embeds one per shard — reuse
        the same layout.
        """
        from repro import __version__

        return {
            "format": ENGINE_FILE_VERSION,
            "repro_version": __version__,
            "classifier_kind": self.classifier_name,
            "ruleset": ruleset_to_state(self.ruleset),
            "classifier": self.classifier.to_state(),
            "metadata": self.metadata,
        }

    def overlay_state(self) -> dict:
        """JSON-compatible dump of the pending overlay (``{}`` when empty):
        ``inserted`` rules in update order, ``removed`` ids."""
        with self._lock:
            if not self._inserted and not self._removed:
                return {}
            return {
                "inserted": [
                    rule_to_state(rule)
                    for _seq, rule in sorted(self._inserted.values())
                ],
                "removed": sorted(self._removed),
            }

    def restore_overlay(self, state: dict) -> None:
        """Inverse of :meth:`overlay_state` (absent keys restore nothing)."""
        with self._lock:
            for rule_id in state.get("removed", []):
                self._update_seq += 1
                self._removed[int(rule_id)] = self._update_seq
            for rule_state in state.get("inserted", []):
                rule = rule_from_state(rule_state)
                self._update_seq += 1
                self._inserted[rule.rule_id] = (self._update_seq, rule)
            self._rules_by_id_cache, self._overlay_current = None, False

    def to_document(self) -> dict:
        """The engine's snapshot document (the JSON payload :meth:`save`
        writes): :meth:`built_document` plus the pending overlay."""
        return {**self.built_document(), **self.overlay_state()}

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
        engine = cls(classifier, metadata=document.get("metadata"))
        engine.restore_overlay(document)
        return engine

    def save(self, path: str | Path) -> None:
        """Persist the engine — rules plus trained classifier state — to disk.

        The snapshot restores with :meth:`load` to an engine whose
        ``classify_block`` output is bitwise-identical to this one's, without
        repeating RQ-RMI training; a pending update overlay is persisted as it
        is and serves the same results after the round trip.  Paths ending in
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
