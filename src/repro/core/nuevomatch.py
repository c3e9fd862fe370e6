"""NuevoMatch: the end-to-end classifier (§3.8, Figure 1).

Construction:

1. Partition the rule-set into iSets and a remainder (§3.6).
2. Train one RQ-RMI per kept iSet.
3. Build an external classifier (CutSplit / NeuroCuts / TupleMerge / …) over
   the remainder.

Lookup:

1. Query every iSet: RQ-RMI inference → bounded secondary search → multi-field
   validation of the candidate rule.
2. Query the remainder classifier — with the *early termination* optimisation
   the remainder search is given the best priority found by the iSets as a
   floor and can stop early (§4).
3. The selector returns the highest-priority match.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Type

import numpy as np

from repro.classifiers.base import (
    STATE_FORMAT_VERSION,
    ClassificationResult,
    Classifier,
    LookupTrace,
    MemoryFootprint,
    NO_FLOOR,
    RULE_ENTRY_BYTES,
    check_state_header,
)
from repro.classifiers.registry import register, resolve_classifier
from repro.core.config import NuevoMatchConfig, RQRMIConfig
from repro.core.isets import ISet, PartitionResult, partition_isets
from repro.core.pipeline import train_rqrmi
from repro.core.rqrmi import RQRMI, RangeSet
from repro.rules.rule import Packet, Rule, RuleSet

__all__ = ["ISetIndex", "NuevoMatch", "LookupBreakdown"]


@dataclass
class LookupBreakdown:
    """Per-component cost of one NuevoMatch lookup (Figure 14's breakdown)."""

    inference_ops: int = 0
    search_accesses: int = 0
    validation_accesses: int = 0
    remainder_accesses: int = 0

    def merge(self, other: "LookupBreakdown") -> "LookupBreakdown":
        return LookupBreakdown(
            self.inference_ops + other.inference_ops,
            self.search_accesses + other.search_accesses,
            self.validation_accesses + other.validation_accesses,
            self.remainder_accesses + other.remainder_accesses,
        )


class ISetIndex:
    """One iSet together with its trained RQ-RMI index.

    The iSet's rules, sorted by their range in the iSet's field, form the
    value array; the RQ-RMI predicts positions in that array.
    """

    def __init__(self, iset: ISet, model: RQRMI):
        self.iset = iset
        self.dim = iset.dim
        self.rules = iset.rules  # a RuleSet already sorted by range lower bound
        self.model = model

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def coverage(self) -> float:
        return self.iset.coverage

    def lookup(
        self, values: Sequence[int], trace: LookupTrace, breakdown: LookupBreakdown
    ) -> Optional[Rule]:
        """Query the RQ-RMI and validate the candidate rule across all fields."""
        result = self.model.query(values[self.dim])
        trace.model_accesses += result.model_accesses
        # One vectorised inference per stage (8-neuron hidden layer).
        inference_ops = result.model_accesses * self.model.stages[0][0].hidden_units
        trace.compute_ops += inference_ops
        breakdown.inference_ops += inference_ops
        # Secondary search over the packed value array (§4: multiple 4-byte
        # field values per cache line, 16 per 64-byte line), binary search over
        # the error window: the search touches index (not rule) storage.
        window = 2 * result.error_bound + 1
        search_lines = max(1, math.ceil(math.log2(window / 16 + 1)))
        trace.index_accesses += search_lines
        breakdown.search_accesses += search_lines
        if result.index is None:
            return None
        candidate = self.rules[result.index]
        trace.rule_accesses += 1
        trace.compute_ops += len(values)
        breakdown.validation_accesses += 1
        if candidate.matches(values):
            return candidate
        return None

    def lookup_block(
        self,
        values: np.ndarray,
        rule_ids: np.ndarray,
        best_priorities: np.ndarray,
        traces: Optional[np.ndarray] = None,
    ) -> None:
        """Columnar iSet lookup: update per-row winners in place.

        The allocation-free counterpart of :meth:`lookup`: inference (the
        paper's Table-1 vectorization) and candidate validation run across all
        rows at once, winners (strictly better priority) are written into
        ``rule_ids``/``best_priorities``, and ``traces`` rows — ``(n, 5)``
        int64, :data:`~repro.classifiers.base.TRACE_FIELDS` order — accumulate
        exactly the counters the per-packet path records.
        """
        keys = values[:, self.dim]
        indices, _predicted, bounds = self.model.query_batch_detailed(keys)
        if traces is not None:
            model_accesses = len(self.model.stages)
            inference_ops = model_accesses * self.model.stages[0][0].hidden_units
            window = 2 * bounds.astype(np.int64) + 1
            search_lines = np.maximum(
                1, np.ceil(np.log2(window / 16 + 1)).astype(np.int64)
            )
            traces[:, 0] += search_lines
            traces[:, 2] += model_accesses
            traces[:, 3] += inference_ops
        rows = np.flatnonzero(indices >= 0)
        if rows.size == 0:
            return
        rules = self.rules
        candidates = indices[rows].astype(np.int64)
        if traces is not None:
            traces[rows, 1] += 1
            traces[rows, 3] += values.shape[1]
        sub = values[rows]
        matched = np.all(
            (sub >= rules.lo[candidates]) & (sub <= rules.hi[candidates]), axis=1
        )
        matched_rows = rows[matched]
        matched_candidates = candidates[matched]
        candidate_priorities = rules.priority[matched_candidates]
        better = candidate_priorities < best_priorities[matched_rows]
        updated = matched_rows[better]
        best_priorities[updated] = candidate_priorities[better]
        rule_ids[updated] = rules.rule_id[matched_candidates[better]]

    def value_array_bytes(self) -> int:
        """Size of the packed per-field value array used by the secondary search."""
        return 4 * len(self.rules)

    def size_bytes(self) -> int:
        return self.model.size_bytes()

    def statistics(self) -> dict[str, object]:
        stats = self.model.statistics()
        stats.update(dim=self.dim, num_rules=len(self.rules), coverage=self.coverage)
        return stats

    def to_state(self) -> dict:
        """Trained iSet state: field, ordered member rules, model weights."""
        return {
            "dim": self.dim,
            "rule_ids": self.rules.rule_id.tolist(),
            "model": self.model.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict, ruleset: RuleSet) -> "ISetIndex":
        iset = ISet(
            dim=int(state["dim"]),
            rules=ruleset.take([ruleset.row_of[int(i)] for i in state["rule_ids"]]),
            total_rules=len(ruleset),
        )
        return cls(iset, RQRMI.from_state(state["model"]))


@register("nm", aliases=("nuevomatch",))
class NuevoMatch(Classifier):
    """The NuevoMatch classifier: RQ-RMI-indexed iSets plus a remainder."""

    name = "nm"

    def __init__(
        self,
        ruleset: RuleSet,
        isets: list[ISetIndex],
        remainder: Classifier,
        partition: PartitionResult,
        config: NuevoMatchConfig,
        build_seconds: float,
    ):
        super().__init__(ruleset)
        self.isets = isets
        self.remainder = remainder
        self.partition = partition
        self.config = config
        self.build_seconds = build_seconds
        #: How this instance was trained: warm-start reuse / trained /
        #: fallback counters.  JSON-safe; persisted by :meth:`to_state` and
        #: surfaced by :meth:`statistics`.
        self.training_provenance: dict[str, object] = {}

    # ------------------------------------------------------------------ build

    @staticmethod
    def _match_warm_isets(isets, warm_from: "NuevoMatch | None") -> list:
        """Pair each new iSet with a previous trained RQ-RMI to seed from.

        iSets are matched by field (``dim``) in order: the k-th new iSet on a
        field warms from the k-th old iSet on that field.  Unmatched iSets
        train cold; structural incompatibilities (stage widths, key domain)
        are detected downstream and also fall back to cold.
        """
        if warm_from is None:
            return [None] * len(isets)
        pool: dict[int, list[RQRMI]] = {}
        for old in warm_from.isets:
            pool.setdefault(old.dim, []).append(old.model)
        matched = []
        for iset in isets:
            candidates = pool.get(iset.dim)
            matched.append(candidates.pop(0) if candidates else None)
        return matched

    @classmethod
    def build(
        cls,
        ruleset: RuleSet,
        remainder_classifier: Type[Classifier] | str = "tm",
        config: NuevoMatchConfig | None = None,
        warm_from: "NuevoMatch | None" = None,
        **remainder_params,
    ) -> "NuevoMatch":
        """Construct NuevoMatch over ``ruleset``.

        Args:
            ruleset: Input rules.
            remainder_classifier: Classifier class, or any name/alias accepted
                by :func:`repro.classifiers.resolve_classifier` (``"tm"``,
                ``"cutsplit"``, …), indexing the remainder set.  The paper
                pairs NuevoMatch with the same algorithm it is compared
                against.
            config: NuevoMatch configuration; defaults follow the paper
                (error threshold 64, iSet coverage cut-off 25%).
            warm_from: A previously built NuevoMatch over an earlier version
                of the rules; matching iSets seed their RQ-RMI training from
                the old weights and submodels whose responsibility content is
                unchanged are reused outright (error bounds are recomputed or
                carried over analytically either way).
            **remainder_params: Extra arguments passed to the remainder
                classifier's ``build`` (e.g. ``binth``).
        """
        config = config or NuevoMatchConfig()
        if isinstance(remainder_classifier, str):
            remainder_cls = resolve_classifier(remainder_classifier)
        else:
            remainder_cls = remainder_classifier
        if remainder_cls is cls:
            raise ValueError("NuevoMatch cannot index its own remainder set")

        start = time.perf_counter()
        partition = partition_isets(
            ruleset,
            max_isets=config.max_isets,
            min_coverage=config.min_iset_coverage,
        )
        # The remainder is built first: a parameter its classifier does not
        # take raises before any training.
        params = dict(config.remainder_params)
        params.update(remainder_params)
        remainder = remainder_cls.build(partition.remainder, **params)
        warm_models = cls._match_warm_isets(partition.isets, warm_from)
        models = [
            train_rqrmi(
                RangeSet.from_integer_ranges(
                    iset.ranges(), ruleset.schema[iset.dim].domain_size
                ),
                config.rqrmi,
                warm_from=warm_model,
            )
            for iset, warm_model in zip(partition.isets, warm_models)
        ]
        isets = [
            ISetIndex(iset, model) for iset, model in zip(partition.isets, models)
        ]
        build_seconds = time.perf_counter() - start
        instance = cls(ruleset, isets, remainder, partition, config, build_seconds)
        instance.training_provenance = {
            "warm_started": any(m.report.warm_started for m in models),
            "submodels_trained": sum(m.report.submodels_trained for m in models),
            "submodels_reused": sum(m.report.submodels_reused for m in models),
            "warm_trained": sum(m.report.warm_trained for m in models),
            "cold_fallbacks": sum(m.report.cold_fallbacks for m in models),
            "training_seconds": sum(m.report.training_seconds for m in models),
        }
        return instance

    # ------------------------------------------------------------------ lookup

    def classify_traced(self, packet: Packet | Sequence[int]) -> ClassificationResult:
        result, _breakdown = self.classify_detailed(packet)
        return result

    def classify_detailed(
        self, packet: Packet | Sequence[int]
    ) -> tuple[ClassificationResult, LookupBreakdown]:
        """Traced lookup that also reports the per-component breakdown."""
        values = packet.values if isinstance(packet, Packet) else tuple(packet)
        trace = LookupTrace()
        breakdown = LookupBreakdown()
        best: Rule | None = None
        for iset in self.isets:
            candidate = iset.lookup(values, trace, breakdown)
            if candidate is not None and (best is None or candidate.priority < best.priority):
                best = candidate

        floor = best.priority if (best is not None and self.config.early_termination) else None
        remainder_result = self.remainder.classify_with_floor(values, floor)
        trace = trace.merge(remainder_result.trace)
        breakdown.remainder_accesses += (
            remainder_result.trace.index_accesses + remainder_result.trace.rule_accesses
        )
        if remainder_result.rule is not None and (
            best is None or remainder_result.rule.priority < best.priority
        ):
            best = remainder_result.rule
        return ClassificationResult(best, trace), breakdown

    def classify_block(
        self,
        block: np.ndarray,
        traces: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar lookup: vectorized iSet queries, floored remainder scan.

        Bit-identical to the scalar :meth:`classify_traced` (matches and
        traces) but allocation-free: iSet inference, candidate validation and
        winner selection run as array operations, and the remainder is queried
        through its ``classify_block_with_floors`` hook with the iSet winners
        as per-row early-termination floors (§4).
        """
        block = np.asarray(block)
        n = block.shape[0]
        values = block.astype(np.int64, copy=False)
        rule_ids = np.full(n, -1, dtype=np.int64)
        best_priorities = np.full(n, NO_FLOOR, dtype=np.int64)
        if traces is not None:
            traces[:n] = 0
        for iset in self.isets:
            iset.lookup_block(values, rule_ids, best_priorities, traces=traces)
        floors = best_priorities if self.config.early_termination else None
        remainder_ids, remainder_priorities = (
            self.remainder.classify_block_with_floors(values, floors, traces=traces)
        )
        # Strictly-better merge, mirroring the scalar path's `<` comparison
        # (with floors the remainder already guarantees it; without, not).
        wins = (remainder_ids >= 0) & (remainder_priorities < best_priorities)
        rule_ids[wins] = remainder_ids[wins]
        best_priorities[wins] = remainder_priorities[wins]
        return rule_ids, np.where(rule_ids >= 0, best_priorities, 0)

    def classify_isets_only(
        self, packet: Packet | Sequence[int]
    ) -> tuple[Optional[Rule], LookupTrace]:
        """Query only the iSets (used by the two-core execution model)."""
        values = packet.values if isinstance(packet, Packet) else tuple(packet)
        trace = LookupTrace()
        breakdown = LookupBreakdown()
        best: Rule | None = None
        for iset in self.isets:
            candidate = iset.lookup(values, trace, breakdown)
            if candidate is not None and (best is None or candidate.priority < best.priority):
                best = candidate
        return best, trace

    # --------------------------------------------------------------- statistics

    @property
    def coverage(self) -> float:
        """Fraction of rules indexed by the RQ-RMIs (not in the remainder)."""
        return self.partition.coverage

    @property
    def num_isets(self) -> int:
        return len(self.isets)

    @property
    def remainder_fraction(self) -> float:
        return len(self.partition.remainder) / max(1, len(self.ruleset))

    def rqrmi_size_bytes(self) -> int:
        return sum(iset.size_bytes() for iset in self.isets)

    def value_array_bytes(self) -> int:
        """Total size of the iSets' packed value arrays (secondary search data)."""
        return sum(iset.value_array_bytes() for iset in self.isets)

    def memory_footprint(self) -> MemoryFootprint:
        remainder_fp = self.remainder.memory_footprint()
        rqrmi_bytes = self.rqrmi_size_bytes()
        return MemoryFootprint(
            index_bytes=rqrmi_bytes + remainder_fp.index_bytes,
            rule_bytes=len(self.ruleset) * RULE_ENTRY_BYTES,
            breakdown={
                "rqrmi": rqrmi_bytes,
                "remainder_index": remainder_fp.index_bytes,
            },
        )

    def statistics(self) -> dict[str, object]:
        stats = super().statistics()
        stats.update(
            num_isets=self.num_isets,
            coverage=self.coverage,
            remainder_rules=len(self.partition.remainder),
            remainder_classifier=self.remainder.name,
            rqrmi_bytes=self.rqrmi_size_bytes(),
            remainder_index_bytes=self.remainder.memory_footprint().index_bytes,
            max_error=max((iset.model.max_error for iset in self.isets), default=0),
            build_seconds=self.build_seconds,
            training_seconds=sum(
                iset.model.report.training_seconds for iset in self.isets
            ),
            training=dict(self.training_provenance),
        )
        return stats

    # -------------------------------------------------------------- persistence

    def to_state(self) -> dict:
        """Full trained state: RQ-RMI submodels, iSet partition, remainder.

        Unlike the baselines' rebuild-from-parameters default, NuevoMatch
        serializes its trained submodel weights and the exact partition so
        :meth:`from_state` restores a bitwise-identical classifier without
        retraining.
        """
        from dataclasses import asdict

        config_state = asdict(self.config)
        return {
            "format": STATE_FORMAT_VERSION,
            "kind": self.name,
            "config": config_state,
            "build_seconds": self.build_seconds,
            "training": dict(self.training_provenance),
            "isets": [iset.to_state() for iset in self.isets],
            "remainder_rule_ids": self.partition.remainder.rule_id.tolist(),
            "remainder": self.remainder.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict, ruleset: RuleSet) -> "NuevoMatch":
        check_state_header(state, cls.name)
        config_state = dict(state["config"])
        config_state["rqrmi"] = RQRMIConfig(**config_state["rqrmi"])
        config = NuevoMatchConfig(**config_state)
        isets = [
            ISetIndex.from_state(iset_state, ruleset) for iset_state in state["isets"]
        ]
        remainder_rules = ruleset.take(
            [ruleset.row_of[int(i)] for i in state["remainder_rule_ids"]],
            name=f"{ruleset.name}-remainder",
        )
        partition = PartitionResult(
            isets=[index.iset for index in isets],
            remainder=remainder_rules,
            total_rules=len(ruleset),
        )
        remainder_state = state["remainder"]
        remainder_cls = resolve_classifier(remainder_state["kind"])
        remainder = remainder_cls.from_state(remainder_state, remainder_rules)
        instance = cls(
            ruleset,
            isets,
            remainder,
            partition,
            config,
            build_seconds=float(state.get("build_seconds", 0.0)),
        )
        instance.training_provenance = dict(state.get("training", {}))
        return instance
