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
   the remainder search is given the order key of the iSets' best match as a
   floor and can stop early (§4).
3. The selector returns the match with the smallest order key
   (:func:`~repro.rules.rule.order_key`: highest priority, then lowest id).

The block lookup tracks one best key per packet
(:data:`~repro.rules.rule.NO_FLOOR` for "nothing yet") and splits it back
into ``(rule_id, priority)`` once.
"""

from __future__ import annotations

import time
from typing import Optional, Type

import numpy as np

from repro.classifiers.base import (
    STATE_FORMAT_VERSION,
    Classifier,
    MemoryFootprint,
    RULE_ENTRY_BYTES,
    check_state_header,
)
from repro.classifiers.registry import register, resolve_classifier
from repro.core import native
from repro.core.config import NuevoMatchConfig, RQRMIConfig
from repro.core.isets import ISet, PartitionResult, partition_isets
from repro.core.pipeline import train_rqrmi
from repro.core.rqrmi import RQRMI, RangeSet
from repro.rules.rule import NO_FLOOR, RuleSet, result_keys, split_keys

__all__ = ["ISetIndex", "NuevoMatch"]


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
        self._kernel: native.IsetKernel | None = None  # bound on first use

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def coverage(self) -> float:
        return self.iset.coverage

    def lookup_block(
        self,
        values: np.ndarray,
        best_keys: np.ndarray,
        traces: Optional[np.ndarray] = None,
    ) -> None:
        """Columnar iSet lookup: lower per-row best order keys in place.

        RQ-RMI inference (the paper's Table-1 vectorization), the bounded
        search and multi-field validation of the candidate rule run across all
        rows at once; a validated candidate with a smaller key replaces the
        row's ``best_keys`` entry (an int64 array), and ``traces`` rows —
        ``(n, 5)`` int64, :data:`~repro.classifiers.base.TRACE_FIELDS` order —
        accumulate the per-packet counters.

        Without ``traces`` the compiled kernel (:mod:`repro.core.native`)
        does all of it in one call, its search confined to the error window;
        the array body below is its reference, and the fallback where no
        kernel can be built or ``best_keys`` is not an aligned, writable,
        C-contiguous int64 row per block row.
        """
        if traces is None:
            kernel = self.kernel()
            if kernel is not None and kernel.lookup(values, best_keys):
                return
        keys = values[:, self.dim]
        indices, _predicted, bounds = self.model.query_batch_detailed(keys)
        if traces is not None:
            # One vectorised inference per stage (8-neuron hidden layer), then
            # a binary search over the error window of the packed value array
            # (§4: 16 four-byte field values per 64-byte line) — index, not
            # rule, storage.
            stacked = self.model.stacked
            model_accesses = len(stacked)
            inference_ops = model_accesses * stacked[0].hidden_units
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
        best_keys[matched_rows] = np.minimum(
            best_keys[matched_rows], rules.key[candidates[matched]]
        )

    def kernel(self) -> native.IsetKernel | None:
        """This iSet's compiled lookup, bound on first use; ``None`` on the
        numpy path."""
        lib = native.library()
        if lib is None:
            return None
        if self._kernel is None:
            self._kernel = native.IsetKernel(lib, self.model, self.rules, self.dim)
        return self._kernel

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

    def classify_block(
        self,
        block: np.ndarray,
        traces: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar lookup: vectorized iSet queries, floored remainder scan.

        NuevoMatch's one lookup, allocation-free: iSet inference, candidate
        validation and winner selection run as array operations, and the
        remainder is queried through its one lookup,
        ``classify_block_with_floors``, with the iSet winners as per-row
        early-termination floors (§4).  The base class derives
        ``classify_batch``, ``classify_traced`` and ``classify`` from it.
        """
        block = np.asarray(block)
        n = block.shape[0]
        values = block.astype(np.int64, copy=False)
        best_keys = np.full(n, NO_FLOOR, dtype=np.int64)
        if traces is not None:
            traces[:n] = 0
        for iset in self.isets:
            iset.lookup_block(values, best_keys, traces=traces)
        remainder_ids, remainder_priorities = (
            self.remainder.classify_block_with_floors(values, best_keys, traces=traces)
        )
        # The remainder reports only keys below its floor (no match otherwise).
        best_keys = np.minimum(best_keys, result_keys(remainder_ids, remainder_priorities))
        return split_keys(best_keys)

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
            iset_kernel=native.kernel_name(),
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
        # Snapshots from before early termination became unconditional.
        config_state.pop("early_termination", None)
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
