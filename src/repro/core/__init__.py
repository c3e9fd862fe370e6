"""The paper's core contribution: RQ-RMI, iSet partitioning and NuevoMatch.

Public API:

* :class:`~repro.core.rqrmi.RQRMI` / :class:`~repro.core.rqrmi.RangeSet` —
  the learned range index (one dimension, disjoint ranges).
* :func:`~repro.core.isets.partition_isets` /
  :class:`~repro.core.isets.ISet` — independent-set partitioning.
* :class:`~repro.core.nuevomatch.NuevoMatch` — the end-to-end classifier.
* :class:`~repro.core.config.RQRMIConfig` /
  :class:`~repro.core.config.NuevoMatchConfig` — configuration (Table 4, §5.1).
* :func:`~repro.core.pipeline.train_rqrmi` — the staged trainer every build
  uses, with warm start (submodel reuse under recomputed error bounds).
* :mod:`~repro.core.updates` — the §3.9 closed-form update model (the update
  mechanism itself is :class:`repro.engine.ClassificationEngine`'s).
* :mod:`~repro.core.metrics` — diversity and centrality (§3.7).
"""

from repro.core.config import (
    NuevoMatchConfig,
    RQRMIConfig,
    TABLE4_CONFIGS,
    stage_widths_for_rules,
)
from repro.core.submodel import Submodel
from repro.core.training import TrainingDataset, sample_responsibility, train_submodel
from repro.core.rqrmi import RQRMI, RangeSet, RQRMILookup, TrainingReport
from repro.core.pipeline import train_rqrmi
from repro.core.isets import (
    ISet,
    PartitionResult,
    max_independent_set,
    partition_isets,
    partition_shards,
)
from repro.core.metrics import (
    field_diversity,
    partition_quality,
    ruleset_centrality,
    ruleset_diversity,
)
from repro.core.nuevomatch import ISetIndex, LookupBreakdown, NuevoMatch
from repro.core.updates import (
    expected_unmodified_rules,
    sustained_update_rate,
    throughput_over_time,
    throughput_with_updates,
)

__all__ = [
    "RQRMI",
    "RangeSet",
    "RQRMILookup",
    "TrainingReport",
    "RQRMIConfig",
    "NuevoMatchConfig",
    "TABLE4_CONFIGS",
    "stage_widths_for_rules",
    "Submodel",
    "TrainingDataset",
    "sample_responsibility",
    "train_submodel",
    "train_rqrmi",
    "ISet",
    "PartitionResult",
    "max_independent_set",
    "partition_isets",
    "partition_shards",
    "ISetIndex",
    "LookupBreakdown",
    "NuevoMatch",
    "expected_unmodified_rules",
    "throughput_with_updates",
    "throughput_over_time",
    "sustained_update_rate",
    "field_diversity",
    "ruleset_diversity",
    "ruleset_centrality",
    "partition_quality",
]
