"""Baseline packet classifiers and the classifier registry.

These are the algorithms NuevoMatch is compared against in the paper and the
candidates for indexing its *remainder set*:

* :class:`~repro.classifiers.linear.LinearSearchClassifier` — correctness oracle.
* :class:`~repro.classifiers.tuplespace.TupleSpaceSearchClassifier` — Tuple
  Space Search (``tss``).
* :class:`~repro.classifiers.tuplemerge.TupleMergeClassifier` — TupleMerge
  (``tm`` in the paper's figures).
* :class:`~repro.classifiers.hicuts.HiCutsClassifier` — HiCuts decision tree.
* :class:`~repro.classifiers.cutsplit.CutSplitClassifier` — CutSplit (``cs``).
* :class:`~repro.classifiers.neurocuts.NeuroCutsClassifier` — NeuroCuts-style
  search-optimised tree (``nc``).

The two hash baselines are placement policies over one
:class:`~repro.classifiers.tuplespace.TupleHashClassifier`; the three tree
baselines are grouping + node policies over one
:class:`~repro.classifiers.dtree.ForestClassifier`.  A built baseline is
immutable: online updates are the engine's overlay.

All classifiers implement the :class:`~repro.classifiers.base.Classifier`
interface: one columnar lookup — a baseline's floored
``classify_block_with_floors``, the §4 early-termination hook NuevoMatch
hands its iSet winners to, or NuevoMatch's own ``classify_block`` — from
which the base class derives ``classify_block``, ``classify_batch``,
``classify_traced`` and ``classify``, plus the versioned
``to_state``/``from_state`` persistence protocol.  Each class registers itself with the decorator-based
registry (:mod:`repro.classifiers.registry`); resolve names with
:func:`build_classifier` / :func:`resolve_classifier` and enumerate them with
:func:`available_classifiers`.
"""

from repro.classifiers.base import (
    STATE_FORMAT_VERSION,
    ClassificationResult,
    Classifier,
    LookupTrace,
    MemoryFootprint,
)
from repro.classifiers.registry import (
    UnknownClassifierError,
    available_classifiers,
    build_classifier,
    classifier_aliases,
    format_available,
    register,
    resolve_classifier,
)
from repro.classifiers.linear import LinearSearchClassifier
from repro.classifiers.tuplespace import TupleSpaceSearchClassifier
from repro.classifiers.tuplemerge import TupleMergeClassifier
from repro.classifiers.hicuts import HiCutsClassifier
from repro.classifiers.cutsplit import CutSplitClassifier
from repro.classifiers.neurocuts import NeuroCutsClassifier

__all__ = [
    "Classifier",
    "ClassificationResult",
    "LookupTrace",
    "MemoryFootprint",
    "STATE_FORMAT_VERSION",
    "LinearSearchClassifier",
    "TupleSpaceSearchClassifier",
    "TupleMergeClassifier",
    "HiCutsClassifier",
    "CutSplitClassifier",
    "NeuroCutsClassifier",
    "register",
    "resolve_classifier",
    "build_classifier",
    "available_classifiers",
    "classifier_aliases",
    "format_available",
    "UnknownClassifierError",
]
