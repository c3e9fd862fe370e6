"""NuevoMatch reproduction: RQ-RMI learned packet classification.

This package reproduces "A Computational Approach to Packet Classification"
(Rashelbach, Rottenstreich, Silberstein — SIGCOMM 2020).  The canonical
serving API is the :class:`ClassificationEngine` facade: batch-first lookups
over any registered classifier, with save/load persistence so RQ-RMI training
cost is paid once per rule-set::

    from repro import ClassificationEngine, generate_classbench

    rules = generate_classbench("acl1", 1000, seed=1)
    engine = ClassificationEngine.build(rules, classifier="nm",
                                        remainder_classifier="tm")
    packets = rules.sample_packets(256, seed=2)
    results = engine.classify_batch(packets)      # vectorized RQ-RMI inference
    engine.save("acl1.engine.json.gz")
    restored = ClassificationEngine.load("acl1.engine.json.gz")

Classifiers are registered by name (``repro.classifiers.register``); resolve
and build them with :func:`build_classifier` and list them with
:func:`available_classifiers`.

Subsystems:

* :mod:`repro.engine` — the :class:`ClassificationEngine` serving facade:
  build → serve → update → persist, and the ``EngineStack`` mixin that
  derives every stack's object results from its one ``classify_block``.
* :mod:`repro.serving` — multi-core sharded serving: :class:`ShardedEngine`
  partitions the rules across per-shard engines (iSet-aware), fans blocks
  out in-process or over shared-memory shard workers, and absorbs online
  updates with background retraining, the way the paper's evaluation scales
  across cores.
* :mod:`repro.core` — the RQ-RMI learned range index, iSet partitioning and
  the end-to-end NuevoMatch classifier (the paper's contribution), plus the
  one staged trainer (:func:`repro.core.pipeline.train_rqrmi`), whose warm
  start seeds a retrain from the engine being replaced.
* :mod:`repro.rules` — rule model, ClassBench-like and Stanford-backbone-like
  rule-set generators, and the ClassBench text format parser.
* :mod:`repro.classifiers` — the classifier registry plus baselines used both
  as comparison points and as remainder-set indexes: linear search, Tuple
  Space Search, TupleMerge, HiCuts, CutSplit, and a NeuroCuts-style tree.
* :mod:`repro.traffic` — packet traces: uniform, Zipf-skewed and CAIDA-like.
* :mod:`repro.workloads` — end-to-end scenario replay: drive any generated
  trace through any engine (cached/uncached, 1..N shards) and report hit
  rate, throughput and latency percentiles (``repro replay`` on the CLI).
* :mod:`repro.simulation` — cache-hierarchy and memory-access cost model used
  to reproduce the paper's throughput/latency-shaped experiments
  (:func:`repro.simulation.evaluate_classifier`, the one priced lookup loop).
* :mod:`repro.analysis` — memory-footprint accounting, coverage analysis and
  reporting helpers used by the benchmark harness.
"""

from repro.rules import (
    FieldSchema,
    Packet,
    Rule,
    RuleSet,
    generate_classbench,
    generate_stanford_backbone,
)
from repro.classifiers import (
    available_classifiers,
    build_classifier,
    register,
    resolve_classifier,
)
from repro.core import (
    NuevoMatch,
    NuevoMatchConfig,
    RQRMI,
    RQRMIConfig,
    partition_isets,
)
from repro.engine import ClassificationEngine
from repro.serving import CachedEngine, FlowCache, ShardedEngine, UpdateQueue

__version__ = "1.3.0"

__all__ = [
    "FieldSchema",
    "Packet",
    "Rule",
    "RuleSet",
    "generate_classbench",
    "generate_stanford_backbone",
    "ClassificationEngine",
    "ShardedEngine",
    "UpdateQueue",
    "FlowCache",
    "CachedEngine",
    "available_classifiers",
    "build_classifier",
    "register",
    "resolve_classifier",
    "NuevoMatch",
    "NuevoMatchConfig",
    "RQRMI",
    "RQRMIConfig",
    "partition_isets",
    "__version__",
]
