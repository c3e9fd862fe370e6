"""Multi-core sharded serving on top of the :class:`ClassificationEngine`.

This package scales the serving layer the way the paper's evaluation scales
NuevoMatch — by splitting the rule-set across cores::

    from repro.serving import ShardedEngine

    sharded = ShardedEngine.build(ruleset, shards=4, classifier="nm")
    rule_ids, priorities = sharded.classify_block(block)  # fan out + merge
    results = sharded.classify_batch(packets)      # the same, as Rule objects
    sharded.insert(rule)                           # immediate, overlay-based
    sharded.save("acl1.sharded.json.gz")           # all shards, one snapshot

    cached = CachedEngine(sharded, capacity=4096)  # exact-match hot path
    rule_ids, priorities = cached.classify_block(block)   # probe → miss → fill

See :mod:`repro.serving.sharded` for the engine,
:func:`repro.core.isets.partition_shards` for the iSet-aware rule split,
:mod:`repro.serving.updates` for the online-update / background-retraining
policy, :mod:`repro.serving.flowcache` for the exact-match flow cache that
exploits the skewed traffic of the paper's §5.1.1 evaluation, and
:mod:`repro.serving.server` for the asyncio TCP front-end
(``repro serve --listen``: binary classify-batch frames in, one
``classify_block`` call each; JSON for control ops),
:mod:`repro.serving.workers` for the persistent shared-memory shard-worker
runtime behind ``executor="workers"``, and :mod:`repro.serving.wire` for the
wire protocol the server and clients speak.
"""

from repro.serving.control import (
    DEFAULT_SLO_P99_US,
    CacheTuner,
    ControllerConfig,
    OverloadController,
    PacketBudget,
)
from repro.serving.flowcache import (
    DEFAULT_CACHE_CAPACITY,
    CachedEngine,
    CacheStats,
    FlowCache,
)
from repro.serving.server import (
    DEFAULT_MAX_QUEUE,
    AsyncClient,
    AsyncServer,
    QueueFullError,
    ServerError,
    run_server,
)
from repro.serving.sharded import EXECUTORS, ShardedEngine
from repro.serving.updates import DEFAULT_RETRAIN_THRESHOLD, UpdateQueue
from repro.serving.wire import WIRE_V2
from repro.serving.workers import ShardWorkerRuntime, WorkerCrashed

__all__ = [
    "ShardedEngine",
    "ShardWorkerRuntime",
    "WorkerCrashed",
    "WIRE_V2",
    "UpdateQueue",
    "FlowCache",
    "CachedEngine",
    "CacheStats",
    "AsyncServer",
    "AsyncClient",
    "QueueFullError",
    "PacketBudget",
    "OverloadController",
    "ControllerConfig",
    "CacheTuner",
    "ServerError",
    "run_server",
    "EXECUTORS",
    "DEFAULT_RETRAIN_THRESHOLD",
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_SLO_P99_US",
]
