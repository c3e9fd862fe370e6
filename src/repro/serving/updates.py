"""Online updates for sharded serving: the :class:`UpdateQueue`.

The paper's update story (§3.9) routes rule additions and matching-set
changes to the remainder set, which grows until the structure is retrained in
the background and swapped in.  The mechanism — the overlay a lookup applies
after the built classifier, the live-rules view, the remainder fraction, the
rebuild that folds the overlay in — belongs to each shard's
:class:`~repro.engine.ClassificationEngine`.  :class:`UpdateQueue` is the
policy around it:

* **routing** — an insert/remove goes to the engine of the shard that owns the
  rule id (a fresh id to the shard with the fewest live rules) and is served
  by that engine's next lookup.
* **background retraining** — when a shard's remainder fraction (built-in
  remainder plus overlay, over the live rules) crosses the threshold, its
  engine is rebuilt over a live snapshot in a worker thread and swapped in
  atomically; updates that arrive mid-retrain stay in the overlay until the
  next cycle.  The rebuild is always ``engine.rebuild(warm=True)``, trained
  on that one thread by :func:`repro.core.pipeline.train_rqrmi` (training
  starts no process of its own): new RQ-RMI submodels are seeded from the
  engine being replaced and only submodels whose responsibility content
  changed retrain (cold when the warm start cannot certify its bound),
  shrinking the retrain-to-swap latency — the queue records it per retrain
  (``last_retrain_seconds`` / ``retrain_seconds_total``).  A
  rebuild that raises is counted and kept (``retrains_failed`` /
  ``last_retrain_error``), never thrown through the update that triggered
  it: the shard goes on serving exact results from its overlay and the next
  update past the threshold tries again.
* **invalidation listeners** — downstream result caches (the
  :class:`~repro.serving.flowcache.FlowCache` hot path) register a listener
  with :meth:`UpdateQueue.add_listener`; it fires after the update is applied
  to the owning shard and **before the update call returns**.

Consistency contract: an ``insert``/``remove`` is *acknowledged* when the call
returns, and by that point (a) the owning shard's overlay serves the new
state, and (b) every registered listener has evicted whatever it cached for
the old state.  A ``classify`` issued after the ack therefore never observes
the removed rule or the pre-update matching set — not even through a result
cache.  Results obtained *before* the ack reflect the old state, exactly as a
lookup that raced the update would; callers needing a fence must order their
lookups after the update call returns.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Sequence

from repro.rules.rule import Rule

__all__ = ["DEFAULT_RETRAIN_THRESHOLD", "UpdateQueue"]

#: Retrain once this fraction of a shard's live rules is served by the slow
#: path (built-in remainder plus the update overlay) — the paper's framing of
#: "retrain when the remainder absorbs too much" (§3.9).
DEFAULT_RETRAIN_THRESHOLD = 0.5


class UpdateQueue:
    """Routes online inserts/removes to owning shards and manages retraining.

    Args:
        shards: The engine's shard objects
            (:class:`repro.serving.sharded._Shard`).
        retrain_threshold: Remainder fraction that triggers a retrain.
        background: Retrain in a daemon thread (production mode) or inline
            during the triggering update (deterministic mode for tests and
            benchmarks).
    """

    def __init__(
        self,
        shards: Sequence,
        retrain_threshold: float = DEFAULT_RETRAIN_THRESHOLD,
        background: bool = True,
    ):
        if not 0.0 < retrain_threshold <= 1.0:
            raise ValueError("retrain_threshold must be in (0, 1]")
        self._shards = list(shards)
        self.retrain_threshold = retrain_threshold
        self.background = background
        self._lock = threading.RLock()
        self._threads: list[threading.Thread] = []
        self._listeners: list[Callable[[str, object], None]] = []
        self.inserts_applied = 0
        self.removes_applied = 0
        self.retrains_triggered = 0
        self.retrains_completed = 0
        self.retrains_failed = 0
        #: ``"ExceptionType: message"`` of the most recent failed rebuild.
        self.last_retrain_error: str | None = None
        #: Rebuild-to-swap wall time of the most recent / all completed
        #: retrains (the latency the paper's §3.9 update story is bounded by).
        self.last_retrain_seconds = 0.0
        self.retrain_seconds_total = 0.0

    # -------------------------------------------------------------- listeners

    def add_listener(self, listener: Callable[[str, object], None]) -> None:
        """Register ``listener(op, payload)`` for update notifications.

        ``op`` is ``"insert"`` (payload: the :class:`Rule`) or ``"remove"``
        (payload: the rule id).  Listeners run synchronously after the update
        is applied and before :meth:`insert`/:meth:`remove` return — the
        eviction-before-ack ordering result caches rely on.
        """
        with self._lock:
            self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[str, object], None]) -> None:
        """Unregister a listener previously added (no-op if absent)."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _notify(self, op: str, payload) -> None:
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            listener(op, payload)

    # ------------------------------------------------------------- operations

    def owner_of(self, rule_id: int) -> Optional[int]:
        """Index of the shard holding ``rule_id`` (None if not live)."""
        for shard in self._shards:
            if shard.engine.has_rule(rule_id):
                return shard.index
        return None

    def insert(self, rule: Rule) -> None:
        """Apply an insert immediately to the owning shard's engine.

        A fresh ``rule_id`` goes to the shard with the fewest live rules
        (keeping shards balanced); an existing id is an action or
        matching-set change and stays on its owning shard (the paper's
        type-(iii) update stays on one shard, so lookups never see both
        versions).  A rule the engine rejects raises before anything changed.
        """
        with self._lock:
            owner = self.owner_of(rule.rule_id)
            if owner is None:
                shard = min(self._shards, key=lambda s: s.engine.live_size())
            else:
                shard = self._shards[owner]
            with shard.lock:
                shard.engine.insert(rule)
            self.inserts_applied += 1
        # Eviction before ack: stale cached results are gone before the caller
        # learns the insert completed.
        self._notify("insert", rule)
        self._maybe_retrain(shard)

    def remove(self, rule_id: int) -> bool:
        """Mask a rule immediately on its owning shard; True if it was live."""
        with self._lock:
            owner = self.owner_of(rule_id)
            if owner is None:
                return False
            shard = self._shards[owner]
            with shard.lock:
                shard.engine.remove(rule_id)
            self.removes_applied += 1
        # Eviction before ack: a classify issued after this call returns can
        # never be served the removed rule from a result cache.
        self._notify("remove", rule_id)
        self._maybe_retrain(shard)
        return True

    # ------------------------------------------------------------- retraining

    def _maybe_retrain(self, shard) -> None:
        with shard.lock:
            if shard.retraining:
                return
            if shard.engine.remainder_fraction() < self.retrain_threshold:
                return
            shard.retraining = True
        with self._lock:
            self.retrains_triggered += 1
        if self.background:
            thread = threading.Thread(
                target=self._retrain,
                args=(shard,),
                daemon=True,
                name=f"shard{shard.index}-retrain",
            )
            with self._lock:
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(thread)
            thread.start()
        else:
            self._retrain(shard)

    def _retrain(self, shard) -> None:
        start = time.perf_counter()
        try:
            rebuilt = shard.engine.rebuild(warm=True)
        except Exception as exc:  # noqa: BLE001 - reported through statistics()
            # The update that crossed the threshold is applied and
            # acknowledged; the overlay keeps serving it exactly.
            with shard.lock:
                shard.retraining = False
            with self._lock:
                self.retrains_failed += 1
                self.last_retrain_error = f"{type(exc).__name__}: {exc}"
            return
        shard.swap(rebuilt)
        elapsed = time.perf_counter() - start
        with self._lock:
            self.retrains_completed += 1
            self.last_retrain_seconds = elapsed
            self.retrain_seconds_total += elapsed

    def join(self, timeout: float | None = None) -> None:
        """Wait for in-flight background retrains (None blocks indefinitely)."""
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout)
        with self._lock:
            self._threads = [t for t in self._threads if t.is_alive()]

    # ------------------------------------------------------------- statistics

    def statistics(self) -> dict[str, object]:
        return {
            "inserts_applied": self.inserts_applied,
            "removes_applied": self.removes_applied,
            "retrains_triggered": self.retrains_triggered,
            "retrains_completed": self.retrains_completed,
            "retrains_failed": self.retrains_failed,
            "last_retrain_error": self.last_retrain_error,
            "last_retrain_seconds": self.last_retrain_seconds,
            "retrain_seconds_total": self.retrain_seconds_total,
            "retrain_threshold": self.retrain_threshold,
            "background": self.background,
        }
