"""How the files in this directory were made — not a test, never collected.

Run from a checkout of commit 1793ae8 (PR 12, the parent of the PR that moved
the update overlay into the engine)::

    PYTHONPATH=src python generate.py OUT_DIR

It writes three snapshots with that build's ``save`` and, in
``expected.json``, the probe block and the ``(rule_ids, priorities)`` that
build served for it.  ``tests/test_parent_snapshots.py`` loads them.
"""
import json, sys
from pathlib import Path
import numpy as np
sys.path.insert(0, "tests")
from _helpers import fast_nm_config
from repro.engine import ClassificationEngine
from repro.rules import generate_classbench
from repro.rules.rule import Rule
from repro.serving import ShardedEngine

out = Path(sys.argv[1])
rules = generate_classbench("acl1", 150, seed=11)
packets = rules.sample_packets(60, seed=5)
block = np.array([tuple(p) for p in packets], dtype=np.uint64)
full = tuple(spec.full_range() for spec in rules.schema)
expected = {"block": block.tolist()}

def serve(stack, name):
    ids, pris = stack.classify_block(block)
    expected[name] = {"rule_ids": ids.tolist(), "priorities": pris.tolist()}

nm = ClassificationEngine.build(rules, classifier="nm", remainder_classifier="tm", config=fast_nm_config())
nm.save(out / "engine_nm.json.gz"); serve(nm, "engine_nm")

tm = ClassificationEngine.build(rules, classifier="tm")
tm.insert(Rule(rules[7].ranges, priority=0, action="ins", rule_id=9001))
tm.remove(rules[3].rule_id)
tm.save(out / "engine_tm_updated.json.gz"); serve(tm, "engine_tm_updated")

with ShardedEngine.build(rules, shards=2, classifier="nm", remainder_classifier="tm",
                         config=fast_nm_config(), background_retraining=False,
                         retrain_threshold=1.0) as sharded:
    sharded.insert(Rule(rules[20].ranges, priority=1, action="ins", rule_id=9002))
    sharded.insert(Rule(rules[60].ranges, priority=rules[30].priority, action="mod", rule_id=rules[30].rule_id))
    for victim in (rules[0], rules[1], rules[40]):
        sharded.remove(victim.rule_id)
    sharded.insert(Rule(rules[50].ranges, priority=2, action="gone", rule_id=9003))
    sharded.remove(9003)
    sharded.save(out / "sharded_nm_overlay.json.gz"); serve(sharded, "sharded_nm_overlay")
    expected["sharded_nm_overlay"]["overlay"] = [
        [len(s.inserted), len(s.removed)] for s in sharded._shards]
(out / "expected.json").write_text(json.dumps(expected))
