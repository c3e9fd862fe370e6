"""Old artefacts keep loading: snapshots written by the parent commit (PR 12).

``tests/data/parent_snapshots/`` holds files written by that commit's
``save`` (``generate.py`` there is the script that was run against it) and the
``(rule_ids, priorities)`` it served for a fixed probe block.  This build
reads them without a format bump and serves the same answers: a clean
NuevoMatch engine, a TupleMerge engine saved after native online updates, and
a 2-shard NuevoMatch snapshot with a pending overlay on both shards.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import ClassificationEngine
from repro.serving import ShardedEngine

DATA = Path(__file__).parent / "data" / "parent_snapshots"
EXPECTED = json.loads((DATA / "expected.json").read_text())
BLOCK = np.array(EXPECTED["block"], dtype=np.uint64)


def _assert_serves_as_recorded(stack, name):
    rule_ids, priorities = stack.classify_block(BLOCK)
    np.testing.assert_array_equal(rule_ids, EXPECTED[name]["rule_ids"])
    np.testing.assert_array_equal(priorities, EXPECTED[name]["priorities"])
    assert stack.verify(BLOCK.tolist()) == len(BLOCK)


@pytest.mark.parametrize("name", ["engine_nm", "engine_tm_updated"])
def test_parent_engine_snapshot_serves_identically(name):
    engine = ClassificationEngine.load(DATA / f"{name}.json.gz")
    assert engine.update_statistics()["overlay_inserted"] == 0
    _assert_serves_as_recorded(engine, name)


@pytest.mark.parametrize("executor", ["serial", "workers"])
def test_parent_sharded_snapshot_with_overlay_serves_identically(executor, tmp_path):
    name = "sharded_nm_overlay"
    with ShardedEngine.load(DATA / f"{name}.json.gz", executor=executor) as sharded:
        overlay = [
            [shard["overlay_inserted"], shard["overlay_removed"]]
            for shard in sharded.statistics()["shards"]
        ]
        assert overlay == EXPECTED[name]["overlay"] and all(map(all, overlay))
        _assert_serves_as_recorded(sharded, name)
        # ... and what this build writes back is the same layout: it loads
        # again and still serves the recorded answers.
        sharded.save(tmp_path / "rewritten.json.gz")
    with ShardedEngine.load(tmp_path / "rewritten.json.gz") as rewritten:
        _assert_serves_as_recorded(rewritten, name)
