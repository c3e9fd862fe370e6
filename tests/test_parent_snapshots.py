"""Old artefacts keep loading: snapshots written by the parent commit (PR 12).

``tests/data/parent_snapshots/`` holds files written by that commit's
``save`` (``generate.py`` there is the script that was run against it) and the
``(rule_ids, priorities)`` it served for a fixed probe block.  This build
reads them without a format bump and serves the same answers: a clean
NuevoMatch engine, a TupleMerge engine saved after native online updates, and
a 2-shard NuevoMatch snapshot with a pending overlay on both shards.

They also carry what later builds stopped writing — ``"trainer"`` in every
RQ-RMI training report, ``warm_retrain``/``retrain_jobs`` in the sharded
document — so loading them is the test that dropping a report field or a
document key does not orphan a snapshot.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import ClassificationEngine
from repro.engine.serialization import (
    ENGINE_FILE_VERSION,
    SHARDED_FILE_VERSION,
    read_document,
)
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


def test_fixtures_carry_the_dropped_fields_and_versions_did_not_move():
    engine = read_document(DATA / "engine_nm.json.gz")
    sharded = read_document(DATA / "sharded_nm_overlay.json.gz")
    assert engine["format"] == ENGINE_FILE_VERSION == 1
    assert sharded["format"] == SHARDED_FILE_VERSION == 1
    assert {"warm_retrain", "retrain_jobs"} <= set(sharded)
    for iset in engine["classifier"]["isets"]:
        assert iset["model"]["report"]["trainer"] == "loop"


def test_unknown_training_report_fields_are_ignored():
    """A report field this build has never heard of (written by a newer or an
    older one) does not make the snapshot unloadable."""
    document = read_document(DATA / "engine_nm.json.gz")
    for iset in document["classifier"]["isets"]:
        iset["model"]["report"]["field_from_another_build"] = {"any": "value"}
    engine = ClassificationEngine.from_document(document)
    _assert_serves_as_recorded(engine, "engine_nm")
    report = engine.classifier.isets[0].model.report
    assert report.submodels_trained == 5 and not hasattr(report, "trainer")


def test_training_metadata_of_the_removed_train_command_is_kept_verbatim():
    """What the parent's ``repro train --jobs 4 --warm-epochs 20`` recorded
    under ``metadata["training"]`` names two options this build no longer has.
    Metadata is free-form: the document loads, keeps the keys and serves."""
    training = {
        "jobs": 4, "warm_epochs": 20, "warm_started": False,
        "submodels_trained": 10, "submodels_reused": 0, "warm_trained": 0,
        "cold_fallbacks": 0, "training_seconds": 0.13266638099594275,
    }
    document = read_document(DATA / "engine_nm.json.gz")
    document["metadata"] = {"training": dict(training)}
    document["classifier"]["training"] = dict(training)
    engine = ClassificationEngine.from_document(document)
    assert engine.metadata["training"] == training
    assert engine.classifier.training_provenance == training
    _assert_serves_as_recorded(engine, "engine_nm")
    assert engine.built_document()["metadata"]["training"] == training
