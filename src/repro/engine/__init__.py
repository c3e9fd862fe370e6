"""Serving layer: the :class:`ClassificationEngine` facade.

This package is the canonical entry point for using the library as a
classification *service* rather than a bag of algorithms::

    from repro.engine import ClassificationEngine

    engine = ClassificationEngine.build(ruleset, classifier="nm")
    rule_ids, priorities = engine.classify_block(block)   # the lookup
    results = engine.classify_batch(packets)       # Rule objects + traces
    engine.save("acl1.engine.json.gz")             # training paid once
    restored = ClassificationEngine.load("acl1.engine.json.gz")

See :mod:`repro.engine.engine` for the facade, :mod:`repro.engine.stack` for
the :class:`EngineStack` mixin every stack derives its object results from,
and :mod:`repro.engine.serialization` for the on-disk format.
"""

from repro.engine.engine import ClassificationEngine
from repro.engine.stack import EngineStack, validate_block
from repro.engine.serialization import (
    ENGINE_FILE_VERSION,
    SHARDED_FILE_VERSION,
    read_document,
    read_engine_file,
    rule_from_state,
    rule_to_state,
    ruleset_from_state,
    ruleset_to_state,
    write_engine_file,
)

__all__ = [
    "ClassificationEngine",
    "EngineStack",
    "validate_block",
    "ENGINE_FILE_VERSION",
    "SHARDED_FILE_VERSION",
    "rule_to_state",
    "rule_from_state",
    "ruleset_to_state",
    "ruleset_from_state",
    "write_engine_file",
    "read_engine_file",
    "read_document",
]
