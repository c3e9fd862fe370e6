"""Structural guard: one lookup path per stack, one update path, one RQ-RMI
trainer, one data plane, one way to use N cores, one implementation per
baseline family and one way to run a trace through a stack cannot grow back
unnoticed.

AST-based, so it reads what the source *defines*, not what an import happens
to expose: among classifiers and engine stacks under ``src/repro`` only
``Classifier`` and ``EngineStack`` define ``classify_batch``, only
``EngineStack`` defines ``verify`` for engine stacks (nothing defines
``serve``), the sharded engine keeps exactly two executors, the §3.9 update
overlay lives in exactly one class (``ClassificationEngine``; ``_Shard`` is
swap bookkeeping), the
staged training loop lives in ``core/pipeline.py`` and the Adam update in
``core/training.py`` only, the server reaches the engine for a lookup from
one call site behind one admission point, only ``serving/workers.py`` starts
a process, no ``build`` takes a ``pipeline``, the hash and tree baselines
share one early-termination loop per family and one ``build``, rules become
arrays in ``rules/rule.py`` alone (no per-site converter, no sort of ``Rule``
objects by attribute), only ``workloads/replay.py`` times a lookup loop, only
``simulation/`` prices one and the CLI builds its stacks through the replay
module's two factories, and none of the superseded names survives.  (The wire
client's ``AsyncClient.classify_batch`` is a network call, not a lookup
implementation, and is exempt.)
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``class -> method names`` for every class defined under ``src/repro``.
CLASS_METHODS: dict[str, set[str]] = {}
#: ``class -> base-class names`` (as written in the source).
CLASS_BASES: dict[str, set[str]] = {}
for _path in SRC.rglob("*.py"):
    for _node in ast.walk(ast.parse(_path.read_text())):
        if isinstance(_node, ast.ClassDef):
            CLASS_METHODS[_node.name] = {
                item.name
                for item in _node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            CLASS_BASES[_node.name] = {
                base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                for base in _node.bases
            }


#: Classes defined under ``src/repro/classifiers``.
CLASSIFIER_CLASSES = {
    node.name
    for path in (SRC / "classifiers").glob("*.py")
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, ast.ClassDef)
}


def _defining(method: str) -> set[str]:
    return {name for name, methods in CLASS_METHODS.items() if method in methods}


def _descends_from(name: str, root: str) -> bool:
    return name == root or any(
        _descends_from(base, root)
        for base in CLASS_BASES.get(name, ())
        if base in CLASS_BASES
    )


def test_classify_batch_has_two_definitions():
    assert _defining("classify_batch") - {"AsyncClient"} == {
        "Classifier",
        "EngineStack",
    }


def test_only_the_mixin_defines_verify_for_stacks():
    stacks = {name for name in CLASS_METHODS if _descends_from(name, "EngineStack")}
    assert {"ClassificationEngine", "ShardedEngine", "CachedEngine"} <= stacks
    for method in ("verify", "classify_traced", "classify"):
        assert _defining(method) & stacks == {"EngineStack"}, method
    # The batch-serving view is gone: a trace runs through `replay_trace`.
    assert _defining("serve") == set()
    # Each stack implements the one lookup itself.
    for stack in stacks - {"EngineStack"}:
        assert "classify_block" in CLASS_METHODS[stack], stack


def test_sharded_engine_keeps_exactly_two_executors():
    from repro.serving import EXECUTORS

    assert EXECUTORS == ("serial", "workers")
    imported = {
        alias.name
        for node in ast.walk(ast.parse((SRC / "serving" / "sharded.py").read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"ThreadPoolExecutor", "ProcessPoolExecutor"}


def test_the_engine_is_the_one_updatable_unit():
    for method in (
        "adjust_block",
        "live_ruleset",
        "remainder_fraction",
        "rebuild",
        "carry_overlay",
    ):
        # (NuevoMatch.remainder_fraction is the built partition's own share.)
        assert _defining(method) - {"NuevoMatch"} == {"ClassificationEngine"}, method
    assert not CLASS_METHODS["_Shard"] & {
        "apply_insert",
        "apply_remove",
        "live_ruleset",
        "rule_arrays",
        "adjust_block",
        "remainder_fraction",
    }
    # A built baseline is immutable: no classifier takes updates natively.
    assert not {
        name for name in CLASSIFIER_CLASSES if CLASS_METHODS[name] & {"insert", "remove"}
    }


def test_one_implementation_per_baseline_family():
    """A baseline is a policy over its family's one implementation: the §4
    early-termination loops, and ``build``, are not copied per classifier."""

    def defining(method: str) -> set[str]:
        return _defining(method) & CLASSIFIER_CLASSES

    assert defining("build") == {"Classifier"}
    assert defining("classify_with_floor") == {
        "Classifier",
        "LinearSearchClassifier",
        "TupleHashClassifier",
        "ForestClassifier",
    }
    assert defining("classify_block_with_floors") == {"Classifier", "TupleHashClassifier"}
    for name, family in (
        ("TupleSpaceSearchClassifier", "TupleHashClassifier"),
        ("TupleMergeClassifier", "TupleHashClassifier"),
        ("HiCutsClassifier", "ForestClassifier"),
        ("CutSplitClassifier", "ForestClassifier"),
        ("NeuroCutsClassifier", "ForestClassifier"),
    ):
        assert CLASS_BASES[name] == {family}, name
    # The bucket probe appears in the scalar reference and the columnar loop
    # only, the tree walk in the forest's one loop, and nothing sorts tables
    # or trees inside a lookup.
    probes, walks, sorts = [], [], []
    for path in sorted((SRC / "classifiers").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            source = ast.unparse(node)
            if "table.buckets.get(" in source:
                probes.append(node.name)
            if "tree.lookup(" in source:
                walks.append(node.name)
            if node.name.startswith("classify") and re.search(r"sorted\(|\.sort\(", source):
                sorts.append(f"{path.name}:{node.name}")
    assert sorted(probes) == ["classify_block_with_floors", "classify_with_floor"]
    assert walks == ["classify_with_floor"]
    assert sorts == []


def test_superseded_names_are_gone():
    removed = re.compile(
        r"\b(lookup_batch|probe_batch|fill_batch|classify_batch_per_shard|"
        r"_fan_out_workers|_process_worker_\w*|_retire_process_pool|"
        r"supports_block|CLASSIFIER_REGISTRY|UpdatableNuevoMatch|"
        r"supports_updates|_effective_ruleset|_updatable|"
        r"_rebuild_shard_engine|train_submodels_stacked|_train_stacked_chunk|"
        r"AdamState|max_stacked_elements|early_stop_tolerance|serial_trainer|"
        r"supports_training_pipeline|warm_retrain|retrain_jobs|"
        r"RequestBatcher|BatcherStats|PendingRequest|ControlSettings|"
        r"_op_classify|_process_batch|_packet_values|negotiate|max_delay_us|"
        r"DEFAULT_MAX_DELAY_US|DEFAULT_MAX_BATCH|read_frame|MAX_FRAME_BYTES|"
        r"TrainingPipeline|PipelineConfig|train_many|_train_rqrmi_job|"
        r"resolve_warm_epochs|warm_epochs|pipeline_config|"
        r"UpdatableClassifier|_TupleTable|_MergedTable|_ordered_tables|"
        r"_ordered_trees|_insert_into_tables|bucket_size_after_insert|"
        r"_recompute_max_priority|_rules_to_arrays|_rule_arrays|_packed_rules|"
        r"_base_ids|_round_robin|evaluate_classifier_batched|BatchReport|"
        r"_cmd_engine_serve|partition_for_shards|PARTITIONERS)\b|"
        r"columnar="
    )
    offenders = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if removed.search(line)
    ]
    assert offenders == []


def test_nothing_shipped_still_describes_a_deleted_path():
    """The acceptance greps of ISSUEs 15, 16, 20, 23 and 24, kept as a test:
    no source, example, benchmark, script, doc or workflow names the deleted
    JSON data plane, the deleted training orchestrator, the options that
    selected them, the per-baseline table classes and native updates, the
    per-site rule converters or the second trace runs and the partitioner knob
    (CHANGES.md and ROADMAP.md are where the names are spelled)."""
    gone = re.compile(
        r"RequestBatcher|BatcherStats|PendingRequest|ControlSettings|_op_classify|"
        r"negotiate=|wire_v2=|protocol=\"json\"|max_delay_us|max-delay-us|"
        r"--max-batch|DEFAULT_MAX_BATCH|MAX_FRAME_BYTES|"
        r"TrainingPipeline|PipelineConfig|ProcessPoolExecutor|train_many|"
        r"warm_epochs|warm-epochs|pipeline_config|pipeline=|--jobs|repro train|"
        r"UpdatableClassifier|_TupleTable|_MergedTable|_ordered_tables|"
        r"_ordered_trees|_insert_into_tables|bucket_size_after_insert|"
        r"_recompute_max_priority|_rules_to_arrays|_rule_arrays|_packed_rules|"
        r"_base_ids|_round_robin|evaluate_classifier_batched|BatchReport|"
        r"_cmd_engine_serve|partition_for_shards|PARTITIONERS|engine serve\b|"
        r"--partitioner"
    )
    root = SRC.parent.parent
    shipped = [root / "README.md"] + [
        path
        for top in ("src", "examples", "benchmarks", "scripts", "docs", ".github", ".claude")
        for path in sorted((root / top).rglob("*"))
        if path.is_file() and path.suffix in {".py", ".md", ".yml", ".yaml"}
    ]
    offenders = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for path in shipped
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if gone.search(line)
    ]
    assert offenders == []


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a tree mentions: names, attributes, arguments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_one_staged_loop_and_one_adam_update():
    """``RQRMI`` trains through ``core/pipeline.train_rqrmi`` — no method of
    it samples a responsibility or fits a submodel itself — and the Adam
    moment update exists in ``core/training.py`` alone."""
    rqrmi = ast.parse((SRC / "core" / "rqrmi.py").read_text())
    assert not _names(rqrmi) & {"train_submodel", "sample_responsibility"}
    adam = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if _names(ast.parse(path.read_text())) & {"beta1", "beta2"}
    }
    assert adam == {"core/training.py"}
    callers = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", "")) == "train_submodel"
    }
    assert callers == {"core/pipeline.py"}


def _imports(tree: ast.AST, package: str) -> bool:
    """True when ``tree`` imports ``package`` or one of its submodules."""
    modules = [
        module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for module in (
            [alias.name for alias in node.names]
            if isinstance(node, ast.Import)
            else [node.module or ""]
        )
    ]
    return any(m == package or m.startswith(package + ".") for m in modules)


def test_only_the_shard_workers_start_a_process():
    """One way to use N cores: ``serving/workers.py`` is the only module that
    imports ``multiprocessing``; the one ``concurrent.futures`` import is the
    server's single engine-worker *thread* (the process pool's name is on the
    shipped-names list above); and no ``build`` takes a ``pipeline`` to carry
    a second fan-out."""
    trees = {
        str(path.relative_to(SRC)): ast.parse(path.read_text())
        for path in SRC.rglob("*.py")
    }
    for package, only in (
        ("multiprocessing", "serving/workers.py"),
        ("concurrent", "serving/server.py"),
    ):
        assert {name for name, tree in trees.items() if _imports(tree, package)} == {only}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "build":
                parameters = node.args.args + node.args.kwonlyargs
                assert "pipeline" not in {arg.arg for arg in parameters}, name


def _calls(path: Path, method: str) -> list[ast.Call]:
    """Every ``<anything>.method(...)`` / ``method(...)`` call in a file, plus
    every place the method is handed over uncalled (``run(x.method, ...)``)."""
    tree = ast.parse(path.read_text())
    called = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", "")) == method
    ]
    passed = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for arg in node.args
        if isinstance(arg, ast.Attribute) and arg.attr == method
    ]
    return called + passed


def test_the_server_has_one_data_plane():
    """``serving/server.py`` reaches ``classify_block`` from exactly one site
    and never asks an engine for ``classify_batch`` (the object materializer
    the JSON classify op went through); ``PacketBudget.try_acquire`` has
    exactly one call site in the serving package."""
    server = SRC / "serving" / "server.py"
    assert len(_calls(server, "classify_block")) == 1
    on_an_engine = [
        node
        for node in _calls(server, "classify_batch")
        if "engine" in ast.unparse(node)
    ]
    assert on_an_engine == []
    admissions = {
        str(path.relative_to(SRC)): len(_calls(path, "try_acquire"))
        for path in (SRC / "serving").glob("*.py")
        if _calls(path, "try_acquire")
    }
    assert admissions == {"serving/server.py": 1}


def test_flowcache_holds_no_rule_objects():
    """``FlowCache`` slots are key, rule_id, priority: its methods never
    construct, store or return a ``Rule`` (``invalidate_insert`` only reads
    the ranges/id of the rule an update hands it)."""
    tree = ast.parse((SRC / "serving" / "flowcache.py").read_text())
    cache = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "FlowCache"
    )
    assert {"probe_block", "fill_block"} <= CLASS_METHODS["FlowCache"]
    for method in cache.body:
        if not isinstance(method, ast.FunctionDef) or method.name == "invalidate_insert":
            continue
        names = {node.id for node in ast.walk(method) if isinstance(node, ast.Name)}
        assert "Rule" not in names, method.name
    attributes = {
        node.attr
        for node in ast.walk(cache)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }
    assert "_rules" not in attributes


#: The attributes of a :class:`~repro.rules.rule.Rule`.
RULE_ATTRIBUTES = {"ranges", "priority", "rule_id", "action"}


def _reads_a_rule(tree: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr in RULE_ATTRIBUTES
        for node in ast.walk(tree)
    )


def test_one_rule_representation():
    """``RuleSet`` holds the rules as arrays and every layer slices it: outside
    ``rules/rule.py`` no comprehension over rules feeds ``np.array`` /
    ``np.asarray`` (``FlowCache.invalidate_insert`` converts the one inserted
    ``Rule`` an update hands it), and nothing under ``core/``, ``engine/``,
    ``serving/`` or in ``classifiers/linear.py`` sorts by a ``Rule`` attribute."""
    converters, sorts = [], []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        sorted_here = name.split("/")[0] in {"core", "engine", "serving"} or (
            name == "classifiers/linear.py"
        )
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                called = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if (
                    called in {"array", "asarray"}
                    and name != "rules/rule.py"
                    and (name, function.name) != ("serving/flowcache.py", "invalidate_insert")
                    and any(
                        isinstance(inner, (ast.ListComp, ast.GeneratorExp))
                        and _reads_a_rule(inner)
                        for argument in node.args
                        for inner in ast.walk(argument)
                    )
                ):
                    converters.append(f"{name}:{node.lineno}")
                if sorted_here and called in {"sorted", "sort"} and any(
                    keyword.arg == "key" and _reads_a_rule(keyword.value)
                    for keyword in node.keywords
                ):
                    sorts.append(f"{name}:{node.lineno}")
    assert sorted(set(converters)) == []
    assert sorted(set(sorts)) == []
    assert {"lo", "hi", "priority", "rule_id", "take", "concat"} <= (
        CLASS_METHODS["RuleSet"] | _names(ast.parse((SRC / "rules" / "rule.py").read_text()))
    )


def _called(node: ast.Call) -> str:
    return getattr(node.func, "attr", getattr(node.func, "id", ""))


def test_one_trace_run():
    """One way to run a trace through a stack.  In ``src/``: only
    ``workloads/replay.py`` has a function that both loops over a lookup
    (``classify_block`` / ``classify_batch`` / ``serve``) and reads
    ``perf_counter``; only ``simulation/`` calls a ``CostModel``
    ``*lookup_latency``; and ``cli.py`` constructs an engine stack itself only
    where a command is about one engine or classifier (``build``, ``compare``,
    ``engine save``) — ``serve`` and ``replay`` go through
    ``build_scenario_engine`` / ``load_stack``."""
    lookups = {"classify_block", "classify_batch", "serve"}
    constructors = {"ClassificationEngine.build", "ShardedEngine.build", "CachedEngine"}
    builders = {"_cmd_build", "_cmd_compare", "_cmd_engine_save"}
    timed, priced, built = set(), set(), set()
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = [n for n in ast.walk(function) if isinstance(n, ast.Call)]
            loops_over_a_lookup = any(
                isinstance(inner, ast.Call) and _called(inner) in lookups
                for loop in ast.walk(function)
                if isinstance(loop, (ast.For, ast.While))
                for inner in ast.walk(loop)
            )
            if loops_over_a_lookup and any(
                _called(call).startswith("perf_counter") for call in calls
            ):
                timed.add(f"{name}:{function.name}")
            for call in calls:
                if _called(call).endswith("lookup_latency"):
                    priced.add(name)
                if (
                    name == "cli.py"
                    and function.name not in builders
                    and ast.unparse(call.func) in constructors
                ):
                    built.add(f"{function.name}:{ast.unparse(call.func)}")
    assert timed == {"workloads/replay.py:replay_trace"}
    assert priced == {"simulation/perf.py", "simulation/cost_model.py"}
    assert built == set()
