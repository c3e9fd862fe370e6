"""Structural guard: one lookup path per stack, one update path, one RQ-RMI
trainer, one data plane, one way to use N cores, one implementation per
baseline family and one way to run a trace through a stack cannot grow back
unnoticed.

AST-based, so it reads what the source *defines*, not what an import happens
to expose: among classifiers and engine stacks under ``src/repro`` only
``Classifier`` and ``EngineStack`` define ``classify_batch`` /
``classify_traced`` / ``classify``, every classifier implements one lookup
(a baseline ``classify_block_with_floors``, NuevoMatch ``classify_block``)
and none loops over rows, only
``EngineStack`` defines ``verify`` for engine stacks (nothing defines
``serve``), the sharded engine keeps exactly two executors, the §3.9 update
overlay lives in exactly one class (``ClassificationEngine``; ``_Shard`` is
swap bookkeeping), the
staged training loop lives in ``core/pipeline.py`` and the Adam update in
``core/training.py`` only, the server reaches the engine for a lookup from
one call site behind one admission point and coalesces queued frames with no
knob and no sleep, only ``serving/workers.py`` starts
a process, no ``build`` takes a ``pipeline``, the hash and tree baselines
share one early-termination loop per family and one ``build``, rules become
arrays in ``rules/rule.py`` alone (no per-site converter, no sort of ``Rule``
objects by attribute), only ``workloads/replay.py`` times a lookup loop, only
``simulation/`` prices one and the CLI builds its stacks through the replay
module's two factories, only ``rules/rule.py`` knows how rules are ordered
(everything else compares order keys), ``workloads/`` holds the trace
replay alone and nothing under ``benchmarks/`` drives the serving stack,
NuevoMatch's iSets have one (block) lookup, one function walks the RQ-RMI
stages for lookup and training alike, and none of the superseded names
survives.  (The wire
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


def test_the_object_views_have_two_definitions():
    """``classify_batch``, ``classify_traced`` and ``classify`` are views of
    one columnar lookup, derived once for classifiers and once for stacks."""
    for method in ("classify_batch", "classify_traced", "classify"):
        assert _defining(method) - {"AsyncClient"} == {"Classifier", "EngineStack"}, method


def test_only_the_mixin_defines_verify_for_stacks():
    stacks = {name for name in CLASS_METHODS if _descends_from(name, "EngineStack")}
    assert {"ClassificationEngine", "ShardedEngine", "CachedEngine"} <= stacks
    assert _defining("verify") & stacks == {"EngineStack"}
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
    # The overlay is a remainder: linear search's floored kernel answers it,
    # and the engine writes no containment compare of its own.
    engine = ast.parse((SRC / "engine" / "engine.py").read_text())
    containment = [
        ast.unparse(node)
        for node in ast.walk(engine)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.GtE, ast.LtE)) for op in node.ops)
        and any(
            isinstance(side, ast.Attribute) and side.attr in {"lo", "hi"}
            for operand in [node.left, *node.comparators]
            for side in ast.walk(operand)
        )
    ]
    assert containment == []
    adjust = next(
        node for node in ast.walk(engine)
        if isinstance(node, ast.FunctionDef) and node.name == "adjust_block"
    )
    assert "classify_block_with_floors" in {
        _called(node) for node in ast.walk(adjust) if isinstance(node, ast.Call)
    }


def test_one_implementation_per_baseline_family():
    """A baseline is a policy over its family's one implementation: the §4
    early-termination loops, and ``build``, are not copied per classifier."""

    def defining(method: str) -> set[str]:
        return _defining(method) & CLASSIFIER_CLASSES

    assert defining("build") == {"Classifier"}
    for name, family in (
        ("TupleSpaceSearchClassifier", "TupleHashClassifier"),
        ("TupleMergeClassifier", "TupleHashClassifier"),
        ("HiCutsClassifier", "ForestClassifier"),
        ("CutSplitClassifier", "ForestClassifier"),
        ("NeuroCutsClassifier", "ForestClassifier"),
    ):
        assert CLASS_BASES[name] == {family}, name
    # The forest is node arrays: no node classes, no per-tree lookup, no
    # dispatch on a node's type.  Nothing sorts tables or trees inside a
    # lookup.
    dtree = ast.parse((SRC / "classifiers" / "dtree.py").read_text())
    assert "lookup" not in {
        node.name for node in ast.walk(dtree) if isinstance(node, ast.FunctionDef)
    }
    assert not {name for name in CLASSIFIER_CLASSES if name.endswith("Node")}
    assert "isinstance" not in {
        _called(node) for node in ast.walk(dtree) if isinstance(node, ast.Call)
    }
    sorts = []
    for path in sorted((SRC / "classifiers").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            source = ast.unparse(node)
            if node.name.startswith("classify") and re.search(r"\bsorted\(|\.sort\(", source):
                sorts.append(f"{path.name}:{node.name}")
    assert sorts == []


def test_one_lookup_per_classifier():
    """A baseline implements ``classify_block_with_floors`` and NuevoMatch
    ``classify_block``, and nothing else: ``Classifier`` declares the floored
    lookup (its body only raises) and derives ``classify_block`` from it, and
    no scalar ``classify_with_floor`` is defined anywhere (nor the hash
    walk's per-table bucket-dict probe: the family probes its flat index)."""
    classifiers = {name for name in CLASS_METHODS if _descends_from(name, "Classifier")}
    assert {"NuevoMatch", "ForestClassifier", "TupleMergeClassifier"} <= classifiers
    assert _defining("classify_with_floor") == set()
    assert _defining("classify_block_with_floors") == {
        "Classifier",
        "LinearSearchClassifier",
        "TupleHashClassifier",
        "ForestClassifier",
    }
    assert _defining("classify_block") & classifiers == {"Classifier", "NuevoMatch"}
    declared = next(
        item
        for node in ast.walk(ast.parse((SRC / "classifiers" / "base.py").read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "Classifier"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "classify_block_with_floors"
    )
    body = [stmt for stmt in declared.body if not isinstance(stmt, ast.Expr)]  # docstring
    assert len(body) == 1 and isinstance(body[0], ast.Raise), ast.unparse(declared)
    assert "NotImplementedError" in ast.unparse(body[0])
    # Traces are summed as trace columns, not object by object.
    assert not CLASS_METHODS["LookupTrace"] & {"merge", "aggregate"}
    assert [
        path.name for path in SRC.rglob("*.py") if "table.buckets.get(" in path.read_text()
    ] == []


def _row_loops(function: ast.FunctionDef) -> list[str]:
    """Where ``function`` steps through a block's rows one at a time: every
    ``while``, every ``for`` or comprehension whose extent is the block — its
    iterable (a ``range``'s stop) reads a parameter or a name computed from
    one — and every ``.tolist()``."""
    derived = {arg.arg for arg in function.args.args} - {"self"}
    assignments = [
        node for node in ast.walk(function)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value
    ]
    grown = True
    while grown:  # to a fixed point: names computed from names computed from …
        grown = False
        for node in assignments:
            if _names(node.value) & derived:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                new = set().union(*map(_names, targets)) - derived
                grown |= bool(new)
                derived |= new

    def extent(iterable: ast.expr) -> ast.expr:
        if isinstance(iterable, ast.Call) and _called(iterable) == "range":
            return iterable.args[1] if len(iterable.args) > 1 else iterable.args[0]
        return iterable

    loops = []
    for node in ast.walk(function):
        iterables = (
            [node.iter] if isinstance(node, ast.For)
            else [g.iter for g in node.generators]
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
            else []
        )
        if isinstance(node, ast.While) or any(
            _names(extent(iterable)) & derived for iterable in iterables
        ):
            loops.append(f"{function.name}:{node.lineno}: {type(node).__name__}")
        elif isinstance(node, ast.Call) and _called(node) == "tolist":
            loops.append(f"{function.name}:{node.lineno}: tolist")
    return loops


def test_no_classifier_loops_over_rows():
    """No classifier's lookup is a Python loop over a block's rows or a
    ``.tolist()`` — not in a ``classify*`` method, and not in a module
    function or a method of the same class it calls, or a module function of
    ``classifiers/base.py`` it calls (the shared candidate scan lives there),
    where a loop could otherwise hide.  The linear scan may step through its
    rule array in slices, and the forest through its trees and their levels.
    The one exception is ``materialize``, the object view ``classify_batch``
    is: it makes one result object per row by definition.  The guard itself
    flags a per-row loop."""

    def module_functions(path: Path) -> dict[str, ast.FunctionDef]:
        return {
            node.name: node
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)
        }

    shared = {
        name: ("base.py", function)
        for name, function in module_functions(SRC / "classifiers" / "base.py").items()
    }
    looping, scanned = {}, set()
    for path in [*(SRC / "classifiers").glob("*.py"), SRC / "core" / "nuevomatch.py"]:
        module = ast.parse(path.read_text())
        functions = {
            **shared,
            **{name: (path.name, function) for name, function in module_functions(path).items()},
        }
        for node in module.body:
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                item.name: item for item in node.body if isinstance(item, ast.FunctionDef)
            }
            for name, method in methods.items():
                if not name.startswith("classify"):
                    continue
                called = {
                    _called(call) for call in ast.walk(method) if isinstance(call, ast.Call)
                }
                callees = [
                    *(functions[callee] for callee in called & set(functions)),
                    *((path.name, methods[callee]) for callee in called & set(methods) - {name}),
                ]
                for where, function in [(path.name, method), *callees]:
                    scanned.add(f"{where}:{function.name}")
                    if _row_loops(function):
                        looping[f"{where}:{function.name}"] = _row_loops(function)
    assert set(looping) == {"base.py:materialize"}
    assert {
        "dtree.py:classify_block_with_floors",
        "tuplespace.py:classify_block_with_floors",
        "base.py:scan_candidates",
    } <= scanned
    loop = ast.parse(
        "def classify_block_with_floors(self, block, floors, traces=None):\n"
        "    n = len(block)\n"
        "    for row in range(n):\n"
        "        pass\n"
        "    for row, values in enumerate(block):\n"
        "        pass\n"
        "    rows = [floor for floor in floors]\n"
        "    values = block.tolist()\n"
    ).body[0]
    assert len(_row_loops(loop)) == 4


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
        r"_cmd_engine_serve|partition_for_shards|PARTITIONERS|"
        r"_best_first|_built_best_first|best_priority|max_priority|priority_floor|"
        r"classify_detailed|classify_isets_only|LookupBreakdown|RQRMILookup|"
        r"_best_iset_match|_route|classify_with_floor|key_for_values|"
        r"_route_partial|_predict_index_static|_route_batch|"
        r"_transition_cache|include_boundaries|boundary_cap)\b|"
        r"columnar="
    )
    offenders = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if removed.search(line)
    ]
    assert offenders == []


def test_one_nuevomatch_lookup():
    """NuevoMatch's iSets answer through ``ISetIndex.lookup_block`` →
    ``RQRMI.query_batch_detailed``, or, untraced, through the compiled
    kernel's ``IsetKernel.lookup`` — the only other iSet lookup, called from
    ``lookup_block`` alone.  No per-packet iSet lookup or RQ-RMI query sits
    beside them (the frozen walk lives in ``tests/_nm_reference``), and the
    C file exports the one lookup, the test-only route and its layout probe."""
    for name in ("ISetIndex", "RQRMI"):
        assert not CLASS_METHODS[name] & {"lookup", "query", "predict"}, name
    assert CLASS_METHODS["IsetKernel"] == {"__init__", "lookup", "route"}
    callers = {
        f"{path.relative_to(SRC)}:{function.name}"
        for path in SRC.rglob("*.py")
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, ast.FunctionDef)
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and getattr(call.func, "attr", "") == "lookup"
    }
    assert callers == {"core/nuevomatch.py:lookup_block"}
    source = (SRC / "core" / "_iset_kernel.c").read_text()
    exported = re.findall(r"^(?:void|void \*) *(\w+)\(", source, flags=re.MULTILINE)
    assert sorted(exported) == ["array_data", "iset_lookup", "rqrmi_route"]


def test_the_native_kernel_has_no_python_row_loop():
    """The compiled kernel's Python side converts nothing per row: no
    function of ``core/native.py`` loops over a block or calls
    ``.tolist()``.  ``IsetKernel.__init__`` runs once per iSet and walks its
    stages, not a block, so it is the one function left out."""
    module = ast.parse((SRC / "core" / "native.py").read_text())
    functions = [
        node for node in ast.walk(module)
        if isinstance(node, ast.FunctionDef) and node.name != "__init__"
    ]
    assert {f.name for f in functions} >= {"lookup", "route", "library", "_load"}
    assert [loop for f in functions for loop in _row_loops(f)] == []


def test_one_rqrmi_route():
    """One function walks the RQ-RMI stages — ``route``, which both the
    lookup and the training-time responsibility split call — and it walks
    the stacked weights: one loop, over stages, gathering each key's row.
    No per-slot loop is left (no ``np.unique`` of the slots a block hits),
    and no function in ``core/rqrmi.py`` evaluates a ``Submodel`` batch."""
    tree = ast.parse((SRC / "core" / "rqrmi.py").read_text())
    functions = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]

    def calls(function, name):
        return any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", "")) == name
            for node in ast.walk(function)
        )

    assert not [f.name for f in functions if calls(f, "predict_batch")]
    assert {f.name for f in functions if calls(f, "route")} == {
        "_assign_responsibilities", "query_batch_detailed",
    }
    (route,) = [f for f in functions if f.name == "route"]
    loops = [
        node for node in ast.walk(route)
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
    ]
    assert len(loops) == 1 and ast.unparse(loops[0].iter) == "enumerate(stages)"
    assert not calls(route, "unique")


def test_nothing_shipped_still_describes_a_deleted_path():
    """The acceptance greps of the earlier clean-ups, kept as a test: no
    source, example, benchmark, script, doc or workflow names the
    deleted JSON data plane, the deleted training orchestrator, the options
    that selected them, the per-baseline table classes and native updates, the
    per-site rule converters, the second trace runs and the partitioner knob,
    the per-module priority orders, or NuevoMatch's per-packet lookup
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
        r"--partitioner|_best_first|_built_best_first|best_priority|max_priority|"
        r"priority_floor|classify_detailed|classify_isets_only|LookupBreakdown|"
        r"RQRMILookup|_best_iset_match|classify_with_floor|LookupTrace\.aggregate"
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


def test_coalescing_has_no_knob():
    """Queued classify frames share one engine block with no setting behind
    it (ROADMAP 1c): ``AsyncServer.__init__`` takes the parameters it took
    before coalescing, and nothing in ``serving/server.py`` sleeps except
    the overload controller's window loop — no frame ever waits for a
    block to fill."""
    tree = ast.parse((SRC / "serving" / "server.py").read_text())
    server = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "AsyncServer"
    )
    init = next(
        node
        for node in server.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    )
    assert [arg.arg for arg in init.args.args + init.args.kwonlyargs] == [
        "self",
        "engine",
        "max_queue",
        "clock",
        "slo_p99_us",
        "adaptive",
        "tune_cache",
        "controller",
    ]
    assert init.args.vararg is None and init.args.kwarg is None
    sleepers = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", "")) == "sleep"
    }
    assert sleepers == {"_control_loop"}


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


def _mentions_priority(tree: ast.AST) -> bool:
    return any(
        (isinstance(node, ast.Name) and "priorit" in node.id)
        or (isinstance(node, ast.Attribute) and "priorit" in node.attr)
        for node in ast.walk(tree)
    )


def test_one_rule_order():
    """``(priority, rule_id)`` is one order key made in ``rules/rule.py``
    alone.  Elsewhere under ``src/`` nothing calls ``lexsort``, no
    ``argsort`` of a priority and no ``sorted``/``.sort`` keyed on one, and no
    ``<``/``<=``/``>``/``>=`` with a priority on either side: every sort,
    floor and merge compares order keys."""
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        if name == "rules/rule.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                called = _called(node)
                keys = [keyword.value for keyword in node.keywords if keyword.arg == "key"]
                if (
                    called == "lexsort"
                    or (called == "argsort" and _mentions_priority(node))
                    or (called in {"sorted", "sort"} and any(map(_mentions_priority, keys)))
                ):
                    offenders.append(f"{name}:{node.lineno}: {called}")
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, ordering) for op in node.ops
            ):
                if any(map(_mentions_priority, [node.left, *node.comparators])):
                    offenders.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert offenders == []


def test_one_load_generator():
    """Network serving is measured by ``bench/`` and its own load generator
    alone: ``workloads/`` holds only the trace replay, and ``benchmarks/`` is
    the paper-figure reproductions only, so no file there imports the wire
    server or client, the flow cache or ``repro.workloads``."""
    assert {path.name for path in (SRC / "workloads").glob("*.py")} == {
        "__init__.py",
        "replay.py",
    }
    serving = {"AsyncServer", "AsyncClient", "CachedEngine"}
    offenders = []
    for path in sorted((SRC.parent.parent / "benchmarks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                names = []
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                names = [alias.name for alias in node.names]
            else:
                continue
            if serving & set(names) or any(
                module.startswith("repro.workloads") for module in modules
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
