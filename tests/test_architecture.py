"""Architecture rules as assertions: what must not grow back, checked on every tier-1 run.

Each rule names the one module that owns a mechanism; a match anywhere else
under ``runtime/`` or ``fabric/`` (for the judge: anywhere under ``src/repro``)
means a second copy is being started.
"""

from __future__ import annotations

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.membership import Membership

ROOT = Path(__file__).resolve().parents[1]


def test_no_bytecode_is_tracked() -> None:
    """Guards the PR-3 ``__pycache__`` cleanup (skipped outside a git checkout)."""
    try:
        listing = subprocess.run(
            ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    tracked = [
        name
        for name in listing.stdout.splitlines()
        if re.search(r"(^|/)__pycache__/|\.py[co]$", name)
    ]
    assert not tracked, f"tracked bytecode — git rm --cached: {tracked}"


@pytest.mark.parametrize(
    "owner, pattern",
    [
        # One worker fleet: a second pool must not grow back beside it.
        ("runtime/fleet.py", r"ProcessPoolExecutor|subprocess\.Popen|import threading"),
        # One item path: a second cache convention must not grow back beside it.
        ("runtime/engine.py", r"derived_key|digests_complete=|fabric-cache|_rehydrate_record"),
    ],
)
def test_runtime_and_fabric_keep_one_of_each_mechanism(owner: str, pattern: str) -> None:
    sources = [
        path
        for package in ("runtime", "fabric")
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py"))
    ]
    assert len(sources) > 10 and ROOT / "src" / "repro" / owner in sources
    offenders = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sources
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert not offenders, f"{owner} owns this; a second copy is starting:\n" + "\n".join(offenders)


def test_experiments_declare_and_the_planner_never_reduces() -> None:
    """One runner: ``experiments/base.py`` owns the engine loop and the result block.

    An ``eN_*`` module calling an engine or building an ``ExperimentResult`` is
    the hand-written driver growing back; a fake row or a blanket ``except`` in
    the planner is it executing aggregation code again.
    """
    package = ROOT / "src" / "repro"
    rules = [
        (
            sorted((package / "experiments").glob("e*.py")),
            r"engine\.(sweep|run_sweep|run_many|map)\(|ExperimentResult\(|engine or Engine\(\)",
        ),
        ([package / "fabric" / "plan.py"], r"_PlaceholderRow|except Exception"),
    ]
    assert len(rules[0][0]) == 12
    offenders = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for sources, pattern in rules
        for path in sources
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert not offenders, "experiments/base.py owns this:\n" + "\n".join(offenders)


def test_an_experiment_declares_specs_or_sweeps_and_nothing_plans_a_map() -> None:
    """Two item kinds: every declared call is ``run_sweep`` (a spec per config)
    or ``sweep`` (a function per config).  E2, E3, E6, E8 and E12 declare specs
    only, and a ``"map"`` item — the kind no experiment dispatches — is refused."""
    from repro import experiments  # noqa: F401  (importing registers them)
    from repro.fabric.plan import PlanningError, WorkItem
    from repro.runtime.registry import EXPERIMENTS

    methods = {
        name: {
            method
            for quick in (True, False)
            for method, _, _ in EXPERIMENTS.resolve(name).work(quick, 0)
        }
        for name in EXPERIMENTS.names()
    }
    assert len(methods) == 12
    assert set().union(*methods.values()) <= {"sweep", "run_sweep"}, methods
    assert all(methods[name] == {"run_sweep"} for name in ("E2", "E3", "E6", "E8", "E12")), methods
    with pytest.raises(PlanningError, match="kind 'map'"):
        WorkItem(index=0, kind="map", payload={"fn": "m.f", "config": {}}, key="k")


def test_only_the_real_backend_dispatch_imports_the_transport() -> None:
    """One judge: simulated runs are judged without ``repro.transport``.

    The engine's ``backend == "real"`` dispatch and E11 drive the real
    backend; a check in ``runtime/registry.py`` or ``workloads/`` importing it
    is the second judge growing back.
    """
    package = ROOT / "src" / "repro"
    allowed = {"runtime/engine.py", "experiments/e11_sim_vs_real.py"}
    offenders = []
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix()
        if name in allowed or name.startswith("transport/"):
            continue
        depth = name.count("/")  # how many dots reach ``repro`` from this module
        importing = rf"^\s*(from|import)\s+(repro\.|\.{{{depth + 1}}})transport\b"
        offenders += [
            f"src/repro/{name}:{number}: {line.strip()}"
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(importing, line)
        ]
    assert not offenders, "only the real-backend dispatch may import repro.transport:\n" + "\n".join(
        offenders
    )


def test_a_simulator_process_loads_only_the_simulator() -> None:
    """The real backend and the worker fleet load on first use, never on import.

    A fresh interpreter imports what ``bench/`` imports from the library; none
    of the TCP backend, ``asyncio`` (with ``ssl``), ``multiprocessing`` or a CLI
    parser may come along, or every simulator process pays for them.
    """
    probe = (
        "import sys\n"
        "import repro.experiments, repro.fabric, repro.runtime, repro.transport.framing\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    forbidden = [
        "asyncio",
        "ssl",
        "socket",
        "multiprocessing",
        "concurrent.futures",
        "argparse",
        "repro.transport.orchestrator",
        "repro.transport.node",
        "repro.transport.context",
        "repro.runtime.fleet",
    ]
    offenders = [name for name in forbidden if name in loaded]
    assert not offenders, f"importing the simulator side loads {', '.join(offenders)}"


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    """Every call of ``name(...)`` or ``<anything>.name(...)`` in ``tree``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
    ]


def test_one_reader_parses_logged_lines() -> None:
    """One event log: ``repro/events.py`` is the only module that walks a file
    line by line *and* parses JSON — a second record parser is a second log
    format growing back — and the fabric coordinator opens no file itself:
    its journal is an ``EventLog``."""
    package = ROOT / "src" / "repro"
    parsers = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        handles = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and _calls(node.value, "open")
            for target in node.targets
            if isinstance(target, ast.Name)
        } | {
            item.optional_vars.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
            if _calls(item.context_expr, "open") and isinstance(item.optional_vars, ast.Name)
        }
        walks_lines = any(
            isinstance(node, (ast.For, ast.comprehension))
            and isinstance(node.iter, ast.Name)
            and node.iter.id in handles
            for node in ast.walk(tree)
        ) or any(_calls(tree, method) for method in ("readline", "readlines", "splitlines"))
        if walks_lines and _calls(tree, "loads"):
            parsers.append(path.relative_to(package).as_posix())
    assert parsers == ["events.py"]

    coordinator = ast.parse((package / "fabric" / "coordinator.py").read_text(encoding="utf-8"))
    assert not _calls(coordinator, "open") and not _calls(coordinator, "loads")


def test_a_chaos_campaign_is_a_verify_run_with_a_seed() -> None:
    """One harness for the fault promise: ``repro.verify``'s legs, aimed by
    ``ChaosPlan.from_seed``.  A second package re-staging them, or a
    ``FaultPlan`` class (the transport's faults are one timeline function,
    ``injection_timeline``), is the soak growing back."""
    package = ROOT / "src" / "repro"
    assert not (package / "chaos").exists()
    importing = re.compile(r"^\s*(from|import)\s+(repro\.|\.+)chaos\b", re.M)
    mentions = [
        path.relative_to(ROOT).as_posix()
        for folder in ("src", "bench", "benchmarks", "examples", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if importing.search(path.read_text(encoding="utf-8"))
    ]
    assert not mentions, mentions
    fault_plans = [
        path.relative_to(package).as_posix()
        for path in sorted(package.rglob("*.py"))
        if re.search(r"^class FaultPlan\b", path.read_text(encoding="utf-8"), re.M)
    ]
    assert fault_plans == []


def test_the_coordinator_carries_no_fault_code() -> None:
    """One owner of fault rehearsal: ``verify/faults.py``'s ``ChaosFleet``.
    A ``signal`` import under ``fabric/`` or ``runtime/`` (the fleet kills a
    stalled worker through ``Process.kill``), a second ``SimulatedCrash`` or a
    ``Coordinator`` keyword beyond these eight is a fault hook growing back."""
    from repro.fabric import Coordinator

    package = ROOT / "src" / "repro"
    importing = re.compile(r"^\s*(import\s+signal\b|from\s+signal\s+import)", re.M)
    signalling = [
        path.relative_to(package).as_posix()
        for folder in ("fabric", "runtime")
        for path in sorted((package / folder).rglob("*.py"))
        if importing.search(path.read_text(encoding="utf-8"))
    ]
    assert not signalling
    crashes = [
        path.relative_to(package).as_posix()
        for path in sorted(package.rglob("*.py"))
        if re.search(r"^class SimulatedCrash\b", path.read_text(encoding="utf-8"), re.M)
    ]
    assert crashes == ["verify/faults.py"]
    assert list(inspect.signature(Coordinator).parameters) == [
        "plan", "state_dir", "workers", "cache", "max_retries", "progress_timeout",
        "allow_partial", "fleet",
    ]


def test_the_registry_registers_the_consensus_table_and_restates_nothing() -> None:
    """One assumption table: a built-in entry's requirements are its rules' declarations."""
    from repro.consensus import FAMILY
    from repro.runtime import CONSENSUS

    assert set(CONSENSUS.names()) == set(FAMILY)
    for name, row in FAMILY.items():
        entry = CONSENSUS.resolve(name)
        leader, quorum = row.leader_rule, row.quorum_rule
        assert entry.program is row
        detectors = filter(None, (leader.detector, quorum.detector))
        assert entry.requires_detectors == tuple(detector.name for detector in detectors)
        assert entry.needs_majority is quorum.needs_majority
        assert entry.membership_constraint == leader.membership_constraint
        assert entry.paper_item == row.paper_item != ""


def test_the_registry_registers_the_detector_table_and_restates_nothing() -> None:
    """One class table: ``DETECTORS`` and the class half of ``CHECKS`` are its rows."""
    from repro.detectors import CLASSES, DetectorRow
    from repro.runtime import CHECKS, DETECTORS

    from .helpers import make_services

    assert set(DETECTORS.names()) == set(CLASSES)
    # The class half of CHECKS: every entry that is some row's ``judge``.
    judged_by_a_row = {
        name
        for name in CHECKS.names()
        if isinstance(getattr(CHECKS.resolve(name), "__self__", None), DetectorRow)
    }
    assert judged_by_a_row == {row.check for row in CLASSES.values()}
    for name, row in CLASSES.items():
        assert name == row.name
        assert CHECKS.resolve(row.check) == row.judge
        membership = Membership.of("ABC" if row.unique_ids_only else "AAB")
        oracle = DETECTORS.resolve(name)(make_services(membership), stabilization_time=3.0)
        assert oracle.row is row and oracle.stabilization_time == 3.0
        # Every output is a property of the view the row derives from them.
        for output in row.outputs:
            assert isinstance(getattr(row.view, output), property), (name, output)
        assert len(set(row.keys)) == len(row.outputs) > 0

    # The registry loops over the table: it names no class, oracle or axiom itself.
    registry = ast.parse((ROOT / "src/repro/runtime/registry.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(registry)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("detectors")
        for alias in node.names
    }
    assert imported == {"CLASSES", "DetectorRow", "check_hb_detection", "check_topo_detection"}


def test_the_registry_registers_the_reduction_table_and_restates_nothing() -> None:
    """One reduction table: the seven programs of ``PROGRAMS`` are its rows."""
    from repro.reductions import REDUCTIONS, ReductionProgram
    from repro.runtime import PROGRAMS

    for name, row in REDUCTIONS.items():
        entry = PROGRAMS.resolve(name)
        program = entry.build()
        assert type(program) is ReductionProgram and program.row is row
        assert (name, entry.paper_item) == (row.name, row.paper_item)
    others = set(PROGRAMS.names()) - set(REDUCTIONS)
    assert others == {"heartbeat", "hsigma_sync", "membership", "ohp_polling", "script_alive"}

    # The registry loops over the table: it names no row, step or handler itself …
    source = (ROOT / "src/repro/runtime/registry.py").read_text(encoding="utf-8")
    registry = ast.parse(source)
    imported = {
        alias.name
        for node in ast.walk(registry)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("reductions")
        for alias in node.names
    }
    assert imported == {"REDUCTIONS", "Reduction", "ReductionProgram"}
    assert not [name for name in REDUCTIONS if name in source]
    # … and ``REDUCTIONS`` is the only place that builds a row.
    builders = [
        path.relative_to(ROOT).as_posix()
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        if re.search(r"\bReduction\(", path.read_text(encoding="utf-8"))
    ]
    assert builders == ["src/repro/reductions/table.py"]


def test_a_run_is_a_spec_one_module_materialises_a_system() -> None:
    """One way to dispatch work: outside ``sim/`` only the engine calls
    ``build_system`` — for every simulator spec, a KV spec's replicas + clients
    included; no example hand-wires a run either; an experiment that imports
    ``repro.sim`` is hand-wiring a run no ``ScenarioSpec`` names, and the
    pre-PR-1 ``Scenario`` classes stay gone."""
    package = ROOT / "src" / "repro"
    callers = [
        path.relative_to(package).as_posix()
        for path in sorted(package.rglob("*.py"))
        if "sim" not in path.relative_to(package).parts
        and re.search(r"\bbuild_system\(", path.read_text(encoding="utf-8"))
    ]
    assert callers == ["runtime/engine.py"]
    examples = sorted((ROOT / "examples").glob("*.py"))
    assert examples
    hand_wired = [
        path.name
        for path in examples
        if re.search(r"\bbuild_system\(", path.read_text(encoding="utf-8"))
    ]
    assert not hand_wired, f"an example's run is a spec: {hand_wired}"

    experiments = sorted((package / "experiments").glob("e*.py"))
    assert len(experiments) == 12
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in experiments
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"^\s*(from|import)\s+(repro|\.\.)\.?sim\b", line)
    ]
    assert not offenders, "an experiment's run is a spec:\n" + "\n".join(offenders)

    gone = re.compile(r"\b(Consensus|Detector)Scenario\b|workloads\.scenarios")
    mentions = [
        path.relative_to(ROOT).as_posix()
        for folder in ("src", "bench", "benchmarks", "examples", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != Path(__file__).resolve() and gone.search(path.read_text(encoding="utf-8"))
    ]
    assert not mentions and not (package / "workloads" / "scenarios.py").exists()


def test_the_library_imports_only_the_standard_library() -> None:
    """CI's ``tests`` job installs pytest and hypothesis only; ``src/repro`` needs neither."""
    offenders = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            offenders += [
                f"{path.relative_to(ROOT)}:{node.lineno}: {module}"
                for module in modules
                if module.split(".")[0] not in sys.stdlib_module_names | {"repro"}
            ]
    assert not offenders, "third-party import under src/repro:\n" + "\n".join(offenders)


def test_the_event_queue_keeps_its_heap_to_itself() -> None:
    """One heap-entry shape, one dispatch loop: ``heapq`` is imported by
    ``sim/events.py`` alone, and nothing else reads the queue's private state
    (the engine's loop goes through ``pop_next`` like any other caller)."""
    from repro.sim.events import EventQueue

    private = {name for name in vars(EventQueue()) if name.startswith("_")}
    assert {"_heap", "_digest"} <= private
    owner = ROOT / "src" / "repro" / "sim" / "events.py"
    offenders = []
    sources = [
        path
        for folder in ("src/repro", "bench", "benchmarks", "examples")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert owner in sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports_heapq = any(alias.name == "heapq" for alias in node.names)
            else:
                imports_heapq = isinstance(node, ast.ImportFrom) and node.module == "heapq"
            if imports_heapq and path != owner and path.is_relative_to(ROOT / "src"):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}: imports heapq")
            if isinstance(node, ast.Attribute) and node.attr in private and path != owner:
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}: reads .{node.attr}")
    assert not offenders, "\n".join(offenders)


def test_coord_and_ph0_are_each_broadcast_from_one_function() -> None:
    """One round skeleton: a second ``broadcast("COORD"/"PH0", …)`` is a phase being re-pasted."""
    sites: dict[str, list[str]] = {"COORD": [], "PH0": []}
    sources = sorted((ROOT / "src" / "repro" / "consensus").glob("*.py"))
    assert len(sources) >= 5
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.Lambda)):
                continue
            for call in ast.walk(function):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "broadcast"
                    and call.args
                    and isinstance(call.args[0], ast.Constant)
                    and call.args[0].value in sites
                ):
                    sites[call.args[0].value].append(f"{path.name}:{function.lineno}")
    assert {kind: len(found) for kind, found in sites.items()} == {"COORD": 1, "PH0": 1}, sites


def test_consensus_is_judged_by_its_checks() -> None:
    """One consensus judge: a spec names validity, agreement and termination as
    checks.  In ``src/`` only ``consensus/`` and ``analysis/metrics.py`` call
    ``validate_consensus``; in ``tests/`` only the validator's own unit tests
    and the runs no spec can express, each listed here with its reason."""
    package = ROOT / "src" / "repro"
    judges = {
        path.relative_to(package).as_posix()
        for path in sorted(package.rglob("*.py"))
        if _calls(ast.parse(path.read_text(encoding="utf-8")), "validate_consensus")
    }
    assert "analysis/metrics.py" in judges
    assert {name for name in judges if not name.startswith("consensus/")} == {"analysis/metrics.py"}

    allowed = {
        "test_consensus_validator_stacked.py::TestValidator": "the validator's own unit tests",
        "test_consensus_majority.py::TestFigureEightCorrectness.test_crash_during_broadcast":
            "a crash mid-broadcast of a chosen process, which no crash spec draws",
        "test_edge_cases.py::TestProposalTypes.test_non_string_and_identical_proposals":
            "custom and non-distinct proposal sets; a spec run proposes value-<index>",
        "test_edge_cases.py::TestNonDefaultWiring.test_figure8_with_renamed_detector":
            "a renamed Figure 8 row, which is not registered",
        "test_misc_units.py::TestConsensusOverThePlainSimApi"
        ".test_custom_detectors_and_identical_proposals":
            "a non-distinct proposal set, over the plain simulator API",
        "test_runtime_engine.py::TestEngine"
        ".test_a_spec_measures_the_run_a_hand_wired_system_does":
            "the hand-wired reference twin a spec's record is held to",
    }
    callers = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owners = node.body if isinstance(node, ast.ClassDef) else [node]
            for owner in owners:
                if isinstance(owner, ast.FunctionDef) and _calls(owner, "validate_consensus"):
                    prefix = f"{node.name}." if owner is not node else ""
                    callers.add(f"{path.name}::{prefix}{owner.name}")
    unlisted = [
        caller
        for caller in sorted(callers)
        if not any(caller == name or caller.startswith(f"{name}.") for name in allowed)
    ]
    assert not unlisted, "judge a consensus spec with its consensus_* checks:\n" + "\n".join(
        unlisted
    )
    stale = [name for name in allowed if not any(c.startswith(name) for c in callers)]
    assert not stale, stale


def test_a_crash_kind_is_named_by_a_spec_and_resolved_by_one_table() -> None:
    """One crash vocabulary: ``runtime/spec.py``'s ``CrashSpec`` is the only
    module (in ``src/``, ``bench/`` and ``examples/``) that imports
    ``repro.workloads.crashes``; a second importer — a re-export included — is
    the membership-level crash functions growing back beside the spec's
    constructors."""
    target = "repro.workloads.crashes"
    importers = []
    for folder, top in (("src/repro", ROOT / "src"), ("bench", ROOT), ("examples", ROOT)):
        for path in sorted((ROOT / folder).rglob("*.py")):
            parts = list(path.relative_to(top).with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
            else:
                parts = parts[:-1]  # the module's package, which level 1 names
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = parts[: len(parts) - node.level + 1] if node.level else []
                    module = ".".join([*base, *filter(None, [node.module])])
                    modules = [module, *(f"{module}.{alias.name}" for alias in node.names)]
                else:
                    continue
                if target in modules:
                    importers.append(path.relative_to(ROOT).as_posix())
    assert importers == ["src/repro/runtime/spec.py"], importers


def _callers(tree: ast.AST, name: str, scope: tuple[str, ...] = ()):
    """The dotted class/function scope of every call of ``name(...)`` in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*scope, node.name)
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            yield ".".join(inner)
        yield from _callers(node, name, inner)


def test_the_requirement_table_has_one_caller_spec_construction() -> None:
    """One gate: ``validate_spec`` is called from ``ScenarioSpec.__post_init__``
    and from nowhere else in ``src/``, ``tests/``, ``bench/`` or ``examples/``,
    so every way of making a spec — the builder, ``from_dict``, ``with_seed``,
    ``dataclasses.replace`` — runs the paper's requirement table once, and a
    spec read from JSON is held to it like a built one."""
    callers = [
        (path.relative_to(ROOT).as_posix(), scope)
        for folder in ("src/repro", "tests", "bench", "examples")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for scope in _callers(ast.parse(path.read_text(encoding="utf-8")), "validate_spec")
    ]
    assert callers == [("src/repro/runtime/spec.py", "ScenarioSpec.__post_init__")], callers


def test_the_real_node_resumes_tasks_on_the_simulators_trampoline() -> None:
    """One trampoline: the real node's runtime is a ``ProcessRuntime``, and no
    module under ``transport/`` drives a task generator itself — none resumes
    one (``.send``) or dispatches on a blocking request — so a task resumes
    through the same code, and ``WaitUntil`` is re-checked by the same scan,
    on both backends."""
    from repro.sim.process import ProcessRuntime
    from repro.transport.context import RealNodeRuntime

    assert issubclass(RealNodeRuntime, ProcessRuntime)
    requests = {"Sleep", "WaitUntil", "NextSyncStep"}
    drivers = []
    for path in sorted((ROOT / "src" / "repro" / "transport").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        if _calls(tree, "send") or named & requests:
            drivers.append(path.relative_to(ROOT).as_posix())
    assert not drivers, f"a second trampoline under transport/: {drivers}"


def test_every_maker_a_spec_binds_to_names_its_parameters() -> None:
    """A spec's ``params`` bind to the signature of what its name picks, so
    that signature lists them: no ``**kwargs`` or ``*args`` (which would take
    any misspelling) and no positional-only slot.  A program's maker also
    binds no parameters at all, as a spec may give none."""
    from repro.runtime import CONSENSUS, PROGRAMS
    from repro.runtime.spec import (
        _BACKENDS,
        CrashSpec,
        DetectorSpec,
        NetworkSpec,
        TimingSpec,
        TopologySpec,
    )

    sections = (TimingSpec, CrashSpec, NetworkSpec, TopologySpec, DetectorSpec)
    makers = [
        (f"{section._SECTION} {kind!r}", section._KINDS[kind], section._LEADING)
        for section in sections
        for kind in section._KINDS
    ]
    makers += [(f"program {name!r}", PROGRAMS[name].build, 0) for name in PROGRAMS]
    makers += [(f"consensus {name!r}", CONSENSUS[name].quorum_rule, 0) for name in CONSENSUS]
    makers += [(f"backend {name!r}", maker, 0) for name, maker in _BACKENDS.items()]
    loose = []
    for what, maker, leading in makers:
        for parameter in list(inspect.signature(maker).parameters.values())[leading:]:
            if parameter.kind not in (parameter.KEYWORD_ONLY, parameter.POSITIONAL_OR_KEYWORD):
                loose.append(f"{what}: {parameter}")
    assert not loose, loose
    assert len(makers) > 40
    for name in PROGRAMS:
        inspect.signature(PROGRAMS[name].build).bind()
