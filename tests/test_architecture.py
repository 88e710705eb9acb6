"""Architecture rules as assertions: what must not grow back, checked on every tier-1 run.

Each rule names the one module that owns a mechanism; a match anywhere else
under ``runtime/`` or ``fabric/`` (for the judge: anywhere under ``src/repro``)
means a second copy is being started.
"""

from __future__ import annotations

import ast
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


def test_only_the_real_backend_dispatch_imports_the_transport() -> None:
    """One judge: simulated runs are judged without ``repro.transport``.

    The engine's ``backend == "real"`` dispatch, the builder's link-param
    validation, the chaos campaign and E11 drive the real backend; a check in
    ``runtime/registry.py`` or ``workloads/`` importing it is the second judge
    growing back.
    """
    package = ROOT / "src" / "repro"
    allowed = {"runtime/engine.py", "runtime/builder.py", "experiments/e11_sim_vs_real.py"}
    offenders = []
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix()
        if name in allowed or name.startswith(("transport/", "chaos/")):
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


def test_the_registry_registers_the_consensus_table_and_restates_nothing() -> None:
    """One assumption table: a built-in entry's requirements are its rules' declarations."""
    from repro.consensus import FAMILY
    from repro.runtime import CONSENSUS

    assert set(CONSENSUS.names()) == set(FAMILY)
    for name, row in FAMILY.items():
        entry = CONSENSUS.resolve(name)
        leader, quorum = row.leader_rule, row.quorum_rule
        assert entry.program is row
        assert entry.requires_detectors == tuple(filter(None, (leader.detector, quorum.detector)))
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
        oracle = DETECTORS.resolve(name)({"stabilization_time": 3.0})(make_services(membership))
        assert oracle.row is row and oracle.stabilization_time == 3.0
        # Every output is a hand-written property of the view the row names.
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
        program = entry.build({})
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


def test_a_run_is_a_spec_two_modules_materialise_a_system() -> None:
    """One way to dispatch work: outside ``sim/`` only the engine (every spec) and
    the KV runner (replicas + clients) call ``build_system``; an experiment that
    imports ``repro.sim`` is hand-wiring a run no ``ScenarioSpec`` names, and the
    pre-PR-1 ``Scenario`` classes stay gone."""
    package = ROOT / "src" / "repro"
    callers = [
        path.relative_to(package).as_posix()
        for path in sorted(package.rglob("*.py"))
        if "sim" not in path.relative_to(package).parts
        and re.search(r"\bbuild_system\(", path.read_text(encoding="utf-8"))
    ]
    assert callers == ["runtime/engine.py", "workloads/kv/runner.py"]

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
