"""Backend portability lint: program code must not import the sim core.

The point of :mod:`repro.context` is that detectors, consensus algorithms,
reductions, the KV replica and client programs, and message-passing programs
are *backend-agnostic*: the same code runs on the discrete-event simulator
and on the real TCP transport.  That only stays true if those modules never
reach into the simulator's scheduler, event queue or process runtime.  This
test walks their ASTs and fails on any import — absolute or relative — of
``repro.sim.scheduler``, ``repro.sim.events`` or ``repro.sim.process``, so a
backend dependency can't sneak in silently; programs import the protocol
from ``repro.context``.

It also pins the protocol re-exports: ``repro.sim.process`` must re-export
the *same* objects as ``repro.context`` (identity, not copies), otherwise
code written against one module would silently type-check against
different classes than the trampoline dispatches on.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro import context as context_module
from repro.sim import process as process_module

SRC = Path(repro.__file__).parent

#: Packages and modules whose code must run unchanged on every backend (the
#: KV programs, but not ``kv/runner.py``, which builds the simulation).
PORTABLE_PACKAGES = (
    "detectors",
    "consensus",
    "algorithms",
    "reductions",
    "workloads/kv/replica.py",
    "workloads/kv/clients.py",
)

#: Modules the portable layers must never import (the sim's execution core).
FORBIDDEN_MODULES = ("repro.sim.scheduler", "repro.sim.events", "repro.sim.process")


def _module_name(path: Path) -> str:
    """Dotted module name of a source file under ``src/repro``."""
    relative = path.relative_to(SRC.parent)
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _resolve_import_from(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """Absolute dotted path a ``from ... import`` statement resolves to."""
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]  # the containing package
    if node.level > 1:
        parts = parts[: len(parts) - (node.level - 1)]
    base = ".".join(parts)
    return f"{base}.{node.module}" if node.module else base


def _forbidden_imports(path: Path) -> list[str]:
    module = _module_name(path)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offences = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(FORBIDDEN_MODULES):
                    offences.append(f"{module}:{node.lineno} imports {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_import_from(node, module, path.name == "__init__.py")
            if target.startswith(FORBIDDEN_MODULES):
                offences.append(f"{module}:{node.lineno} imports from {target}")
            elif target == "repro.sim":
                # ``from ..sim import scheduler`` smuggles the same dependency.
                for alias in node.names:
                    if f"repro.sim.{alias.name}".startswith(FORBIDDEN_MODULES):
                        offences.append(
                            f"{module}:{node.lineno} imports repro.sim.{alias.name}"
                        )
    return offences


def test_portable_layers_do_not_import_the_sim_core():
    offences = []
    for package in PORTABLE_PACKAGES:
        root = SRC / package
        assert root.exists(), package
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            offences.extend(_forbidden_imports(path))
    assert not offences, "backend-specific imports in portable code:\n" + "\n".join(offences)


def test_resolver_catches_relative_forms():
    """The AST resolver itself must see through every relative spelling."""
    samples = {
        "from repro.sim.scheduler import Simulation": "repro.sim.scheduler",
        "from ..sim.events import Event": "repro.sim.events",
        "from ..sim import scheduler": "repro.sim.scheduler",
        "import repro.sim.events": "repro.sim.events",
        "from ..sim.process import ProcessContext": "repro.sim.process",
    }
    for source, expect in samples.items():
        tree = ast.parse(source)
        node = tree.body[0]
        if isinstance(node, ast.Import):
            hits = [a.name for a in node.names if a.name.startswith(FORBIDDEN_MODULES)]
            assert hits, source
        else:
            target = _resolve_import_from(node, "repro.detectors.fake", False)
            resolved = [target] + [f"{target}.{a.name}" for a in node.names]
            assert any(r.startswith(FORBIDDEN_MODULES) for r in resolved), source


def test_protocol_reexports_are_identities():
    """``repro.sim.process`` re-exports the context protocol, not copies: one
    ``ProcessContext`` serves both backends (the real one is pinned by
    ``tests/test_transport_validate.py``)."""
    for name in ("Sleep", "WaitUntil", "NextSyncStep", "ProcessProgram", "ProcessContext"):
        assert getattr(process_module, name) is getattr(context_module, name), name
