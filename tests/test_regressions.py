"""Replay every shrunk counterexample under ``tests/regressions/``.

Two kinds of file live there, each saying in ``why`` what is wrong:

* a KV history (``history``): a minimal JSON history that once had to be
  caught (or was built to prove it would be), its operations field for field
  as :class:`KVOperation` holds them.  Every completed operation carries a
  version, so the checker's version-order witness looks applicable; each must
  still come back as a violation.
* a spec (``spec``, ``fails``): a :class:`ScenarioSpec` dict that is run
  through ``execute_spec``, and every check named in ``fails`` must still
  fail on it.  A spec outside the paper's envelope says so with
  ``adversarial``, as any spec would.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.runtime import ScenarioSpec, execute_spec
from repro.workloads.kv import KVOperation, check_history

REGRESSIONS = sorted((Path(__file__).parent / "regressions").glob("*.json"))
HISTORIES = [path for path in REGRESSIONS if "history" in json.loads(path.read_text())]
SPECS = [path for path in REGRESSIONS if "spec" in json.loads(path.read_text())]


def load_history(path: Path) -> list[KVOperation]:
    """The history a regression file holds (``args`` as tuples, as a trace gives them)."""
    return [
        KVOperation(**{**fields, "args": tuple(fields["args"])})
        for fields in json.loads(path.read_text())["history"]
    ]


def test_the_corpus_is_there():
    assert len(HISTORIES) >= 4 and len(SPECS) >= 3
    assert set(HISTORIES) | set(SPECS) == set(REGRESSIONS)


@pytest.mark.parametrize("path", HISTORIES, ids=lambda path: path.stem)
def test_a_regression_is_still_a_violation(path):
    history = load_history(path)
    assert all(operation.version is not None for operation in history if operation.completed)
    result = check_history(history)
    assert len(result.violations) >= 1
    assert not result.ok and result.witnessed == 0


@pytest.mark.parametrize("path", SPECS, ids=lambda path: path.stem)
def test_a_spec_regression_still_fails_its_checks(path):
    entry = json.loads(path.read_text())
    assert set(entry) == {"why", "spec", "fails"} and entry["fails"]
    spec = ScenarioSpec.from_dict(entry["spec"])
    assert set(entry["fails"]) <= set(spec.checks)
    metrics = execute_spec(spec).metrics
    assert [check for check in entry["fails"] if metrics[f"{check}_ok"] is not False] == []
