"""Replay every shrunk counterexample under ``tests/regressions/``.

Each file is a minimal JSON history that once had to be caught (or was built
to prove it would be): ``why`` says what is wrong with it, ``history`` lists
its operations field for field as :class:`KVOperation` holds them.  Every
completed operation carries a version, so the checker's version-order witness
looks applicable; each must still come back as a violation.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.workloads.kv import KVOperation, check_history

REGRESSIONS = sorted((Path(__file__).parent / "regressions").glob("*.json"))


def load_history(path: Path) -> list[KVOperation]:
    """The history a regression file holds (``args`` as tuples, as a trace gives them)."""
    return [
        KVOperation(**{**fields, "args": tuple(fields["args"])})
        for fields in json.loads(path.read_text())["history"]
    ]


def test_the_corpus_is_there():
    assert len(REGRESSIONS) >= 4


@pytest.mark.parametrize("path", REGRESSIONS, ids=lambda path: path.stem)
def test_a_regression_is_still_a_violation(path):
    history = load_history(path)
    assert all(operation.version is not None for operation in history if operation.completed)
    result = check_history(history)
    assert len(result.violations) >= 1
    assert not result.ok and result.witnessed == 0
