"""RunCache under concurrent writers and hostile on-disk state.

The fabric points many worker *processes* at one cache directory, so the
atomic-rename write path is now load-bearing: simultaneous ``put`` calls on
the same key must always leave a complete, valid entry, and a torn partial
write (a crash mid-``put``) must read back as a miss, never an exception.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import repro
from repro.runtime.cache import RunCache

_LIBRARY_ROOT = str(Path(repro.__file__).resolve().parent.parent)

_HAMMER = """
import sys
from repro.runtime.cache import RunCache

root, writer_id, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cache = RunCache(root)
for round_number in range(rounds):
    ok = cache.put("row-shared", {"writer": writer_id, "round": round_number})
    assert ok, "put must succeed under contention"
    entry = cache.get("row-shared")
    # another writer may have won the rename race, but the entry read back
    # must always be one writer's complete payload
    assert entry is not None, "a stored key must never read back as a miss"
    assert set(entry) == {"writer", "round"}, f"torn payload: {entry!r}"
"""


def _spawn_writer(root: Path, writer_id: int, rounds: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", _HAMMER, str(root), str(writer_id), str(rounds)],
        env={"PYTHONPATH": _LIBRARY_ROOT},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def test_concurrent_writers_same_key_leave_one_valid_entry(tmp_path) -> None:
    """Four processes hammering one key: no crash, no torn read, and the
    surviving entry is a complete payload from one of them."""
    writers = [_spawn_writer(tmp_path, writer_id, 50) for writer_id in range(4)]
    for writer in writers:
        _, stderr = writer.communicate(timeout=120)
        assert writer.returncode == 0, stderr.decode()
    cache = RunCache(tmp_path)
    entry = cache.get("row-shared")
    assert entry is not None
    assert entry["writer"] in range(4) and entry["round"] == 49
    # no temp-file debris leaked past the os.replace
    assert not list(tmp_path.glob("*.tmp"))


def test_same_payload_from_two_processes_is_idempotent(tmp_path) -> None:
    """The fabric's common case: two workers complete the same item and both
    put the identical payload."""
    program = (
        "import sys\n"
        "from repro.runtime.cache import RunCache\n"
        "RunCache(sys.argv[1]).put('rec-abc-00000007', {'metrics': {'t': 1.5}})\n"
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", program, str(tmp_path)],
            env={"PYTHONPATH": _LIBRARY_ROOT},
        )
        for _ in range(2)
    ]
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    assert RunCache(tmp_path).get("rec-abc-00000007") == {"metrics": {"t": 1.5}}


def test_corrupt_partial_write_is_a_miss_not_a_crash(tmp_path) -> None:
    cache = RunCache(tmp_path)
    assert cache.put("row-x", {"value": 1})
    path = tmp_path / "row-x.json"
    # crash mid-write: truncated JSON
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    assert cache.get("row-x") is None
    # and the miss is repairable in place
    assert cache.put("row-x", {"value": 2})
    assert cache.get("row-x") == {"value": 2}


def test_foreign_and_schema_less_entries_are_misses(tmp_path) -> None:
    cache = RunCache(tmp_path)
    (tmp_path / "row-y.json").write_text(json.dumps({"payload": {"v": 1}}))  # no schema
    (tmp_path / "row-z.json").write_text(json.dumps([1, 2, 3]))  # not an object
    # Written before E5's and E9's sweep rows lost their config-derived columns.
    old = {"schema": "run-cache/3", "payload": {"value": {"faulty": 2}, "digests": []}}
    (tmp_path / "row-w.json").write_text(json.dumps(old))
    assert cache.get("row-y") is None
    assert cache.get("row-z") is None
    assert cache.get("row-w") is None
