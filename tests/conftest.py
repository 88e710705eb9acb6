"""Shared fixtures and helper programs used across the test suite."""

from __future__ import annotations

import signal

import pytest
from hypothesis import settings

from repro.identity import ProcessId
from repro.membership import (
    Membership,
    anonymous_identities,
    grouped_identities,
    unique_identities,
)
from repro.runtime.fleet import Fleet

# Property tests without an ``@settings`` of their own run at the loaded
# profile's budget: ``tier1`` is what every plain ``pytest`` run uses (the
# example count they always had, and no per-example deadline — tier-1 shares
# its machine); ``pytest --hypothesis-profile search`` is the large one.
settings.register_profile("tier1", max_examples=100, deadline=None)
settings.register_profile("search", max_examples=5000, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def paper_example_membership() -> Membership:
    """The paper's running example: ids A, A, B for processes p0, p1, p2."""
    return Membership.of(["A", "A", "B"])


@pytest.fixture
def unique_five() -> Membership:
    """Five processes with unique identifiers (a classical AS membership)."""
    return unique_identities(5)


@pytest.fixture
def anonymous_five() -> Membership:
    """Five anonymous processes."""
    return anonymous_identities(5)


@pytest.fixture
def homonymous_six() -> Membership:
    """Six processes in three homonymy groups of sizes 3, 2, 1."""
    return grouped_identities([3, 2, 1])


@pytest.fixture
def meddle(monkeypatch):
    """``meddle(hook)``: call ``hook(fleet, event)`` on every fleet event."""

    def install(hook) -> None:
        original = Fleet.run

        def run(self, fn, todo):
            for event in original(self, fn, todo):
                hook(self, event)
                yield event

        monkeypatch.setattr(Fleet, "run", run)

    return install


@pytest.fixture
def short_stall_deadline(meddle):
    """Detect a busy worker's stall in 0.3 s instead of a spawn-bounded second.

    A deadline that short cannot be set up front — a worker takes longer than
    that to import the library and say hello — so it is armed through the
    fleet's own ``progress_timeout`` at the first event after every live
    worker has greeted, and disarmed by the death it provokes (a replacement
    would need its import time again).  If no such event comes, the test's
    own one-second deadline still fires.
    """

    def arm_once_greeted(fleet, event) -> None:
        if event.death is not None:
            fleet.progress_timeout = 1.0
        elif all(worker.greeted for worker in fleet._workers.values()):
            fleet.progress_timeout = 0.3

    meddle(arm_once_greeted)


def pid(index: int) -> ProcessId:
    """Shorthand for building process ids in tests."""
    return ProcessId(index)


#: Hard wall-clock ceiling for a single ``transport``-marked test.  Real
#: runs budget a few seconds each; a wedged mesh (a node that never dials
#: out, a lost control frame) would otherwise hang the whole session.
TRANSPORT_TEST_TIMEOUT_SECONDS = 120


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Enforce a SIGALRM deadline on transport tests (pytest-timeout is not
    installed in this environment, so the hook is the timeout)."""
    marker = item.get_closest_marker("transport")
    if marker is None or not hasattr(signal, "SIGALRM"):
        return (yield)
    seconds = int(marker.kwargs.get("timeout", TRANSPORT_TEST_TIMEOUT_SECONDS))

    def _expired(signum, frame):
        raise TimeoutError(f"transport test exceeded its hard {seconds}s timeout")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
