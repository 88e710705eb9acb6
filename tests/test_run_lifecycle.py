"""A finished run frees itself: its owner closes it, and nothing is left for the collector.

A :class:`~repro.sim.scheduler.Simulation` is full of reference cycles —
runtime ↔ context, handler closures and task generators over the context,
queue entries holding bound methods, detectors holding the simulation's own
methods — so without :meth:`~repro.sim.scheduler.Simulation.close` a dropped
run waits for the cyclic garbage collector.  These tests pin both halves of
the contract:

* the library owner of a run, ``execute_spec``, closes it, and with the
  collector off the run is freed by reference counting alone:
  ``gc.collect()`` then finds nothing, for one spec per program, consensus
  row and reduction row, a stacked configuration, sparse monitors, a KV cell
  and a lossy run that ends undecided; so does a caller that reads the trace
  itself (``simulate_spec``, ``fold_checks``, ``close``) for each of those
  specs, and E1's ``_run_one``, the one experiment function that does so;
* a closed run still reads as the finished run it was, cannot run again, and
  closing twice is harmless.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.consensus import FAMILY
from repro.detectors import CLASSES
from repro.errors import SimulationError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.e1_ohp_convergence import _run_one as run_one_e1
from repro.reductions import REDUCTIONS
from repro.runtime import (
    CONSENSUS,
    Engine,
    MembershipSpec,
    PROGRAMS,
    asynchronous,
    cascading,
    crashes_at,
    execute_spec,
    lossy,
    minority,
    partial_sync,
    scenario,
    simulate_spec,
    synchronous,
)
from repro.runtime.engine import fold_checks
from repro.sim.scheduler import Simulation
from repro.workloads.churn import churn_spec

_REDUCTION_SYSTEMS = {
    "AS": MembershipSpec("unique", n=4),
    "AAS": MembershipSpec("anonymous", n=4),
    "HAS": MembershipSpec("groups", groups=(2, 2, 1)),
}


def _reduction(name):
    row = REDUCTIONS[name]
    membership = _REDUCTION_SYSTEMS.get(row.model, _REDUCTION_SYSTEMS["HAS"])
    return (
        scenario(f"lifecycle-{name}")
        .membership(membership)
        .timing(asynchronous(max_latency=1.5))
        .crashes(crashes_at({1: 6.0}))
        .detectors(*row.sources, stabilization=8.0, noise_period=None)
        .program(name, **row.params_in(membership.build()))
        .check(CLASSES[row.target].check)
        .horizon(25.0)
        .seed(1)
        .build()
    )


def _consensus(name):
    entry = CONSENSUS.resolve(name)
    build = scenario(f"lifecycle-{name}")
    if entry.membership_constraint == "unique":
        build = build.processes(4).unique_ids()
    elif entry.membership_constraint == "anonymous":
        build = build.processes(4).anonymous()
    else:
        build = build.homonyms([2, 2])
    leader, *quorum = entry.requires_detectors
    build = build.detectors(leader, stabilization=8.0, noise_period=0.5)
    if quorum:
        build = build.detectors(*quorum, stabilization=5.0)
    crashes = minority(at=2.0, count=1) if entry.needs_majority else cascading(2, first_at=2.0)
    return build.crashes(crashes).consensus(name).horizon(300.0).seed(2).build()


def _heartbeat(topology=None, **params):
    build = (
        scenario(f"lifecycle-heartbeat-{topology or 'mesh'}")
        .processes(12 if topology else 4)
        .unique_ids()
        .timing(asynchronous(min_latency=0.01, max_latency=0.2))
        .crashes(crashes_at({1: 3.0}))
        .program("heartbeat", hb_interval=1.0, hb_timeout=6.0)
        .horizon(12.0)
        .seed(3)
    )
    if topology is None:
        return build.check("hb_detection").build()
    return build.topology(topology, **params).check("topo_detection").build()


#: One small spec per row of PROGRAMS that is not a reduction …
_PROGRAM_SPECS = {
    "ohp_polling": scenario("lifecycle-ohp")
    .processes(4)
    .distinct_ids(2)
    .timing(partial_sync(5.0, 1.0, pre_gst_loss=0.4, pre_gst_max_latency=30.0))
    .crashes(minority(at=3.0))
    .program("ohp_polling")
    .check("diamond_hp", "homega")
    .horizon(30.0)
    .seed(4)
    .build(),
    "hsigma_sync": scenario("lifecycle-hsigma")
    .processes(4)
    .distinct_ids(2)
    .timing(synchronous(1.0))
    .crashes(cascading(2, first_at=2.4, interval=2.0, partial_broadcast_fraction=0.5))
    .program("hsigma_sync", steps=8)
    .check("hsigma")
    .horizon(10.0)
    .seed(5)
    .build(),
    "script_alive": scenario("lifecycle-script-alive")
    .processes(4)
    .unique_ids()
    .timing(asynchronous(max_latency=1.5))
    .crashes(crashes_at({2: 4.0}))
    .program("script_alive")
    .check(CLASSES["ScriptE"].check)
    .horizon(15.0)
    .seed(6)
    .build(),
    "heartbeat": _heartbeat(),
    "membership": churn_spec(
        12, topology="gossip", joins=1, leaves=1, flaps=1, crashes={6: 5.0}, horizon=20.0, seed=7
    ),
}

#: … plus one per reduction and consensus row, and the shapes no row covers.
SPECS = {
    **{f"program-{name}": spec for name, spec in _PROGRAM_SPECS.items()},
    **{f"reduction-{name}": _reduction(name) for name in REDUCTIONS},
    **{f"family-{name}": _consensus(name) for name in FAMILY},
    "stacked-fig6-fig8": scenario("lifecycle-stacked")
    .processes(4)
    .distinct_ids(2)
    .timing(partial_sync(5.0, 1.0, pre_gst_loss=0.0, pre_gst_max_latency=25.0))
    .crashes(minority(at=3.5, count=1))
    .program("ohp_polling", detector_name="HOmega", record_outputs=False)
    .consensus("homega_majority")
    .horizon(300.0)
    .seed(8)
    .build(),
    "ring-heartbeat": _heartbeat("ring", successors=3),
    "gossip-heartbeat": _heartbeat("gossip", fanout=3),
    # Lost copies are never resent, so no process decides: the run ends with
    # every consensus task still blocked.
    "lossy-links-undecided": scenario("lifecycle-lossy")
    .processes(4)
    .distinct_ids(2)
    .detectors("HOmega", "HSigma", stabilization=10.0)
    .consensus("homega_hsigma")
    .network(lossy(0.3))
    .adversarial()
    .horizon(60.0)
    .seed(9)
    .build(),
}

KV_SPEC = (
    scenario("lifecycle-kv")
    .homonyms([2, 2, 1])
    .detectors("HOmega", stabilization=6.0)
    .crashes(crashes_at({4: 8.0}))
    .kv(consensus="homega_majority", clients=3, ops_per_client=3, think_time=1.0, key_space=4)
    .horizon(600.0)
    .seed(10)
    .build()
)


def test_the_specs_cover_every_row():
    programs = {name for name in PROGRAMS.names() if name not in REDUCTIONS}
    assert programs == set(_PROGRAM_SPECS)
    assert {spec.program for spec in SPECS.values()} >= set(PROGRAMS.names())
    assert {spec.consensus for spec in SPECS.values()} >= set(FAMILY)


@pytest.fixture
def simulations(monkeypatch):
    """A weak reference to every simulation run while the test runs."""
    refs: list[weakref.ref] = []
    run = Simulation.run

    def recording_run(self, **kwargs):
        refs.append(weakref.ref(self))
        return run(self, **kwargs)

    monkeypatch.setattr(Simulation, "run", recording_run)
    return refs


def _garbage_after(owner, arg, simulations) -> tuple[list, int]:
    """Run ``owner(arg)`` with the collector off, drop the result and return
    ``(simulations still alive, objects the collector then finds)``."""
    gc.collect()
    gc.disable()
    try:
        owner(arg)  # the result is dropped at once
        alive = [ref for ref in simulations if ref() is not None]
        found = gc.collect()
    finally:
        gc.enable()
    assert len(simulations) == 1
    return alive, found


def simulate_and_fold(spec):
    """A caller that reads a run itself, as E1 and the KV command line do:
    the closed simulation and the spec's folded checks."""
    simulation = simulate_spec(spec)
    checks = fold_checks(simulation.trace, simulation.failure_pattern, spec.checks)
    simulation.close()
    return simulation, checks


OWNERS = [
    pytest.param(owner, spec, id=f"{owner.__name__}-{name}")
    for name, spec in {**SPECS, "kv": KV_SPEC}.items()
    for owner in (execute_spec, simulate_and_fold)
] + [
    pytest.param(
        run_one_e1,
        {"n": 4, "distinct_ids": 2, "gst": 5.0, "delta": 1.0, "fixed_timeout": False, "seed": 4},
        id="e1_run_one",
    )
]


@pytest.mark.parametrize("owner, arg", OWNERS)
def test_a_finished_run_leaves_no_cyclic_garbage(owner, arg, simulations):
    alive, found = _garbage_after(owner, arg, simulations)
    assert not alive, "reference counting did not free the simulation"
    assert found == 0


def test_an_open_run_is_cyclic_garbage(simulations):
    # The test's own power: without close, the same run is left to the collector.
    _, found = _garbage_after(simulate_spec, SPECS["family-homega_majority"], simulations)
    assert found > 0


class TestClose:
    @staticmethod
    def _read(simulation):
        trace = simulation.trace
        return (
            trace,
            repr(
                (
                    list(trace._records.items()),  # every (process, key) series
                    sorted(trace.decisions.items()),
                    trace.crashes,
                    trace.end_time,
                    trace.message_copies_sent,
                    trace.delivered_by_kind,
                )
            ),
            simulation.failure_pattern,
            simulation.digest,
            simulation.events_processed,
            simulation.system,
            simulation.clock.now,
        )

    @pytest.fixture
    def finished(self):
        simulation = simulate_spec(SPECS["stacked-fig6-fig8"])
        return simulation, self._read(simulation)

    def test_what_a_run_produced_stays_readable(self, finished):
        simulation, before = finished
        simulation.close()
        assert self._read(simulation) == before
        assert simulation.all_correct_decided()

    def test_a_closed_run_cannot_run_again(self, finished):
        simulation, _ = finished
        simulation.close()
        with pytest.raises(SimulationError, match="closed"):
            simulation.run(until=simulation.clock.now + 10.0)

    def test_close_is_idempotent(self, finished):
        simulation, before = finished
        simulation.close()
        simulation.close()
        assert self._read(simulation) == before
        assert len(simulation.queue) == 0

    def test_clearing_the_queue_keeps_its_digest(self):
        simulation = simulate_spec(SPECS["program-script_alive"])
        digest, pending = simulation.queue.digest, len(simulation.queue)
        assert pending > 0  # a heartbeat-style program always has work queued
        simulation.queue.clear()
        assert (simulation.queue.digest, len(simulation.queue)) == (digest, 0)
        assert simulation.queue.pop_next() is None


@pytest.mark.parametrize("name", ["E1", "E2"])
def test_rows_read_from_a_closed_run_are_unchanged(name, monkeypatch):
    # E1 reads its run's checks and trace, E2 its record, each before the run
    # is closed: the rows equal those of an open run.
    def rows():
        return json.dumps(ALL_EXPERIMENTS[name].dispatch(Engine(), True, 0), sort_keys=True)

    closed = rows()
    monkeypatch.setattr(Simulation, "close", lambda self: None)
    assert rows() == closed
