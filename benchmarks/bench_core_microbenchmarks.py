"""Micro-benchmarks of the core building blocks.

These are not paper experiments; they track the cost of the substrate itself
(the event queue's schedule/pop/cancel operations, the broadcast hot path,
one consensus run, one detector-convergence run, multiset algebra) so
performance regressions in the library are visible.

Benchmarks tagged with ``benchmark.extra_info["bench_core_key"]`` are folded
into ``BENCH_core.json`` by the suite's conftest after every benchmark run —
the committed copy at the repository root is the perf trajectory each PR
defends.  ``events_per_round`` turns a round's wall-clock into ns/event.
"""

from repro.detectors import CLASSES, DetectorProbeProgram
from repro.identity import IdentityMultiset
from repro.membership import grouped_identities
from repro.runtime import execute_spec, minority, scenario
from repro.sim import (
    AsynchronousTiming,
    ComposedLinks,
    CrashSchedule,
    EventQueue,
    JitterLinks,
    LossyLinks,
    Simulation,
    SynchronousTiming,
    build_system,
)
from repro.sim.failures import FailurePattern
from repro.sim.process import ProcessProgram

#: Events per round of the raw event-queue benchmarks.
N_QUEUE_EVENTS = 2000


def _noop() -> None:
    pass


def test_event_queue_schedule_pop(benchmark):
    """Raw schedule + pop cycle cost of the event queue itself."""

    def cycle():
        queue = EventQueue()
        schedule = queue.schedule
        for i in range(N_QUEUE_EVENTS):
            schedule(float(i & 255), _noop)
        pops = 0
        while queue.pop_next() is not None:
            pops += 1
        return pops

    assert benchmark(cycle) == N_QUEUE_EVENTS
    # One schedule and one pop per event.
    benchmark.extra_info["events_per_round"] = 2 * N_QUEUE_EVENTS
    benchmark.extra_info["bench_core_key"] = "queue_schedule_pop"


def test_event_queue_schedule_cancel(benchmark):
    """Raw schedule + cancel cost (cancelled events are dropped lazily)."""

    def cycle():
        queue = EventQueue()
        schedule = queue.schedule
        handles = [schedule(float(i % 97), _noop) for i in range(N_QUEUE_EVENTS)]
        cancel = queue.cancel
        for handle in handles:
            cancel(handle)
        return len(queue)

    assert benchmark(cycle) == 0
    benchmark.extra_info["events_per_round"] = 2 * N_QUEUE_EVENTS
    benchmark.extra_info["bench_core_key"] = "queue_schedule_cancel"


def test_single_consensus_run(benchmark):
    """One Figure 8 consensus run on a 7-process homonymous system."""
    spec = (
        scenario()
        .homonyms([3, 2, 2])
        .crashes(minority(at=8.0))
        .detectors("HOmega", "HSigma", stabilization=15.0)
        .consensus("homega_majority")
        .horizon(400.0)
        .seed(3)
        .build()
    )
    record = benchmark(execute_spec, spec)
    assert record.metrics["safe"] and record.digest == "6827c78a3796a86f"  # as the row ran before it was a spec


def test_hsigma_oracle_probe_run(benchmark):
    """Sampling an HΣ oracle for 40 time units on a 6-process system."""
    membership = grouped_identities([2, 2, 2])
    schedule = CrashSchedule.at_times({membership.processes[1]: 10.0})

    def run_once():
        system = build_system(
            membership=membership,
            timing=AsynchronousTiming(min_latency=0.1, max_latency=1.0),
            program_factory=lambda pid, identity: DetectorProbeProgram(
                CLASSES["HSigma"].probes(), period=1.0
            ),
            crash_schedule=schedule,
            detectors={"HSigma": lambda s: CLASSES["HSigma"].oracle(s, stabilization_time=15.0)},
            seed=2,
        )
        simulation = Simulation(system)
        return simulation.run(until=40.0)

    trace = benchmark(run_once)
    result = CLASSES["HSigma"].judge(trace, FailurePattern(membership, schedule))
    assert result.ok, result.violations


class _GossipProgram(ProcessProgram):
    """Broadcast-heavy load: one broadcast per process per time unit."""

    def setup(self, ctx):
        def chatter():
            for _ in range(60):
                ctx.broadcast("GOSSIP")
                yield ctx.sleep(1.0)

        ctx.spawn(chatter, name="chatter")


def _gossip_system(links, timing=None):
    membership = grouped_identities([3, 3])
    return build_system(
        membership=membership,
        timing=timing or AsynchronousTiming(min_latency=0.1, max_latency=1.0),
        program_factory=lambda pid, identity: _GossipProgram(),
        links=links,
        seed=4,
    )


def _events_per_gossip_run(links, timing=None) -> int:
    simulation = Simulation(_gossip_system(links, timing))
    simulation.run(until=70.0)
    return simulation.events_processed


def test_broadcast_heavy_run_default_links(benchmark):
    """6 processes gossiping for 60 time units over the default reliable links.

    This pins the broadcast hot path itself (2160 scheduled deliveries per
    run): one heap tuple per copy, batched timing draws, and delivery
    callbacks resolved once per recipient set all show up here.
    """
    trace = benchmark(lambda: Simulation(_gossip_system(None)).run(until=70.0))
    assert trace.message_copies_delivered == trace.message_copies_sent
    benchmark.extra_info["events_per_round"] = _events_per_gossip_run(None)
    benchmark.extra_info["bench_core_key"] = "broadcast_default_links"


def test_broadcast_heavy_run_synchronous_batched(benchmark):
    """The gossip load under HSS timing, where every copy of a broadcast is
    due at the same instant (one time computed, n same-time heap entries)."""
    timing = SynchronousTiming(step=1.0)
    trace = benchmark(lambda: Simulation(_gossip_system(None, timing)).run(until=70.0))
    assert trace.message_copies_delivered == trace.message_copies_sent
    benchmark.extra_info["events_per_round"] = _events_per_gossip_run(None, timing)
    benchmark.extra_info["bench_core_key"] = "broadcast_synchronous_batched"


def test_broadcast_heavy_run_under_adversarial_links(benchmark):
    """The same gossip load through a loss + jitter link pipeline.

    The difference against the default-links benchmark is the cost of the
    non-default link path (per-copy ``deliveries`` calls and their RNG draws).
    """
    links = ComposedLinks((LossyLinks(loss=0.1), JitterLinks(max_jitter=0.5)))
    trace = benchmark(lambda: Simulation(_gossip_system(links)).run(until=70.0))
    assert 0 < trace.message_copies_delivered < trace.message_copies_sent
    benchmark.extra_info["events_per_round"] = _events_per_gossip_run(links)
    benchmark.extra_info["bench_core_key"] = "broadcast_adversarial_links"


def test_multiset_algebra(benchmark):
    """Union/intersection/inclusion over identifier multisets."""
    left = IdentityMultiset([f"id{i % 7}" for i in range(50)])
    right = IdentityMultiset([f"id{i % 5}" for i in range(40)])

    def run_once():
        union = left.union(right)
        shared = left.intersection(right)
        return shared.issubset(union) and left.difference(right).issubset(left)

    assert benchmark(run_once)


def test_sub_multiset_enumeration(benchmark):
    """Enumerating the label family used by the Σ → HΣ transformation."""
    universe = IdentityMultiset([f"id{i}" for i in range(8)])

    def run_once():
        return sum(1 for _ in universe.sub_multisets_containing("id0"))

    assert benchmark(run_once) == 128
