"""Membership-churn workloads: schedules, scenario specs, and the checker.

The churn scenario family exercises the dynamic-membership program
(:mod:`repro.algorithms.swim`) under a sparse monitoring topology:
founders monitor each other over a ring or gossip overlay while late joiners
arrive through an introducer, leavers announce and vanish, and flappers go
silent and recover with a bumped incarnation.  Everything is derived from a
seed, so the scenarios stay inside the determinism digest.

``check_membership_churn`` reconstructs the ground truth purely from trace
records (every process narrates its own lifecycle: ``join_requested``,
``churn_join``, ``churn_leave``, ``churn_down``, ``churn_up``) plus the
simulator's crash ledger, then judges the run:

* every crash that happened at least one *settle window* before the horizon
  must be declared by some correct active member (``declared_dead``);
* a declaration against a process that never crashed, never went down, and
  had not left is a *false suspicion*;
* every join requested a settle window before the horizon must complete.

The settle window is ``hb_timeout + 3·hb_interval`` — read from the
``churn_config`` record the programs emit, so the checker never needs the
spec.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # runtime.spec imports this package; keep the cycle lazy
    from ..runtime.spec import ScenarioSpec

__all__ = [
    "churn_schedule",
    "churn_spec",
    "check_membership_churn",
]

#: Record key of the self-narrated lifecycle events (program side).
JOIN_REQUESTED = "join_requested"
JOINED = "churn_join"
LEFT = "churn_leave"
WENT_DOWN = "churn_down"
CAME_UP = "churn_up"
CONFIG = "churn_config"


# ----------------------------------------------------------------------
# Schedule generation
# ----------------------------------------------------------------------
def churn_schedule(
    n: int,
    *,
    joins: int = 0,
    leaves: int = 0,
    flaps: int = 0,
    horizon: float = 60.0,
    window: tuple[float, float] = (0.25, 0.55),
    down_duration: float = 8.0,
    seed: int = 0,
):
    """A seeded :class:`~repro.sim.failures.ChurnSchedule` over ``n`` indices.

    Roles are disjoint and deterministic: the top ``joins`` indices join late,
    indices ``1..leaves`` leave voluntarily, the next ``flaps`` indices go
    down and recover.  Index 0 — the default introducer — is never churned.
    Event *times* are drawn from ``random.Random(seed)`` inside
    ``[window[0]·horizon, window[1]·horizon]``, leaving the tail of the run
    for detection and view convergence.
    """
    from ..sim.failures import ChurnEvent, ChurnSchedule

    if joins + leaves + flaps == 0:
        return ChurnSchedule.none()
    if 1 + leaves + flaps > n - joins:
        raise ValueError(
            f"churn roles do not fit: n={n} needs at least "
            f"{1 + leaves + flaps + joins} indices (1 introducer + "
            f"{leaves} leavers + {flaps} flappers + {joins} joiners)"
        )
    rng = random.Random(seed)
    start, end = window[0] * horizon, window[1] * horizon
    events: list[ChurnEvent] = []
    for joiner in range(n - joins, n):
        events.append(ChurnEvent(joiner, "join", round(rng.uniform(start, end), 3)))
    for leaver in range(1, 1 + leaves):
        events.append(ChurnEvent(leaver, "leave", round(rng.uniform(start, end), 3)))
    for flapper in range(1 + leaves, 1 + leaves + flaps):
        down_at = round(rng.uniform(start, end), 3)
        events.append(ChurnEvent(flapper, "down", down_at))
        events.append(ChurnEvent(flapper, "up", round(down_at + down_duration, 3)))
    return ChurnSchedule(tuple(events))


def churn_spec(
    n: int,
    *,
    topology: str = "ring",
    degree: int = 3,
    joins: int = 0,
    leaves: int = 0,
    flaps: int = 0,
    crashes: Mapping[int, float] | None = None,
    hb_interval: float = 1.0,
    hb_timeout: float = 6.0,
    horizon: float = 60.0,
    down_duration: float = 8.0,
    seed: int = 0,
    name: str = "",
) -> "ScenarioSpec":
    """A complete membership-churn scenario spec.

    ``topology`` is ``"ring"`` (``degree`` successors) or ``"gossip"``
    (``degree`` fanout); the membership program is sparse-only, so
    ``"full_mesh"`` is rejected by the builder.  ``crashes`` optionally mixes
    simulator-enforced crashes (by index) into the churn.
    """
    from ..runtime.builder import scenario
    from ..runtime.spec import asynchronous, crashes_at

    schedule = churn_schedule(
        n,
        joins=joins,
        leaves=leaves,
        flaps=flaps,
        horizon=horizon,
        down_duration=down_duration,
        seed=seed,
    )
    params = {"successors" if topology == "ring" else "fanout": degree}
    build = (
        scenario(name or f"churn-{topology}{degree}-n{n}")
        .processes(n)
        .unique_ids()
        .timing(asynchronous(min_latency=0.01, max_latency=0.2))
        .topology(topology, **params)
        .program(
            "membership",
            hb_interval=hb_interval,
            hb_timeout=hb_timeout,
            churn=schedule.to_dict(),
            introducer=0,
        )
        .check("membership_churn")
        .horizon(horizon)
        .seed(seed)
    )
    if crashes:
        build = build.crashes(crashes_at(dict(crashes)))
    return build.build()


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------
def check_membership_churn(trace, pattern):
    """Judge a churn run from the trace alone (records + crash ledger)."""
    from ..detectors.detection import judge_detections, median_iqr
    from ..detectors.properties import CheckResult

    processes = pattern.membership.processes
    crashes = {process.index: when for process, when in trace.crashes.items()}

    # -- reconstruct the per-index lifecycle from the self-narrated records --
    def last_time(process, key: str) -> float | None:
        series = trace.records_of(process, key)
        return series[-1][0] if series else None

    life: dict[int, dict[str, Any]] = {}
    hb_interval, hb_timeout = 1.0, 6.0
    for process in processes:
        config = trace.final_value(process, CONFIG)
        if config is not None:
            hb_interval, hb_timeout = config["hb_interval"], config["hb_timeout"]
        life[process.index] = {
            "requested": last_time(process, JOIN_REQUESTED),
            "joined": last_time(process, JOINED),
            "left": last_time(process, LEFT),
            "downs": [time for time, _ in trace.records_of(process, WENT_DOWN)],
            "ups": [time for time, _ in trace.records_of(process, CAME_UP)],
        }
    settle = hb_timeout + 3.0 * hb_interval
    end = trace.end_time

    def ever_down_by(index: int, at: float) -> bool:
        return any(down <= at for down in life[index]["downs"])

    verdict = judge_detections(trace, pattern.correct, crashes)
    violations: list[str] = []

    # -- suspicion accounting: the judge's false suspicions, minus churn's own
    # exemptions (it already cleared declarations at or after a real crash) --
    false_suspicions = 0
    for observer, at, target in verdict.false_suspicions:
        if life[observer.index]["left"] is not None:
            continue  # a leaver's trailing state is not a monitoring opinion
        if ever_down_by(target, at):
            continue  # correct suspicion of a silent (down) member
        left_at = life.get(target, {}).get("left")
        if left_at is not None and at >= left_at:
            continue  # the LEAVE announcement lost the race; benign
        false_suspicions += 1
        violations.append(
            f"{observer!r} falsely suspected active index {target} at t={at}"
        )

    # -- removal accounting (simulator-enforced crashes) ---------------------
    # A victim that crashed less than a settle window before the horizon is
    # neither demanded nor credited.
    settled = [victim for victim, t_fail in sorted(crashes.items()) if end - t_fail >= settle]
    removal_latencies = {
        victim: verdict.latencies[victim] for victim in settled if victim in verdict.latencies
    }
    missed_removals = [victim for victim in settled if victim in verdict.missed]
    violations.extend(
        f"crash of index {victim} at t={crashes[victim]} was never declared"
        for victim in missed_removals
    )

    # -- join accounting -----------------------------------------------------
    join_latencies: list[float] = []
    failed_joins: list[int] = []
    for index, entry in sorted(life.items()):
        if entry["requested"] is None:
            continue
        if entry["joined"] is not None:
            join_latencies.append(entry["joined"] - entry["requested"])
        elif index not in crashes and end - entry["requested"] >= settle:
            failed_joins.append(index)
            violations.append(
                f"index {index} requested to join at t={entry['requested']} "
                f"and never completed"
            )

    leaves_announced = sum(1 for entry in life.values() if entry["left"] is not None)
    recoveries = sum(len(entry["ups"]) for entry in life.values())

    removal_stats = median_iqr(list(removal_latencies.values()))
    join_stats = median_iqr(join_latencies)
    return CheckResult(
        ok=not violations,
        violations=tuple(violations),
        stabilization_time=None if removal_stats is None else removal_stats["median"],
        details={
            "removal_latencies": {str(k): v for k, v in removal_latencies.items()},
            "metrics": {
                "joins_completed": len(join_latencies),
                "joins_failed": len(failed_joins),
                "median_join_latency": None if join_stats is None else join_stats["median"],
                "removals_detected": len(removal_latencies),
                "removals_missed": len(missed_removals),
                "median_removal_latency": (
                    None if removal_stats is None else removal_stats["median"]
                ),
                "false_suspicions": false_suspicions,
                "leaves_announced": leaves_announced,
                "recoveries": recoveries,
                "copies_sent": trace.message_copies_sent,
                "end_time": end,
            },
        },
    )
