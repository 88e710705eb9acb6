"""E9 — the fault envelope: consensus success across a loss × partition spectrum.

The paper proves the Figure 9 algorithm correct in ``HAS[HΩ, HΣ]`` with
*reliable* links.  E9 measures what happens when that assumption is broken on
purpose: every link copy is dropped with probability ``loss`` and the system
is split into two blocks by a timed partition that either never happens,
heals mid-run, or never heals.  The scenarios acknowledge they run outside
the guarantees with ``.adversarial()`` — exactly the combinations the
scenario builder would otherwise reject.

Three claims are visible in the table:

* **safety holds across this loss × partition grid** — no amount of loss or
  partitioning makes the survivors disagree (quorum intersection does not
  depend on delivery); duplication is another matter, outside the grid:
  a duplicated copy counts as a homonym's, and ``tests/regressions/``
  holds Figure 8 and KV specs that disagree under it;
* **termination is what the envelope erodes** — success degrades with loss
  and collapses under a never-healing partition, because no HΣ quorum fits
  inside one block;
* **healing only helps if new traffic follows it** — the algorithm has no
  retransmission timers, so a healed partition is recovered from only when
  the HΣ detector stabilises *after* the heal (its label growth makes every
  process re-broadcast its phase message over the restored links).  The
  ``stabilization`` column is therefore the recovery knob.
"""

from __future__ import annotations

from ..analysis.runner import ParameterSweep
from ..runtime import ScenarioSpec, composed, execute_spec, lossy, partitioned, scenario
from .base import Call, Experiment, grouped

__all__ = ["run"]

DESCRIPTION = "Consensus success across a loss × partition fault envelope (adversarial links)"

_N = 5
_PARTITION_START = 5.0
_PARTITION_HEAL = 45.0
#: The cut: processes {0, 1} on one side, {2, 3, 4} on the other.
_BLOCKS = [[0, 1], [2, 3, 4]]


def _partition_window(kind: str) -> dict | None:
    if kind == "none":
        return None
    end = _PARTITION_HEAL if kind == "healing" else None
    return {"start": _PARTITION_START, "end": end, "groups": _BLOCKS}


def _stages(config: dict) -> list:
    """The config's link faults, in composition order; none is a reliable run."""
    stages = []
    if config["loss"] > 0.0:
        stages.append(lossy(config["loss"]))
    window = _partition_window(config["partition"])
    if window is not None:
        stages.append(partitioned(window))
    return stages


def _spec(config: dict) -> ScenarioSpec:
    stages = _stages(config)
    build = (
        scenario("E9")
        .processes(_N)
        .distinct_ids(2)
        .detectors("HOmega", "HSigma", stabilization=config["stabilization"])
        .consensus("homega_hsigma")
        .horizon(400.0)
        .seed(config["seed"])
    )
    if stages:
        build = build.network(stages[0] if len(stages) == 1 else composed(*stages))
        build = build.adversarial()
    return build.build()


def _run_one(config: dict) -> dict:
    return dict(execute_spec(_spec(config)).metrics)


def _work(quick: bool, seed: int) -> list[Call]:
    if quick:
        parameters = {
            "loss": [0.0, 0.1, 0.3],
            "partition": ["none", "healing", "permanent"],
            "stabilization": [10.0, 60.0],
        }
        repetitions = 2
    else:
        parameters = {
            "loss": [0.0, 0.05, 0.1, 0.2, 0.3, 0.5],
            "partition": ["none", "healing", "permanent"],
            "stabilization": [10.0, 60.0, 90.0],
        }
        repetitions = 4
    sweep = ParameterSweep(parameters, repetitions=repetitions, base_seed=seed)
    return [("sweep", _run_one, sweep)]


_COLUMNS, _table = grouped(
    ["loss", "partition", "stabilization"], ["decided", "safe", "decision_time", "broadcasts"]
)


def _report(rows: list[dict]) -> tuple[list[dict], dict]:
    baseline = [row for row in rows if not _stages(row)]
    degraded = [row for row in rows if _stages(row)]
    healed_late_stab = [
        row
        for row in rows
        if row["partition"] == "healing"
        and row["stabilization"] > _PARTITION_HEAL
        and row["loss"] == 0.0
    ]
    success_by_partition = {
        kind: _success_rate([row for row in rows if row["partition"] == kind])
        for kind in ("none", "healing", "permanent")
    }
    summary = {
        "runs": len(rows),
        "all_safe": all(row["safe"] for row in rows),
        "baseline_all_decided": all(row["decided"] for row in baseline),
        "success_rate": _success_rate(rows),
        "degraded_success_rate": _success_rate(degraded),
        "success_by_partition": success_by_partition,
        "healing_recovered_with_late_stabilization": _success_rate(healed_late_stab),
    }
    return _table(rows), summary


def _success_rate(rows: list[dict]) -> float | None:
    if not rows:
        return None
    return sum(1 for row in rows if row["decided"]) / len(rows)


run = Experiment("E9", DESCRIPTION, _COLUMNS, _work, _report)
