"""E8 — End-to-end stacked system: Figure 6 (HΩ) running under Figure 8.

The paper's headline combination: because HΩ is implementable under partial
synchrony (unlike the anonymous AΩ), stacking the Figure 6 implementation
underneath the Figure 8 consensus algorithm solves consensus in any
homonymous system with partially synchronous processes, eventually timely
links, and a majority of correct processes — with no oracle anywhere.

The sweep varies the homonymy pattern and GST and checks that every run
decides correctly; the decision time tracks GST plus the detector's
convergence time, which is the expected shape.  ``rounds`` is the highest round
a process had reached when it learned the decision (a relayed ``DECIDE``
records the receiver's round).

Declaratively, the stacked configuration is ``.program("ohp_polling",
detector_name="HOmega") .consensus("homega_majority")`` — the builder accepts
the pair because the stacked program *publishes* the HΩ attachment the
consensus algorithm queries, so no oracle is needed.
"""

from __future__ import annotations

from ..analysis.runner import ParameterSweep
from ..runtime import ScenarioSpec, minority, partial_sync, scenario
from .base import Call, Experiment, grouped

__all__ = ["run"]

DESCRIPTION = "Consensus with no oracle: Figure 6 HΩ implementation stacked under Figure 8"


def _spec(config: dict) -> ScenarioSpec:
    gst = config["gst"]
    # Figure 8 sends each consensus message exactly once and therefore needs
    # reliable links (the HAS model).  The stacked configuration keeps links
    # eventually timely but loss-free: messages sent before GST may be delayed
    # arbitrarily, never dropped.  (The Figure 6 detector underneath tolerates
    # loss because it re-polls forever, but the consensus layer does not.)
    return (
        scenario("E8")
        .processes(config["n"])
        .distinct_ids(config["distinct_ids"])
        .timing(
            partial_sync(
                gst=gst,
                delta=1.0,
                min_latency=0.1,
                pre_gst_loss=0.0,
                pre_gst_max_latency=3 * gst + 10.0,
            )
        )
        .crashes(minority(at=gst / 2 + 1.0, count=1))
        .program("ohp_polling", detector_name="HOmega", record_outputs=False)
        .consensus("homega_majority")
        .horizon(gst * 6 + 400.0)
        .seed(config["seed"])
        .build()
    )


def _work(quick: bool, seed: int) -> list[Call]:
    if quick:
        parameters = {
            "n": [5],
            "distinct_ids": [1, 3, 5],
            "gst": [10.0, 30.0],
        }
        repetitions = 1
    else:
        parameters = {
            "n": [5, 7],
            "distinct_ids": [1, 3, 5, 7],
            "gst": [10.0, 30.0, 80.0],
        }
        repetitions = 3
    sweep = ParameterSweep(parameters, repetitions=repetitions, base_seed=seed)
    # The full grid is a raw product; a membership cannot have more distinct
    # identifiers than processes, so those cells do not exist.
    return [
        ("run_sweep", _spec, [config for config in sweep if config["distinct_ids"] <= config["n"]])
    ]


_COLUMNS, _table = grouped(
    ["n", "distinct_ids", "gst"],
    ["decided", "safe", "decision_time", "decision_after_gst", "rounds"],
)


def _report(rows: list[dict]) -> tuple[list[dict], dict]:
    rows = [
        {
            **row,
            "decision_after_gst": None
            if row["decision_time"] is None
            else row["decision_time"] - row["gst"],
        }
        for row in rows
    ]
    summary = {
        "runs": len(rows),
        "all_terminated": all(row["decided"] for row in rows),
        "all_safe": all(row["safe"] for row in rows),
    }
    return _table(rows), summary


run = Experiment("E8", DESCRIPTION, _COLUMNS, _work, _report)
