"""E6 — Consensus cost across the homonymy spectrum, against both baselines.

The paper positions homonymous systems as the general case whose two extremes
are classical unique-identifier systems and anonymous systems.  This
experiment runs the Figure 8 algorithm on memberships sweeping from anonymous
(1 distinct identifier) to unique (n distinct identifiers) and compares, at
the two extremes, against the corresponding specialised baselines:

* the classical Ω + majority algorithm at the unique-identifier extreme, and
* the Bonnet–Raynal-style AΩ + majority algorithm at the anonymous extreme.

The expected shape: the homonymous algorithm pays a modest, roughly constant
overhead (the extra COORD exchange) over the specialised baselines at the
extremes and degrades gracefully in between — decisions in a small constant
number of rounds everywhere (``rounds``: the highest round a process had
reached when it learned the decision; a relayed ``DECIDE`` records the
receiver's round).
"""

from __future__ import annotations

from ..analysis.runner import ParameterSweep
from ..runtime import CONSENSUS, ScenarioSpec, minority, scenario
from .base import Call, Experiment, grouped

__all__ = ["run"]

DESCRIPTION = "Consensus cost from anonymous to unique identifiers, vs specialised baselines"

_STABILIZATION = 15.0

#: algorithm label → consensus registry name
_ALGORITHMS = {
    "figure8-homega": "homega_majority",
    "classical-omega": "classical_omega",
    "anonymous-aomega": "anonymous_aomega",
}


def _spec(config: dict) -> ScenarioSpec:
    consensus_name = _ALGORITHMS[config["algorithm"]]
    return (
        scenario("E6")
        .processes(config["n"])
        .distinct_ids(config["distinct_ids"])
        .crashes(minority(at=8.0, count=1))
        .detectors(
            *CONSENSUS.resolve(consensus_name).requires_detectors, stabilization=_STABILIZATION
        )
        .consensus(consensus_name)
        .horizon(600.0)
        .seed(config["seed"])
        .build()
    )


def _work(quick: bool, seed: int) -> list[Call]:
    n = 6
    repetitions = 2 if quick else 6
    spectrum_points = [1, 2, 3, 6] if quick else list(range(1, n + 1))
    # The spectrum, then the specialised baseline at each extreme.
    sweeps = [
        ("figure8-homega", spectrum_points, seed),
        ("classical-omega", [n], seed + 500),
        ("anonymous-aomega", [1], seed + 900),
    ]
    return [
        (
            "run_sweep",
            _spec,
            ParameterSweep(
                {"algorithm": [algorithm], "n": [n], "distinct_ids": distinct_ids},
                repetitions=repetitions,
                base_seed=base_seed,
            ),
        )
        for algorithm, distinct_ids, base_seed in sweeps
    ]


_COLUMNS, _table = grouped(
    ["algorithm", "distinct_ids"], ["decided", "safe", "decision_time", "rounds", "broadcasts"]
)


def _report(rows: list[dict]) -> tuple[list[dict], dict]:
    summary = {
        "runs": len(rows),
        "all_terminated": all(row["decided"] for row in rows),
        "all_safe": all(row["safe"] for row in rows),
    }
    return _table(rows), summary


run = Experiment("E6", DESCRIPTION, _COLUMNS, _work, _report)
