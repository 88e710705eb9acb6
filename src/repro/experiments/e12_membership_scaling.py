"""E12 — monitoring-topology scaling: full mesh vs ring vs gossip, n up to 1,000.

The full-mesh heartbeat monitor is quadratic in pings (every process
broadcasts to everyone) and cubic in ACK copies, so it cannot leave the
small-n regime the E1–E10 experiments live in.  The monitoring-topology layer
(:mod:`repro.topology`) replaces "everyone watches everyone" with a ring of
``k`` successors or a seeded gossip fanout — O(n·k) copies per round — and
E12 measures what that buys and what it costs across three scales:

* **load** — message copies per process per monitoring round.  Full mesh
  grows linearly in ``n`` *per process* (quadratic overall); ring and gossip
  stay flat at ≈ 2·k and ≈ k.  The acceptance bar from the reproduction
  plan: at n=100 a ``Ring(successors=3)`` spends ≤ 10 % of the full-mesh
  per-process budget.
* **detection** — median latency from a crash to the first declaration by a
  correct process, and the false-suspicion count (zero is the bar: sparse
  monitoring must not trade load for wrong accusations).
* **churn** — for sparse cells the dynamic-membership program joins, leaves,
  and recovers members mid-run (:mod:`repro.workloads.churn`); the cell is
  judged by the ``membership_churn`` check instead of pure detection.

Every cell is a deterministic :class:`~repro.runtime.spec.ScenarioSpec`, so
E12 folds into the digest manifest like any other experiment.  Full-mesh
cells stop at n=7 (quick) / n=25 (full) — running the mesh at n=1,000 would
be ≈ 10⁹ copies per round, which is precisely the point of the experiment.
"""

from __future__ import annotations

from ..runtime import Engine, asynchronous, crashes_at, scenario
from .base import Call, Experiment

__all__ = ["run"]

DESCRIPTION = (
    "Monitoring-topology scaling: per-process message load and detection "
    "latency for full mesh vs ring vs gossip, with churn, n up to 1,000"
)

_HB_INTERVAL = 1.0
_CRASH_AT = 10.0
#: Light churn per 100 processes: a couple of joins, leaves, and flaps.
_LIGHT_CHURN = {"joins": 2, "leaves": 2, "flaps": 2}


def _hb_timeout(mode: str, n: int) -> float:
    """Ping modes time out in one hop; gossip must cover its diffusion depth.

    A counter bump reaches the whole system in ≈ log_fanout(n) + tail
    rounds, so the gossip staleness window grows with scale: 8 intervals up
    to n=100, 12 at n=1,000 (anything shorter false-suspects slow corners).
    """
    if mode != "gossip":
        return 6.0
    return 8.0 if n <= 100 else 12.0


def _run_one(config: dict) -> dict:
    mode, n, churn = config["mode"], config["n"], config["churn"]
    degree = config["degree"]
    hb_timeout = _hb_timeout(mode, n)
    if churn == "none":
        horizon = _CRASH_AT + hb_timeout + 5.0 * _HB_INTERVAL + 3.0
        build = (
            scenario(f"E12-{mode}-n{n}")
            .processes(n)
            .unique_ids()
            .timing(asynchronous(min_latency=0.01, max_latency=0.2))
            .crashes(crashes_at({n - 1: _CRASH_AT}))
            .program("heartbeat", hb_interval=_HB_INTERVAL, hb_timeout=hb_timeout)
            .horizon(horizon)
            .seed(config["seed"])
        )
        if mode == "full_mesh":
            build = build.check("hb_detection")
        else:
            key = "successors" if mode == "ring" else "fanout"
            build = build.topology(mode, **{key: degree}).check("topo_detection")
        spec = build.build()
        check = "hb_detection" if mode == "full_mesh" else "topo_detection"
    else:
        from ..workloads.churn import churn_spec

        scale = max(1, n // 100)
        horizon = 60.0
        spec = churn_spec(
            n,
            topology=mode,
            degree=degree,
            joins=_LIGHT_CHURN["joins"] * scale,
            leaves=_LIGHT_CHURN["leaves"] * scale,
            flaps=_LIGHT_CHURN["flaps"] * scale,
            crashes={n // 2: _CRASH_AT},
            hb_interval=_HB_INTERVAL,
            hb_timeout=hb_timeout,
            horizon=horizon,
            seed=config["seed"],
            name=f"E12-{mode}-n{n}-churn",
        )
        check = "membership_churn"
    metrics = Engine().run(spec).metrics

    copies = metrics[f"{check}_copies_sent"]
    end_time = metrics[f"{check}_end_time"]
    rounds = max(end_time / _HB_INTERVAL, 1.0)
    latency_key = (
        "median_removal_latency" if check == "membership_churn" else "median_latency"
    )
    missed_key = "removals_missed" if check == "membership_churn" else "missed"
    return {
        "ok": metrics[f"{check}_ok"],
        "detection_latency": metrics[f"{check}_{latency_key}"],
        "missed": metrics[f"{check}_{missed_key}"],
        "false_suspicions": metrics.get(f"{check}_false_suspicions", 0),
        "copies_sent": copies,
        "msgs_per_proc_round": round(copies / n / rounds, 3),
        "joins_completed": metrics.get(f"{check}_joins_completed"),
        "recoveries": metrics.get(f"{check}_recoveries"),
    }


def _cells(quick: bool) -> list[dict]:
    cells = [
        # The small-n regime, all three topologies head to head.
        {"mode": "full_mesh", "n": 7, "churn": "none", "degree": 0},
        {"mode": "ring", "n": 7, "churn": "none", "degree": 2},
        {"mode": "gossip", "n": 7, "churn": "none", "degree": 2},
        # n=100: the full mesh is already impractical; sparse modes with and
        # without churn.
        {"mode": "ring", "n": 100, "churn": "none", "degree": 3},
        {"mode": "gossip", "n": 100, "churn": "none", "degree": 3},
        {"mode": "ring", "n": 100, "churn": "light", "degree": 3},
        {"mode": "gossip", "n": 100, "churn": "light", "degree": 3},
        # The headline scale.
        {"mode": "ring", "n": 1000, "churn": "none", "degree": 3},
    ]
    if not quick:
        cells += [
            {"mode": "full_mesh", "n": 25, "churn": "none", "degree": 0},
            {"mode": "ring", "n": 1000, "churn": "light", "degree": 3},
            {"mode": "gossip", "n": 1000, "churn": "none", "degree": 3},
        ]
    return cells


def _work(quick: bool, seed: int) -> list[Call]:
    configs = [
        {**cell, "seed": seed + combo_index, "repetition": 0}
        for combo_index, cell in enumerate(_cells(quick))
    ]
    return [("sweep", _run_one, configs)]


_COLUMNS = (
    "mode",
    "n",
    "churn",
    "degree",
    "ok",
    "detection_latency",
    "missed",
    "false_suspicions",
    "copies_sent",
    "msgs_per_proc_round",
    "joins_completed",
    "recoveries",
)


def _report(rows: list[dict]) -> tuple[list[dict], dict]:
    """One table row per cell, in grid order, plus the load-model summary."""
    by_cell = {(row["mode"], row["n"], row["churn"]): row for row in rows}
    mesh_small = by_cell[("full_mesh", 7, "none")]
    ring_small = by_cell[("ring", 7, "none")]
    ring_100 = by_cell[("ring", 100, "none")]
    ring_1000 = by_cell[("ring", 1000, "none")]
    # The full mesh at n=100 is measured analytically (running it is the
    # point of not running it): per process per round it broadcasts one ping
    # (n-1 copies) and answers ≈ n-1 incoming pings with full broadcasts
    # ((n-1)² copies).  The n=7 cell validates the model empirically.
    mesh_per_proc = lambda n: (n - 1) + (n - 1) ** 2
    mesh_model_ok = (
        0.5 * mesh_per_proc(7)
        <= mesh_small["msgs_per_proc_round"]
        <= 1.5 * mesh_per_proc(7)
    )
    sparse_vs_mesh_pct = round(
        100.0 * ring_100["msgs_per_proc_round"] / mesh_per_proc(100), 2
    )
    summary = {
        "cells": len(rows),
        "all_ok": all(row["ok"] for row in rows),
        "false_suspicions_total": sum(row["false_suspicions"] for row in rows),
        "mesh_load_model_validated_at_n7": mesh_model_ok,
        "mesh_n7_msgs_per_proc_round": mesh_small["msgs_per_proc_round"],
        "ring_n7_msgs_per_proc_round": ring_small["msgs_per_proc_round"],
        "ring_n100_msgs_per_proc_round": ring_100["msgs_per_proc_round"],
        "ring_n1000_msgs_per_proc_round": ring_1000["msgs_per_proc_round"],
        "ring_n100_pct_of_mesh": sparse_vs_mesh_pct,
        "ring_load_flat_in_n": (
            ring_1000["msgs_per_proc_round"] <= 2.0 * ring_100["msgs_per_proc_round"]
        ),
        "sparse_within_10pct_of_mesh": sparse_vs_mesh_pct <= 10.0,
    }
    return [{column: row[column] for column in _COLUMNS} for row in rows], summary


run = Experiment("E12", DESCRIPTION, _COLUMNS, _work, _report)
