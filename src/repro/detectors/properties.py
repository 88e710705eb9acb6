"""The axioms of the failure-detector classes, one function per output shape.

Detectors — oracles, reductions and message-passing implementations alike —
record their output variables into the run trace under the trace keys of their
class's row (:mod:`repro.detectors.table`).  The functions here take such a
trace, the run's failure pattern and those keys, and decide whether the
recorded behaviour satisfies the defining properties of the class:

* :func:`finally_each` — every correct process's final value is right
  (◇HP, ◇P̄, ℰ; the liveness halves of AP and Σ; P's strong completeness);
* :func:`election` — the correct processes finally agree on one leader
  (Ω, HΩ, AΩ);
* :func:`labelled_quora` — validity, monotonicity, liveness and safety of
  labelled quorums whose size is a count (AΣ) or an identifier multiset (HΣ);
* :func:`always` and :func:`pairwise_intersecting` — the perpetual clauses
  (AP safety, P's strong accuracy, Σ intersection);
* :func:`conjunction` — a class with a perpetual and an eventual clause.

A row binds the class-specific parts (``functools.partial``) and is judged by
``row.judge(trace, pattern)``.  Nothing here reads an oracle's ``eventual``:
the same axioms judge Figures 3, 6, 7 and the reductions, so what a class
demands is stated here independently of how the oracle meets it.

"Eventual" properties are judged against the *final* recorded value of every
correct process (the run must have been long enough for the algorithm to
settle); perpetual properties (safety, validity, monotonicity) are judged
against every recorded snapshot of every process, faulty ones included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from ..identity import IdentityMultiset, ProcessId
from ..sim.clock import Time
from ..sim.failures import FailurePattern
from ..sim.trace import RunTrace

__all__ = [
    "COUNTS",
    "MULTISETS",
    "CheckResult",
    "QuorumSizes",
    "always",
    "bounds_alive_count",
    "conjunction",
    "election",
    "equals_correct_count",
    "equals_correct_identifiers",
    "equals_correct_multiset",
    "finally_each",
    "labelled_quora",
    "pairwise_intersecting",
    "ranks_correct_first",
    "suspects_every_faulty_process",
    "suspects_no_live_process",
    "within_correct_identifiers",
]


@dataclass(frozen=True)
class CheckResult:
    """The verdict of one property check."""

    ok: bool
    violations: tuple[str, ...] = ()
    stabilization_time: Time | None = None
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def from_violations(
        cls,
        violations: Iterable[str],
        *,
        stabilization_time: Time | None = None,
        details: dict | None = None,
    ) -> "CheckResult":
        violations = tuple(violations)
        return cls(
            ok=not violations,
            violations=violations,
            stabilization_time=stabilization_time,
            details=details or {},
        )


#: What a class has to say about one value: ``(pattern) -> (value, ...) -> complaints``.
#: The outer call resolves what the run fixes (``Correct``, ``I(Correct)``) once.
Clause = Callable[[FailurePattern], Callable[..., Iterable[str]]]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _final_values(
    trace: RunTrace,
    pattern: FailurePattern,
    key: str,
    violations: list[str],
) -> dict[ProcessId, Any]:
    """Final recorded value of ``key`` for every correct process."""
    finals: dict[ProcessId, Any] = {}
    for process in sorted(pattern.correct):
        records = trace.records_of(process, key)
        if not records:
            violations.append(f"correct process {process!r} never recorded {key!r}")
            continue
        finals[process] = records[-1].value
    return finals


def _stabilization_time(trace: RunTrace, pattern: FailurePattern, *keys: str) -> Time | None:
    """Earliest time from which every correct process holds its final value of every key."""
    times: list[Time] = []
    for key in keys:
        for process in pattern.correct:
            records = trace.records_of(process, key)
            if not records:
                return None
            final = records[-1].value
            stable = trace.first_time_value_holds(process, key, lambda value: value == final)
            if stable is None:
                return None
            times.append(stable)
    return max(times) if times else None


def _snapshots(
    trace: RunTrace, pattern: FailurePattern, key: str
) -> dict[ProcessId, list[tuple[Time, frozenset]]]:
    """Every recorded set-valued snapshot of ``key``, per process that has any."""
    series: dict[ProcessId, list[tuple[Time, frozenset]]] = {}
    for process in pattern.membership.processes:
        records = trace.records_of(process, key)
        if records:
            series[process] = [(record.time, frozenset(record.value)) for record in records]
    return series


# ----------------------------------------------------------------------
# Eventual clauses
# ----------------------------------------------------------------------
def finally_each(
    trace: RunTrace, pattern: FailurePattern, key: str, *, complaints: Clause
) -> CheckResult:
    """Every correct process's final ``key`` draws no complaint from the class."""
    violations: list[str] = []
    wrong_with = complaints(pattern)
    for process, value in _final_values(trace, pattern, key, violations).items():
        violations.extend(f"{process!r}{complaint}" for complaint in wrong_with(value))
    return CheckResult.from_violations(
        violations, stabilization_time=_stabilization_time(trace, pattern, key)
    )


def election(
    trace: RunTrace,
    pattern: FailurePattern,
    leader_key: str,
    multiplicity_key: str | None = None,
    *,
    flag: bool = False,
) -> CheckResult:
    """Eventually one leader, permanently, at every correct process.

    The leader output names an identifier of ``I(Correct)`` on which all
    correct processes agree (Ω); with a ``multiplicity_key`` each of them also
    reports ``mult_{I(Correct)}(leader)`` (HΩ, Section 3.2).  With ``flag`` the
    output is a boolean and exactly one correct process holds ``True`` (AΩ).
    """
    violations: list[str] = []
    leaders = _final_values(trace, pattern, leader_key, violations)
    multiplicities: dict[ProcessId, Any] = {}
    keys = (leader_key,)
    if multiplicity_key is not None:
        multiplicities = _final_values(trace, pattern, multiplicity_key, violations)
        keys = (leader_key, multiplicity_key)
    if leaders and flag:
        elected = sum(1 for value in leaders.values() if value)
        if elected != 1:
            violations.append(
                f"expected exactly one correct process with a true flag, found {elected}"
            )
    elif leaders:
        distinct = set(leaders.values())
        correct_ids = pattern.correct_identity_multiset()
        if len(distinct) > 1:
            violations.append(
                f"correct processes disagree on the leader: {sorted(map(repr, distinct))}"
            )
        else:
            (leader,) = distinct
            if leader not in correct_ids:
                violations.append(
                    f"the elected identifier {leader!r} "
                    + (
                        "is not a correct process's identifier"
                        if multiplicity_key is None
                        else "does not belong to any correct process"
                    )
                )
            expected = correct_ids.multiplicity(leader)
            for process, multiplicity in multiplicities.items():
                if multiplicity != expected:
                    violations.append(
                        f"{process!r} reports multiplicity {multiplicity} for {leader!r}, "
                        f"expected {expected}"
                    )
    return CheckResult.from_violations(
        violations, stabilization_time=_stabilization_time(trace, pattern, *keys)
    )


# ----------------------------------------------------------------------
# Perpetual clauses
# ----------------------------------------------------------------------
def always(
    trace: RunTrace, pattern: FailurePattern, key: str, *, complaints: Clause
) -> CheckResult:
    """No snapshot of ``key``, at any process, draws a complaint for its instant."""
    violations: list[str] = []
    wrong_with = complaints(pattern)
    for process in pattern.membership.processes:
        for record in trace.records_of(process, key):
            violations.extend(
                f"{process!r}{complaint}" for complaint in wrong_with(record.value, record.time)
            )
    return CheckResult.from_violations(violations)


def pairwise_intersecting(trace: RunTrace, pattern: FailurePattern, key: str) -> CheckResult:
    """Every two quorums ever output under ``key`` — by anyone, at any time — intersect."""
    quorums = [
        (process, time, quorum)
        for process, series in _snapshots(trace, pattern, key).items()
        for time, quorum in series
    ]
    violations = [
        f"quorums {sorted(map(repr, quorum_a))} (at {process_a!r}, t={time_a}) and "
        f"{sorted(map(repr, quorum_b))} (at {process_b!r}, t={time_b}) do not intersect"
        for index, (process_a, time_a, quorum_a) in enumerate(quorums)
        for process_b, time_b, quorum_b in quorums[index:]
        if not quorum_a & quorum_b
    ]
    return CheckResult.from_violations(violations)


def conjunction(*clauses: Callable[..., CheckResult]) -> Callable[..., CheckResult]:
    """All of ``clauses`` over the same keys: violations in clause order, and the
    stabilization time of the (one) eventual clause among them."""

    def judge(trace: RunTrace, pattern: FailurePattern, *keys: str) -> CheckResult:
        results = [clause(trace, pattern, *keys) for clause in clauses]
        return CheckResult.from_violations(
            [violation for result in results for violation in result.violations],
            stabilization_time=next(
                (r.stabilization_time for r in results if r.stabilization_time is not None), None
            ),
        )

    return judge


# ----------------------------------------------------------------------
# What each class says about one value (the ``complaints`` of the clauses above)
# ----------------------------------------------------------------------
def _identifiers(pattern: FailurePattern, processes: Iterable[ProcessId]) -> frozenset:
    identity_of = pattern.membership.identity_of
    return frozenset(identity_of(process) for process in processes)


def equals_correct_multiset(pattern: FailurePattern):
    """◇HP liveness: finally ``h_trusted = I(Correct)``."""
    expected = pattern.correct_identity_multiset()

    def complaints(value):
        if not isinstance(value, IdentityMultiset):
            yield f" recorded a non-multiset value {value!r}"
        elif value != expected:
            yield (
                f" converged to {sorted(map(repr, value))}, "
                f"expected I(Correct) = {sorted(map(repr, expected))}"
            )

    return complaints


def equals_correct_identifiers(pattern: FailurePattern):
    """◇P̄ liveness: finally ``trusted`` equals the correct identifiers."""
    expected = _identifiers(pattern, pattern.correct)

    def complaints(value):
        if frozenset(value) != expected:
            yield (
                f" converged to {sorted(map(repr, value))}, "
                f"expected {sorted(map(repr, expected))}"
            )

    return complaints


def within_correct_identifiers(pattern: FailurePattern):
    """Σ liveness: finally only correct identifiers."""
    correct = _identifiers(pattern, pattern.correct)

    def complaints(value):
        if not frozenset(value) <= correct:
            yield (
                f" finally trusts {sorted(map(repr, value))}, "
                "which is not a subset of the correct identifiers"
            )

    return complaints


def ranks_correct_first(pattern: FailurePattern):
    """ℰ: finally the correct identifiers occupy the first ``|Correct|`` ranks."""
    correct_count = len(pattern.correct)
    identity_of = pattern.membership.identity_of
    correct = [identity_of(process) for process in sorted(pattern.correct)]

    def complaints(value):
        sequence = tuple(value)
        for identity in correct:
            if identity not in sequence or sequence.index(identity) + 1 > correct_count:
                yield (
                    f": correct identifier {identity!r} does not end up within "
                    f"the first {correct_count} ranks of {sequence!r}"
                )

    return complaints


def equals_correct_count(pattern: FailurePattern):
    """AP liveness: finally ``anap = |Correct|``."""
    expected = len(pattern.correct)

    def complaints(value):
        if value != expected:
            yield f" converged to {value}, expected |Correct| = {expected}"

    return complaints


def bounds_alive_count(pattern: FailurePattern):
    """AP safety: ``anap`` is never below the number of alive processes."""

    def complaints(value, time):
        alive = len(pattern.alive_at(time))
        if value < alive:
            yield (
                f" output {value} at t={time} while "
                f"{alive} processes were alive (safety violation)"
            )

    return complaints


def suspects_no_live_process(pattern: FailurePattern):
    """P's strong accuracy: no process is suspected before it crashes."""

    def complaints(value, time):
        alive = frozenset(value) & _identifiers(pattern, pattern.alive_at(time))
        if alive:
            yield (
                f" suspected {sorted(map(repr, alive))} at t={time}, "
                "before they crashed (strong accuracy violation)"
            )

    return complaints


def suspects_every_faulty_process(pattern: FailurePattern):
    """P's strong completeness: finally every faulty process is suspected."""
    faulty = _identifiers(pattern, pattern.faulty)

    def complaints(value):
        if not faulty <= frozenset(value):
            yield (
                f" finally suspects {sorted(map(repr, value))}, which misses faulty "
                f"{sorted(map(repr, faulty - frozenset(value)))} (strong completeness violation)"
            )

    return complaints


# ----------------------------------------------------------------------
# Labelled quora — AΣ's (label, size) and HΣ's (label, identifier multiset)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QuorumSizes:
    """What the second component of a labelled quorum pair is.

    ``demand(size)`` is how many processes of each *kind* a quorum of that size
    takes (``None`` for an ill-typed size), and ``kind(pattern)`` maps a
    process to its kind: every process is of the one kind when sizes are
    counts, and of its identifier's kind when they are identifier multisets —
    the anonymous and the homonymous reading of the same four properties.
    The remaining fields word the violations.
    """

    demand: Callable[[Any], Mapping[Any, int] | None]
    kind: Callable[[FailurePattern], Callable[[ProcessId], Any]]
    pairs: str
    dropped: str
    grew: str
    live: str


COUNTS = QuorumSizes(
    demand=lambda size: {None: size} if isinstance(size, int) else None,
    kind=lambda pattern: lambda process: None,
    pairs="pairs",
    dropped="dropped or grew the quorum of",
    grew="dropped or grew the quorum of",
    live="(x, y) with at least y correct holders of x",
)
MULTISETS = QuorumSizes(
    demand=lambda size: size.counts if isinstance(size, IdentityMultiset) else None,
    kind=lambda pattern: pattern.membership.identity_of,
    pairs="quorum pairs",
    dropped="dropped the quorum pair of",
    grew="grew the quorum multiset of",
    live="(x, m) with m ⊆ I(S(x) ∩ Correct)",
)


def _supply(kind_of: Callable[[ProcessId], Any], processes: Iterable[ProcessId]) -> dict[Any, int]:
    """How many of ``processes`` there are of each kind."""
    supply: dict[Any, int] = {}
    for process in processes:
        kind = kind_of(process)
        supply[kind] = supply.get(kind, 0) + 1
    return supply


def _within(demand: Mapping[Any, int] | None, supply: Mapping[Any, int] | None) -> bool:
    """``demand ≤ supply`` kind by kind (``y' ≤ y`` for counts, ``m' ⊆ m`` for multisets)."""
    if demand is None or supply is None:
        return False
    return all(count <= supply.get(kind, 0) for kind, count in demand.items())


def _disjoint_quora_exist(
    kind_of: Callable[[ProcessId], Any],
    holders_a: set[ProcessId],
    demand_a: Mapping[Any, int],
    holders_b: set[ProcessId],
    demand_b: Mapping[Any, int],
) -> bool:
    """Decide whether disjoint ``Q1 ⊆ holders_a`` meeting ``demand_a`` and
    ``Q2 ⊆ holders_b`` meeting ``demand_b`` exist.

    Processes of different kinds never compete for the same slot, so
    feasibility decomposes per kind: writing ``a``/``b``/``c`` for the holders
    of one kind exclusive to ``holders_a``, exclusive to ``holders_b``, and
    shared, disjoint quorums exist iff for every kind ``q1 ≤ a + c``,
    ``q2 ≤ b + c`` and ``q1 + q2 ≤ a + b + c``.
    """
    only_a = _supply(kind_of, holders_a - holders_b)
    only_b = _supply(kind_of, holders_b - holders_a)
    shared = _supply(kind_of, holders_a & holders_b)
    for kind in demand_a.keys() | demand_b.keys():
        need_a, need_b = demand_a.get(kind, 0), demand_b.get(kind, 0)
        a, b, c = only_a.get(kind, 0), only_b.get(kind, 0), shared.get(kind, 0)
        if need_a > a + c or need_b > b + c or need_a + need_b > a + b + c:
            return False
    return True


def labelled_quora(
    trace: RunTrace,
    pattern: FailurePattern,
    pairs_key: str,
    labels_key: str | None = None,
    *,
    sizes: QuorumSizes,
) -> CheckResult:
    """Check the four properties of a Σ-like class with labelled quorums.

    ``pairs_key`` holds sets of ``(label, size)``.  ``S(x)``, the processes
    participating in label ``x``, is read from ``labels_key`` (HΣ's
    ``h_labels``, which may only grow) or, without one, is whoever ever held a
    pair labelled ``x`` (AΣ).
    """
    violations: list[str] = []
    demand, kind_of = sizes.demand, sizes.kind(pattern)
    pair_series = _snapshots(trace, pattern, pairs_key)

    # Validity: no snapshot holds two pairs with the same label.
    for process, series in pair_series.items():
        for time, pairs in series:
            labels = [label for label, _ in pairs]
            if len(labels) != len(set(labels)):
                violations.append(
                    f"{process!r} held two {sizes.pairs} with the same label at t={time}"
                )

    # Monotonicity (1): the labels a process participates in never shrink.
    label_series = pair_series
    if labels_key is not None:
        label_series = _snapshots(trace, pattern, labels_key)
        for process, series in label_series.items():
            for (_, current), (_, following) in zip(series, series[1:]):
                if not current <= following:
                    violations.append(
                        f"{process!r} removed labels from h_labels (monotonicity violation)"
                    )

    # Monotonicity (2): once (x, s) is held, later snapshots keep some (x, s' ≤ s).
    for process, series in pair_series.items():
        for (_, current), (_, following) in zip(series, series[1:]):
            for label, size in current:
                successors = [demand(s) for l, s in following if l == label]
                if not successors or None in successors:
                    violations.append(
                        f"{process!r} {sizes.dropped} label {label!r} (monotonicity violation)"
                    )
                elif not any(_within(successor, demand(size)) for successor in successors):
                    violations.append(
                        f"{process!r} {sizes.grew} label {label!r} (monotonicity violation)"
                    )

    # S(x): processes that ever carry label x.
    holders: dict[Any, set[ProcessId]] = {}
    for process, series in label_series.items():
        for _, entries in series:
            for entry in entries:
                label = entry if labels_key is not None else entry[0]
                holders.setdefault(label, set()).add(process)

    # Liveness: each correct process finally holds a pair that the correct
    # holders of its label can realise.
    for process, pairs in _final_values(trace, pattern, pairs_key, violations).items():
        if not any(
            _within(demand(size), _supply(kind_of, holders.get(label, set()) & pattern.correct))
            for label, size in pairs
        ):
            violations.append(
                f"{process!r} never finally holds a pair {sizes.live} (liveness violation)"
            )

    # Safety: no two pairs ever output admit disjoint realising quorums.
    seen = sorted(
        {pair for series in pair_series.values() for _, pairs in series for pair in pairs},
        key=repr,
    )
    for index, (label_a, size_a) in enumerate(seen):
        for label_b, size_b in seen[index:]:
            if _disjoint_quora_exist(
                kind_of,
                holders.get(label_a, set()),
                demand(size_a),
                holders.get(label_b, set()),
                demand(size_b),
            ):
                violations.append(
                    f"pairs ({label_a!r}, {size_a!r}) and ({label_b!r}, {size_b!r}) "
                    "admit disjoint quorums (safety violation)"
                )
    return CheckResult.from_violations(violations)
