"""The table of failure-detector classes (the paper's Figure 5 node set).

The paper works with three families of classes — classical (unique
identifiers): ``P``, ``◇P̄``, ``Ω``, ``Σ`` and the auxiliary ``ℰ`` of
Definition 1; anonymous: ``AP``, ``AΩ``, ``AΣ``; homonymous (its contribution):
``◇HP``, ``HΩ``, ``HΣ`` — with unique-identifier and anonymous systems as the
two extremes of the homonymous case.  Each class is an output shape plus one
completeness-like and one accuracy-like property, and that is all a
:class:`DetectorRow` says: the variables a process may query and the view that
exposes them, what the ground-truth oracle answers (``eventual`` from the
stabilization time on, ``transient`` before), and the axioms any detector of
the class — oracle, reduction or message-passing implementation — is judged by.

:data:`CLASSES` is the only place a class is declared.  The registry names of
its oracle and of its check, its trace keys (``"<name>.<output>"``), its probes
and whether it takes a ``noise_period`` all follow from the row;
``repro.runtime.registry`` registers exactly these rows.
"""

from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Any, Callable, Mapping

from ..identity import IdentityMultiset, ProcessId
from ..sim.clock import Time
from ..sim.failures import FailurePattern
from ..sim.process import ProcessContext
from ..sim.system import DetectorServices
from ..sim.trace import RunTrace
from . import properties as axiom
from .base import OracleDetector, stable_draw
from .properties import CheckResult
from .views import (
    AOmegaView,
    APView,
    ASigmaView,
    DiamondHPView,
    DiamondPView,
    HOmegaView,
    HSigmaView,
    OmegaView,
    PerfectView,
    ScriptEView,
    SigmaView,
)

__all__ = ["CLASSES", "DetectorClass", "DetectorRow"]


class DetectorClass(enum.Enum):
    """Failure-detector classes appearing in the paper."""

    # Classical (unique identifiers).
    P = "P"
    DIAMOND_P = "◇P̄"           # the complement of ◇P: a set of *trusted* identifiers
    OMEGA = "Ω"
    SIGMA = "Σ"
    SCRIPT_E = "ℰ"              # Definition 1 (ranked alive list)
    # Anonymous.
    AP = "AP"
    A_OMEGA = "AΩ"
    A_SIGMA = "AΣ"
    # Homonymous (this paper).
    DIAMOND_HP = "◇HP"
    H_OMEGA = "HΩ"
    H_SIGMA = "HΣ"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class DetectorRow:
    """One failure-detector class.

    ``cls`` is the paper's symbol (a plain string for a class declared outside
    Figure 5); ``name`` and ``check`` are the registry names of the oracle and
    of the axioms.  ``outputs`` are the variables of the class, each a readable
    attribute of ``view`` (a view is built over one reader of the row's value;
    a class with two variables reads a pair).  ``eventual`` / ``transient``
    are what the oracle answers — see :class:`~repro.detectors.base.OracleDetector`
    for the three signatures — and ``axioms(trace, pattern, *keys)`` is what
    the class demands of a recorded trace, stated without reference to them.
    ``elects`` marks the classes with a leader output, whose oracles disagree
    per ``noise_period`` window before they stabilise.
    """

    cls: DetectorClass | str
    name: str
    check: str
    outputs: tuple[str, ...]
    view: type
    eventual: Callable[..., Any]
    transient: Callable[..., Any] | None
    axioms: Callable[..., CheckResult]
    elects: bool = False
    unique_ids_only: bool = False
    paper_item: str = ""

    @cached_property
    def windowed(self) -> bool:
        """Whether ``transient`` takes the noise window as a third parameter
        (any callable ``inspect.signature`` can read: a function, a
        ``functools.partial``, a callable object); decided once per row."""
        return (
            self.transient is not None
            and len(inspect.signature(self.transient).parameters) == 3
        )

    @property
    def keys(self) -> tuple[str, ...]:
        """The trace keys the class's outputs are recorded under, by anyone."""
        return tuple(f"{self.name}.{output}" for output in self.outputs)

    def key(self, output: str) -> str:
        """The trace key of one output (``ValueError`` if the class has no such)."""
        return self.keys[self.outputs.index(output)]

    def oracle(
        self,
        services: DetectorServices,
        *,
        stabilization_time: Time | None = None,
        noise_period: Time | None = None,
    ) -> OracleDetector:
        """The ground-truth detector of this class for one run."""
        return OracleDetector(
            self, services, stabilization_time=stabilization_time, noise_period=noise_period
        )

    def probes(self) -> dict[str, Callable[[ProcessContext], Any]]:
        """``DetectorProbeProgram`` probes recording every output of the
        attachment named ``name`` under its trace key."""
        name = self.name
        return {
            key: (lambda ctx, output=output: getattr(ctx.detector(name), output))
            for key, output in zip(self.keys, self.outputs)
        }

    def judge(self, trace: RunTrace, pattern: FailurePattern) -> CheckResult:
        """The class axioms applied to what ``trace`` holds under this row's keys."""
        return self.axioms(trace, pattern, *self.keys)


# ----------------------------------------------------------------------
# What the oracles answer.  ``run`` is the OracleDetector: ``run.membership``,
# ``run.pattern`` (the failure pattern F) and ``run.clock``.
# ----------------------------------------------------------------------
def _identities(run: OracleDetector, members) -> frozenset:
    identity_of = run.membership.identity_of
    return frozenset(identity_of(member) for member in members)


def _correct_identities(run: OracleDetector, process: ProcessId) -> frozenset:
    return _identities(run, run.pattern.correct)


def _alive_identities(run: OracleDetector, process: ProcessId) -> frozenset:
    # A superset of the correct identifiers: what a real eventually perfect
    # detector typically trusts while crashes are still being noticed.
    return _identities(run, run.pattern.alive_at(run.clock.now))


def _crashed_identities(run: OracleDetector, process: ProcessId, now: Time) -> frozenset:
    is_alive_at = run.pattern.is_alive_at
    return _identities(
        run, (other for other in run.membership.processes if not is_alive_at(other, now))
    )


def _every_identity(run: OracleDetector, process: ProcessId, window: int) -> frozenset:
    # The full membership intersects every quorum, the correct set included.
    return run.membership.distinct_identities


def _sorted_identities(run: OracleDetector) -> list:
    return sorted(run.membership.distinct_identities, key=repr)


def _least_correct_identity(run: OracleDetector, process: ProcessId) -> tuple:
    """The smallest identifier of ``I(Correct)`` (by representation, the
    deterministic choice Observation 1 makes) and its correct multiplicity."""
    correct = run.pattern.correct_identity_multiset()
    leader = min(correct.support(), key=repr)
    return leader, correct.multiplicity(leader)


def _some_identity(run: OracleDetector, process: ProcessId, window: int) -> tuple:
    # Any identifier of I(Π) with an arbitrary multiplicity: several
    # simultaneous self-styled leaders, which is what the Leaders'
    # Coordination Phase exists for.
    identities = _sorted_identities(run)
    draw = stable_draw(process.index, window, "hΩ")
    return identities[draw % len(identities)], 1 + (draw // 7) % run.membership.size


def _omega_leader(run: OracleDetector, process: ProcessId):
    return _least_correct_identity(run, process)[0]


def _omega_noise(run: OracleDetector, process: ProcessId, window: int):
    identities = _sorted_identities(run)
    return identities[stable_draw(process.index, window, "Ω") % len(identities)]


def _is_least_correct_process(run: OracleDetector, process: ProcessId) -> bool:
    # A choice no anonymous algorithm could make: AΩ is not realistic, which
    # is precisely why it has to be an oracle.
    return process == min(run.pattern.correct)


def _coin(run: OracleDetector, process: ProcessId, window: int) -> bool:
    return bool(stable_draw(process.index, window, "aΩ") % 2)


def _ranked(run: OracleDetector, order: Callable[[ProcessId], Any]) -> tuple:
    identity_of = run.membership.identity_of
    return tuple(identity_of(other) for other in sorted(run.membership.processes, key=order))


def _correct_first(run: OracleDetector, process: ProcessId) -> tuple:
    is_correct = run.pattern.is_correct
    return _ranked(run, lambda other: (not is_correct(other), other.index))


def _shuffled(run: OracleDetector, process: ProcessId, window: int) -> tuple:
    return _ranked(run, lambda other: stable_draw(process.index, window, other.index))


def _alive_count(run: OracleDetector, process: ProcessId, now: Time) -> int:
    # Exactly the processes alive now: never below itself (safety), and
    # |Correct| once the last faulty process has crashed (liveness).
    return len(run.pattern.alive_at(now))


def _correct_multiset(run: OracleDetector, process: ProcessId) -> IdentityMultiset:
    return run.pattern.correct_identity_multiset()


def _alive_multiset(run: OracleDetector, process: ProcessId) -> IdentityMultiset:
    return run.membership.identity_multiset(sorted(run.pattern.alive_at(run.clock.now)))


# The Σ-like oracles know two labels.  Every process always participates in
# ``all``, whose quorum is the whole of Π and so intersects everything; from
# the stabilization time on the correct processes also participate in
# ``correct``, whose only realising quorum is the correct set itself (the
# liveness-providing pair).  Knowing Π is what an algorithm without membership
# knowledge cannot do — as oracles they are allowed to.
def _labels(sigma: str) -> tuple[str, str]:
    return f"{sigma}:all", f"{sigma}:correct"


_A_ALL, _A_CORRECT = _labels("aΣ")
_H_ALL, _H_CORRECT = _labels("hΣ")


def _asigma_everyone(run: OracleDetector, process: ProcessId, window: int) -> frozenset:
    return frozenset({(_A_ALL, run.membership.size)})


def _asigma_settled(run: OracleDetector, process: ProcessId) -> frozenset:
    pairs = _asigma_everyone(run, process, 0)
    if run.pattern.is_correct(process):
        pairs |= {(_A_CORRECT, len(run.pattern.correct))}
    return pairs


def _hsigma_everyone(run: OracleDetector, process: ProcessId, window: int) -> tuple:
    return frozenset({(_H_ALL, run.membership.identity_multiset())}), frozenset({_H_ALL})


def _hsigma_settled(run: OracleDetector, process: ProcessId) -> tuple:
    quora, labels = _hsigma_everyone(run, process, 0)
    if run.pattern.is_correct(process):
        labels |= {_H_CORRECT}
    return quora | {(_H_CORRECT, run.pattern.correct_identity_multiset())}, labels


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
_C = DetectorClass

CLASSES: Mapping[str, DetectorRow] = {
    row.name: row
    for row in (
        DetectorRow(
            _C.P, "Perfect", "perfect", ("suspected",), PerfectView,
            eventual=_crashed_identities,
            transient=None,
            axioms=axiom.conjunction(
                partial(axiom.always, complaints=axiom.suspects_no_live_process),
                partial(axiom.finally_each, complaints=axiom.suspects_every_faulty_process),
            ),
            unique_ids_only=True,
            paper_item="Chandra & Toueg 1996 (strongest baseline; no algorithm of the paper uses it)",
        ),
        DetectorRow(
            _C.DIAMOND_P, "DiamondP", "diamond_p", ("trusted",), DiamondPView,
            eventual=_correct_identities,
            transient=_alive_identities,
            axioms=partial(axiom.finally_each, complaints=axiom.equals_correct_identifiers),
            unique_ids_only=True,
            paper_item="complement of ◇P (Chandra & Toueg 1996)",
        ),
        DetectorRow(
            _C.OMEGA, "Omega", "omega", ("leader",), OmegaView,
            eventual=_omega_leader,
            transient=_omega_noise,
            axioms=axiom.election,
            elects=True,
            unique_ids_only=True,
            paper_item="Chandra, Hadzilacos & Toueg 1996",
        ),
        DetectorRow(
            _C.SIGMA, "Sigma", "sigma", ("trusted",), SigmaView,
            eventual=_correct_identities,
            transient=_every_identity,
            axioms=axiom.conjunction(
                partial(axiom.finally_each, complaints=axiom.within_correct_identifiers),
                axiom.pairwise_intersecting,
            ),
            unique_ids_only=True,
            paper_item="Delporte-Gallet, Fauconnier & Guerraoui 2010",
        ),
        DetectorRow(
            _C.SCRIPT_E, "ScriptE", "script_e", ("alive",), ScriptEView,
            eventual=_correct_first,
            transient=_shuffled,
            axioms=partial(axiom.finally_each, complaints=axiom.ranks_correct_first),
            unique_ids_only=True,
            paper_item="Definition 1 (implemented by Figure 3, used by Figure 4)",
        ),
        DetectorRow(
            _C.AP, "AP", "ap", ("anap",), APView,
            eventual=_alive_count,
            transient=None,
            axioms=axiom.conjunction(
                partial(axiom.always, complaints=axiom.bounds_alive_count),
                partial(axiom.finally_each, complaints=axiom.equals_correct_count),
            ),
            paper_item="Bonnet & Raynal 2011",
        ),
        DetectorRow(
            _C.A_OMEGA, "AOmega", "aomega", ("a_leader",), AOmegaView,
            eventual=_is_least_correct_process,
            transient=_coin,
            axioms=partial(axiom.election, flag=True),
            elects=True,
            paper_item="Bonnet & Raynal 2013 (not realistic)",
        ),
        DetectorRow(
            _C.A_SIGMA, "ASigma", "asigma", ("a_sigma",), ASigmaView,
            eventual=_asigma_settled,
            transient=_asigma_everyone,
            axioms=partial(axiom.labelled_quora, sizes=axiom.COUNTS),
            paper_item="Bonnet & Raynal 2013",
        ),
        DetectorRow(
            _C.DIAMOND_HP, "DiamondHP", "diamond_hp", ("h_trusted",), DiamondHPView,
            eventual=_correct_multiset,
            transient=_alive_multiset,
            axioms=partial(axiom.finally_each, complaints=axiom.equals_correct_multiset),
            paper_item="Section 3.2 (implemented by Figure 6)",
        ),
        DetectorRow(
            _C.H_OMEGA, "HOmega", "homega", ("h_leader", "h_multiplicity"), HOmegaView,
            eventual=_least_correct_identity,
            transient=_some_identity,
            axioms=axiom.election,
            elects=True,
            paper_item="Section 3.2 (implemented by Figure 6 + Observation 1)",
        ),
        DetectorRow(
            _C.H_SIGMA, "HSigma", "hsigma", ("h_quora", "h_labels"), HSigmaView,
            eventual=_hsigma_settled,
            transient=_hsigma_everyone,
            axioms=partial(axiom.labelled_quora, sizes=axiom.MULTISETS),
            paper_item="Section 3.2 (implemented by Figure 7)",
        ),
    )
}
