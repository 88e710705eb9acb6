"""Name → component registries for the runtime front door.

Experiments, examples, and the CLI resolve detectors, consensus algorithms,
detector-implementation programs, property checkers, and whole experiments by
name, so new scenarios are data instead of import plumbing.  Each registry is
a :class:`Registry` instance; registering a duplicate name raises unless
``overwrite=True``, so plugins cannot silently shadow the paper's components.

The consensus registry additionally stores each algorithm's *requirements* —
the paper's assumption table (which detector classes it queries, whether it
needs a majority of correct processes, and which homonymy extreme it is
specialised to).  The :class:`~repro.runtime.builder.ScenarioBuilder` enforces
these at build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from ..algorithms import (
    HeartbeatMonitorProgram,
    HSigmaSynchronousProgram,
    OhpPollingProgram,
    ScriptAliveProgram,
)
from ..consensus import FAMILY, ConsensusFactory
from ..detectors import CLASSES, DetectorRow, check_hb_detection, check_topo_detection
from ..errors import ConfigurationError
from ..membership import Membership
from ..reductions import REDUCTIONS, Reduction, ReductionProgram
from ..sim.links import (
    AsymmetricLinks,
    ComposedLinks,
    DuplicatingLinks,
    JitterLinks,
    LinkModel,
    LossyLinks,
    PartitionedLinks,
    ReliableLinks,
)

__all__ = [
    "Registry",
    "ConsensusEntry",
    "DETECTORS",
    "CONSENSUS",
    "PROGRAMS",
    "CHECKS",
    "EXPERIMENTS",
    "LINKS",
    "register_detector",
    "register_detector_class",
    "register_consensus",
    "register_program",
    "register_reduction",
    "register_check",
    "register_experiment",
    "register_link",
    "build_link_model",
]


class Registry:
    """A named component table with explicit registration and lookup."""

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._entries: dict[str, Any] = {}

    def register(self, name: str, entry: Any, *, overwrite: bool = False) -> Any:
        if not overwrite and name in self._entries:
            raise ConfigurationError(
                f"{self._kind} {name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        self._entries[name] = entry
        return entry

    def resolve(self, name: str) -> Any:
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(sorted(self._entries)) or "<none>"
            raise ConfigurationError(
                f"unknown {self._kind} {name!r}; registered: {known}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)


#: Detector oracles: name → ``(params) -> DetectorFactory``.
DETECTORS = Registry("detector")

#: Consensus algorithms: name → :class:`ConsensusEntry`.
CONSENSUS = Registry("consensus algorithm")

#: Detector-implementation programs: name → ``(params) -> ProcessProgram``.
PROGRAMS = Registry("program")

#: Trace property checkers: name → ``(trace, pattern) -> CheckResult``.
CHECKS = Registry("property check")

#: Whole experiments: id → :class:`~repro.experiments.base.Experiment`.
EXPERIMENTS = Registry("experiment")

#: Link models: name → ``(**params) -> LinkModel``.
LINKS = Registry("link model")


def register_detector(name: str, maker: Callable[..., Any], *, overwrite: bool = False):
    """Register a detector oracle class under ``name``.

    ``maker`` is called as ``maker(services, **params)`` when the run starts.
    """

    def factory_of(params: Mapping[str, Any]):
        fixed = dict(params)
        return lambda services: maker(services, **fixed)

    return DETECTORS.register(name, factory_of, overwrite=overwrite)


@dataclass(frozen=True)
class ConsensusEntry:
    """A consensus algorithm plus its paper assumptions.

    ``program(proposal, **params)`` instantiates the algorithm for one process.
    ``requires_detectors`` lists the detector attachments the algorithm
    queries; ``needs_majority`` encodes the ``t < n/2`` assumption (such an
    algorithm counts ``n − t`` messages, so it is also constructed with
    ``n=membership.size``); ``membership_constraint`` is ``None``,
    ``"unique"``, or ``"anonymous"``.
    """

    program: Callable[..., Any]
    requires_detectors: tuple[str, ...] = ()
    needs_majority: bool = False
    membership_constraint: str | None = None
    paper_item: str = ""

    def factory(self, membership: Membership, **params: Any) -> ConsensusFactory:
        """The picklable ``proposal -> program`` callable for one membership."""
        if self.needs_majority:
            return ConsensusFactory(self.program, n=membership.size, **params)
        return ConsensusFactory(self.program, **params)


def register_consensus(
    name: str, program: Callable[..., Any], *, overwrite: bool = False, **requirements: Any
) -> ConsensusEntry:
    """Register ``program`` (called as ``program(proposal, **params)``) under ``name``.

    ``requirements`` are :class:`ConsensusEntry`'s assumption fields; the
    builder enforces them for plugins exactly as for the built-in rows.
    """
    return CONSENSUS.register(name, ConsensusEntry(program, **requirements), overwrite=overwrite)


@dataclass(frozen=True)
class ProgramEntry:
    """A detector-implementation program plus its timing requirement.

    ``topology_aware`` marks programs that draw their probe/heartbeat targets
    from the scenario's monitoring topology (``topology`` and ``index`` are
    injected into their build parameters for sparse topologies); the builder
    rejects sparse topologies for every other program.
    """

    build: Callable[[Mapping[str, Any]], Any]
    requires_timing: str | None = None
    paper_item: str = ""
    topology_aware: bool = False

    def provides_detector(self, params: Mapping[str, Any]) -> str | None:
        """The detector name the program publishes (``detector_name`` param)."""
        return params.get("detector_name")


def register_program(
    name: str,
    build: Callable[[Mapping[str, Any]], Any],
    *,
    requires_timing: str | None = None,
    paper_item: str = "",
    topology_aware: bool = False,
    overwrite: bool = False,
) -> ProgramEntry:
    entry = ProgramEntry(
        build=build,
        requires_timing=requires_timing,
        paper_item=paper_item,
        topology_aware=topology_aware,
    )
    return PROGRAMS.register(name, entry, overwrite=overwrite)


def register_check(name: str, checker: Callable[..., Any], *, overwrite: bool = False):
    return CHECKS.register(name, checker, overwrite=overwrite)


def register_experiment(name: str, runner: Callable[..., Any], *, overwrite: bool = False):
    """Register an :class:`~repro.experiments.base.Experiment` under ``name``.

    The CLI and the verifier call it (``runner(quick=..., seed=..., engine=...)``);
    the fabric planner calls only ``runner.dispatch(recorder, quick, seed)``, so
    what it plans is the declared ``work`` and ``report`` never sees a planned row.
    """
    return EXPERIMENTS.register(name, runner, overwrite=overwrite)


def register_link(name: str, maker: Callable[..., LinkModel], *, overwrite: bool = False):
    """Register a link model under ``name``; ``maker`` is called as ``maker(**params)``."""
    return LINKS.register(name, maker, overwrite=overwrite)


def register_detector_class(row: DetectorRow, *, overwrite: bool = False) -> DetectorRow:
    """Register one row of the class table: its oracle as detector ``row.name``
    and its axioms as check ``row.check``."""
    register_detector(row.name, row.oracle, overwrite=overwrite)
    register_check(row.check, row.judge, overwrite=overwrite)
    return row


def register_reduction(row: Reduction) -> Reduction:
    """Register one row of the reduction table: the one program running it as
    program ``row.name``, and the row itself among the ``REDUCTIONS`` E3 runs."""
    register_program(
        row.name, lambda params: ReductionProgram(row, **params), paper_item=row.paper_item
    )
    REDUCTIONS[row.name] = row
    return row


def build_link_model(kind: str, params: Mapping[str, Any]) -> LinkModel:
    """Materialise a link model from its spec data (``kind`` + parameters)."""
    return LINKS.resolve(kind)(**dict(params))


# ----------------------------------------------------------------------
# Built-in link models (the network fault vocabulary)
# ----------------------------------------------------------------------
def _make_partitioned_links(*, partitions: Any = ()) -> PartitionedLinks:
    """Accept the JSON window shape ``[{"start":, "end":, "groups": [[...]]}]``."""
    return PartitionedLinks.from_windows(list(partitions))


def _make_composed_links(*, stages: Any = ()) -> ComposedLinks:
    """Accept nested specs: ``[{"kind": ..., "params": {...}}, ...]``."""
    return ComposedLinks(
        tuple(
            build_link_model(stage["kind"], stage.get("params", {})) for stage in stages
        )
    )


for _name, _maker in (
    ("reliable", ReliableLinks),
    ("lossy", LossyLinks),
    ("duplicating", DuplicatingLinks),
    ("jitter", JitterLinks),
    ("asymmetric", AsymmetricLinks),
    ("partitioned", _make_partitioned_links),
    ("compose", _make_composed_links),
):
    register_link(_name, _maker)


# ----------------------------------------------------------------------
# Built-in consensus algorithms (Section 5 plus baselines/ablations)
# ----------------------------------------------------------------------
# The rows of ``repro.consensus.family``; each row's requirements are derived
# from its leader and quorum rules, not restated here.
for _name, _row in FAMILY.items():
    register_consensus(_name, _row, **_row.requirements())


# ----------------------------------------------------------------------
# Built-in detector-implementation programs (Figures 3, 6, 7)
# ----------------------------------------------------------------------
register_program(
    "ohp_polling",
    lambda params: OhpPollingProgram(**params),
    requires_timing="partial_sync",
    paper_item="Figure 6 (◇HP/HΩ in HPS[∅])",
)
register_program(
    "hsigma_sync",
    lambda params: HSigmaSynchronousProgram(**params),
    requires_timing="synchronous",
    paper_item="Figure 7 (HΣ in HSS[∅])",
)
register_program(
    "script_alive",
    lambda params: ScriptAliveProgram(**params),
    paper_item="Figure 3 (ℰ)",
)
register_program(
    "heartbeat",
    lambda params: HeartbeatMonitorProgram(**params),
    paper_item="sim-vs-real validation workload (SNIPPETS.md Snippet 1)",
    topology_aware=True,
)


def _build_membership_program(params: Mapping[str, Any]):
    """Lazy import: the churn program is only needed for churn scenarios."""
    from ..algorithms.swim import ClusterMembershipProgram

    return ClusterMembershipProgram(**params)


register_program(
    "membership",
    _build_membership_program,
    paper_item="dynamic membership / churn workload (SNIPPETS.md Snippet 2 join)",
    topology_aware=True,
)


# ----------------------------------------------------------------------
# Built-in reductions (Figures 1, 2, 4; Theorem 3; Lemmas 2–3; Observation 1)
# ----------------------------------------------------------------------
# The rows of ``repro.reductions.table``, each under the name the row declares.
for _row in tuple(REDUCTIONS.values()):
    register_reduction(_row)


# ----------------------------------------------------------------------
# Built-in property checkers
# ----------------------------------------------------------------------
def _check_kv_linearizable(trace, pattern):
    """Certify a KV run's client history (lazy import: kv → runtime → here)."""
    from ..workloads.kv.linearizability import check_kv_linearizable

    return check_kv_linearizable(trace, pattern)


register_check("kv_linearizable", _check_kv_linearizable)


def _check_membership_churn(trace, pattern):
    """Judge a churn run's view convergence (lazy import)."""
    from ..workloads.churn import check_membership_churn

    return check_membership_churn(trace, pattern)


register_check("membership_churn", _check_membership_churn)

register_check("hb_detection", check_hb_detection)
register_check("topo_detection", check_topo_detection)


# ----------------------------------------------------------------------
# Built-in detector classes (the paper's Figure 5 node set)
# ----------------------------------------------------------------------
# The rows of ``repro.detectors.table``: each row's oracle and axioms, under
# the two names the row declares.
for _row in CLASSES.values():
    register_detector_class(_row)
