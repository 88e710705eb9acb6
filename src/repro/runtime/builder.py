"""Fluent construction of :class:`ScenarioSpec` objects, and the requirement
table every spec is checked against.

The builder is the ergonomic way to author scenarios::

    spec = (
        scenario("figure9-demo")
        .processes(8)
        .homonyms([3, 3, 2])
        .timing(partial_sync(gst=30.0, delta=1.0))
        .crashes(cascading(5))
        .detectors("HOmega", "HSigma", stabilization=20.0)
        .consensus("homega_hsigma")
        .horizon(700.0)
        .seed(7)
        .build()
    )

``build()`` only resolves the membership.  The requirement table below
(:func:`validate_spec`) is run by :class:`ScenarioSpec`'s constructor, so a
spec read from JSON, re-seeded or ``replace``-d meets it like a built one:

* the horizon is a positive finite time;
* every detector class the chosen consensus algorithm queries must be
  attached — either as an oracle or published by a stacked implementation
  program (the E8 configuration);
* majority-based algorithms (Figure 8 and its baselines) reject crash
  schedules that can kill ``⌈n/2⌉`` or more processes (``t < n/2``);
* HΣ-based algorithms (Figure 9) accept any number of crashes;
* algorithms specialised to a homonymy extreme (the classical Ω and anonymous
  AΩ baselines) require the matching membership;
* implementation programs run in their system family only (Figure 6 needs
  partial synchrony, Figure 7 needs synchrony), and consensus algorithms are
  asynchronous-family programs, never synchronous ones;
* the network model must respect the declared family's link assumptions —
  HSS tolerates no link faults at all, HPS tolerates loss only before GST
  (eventually timely links), and HAS requires adversity that eventually
  heals; a consensus or KV spec tolerates no duplication in any family,
  because counting messages is how Figures 8 and 9 keep agreement; scenarios
  that deliberately step outside the guarantees (fault-envelope sweeps) must
  say so with ``.adversarial()``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping, Sequence

from ..consensus import CONSENSUS_CHECKS
from ..detectors import CLASSES
from ..errors import ConfigurationError
from .registry import CHECKS, CONSENSUS, PROGRAMS
from .spec import (
    CrashSpec,
    DetectorSpec,
    KVSpec,
    MembershipSpec,
    NetworkSpec,
    RealBackend,
    ScenarioSpec,
    TimingSpec,
    TopologySpec,
)

__all__ = ["scenario", "ScenarioBuilder", "ScenarioValidationError"]


class ScenarioValidationError(ConfigurationError):
    """A scenario combination contradicts the paper's requirement table."""


class ScenarioBuilder:
    """Accumulates scenario parts; ``build()`` freezes them into a spec."""

    def __init__(self, name: str = "") -> None:
        self._name = name
        self._n: int | None = None
        # Shapes that need n are kept symbolic until build(), so the call
        # order of processes() and the shape method does not matter.
        self._shape: str | None = None
        self._shape_params: dict[str, Any] = {}
        self._membership: MembershipSpec | None = None
        #: The ``ScenarioSpec`` fields set so far; the rest take its defaults.
        self._fields: dict[str, Any] = {}

    def _set(self, **fields: Any) -> "ScenarioBuilder":
        self._fields.update(fields)
        return self

    # -- membership ----------------------------------------------------
    def processes(self, n: int) -> "ScenarioBuilder":
        """Declare the system size ``n`` (combined with a shape method)."""
        self._n = n
        return self

    def homonyms(self, groups: Sequence[int]) -> "ScenarioBuilder":
        """Homonymy groups by size: ``[3, 3, 2]`` = 8 processes, 3 ids."""
        return self.membership(MembershipSpec("groups", groups=tuple(groups)))

    def distinct_ids(self, distinct: int) -> "ScenarioBuilder":
        """``n`` processes spread evenly over ``distinct`` identifiers."""
        return self._set_shape("distinct_ids", distinct=distinct)

    def unique_ids(self) -> "ScenarioBuilder":
        """All identifiers distinct (classical AS extreme)."""
        return self._set_shape("unique")

    def anonymous(self) -> "ScenarioBuilder":
        """One shared identifier (anonymous AAS extreme)."""
        return self._set_shape("anonymous")

    def identities(self, identities: Sequence[Any]) -> "ScenarioBuilder":
        """An explicit identifier list, e.g. ``["A", "A", "B"]``."""
        return self.membership(MembershipSpec("explicit", identities=tuple(identities)))

    def membership(self, spec: MembershipSpec) -> "ScenarioBuilder":
        """Use a pre-built membership spec."""
        self._membership = spec
        self._shape = None
        self._shape_params = {}
        return self

    def _set_shape(self, kind: str, **params: Any) -> "ScenarioBuilder":
        self._shape = kind
        self._shape_params = params
        self._membership = None
        return self

    # -- environment ---------------------------------------------------
    def timing(self, spec: TimingSpec) -> "ScenarioBuilder":
        """Set the timing model (see :func:`asynchronous`/:func:`partial_sync`/
        :func:`synchronous` in :mod:`repro.runtime.spec`)."""
        return self._set(timing=spec)

    def crashes(self, spec: CrashSpec) -> "ScenarioBuilder":
        """Set the crash schedule (see the crash helpers in the spec module)."""
        return self._set(crashes=spec)

    def network(self, spec: NetworkSpec) -> "ScenarioBuilder":
        """Set the link model (see :func:`lossy`/:func:`partitioned`/
        :func:`composed` and friends in :mod:`repro.runtime.spec`)."""
        return self._set(network=spec)

    def adversarial(self, value: bool = True) -> "ScenarioBuilder":
        """Acknowledge that the scenario runs outside the paper's guarantees.

        Required for network models that violate the declared system family's
        link assumptions (e.g. post-GST loss under HPS, never-healing loss
        under HAS): the run is still meaningful — that is what the E9
        fault-envelope sweep measures — but none of the paper's termination
        claims apply to it.
        """
        return self._set(adversarial=value)

    # -- detectors and workload ----------------------------------------
    def detectors(
        self,
        *detectors: str | DetectorSpec,
        stabilization: float | None = None,
        noise_period: float | None = 5.0,
        history: Mapping[Any, Any] | None = None,
    ) -> "ScenarioBuilder":
        """Attach detector oracles by name (or pre-built specs).

        ``stabilization`` and ``history`` (what each process is told before
        stabilization, ``{"<process index>": [[t, value], ...]}``; see
        :meth:`~repro.detectors.table.DetectorRow.oracle`) apply to every
        named detector; ``noise_period`` only to the leader-electing ones
        (Ω, AΩ, HΩ).
        """
        attached = list(self._fields.get("detectors", ()))
        for detector in detectors:
            if isinstance(detector, DetectorSpec):
                attached.append(detector)
                continue
            params: dict[str, Any] = {}
            if stabilization is not None:
                params["stabilization_time"] = stabilization
            if noise_period is not None and detector in CLASSES and CLASSES[detector].elects:
                params["noise_period"] = noise_period
            if history is not None:
                # As JSON has it (string keys, lists), so a spec equals its round trip.
                params["history"] = json.loads(json.dumps(history))
            attached.append(DetectorSpec(detector, params))
        return self._set(detectors=attached)

    def consensus(self, name: str, **params: Any) -> "ScenarioBuilder":
        """Select the consensus algorithm by registry name."""
        return self._set(consensus=name, consensus_params=params)

    def program(self, name: str, **params: Any) -> "ScenarioBuilder":
        """Select a detector-implementation program by registry name.

        Combined with :meth:`consensus`, the program is stacked underneath
        the consensus algorithm on every process (the E8 configuration).
        """
        return self._set(program=name, program_params=params)

    def kv(self, spec: KVSpec | None = None, **options: Any) -> "ScenarioBuilder":
        """Run the replicated KV service workload on this system.

        The scenario's membership describes the *replica group*; the KV runner
        adds the client processes.  Pass a pre-built :class:`KVSpec` or its
        keyword options (``clients``, ``ops_per_client``, ``consensus``,
        ``skew``, ``read_mode``, …).
        """
        if spec is not None and options:
            raise ScenarioValidationError(
                "pass either a pre-built KVSpec or keyword options, not both"
            )
        return self._set(kv=spec if spec is not None else KVSpec(**options))

    def topology(self, spec: TopologySpec | str, **params: Any) -> "ScenarioBuilder":
        """Set the monitoring topology: who monitors whom.

        Pass a pre-built :class:`TopologySpec` (see :func:`full_mesh`,
        :func:`ring`, :func:`gossip` in :mod:`repro.runtime.spec`) or a kind
        name plus its parameters (``.topology("ring", successors=3)``).  The
        default is the historical full mesh; sparse topologies are only valid
        for programs that declare themselves topology-aware.
        """
        if isinstance(spec, TopologySpec):
            if params:
                raise ScenarioValidationError(
                    "pass either a pre-built TopologySpec or a kind name with "
                    "keyword parameters, not both"
                )
            return self._set(topology=spec)
        return self._set(topology=TopologySpec(spec, params))

    def check(self, *names: str) -> "ScenarioBuilder":
        """Evaluate detector property checkers over the finished trace."""
        return self._set(checks=(*self._fields.get("checks", ()), *names))

    def backend(self, name: str, **params: Any) -> "ScenarioBuilder":
        """Select the execution backend: ``"sim"`` (default) or ``"real"``.

        ``"real"`` executes the scenario as N OS processes exchanging frames
        over TCP (:mod:`repro.transport`); ``params`` are the keywords of
        :class:`~repro.runtime.spec.RealBackend`.  ``"sim"`` takes none.
        """
        return self._set(backend=name, backend_params=params)

    # -- run control ---------------------------------------------------
    def horizon(self, horizon: float) -> "ScenarioBuilder":
        """Simulated-time bound for the run."""
        return self._set(horizon=horizon)

    def seed(self, seed: int) -> "ScenarioBuilder":
        """Root seed for every RNG stream of the run."""
        return self._set(seed=seed)

    # -- build ---------------------------------------------------------
    def build(self) -> ScenarioSpec:
        """Resolve the membership and return the frozen (validated) spec."""
        if self._shape is not None:
            if self._n is None:
                raise ScenarioValidationError(
                    f"{self._shape} membership shapes need the system size: "
                    "call processes(n) as well"
                )
            membership_spec = MembershipSpec(self._shape, n=self._n, **self._shape_params)
        elif self._membership is not None:
            membership_spec = self._membership
            if self._n is not None and membership_spec.size != self._n:
                raise ScenarioValidationError(
                    f"processes({self._n}) contradicts the membership shape "
                    f"({membership_spec.size} processes)"
                )
        else:
            if self._n is None:
                raise ScenarioValidationError(
                    "a scenario needs a membership: call processes(n) plus a "
                    "shape method (homonyms/distinct_ids/unique_ids/anonymous)"
                )
            membership_spec = MembershipSpec("unique", n=self._n)

        return ScenarioSpec(membership=membership_spec, name=self._name, **self._fields)


def scenario(name: str = "") -> ScenarioBuilder:
    """Start a fluent scenario description (the library's front door)."""
    return ScenarioBuilder(name)


def _network_envelope_violation(spec: ScenarioSpec) -> str | None:
    """Why the network model breaks the declared family's link assumptions.

    Returns ``None`` when the combination is inside the paper's envelope:

    * consensus and KV specs assume links that never duplicate, in every
      family: Figures 8 and 9 count messages, and two copies from one sender
      look like two homonymous senders, so duplication voids agreement, not
      only termination;
    * ``HSS`` (synchronous) assumes every copy arrives inside its synchronous
      step — no loss, duplication, or extra delay of any kind;
    * ``HPS`` (partially synchronous) assumes *eventually timely* links —
      loss must stop by GST (extra finite delay is fine, because the paper's
      δ is unknown to the algorithms anyway);
    * ``HAS`` (asynchronous) assumes reliable links — adversity that never
      heals voids the termination guarantees.
    """
    if spec.network.is_reliable:
        return None
    model = spec.network.build()
    if model.duplicates() and (spec.consensus is not None or spec.kv is not None):
        return (
            "consensus counts messages over reliable links, but the network model "
            f"({model.describe()}) duplicates copies, and a copy from one sender "
            "counts as a homonym's: agreement itself is at stake"
        )
    faults_until = model.unreliable_until()
    extra_delay = model.extra_delay_bound()
    if spec.timing.kind == "synchronous":
        if faults_until > 0 or extra_delay > 0:
            return (
                "an HSS system assumes reliable in-step delivery, but the "
                f"network model ({model.describe()}) can lose, duplicate, or "
                "delay copies"
            )
    elif spec.timing.kind == "partial_sync":
        gst = spec.timing.params.get("gst", 50.0)
        if faults_until > gst:
            until = "forever" if math.isinf(faults_until) else f"until t={faults_until}"
            return (
                "HPS guarantees assume eventually timely links (loss must stop "
                f"by GST={gst}), but the network model ({model.describe()}) "
                f"stays adversarial {until} — that is post-GST loss"
            )
    else:
        if math.isinf(faults_until):
            return (
                "HAS guarantees assume reliable links, but the network model "
                f"({model.describe()}) can lose or duplicate copies forever"
            )
    return None


def validate_spec(spec: ScenarioSpec) -> None:
    """Check a spec against the paper's requirement table (raises on error)."""
    if not (math.isfinite(spec.horizon) and spec.horizon > 0):
        raise ScenarioValidationError(
            f"the horizon must be a positive finite time, got {spec.horizon!r}"
        )
    if spec.consensus is None and spec.program is None and spec.kv is None:
        raise ScenarioValidationError(
            "a scenario needs a workload: pick a consensus algorithm, a "
            "detector-implementation program, a KV service (.kv()), or a "
            "stacked combination"
        )

    if not spec.topology.is_full_mesh:
        _validate_sparse_topology(spec)

    violation = _network_envelope_violation(spec)
    if violation is not None and not spec.adversarial:
        raise ScenarioValidationError(
            f"{violation}; the paper's guarantees do not cover this run — "
            "acknowledge it with .adversarial() to execute anyway"
        )

    if spec.backend == "real":
        _validate_real_backend(spec)

    spec.timing.build()  # a timing model validates its own parameters
    membership = spec.membership.build()
    # Building the schedule is what validates it — and counts its victims.
    worst_faulty = len(spec.crashes.build(membership).faulty)

    provided = {detector.name for detector in spec.detectors}
    if spec.program is not None:
        program_entry = PROGRAMS.resolve(spec.program)
        # Build it once, as the engine would, so its own value checks refuse here.
        injected = {} if spec.topology.is_full_mesh else {
            "topology": spec.topology.build(), "index": 0,
            "peers": tuple(range(membership.size)), "views": {},
        }
        try:
            program_entry.build(**spec.program_params, **injected)
        except ValueError as error:
            raise ScenarioValidationError(f"program {spec.program!r}: {error}") from None
        published = program_entry.provides_detector(spec.program_params)
        if published:
            provided.add(published)
        if (
            program_entry.requires_timing is not None
            and spec.timing.kind != program_entry.requires_timing
        ):
            raise ScenarioValidationError(
                f"program {spec.program!r} ({program_entry.paper_item}) requires "
                f"{program_entry.requires_timing!r} timing, got {spec.timing.kind!r}"
            )

    for check in spec.checks:
        CHECKS.resolve(check)
        if check in CONSENSUS_CHECKS and spec.consensus is None:
            raise ScenarioValidationError(
                f"check {check!r} judges a consensus run's decisions, and this "
                "scenario runs no consensus algorithm: name one with .consensus(...)"
            )

    if spec.kv is not None:
        if spec.consensus is not None or spec.program is not None:
            raise ScenarioValidationError(
                "the KV workload owns the whole system: drop .consensus()/"
                ".program() and name the replication algorithm in the kv "
                "section (kv(consensus=...)) instead"
            )
        _validate_kv(spec, membership, worst_faulty, provided)
        return

    if spec.consensus is None:
        return

    if spec.timing.kind == "synchronous":
        raise ScenarioValidationError(
            "the consensus algorithms are asynchronous-family programs; "
            "a synchronous (HSS) timing model cannot drive them"
        )
    _check_requirements(
        f"consensus {spec.consensus!r}", spec.consensus, membership, worst_faulty, provided
    )


def _check_requirements(subject: str, name: str, membership, worst_faulty: int, provided) -> None:
    """Algorithm ``name``'s line of the paper's assumption table, against ``membership``.

    ``subject`` is the phrase the message opens with (``consensus 'x'`` /
    ``KV replication via 'x'``).
    """
    entry = CONSENSUS.resolve(name)
    n = membership.size
    missing = [detector for detector in entry.requires_detectors if detector not in provided]
    if missing:
        raise ScenarioValidationError(
            f"{subject} ({entry.paper_item}) queries "
            f"{', '.join(entry.requires_detectors)} but "
            f"{', '.join(missing)} is not attached (and no stacked program "
            "publishes it)"
        )
    if entry.needs_majority and 2 * worst_faulty >= n:
        raise ScenarioValidationError(
            f"{subject} ({entry.paper_item}) assumes a "
            f"majority of correct processes (t < n/2), but the crash schedule "
            f"can kill {worst_faulty} of {n}; use an HΣ-based algorithm "
            "(e.g. 'homega_hsigma') for any-failures runs"
        )
    if entry.membership_constraint == "unique" and not membership.is_uniquely_identified:
        raise ScenarioValidationError(
            f"{subject} is only defined for unique "
            "identifiers; the membership has homonyms"
        )
    if entry.membership_constraint == "anonymous" and not membership.is_anonymous:
        raise ScenarioValidationError(
            f"{subject} is only defined for anonymous "
            "systems; the membership has distinct identifiers"
        )


def _validate_sparse_topology(spec: ScenarioSpec) -> None:
    """What a sparse (non-full-mesh) monitoring topology can drive.

    Topologies reshape *monitoring traffic*: which peers a program pings and
    who hears its heartbeats.  Only programs that declare themselves
    topology-aware draw targets from the topology — the paper-figure
    algorithms (Figures 3–9) are specified as broadcast protocols whose
    correctness arguments count replies from the full membership, so thinning
    their traffic would change the algorithm, not the topology.  Consensus
    and the KV workload are likewise full-membership protocols.
    """
    topo = spec.topology.build()
    if spec.program is None:
        raise ScenarioValidationError(
            f"a {topo.describe()} topology reshapes monitoring traffic, so the "
            "scenario needs a monitoring program: pick a topology-aware one "
            "with .program(...) (e.g. 'heartbeat' or 'membership')"
        )
    program_entry = PROGRAMS.resolve(spec.program)
    if not program_entry.topology_aware:
        raise ScenarioValidationError(
            f"program {spec.program!r} ({program_entry.paper_item}) is a "
            "broadcast protocol whose correctness argument needs the full "
            f"membership; it cannot run under a {topo.describe()} topology"
        )
    if spec.consensus is not None or spec.kv is not None:
        raise ScenarioValidationError(
            "consensus and KV workloads are full-membership protocols; a "
            f"{topo.describe()} topology only applies to monitoring programs — "
            "drop .consensus()/.kv() or use the default full mesh"
        )


def _validate_real_backend(spec: ScenarioSpec) -> None:
    """What the asyncio/TCP backend can and cannot execute.

    The real backend runs *message-passing programs* — code that lives
    entirely behind the context protocol — and judges them with the spec's
    registered checks, like a simulated run (the node logs load into a
    ``RunTrace``).  Oracle detectors read the global failure pattern
    (omniscience no real process has), the consensus and KV workloads
    materialise their system inside the simulator, and synchronous rounds
    don't exist on a real network; all of those stay sim-only and are
    rejected here with an explanation rather than failing at run time inside
    a subprocess.  A ``.network(...)`` link model is not among them: each
    node applies it to its TCP links, under the same envelope check as a
    simulated run.
    """
    RealBackend(**spec.backend_params)  # checks its values
    if spec.program is None:
        raise ScenarioValidationError(
            "the real backend runs message-passing programs: pick one with "
            ".program(...) (e.g. 'heartbeat'); oracle-backed consensus and "
            "the KV workload are sim-only"
        )
    if spec.consensus is not None or spec.kv is not None:
        raise ScenarioValidationError(
            "the real backend cannot run consensus or KV workloads yet: "
            "their detector oracles and metrics read the simulator's global "
            "failure pattern and trace; drop .consensus()/.kv() or use "
            'backend="sim"'
        )
    if spec.detectors:
        raise ScenarioValidationError(
            "detector oracles are omniscient (they read the failure "
            "pattern) and cannot exist on the real backend; use an "
            "implementation program instead"
        )
    if spec.timing.kind == "synchronous":
        raise ScenarioValidationError(
            "a real network has no synchronous rounds; HSS scenarios are "
            "sim-only"
        )
    if not spec.topology.is_full_mesh:
        raise ScenarioValidationError(
            "sparse monitoring topologies (ring/gossip) are sim-only for "
            "now: the real backend meshes every node pair at startup — use "
            'the default full mesh with backend="real"'
        )


def _validate_kv(spec: ScenarioSpec, membership, worst_faulty: int, provided) -> None:
    """The KV section's slice of the requirement table.

    The scenario's membership and crash schedule describe the *replica
    group* — the KV runner adds client processes on top — so the majority
    and homonymy constraints of the chosen replication algorithm are judged
    against the replicas, exactly as for a bare consensus scenario.
    """
    if spec.timing.kind == "synchronous":
        raise ScenarioValidationError(
            "the KV service replicates through asynchronous-family consensus "
            "algorithms; a synchronous (HSS) timing model cannot drive it"
        )
    _check_requirements(
        f"KV replication via {spec.kv.consensus!r}", spec.kv.consensus, membership,
        worst_faulty, provided,
    )
