"""Declarative, serializable scenario descriptions.

A :class:`ScenarioSpec` is a complete run configuration expressed as plain
data: the membership shape, the timing model, the crash schedule (a kind of
:data:`~repro.workloads.crashes.CRASH_KINDS` and its parameters), the detector
stack, the workload (a consensus algorithm, a detector implementation, or both
stacked), property checks, the horizon, and the seed.  Because every part is
data — not callables — a spec can be serialized (``to_dict``/``from_dict``
round-trip exactly), shipped to a worker process by the
:class:`~repro.runtime.executors.WorkerPool`, stored in JSONL run logs, and
diffed between experiments.

Specs are usually built with the fluent
:func:`~repro.runtime.builder.scenario` builder, which also validates the
combination against the paper's requirement table.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Mapping

from ..errors import ConfigurationError
from ..membership import (
    Membership,
    anonymous_identities,
    grouped_identities,
    random_identities,
    unique_identities,
)
from ..sim.failures import CrashSchedule
from ..topology import MonitoringTopology, build_topology
from ..sim.timing import (
    AsynchronousTiming,
    PartiallySynchronousTiming,
    SynchronousTiming,
    TimingModel,
)
from ..workloads.crashes import CRASH_KINDS
from ..workloads.homonymy import membership_with_distinct_ids

__all__ = [
    "canonical_spec_hash",
    "MembershipSpec",
    "TimingSpec",
    "CrashSpec",
    "DetectorSpec",
    "KVSpec",
    "NetworkSpec",
    "TopologySpec",
    "ScenarioSpec",
    "full_mesh",
    "ring",
    "gossip",
    "asynchronous",
    "partial_sync",
    "synchronous",
    "no_crashes",
    "minority",
    "cascading",
    "leaders",
    "fraction",
    "crashes_at",
    "reliable",
    "lossy",
    "duplicating",
    "jittered",
    "asymmetric",
    "partitioned",
    "composed",
]


def _clean(params: Mapping[str, Any] | None) -> dict[str, Any]:
    """Copy a parameter mapping, dropping ``None`` values (the defaults)."""
    return {key: value for key, value in (params or {}).items() if value is not None}


def canonical_spec_hash(
    spec: "ScenarioSpec | Mapping[str, Any]", *, include_seed: bool = False
) -> str:
    """A stable content hash of a scenario, for digest-keyed run caching.

    The hash is SHA-256 over the spec's canonical JSON form (sorted keys), so
    two specs that serialize identically — however they were built — hash
    identically, and *any* edit to the scenario (membership, timing, crashes,
    network, detectors, workload, checks, horizon) changes the hash and
    invalidates cached runs.  The ``seed`` is excluded by default because the
    run cache keys on ``(spec hash, seed)`` — one hash addresses a whole
    repetition family; pass ``include_seed=True`` for a fully-closed key.
    """
    payload = dict(spec.to_dict() if isinstance(spec, ScenarioSpec) else spec)
    if not include_seed:
        payload.pop("seed", None)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _TaggedSection:
    """The rule shared by every ``kind``/``name`` + ``params`` section.

    A section is a frozen dataclass of a tag field (named by ``_TAG``) and a
    ``params`` mapping; it copies ``params`` on construction and round-trips
    as ``{tag: …, "params": {…}}``.  A payload without the tag falls back to
    the section's own default, if it declares one.
    """

    _TAG: ClassVar[str] = "kind"

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    def to_dict(self) -> dict:
        return {self._TAG: getattr(self, self._TAG), "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]):
        tag = {cls._TAG: payload[cls._TAG]} if cls._TAG in payload else {}
        return cls(**tag, params=payload.get("params", {}))


# ----------------------------------------------------------------------
# Membership
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MembershipSpec:
    """The homonymy pattern, as data.

    ``kind`` selects the generator:

    =================  ====================================================
    ``distinct_ids``   ``n`` processes over ``distinct`` identifiers
    ``groups``         explicit homonymy group sizes (``[3, 3, 2]``)
    ``unique``         classical system, all identifiers distinct
    ``anonymous``      every process shares one identifier
    ``random``         identifiers drawn from a bounded domain
    ``explicit``       a literal identifier list (``["A", "A", "B"]``)
    =================  ====================================================
    """

    kind: str
    n: int | None = None
    distinct: int | None = None
    groups: tuple[int, ...] | None = None
    identities: tuple[Any, ...] | None = None
    domain_size: int | None = None
    seed: int | None = None
    prefix: str | None = None

    def build(self) -> Membership:
        """Materialise the membership object."""
        prefix = {} if self.prefix is None else {"prefix": self.prefix}
        if self.kind == "distinct_ids":
            return membership_with_distinct_ids(self.n, self.distinct, **prefix)
        if self.kind == "groups":
            return grouped_identities(list(self.groups), **prefix)
        if self.kind == "unique":
            return unique_identities(self.n, **prefix)
        if self.kind == "anonymous":
            return anonymous_identities(self.n)
        if self.kind == "random":
            return random_identities(
                self.n, domain_size=self.domain_size, seed=self.seed or 0, **prefix
            )
        if self.kind == "explicit":
            return Membership.of(list(self.identities))
        raise ConfigurationError(f"unknown membership kind {self.kind!r}")

    @property
    def size(self) -> int:
        """The number of processes the spec describes."""
        if self.kind == "groups":
            return sum(self.groups)
        if self.kind == "explicit":
            return len(self.identities)
        if self.n is None:
            raise ConfigurationError(f"membership kind {self.kind!r} needs n")
        return self.n

    def to_dict(self) -> dict:
        payload: dict[str, Any] = {"kind": self.kind}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name != "kind" and value is not None:
                payload[spec_field.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MembershipSpec":
        data = dict(payload)
        for key in ("groups", "identities"):
            if data.get(key) is not None:
                data[key] = tuple(data[key])
        return cls(**data)


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
_TIMING_CLASSES: dict[str, type[TimingModel]] = {
    "asynchronous": AsynchronousTiming,
    "partial_sync": PartiallySynchronousTiming,
    "synchronous": SynchronousTiming,
}


@dataclass(frozen=True)
class TimingSpec(_TaggedSection):
    """A timing model as data: a kind plus its constructor parameters."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _TIMING_CLASSES:
            raise ConfigurationError(
                f"unknown timing kind {self.kind!r}; "
                f"expected one of {sorted(_TIMING_CLASSES)}"
            )
        super().__post_init__()

    def build(self) -> TimingModel:
        return _TIMING_CLASSES[self.kind](**self.params)


def asynchronous(*, min_latency: float = 0.1, max_latency: float = 2.0, **extra) -> TimingSpec:
    """Reliable asynchronous links (the consensus experiments' default)."""
    return TimingSpec(
        "asynchronous",
        {"min_latency": min_latency, "max_latency": max_latency, **_clean(extra)},
    )


def partial_sync(
    gst: float,
    delta: float,
    *,
    min_latency: float = 0.1,
    pre_gst_loss: float | None = None,
    pre_gst_max_latency: float | None = None,
    max_step: float | None = None,
) -> TimingSpec:
    """Partially synchronous processes, eventually timely links (HPS)."""
    return TimingSpec(
        "partial_sync",
        {
            "gst": gst,
            "delta": delta,
            "min_latency": min_latency,
            **_clean(
                {
                    "pre_gst_loss": pre_gst_loss,
                    "pre_gst_max_latency": pre_gst_max_latency,
                    "max_step": max_step,
                }
            ),
        },
    )


def synchronous(step: float = 1.0, *, delivery_fraction: float | None = None) -> TimingSpec:
    """Lock-step synchronous rounds (HSS)."""
    return TimingSpec(
        "synchronous",
        {"step": step, **_clean({"delivery_fraction": delivery_fraction})},
    )


# ----------------------------------------------------------------------
# Crashes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrashSpec(_TaggedSection):
    """A crash schedule as data, resolved against the membership at run time.

    ``kind`` names a row of :data:`~repro.workloads.crashes.CRASH_KINDS` and
    ``params`` are that resolver's keyword arguments.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in CRASH_KINDS:
            raise ConfigurationError(
                f"unknown crash kind {self.kind!r}; expected one of {sorted(CRASH_KINDS)}"
            )
        super().__post_init__()
        if self.kind == "at_times" and "times" in self.params:
            # JSON turns the integer process indices into strings; undo that.
            self.params["times"] = {
                int(index): when for index, when in self.params["times"].items()
            }

    def build(self, membership: Membership) -> CrashSchedule:
        return CRASH_KINDS[self.kind](membership, **self.params)


def no_crashes() -> CrashSpec:
    """No process ever crashes."""
    return CrashSpec("none")


def minority(
    *, at: float = 10.0, stagger: float = 2.0, count: int | None = None
) -> CrashSpec:
    """Crash a minority (the largest one unless ``count`` is given)."""
    return CrashSpec("minority", _clean({"at": at, "stagger": stagger, "count": count}))


def cascading(
    count: int,
    *,
    first_at: float = 5.0,
    interval: float = 10.0,
    partial_broadcast_fraction: float | None = None,
) -> CrashSpec:
    """Crash ``count`` processes one after another (capped at ``n − 1``)."""
    return CrashSpec(
        "cascading",
        {
            "count": count,
            "first_at": first_at,
            "interval": interval,
            **_clean({"partial_broadcast_fraction": partial_broadcast_fraction}),
        },
    )


def leaders(count: int | None = None, *, at: float = 10.0, stagger: float = 2.0) -> CrashSpec:
    """Crash the likely leaders (smallest identifiers) first."""
    return CrashSpec("leaders", _clean({"count": count, "at": at, "stagger": stagger}))


def fraction(value: float, *, at: float = 10.0, stagger: float = 2.0, seed: int = 0) -> CrashSpec:
    """Crash a random fraction of the processes."""
    return CrashSpec("fraction", {"fraction": value, "at": at, "stagger": stagger, "seed": seed})


def crashes_at(times: Mapping[int, float]) -> CrashSpec:
    """Crash explicit process indices at explicit times."""
    return CrashSpec("at_times", {"times": times})


# ----------------------------------------------------------------------
# Network (link models)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NetworkSpec(_TaggedSection):
    """A link model as data: a ``LINKS`` registry name plus its parameters.

    The default (``kind="reliable"``) reproduces the historical network: every
    copy delivered exactly once at the timing model's draw.  Other kinds add
    loss, duplication, jitter, per-direction latency penalties, or timed
    partitions — see the helper constructors below and the
    :data:`~repro.runtime.registry.LINKS` registry.
    """

    kind: str = "reliable"
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def is_reliable(self) -> bool:
        """Whether this is the default (identity) link model."""
        return self.kind == "reliable"

    def build(self):
        """Materialise the :class:`~repro.sim.links.LinkModel`."""
        from .registry import build_link_model  # deferred: registry is heavyweight

        return build_link_model(self.kind, self.params)


def reliable() -> NetworkSpec:
    """Every copy delivered exactly once at the timing model's draw (the default)."""
    return NetworkSpec("reliable")


def lossy(loss: float, *, start: float = 0.0, end: float | None = None) -> NetworkSpec:
    """Drop each copy with probability ``loss`` while ``start <= send < end``."""
    return NetworkSpec("lossy", {"loss": loss, **_clean({"start": start or None, "end": end})})


def duplicating(
    probability: float,
    *,
    copies: int = 2,
    spread: float = 0.0,
    start: float = 0.0,
    end: float | None = None,
) -> NetworkSpec:
    """Duplicate each copy with the given probability (``copies`` total arrivals)."""
    return NetworkSpec(
        "duplicating",
        {
            "probability": probability,
            "copies": copies,
            **_clean({"spread": spread or None, "start": start or None, "end": end}),
        },
    )


def jittered(max_jitter: float, *, start: float = 0.0, end: float | None = None) -> NetworkSpec:
    """Add ``uniform(0, max_jitter)`` to every copy's delivery time (reordering)."""
    return NetworkSpec(
        "jitter", {"max_jitter": max_jitter, **_clean({"start": start or None, "end": end})}
    )


def asymmetric(extra: Mapping[str, float], *, default: float = 0.0) -> NetworkSpec:
    """Per-direction latency penalties: ``{"0->1": 5.0}`` keyed by process indices."""
    return NetworkSpec("asymmetric", {"extra": dict(extra), "default": default})


def partitioned(*windows: Mapping[str, Any]) -> NetworkSpec:
    """Timed partitions with heal events.

    Each window is ``{"start": t0, "end": t1, "groups": [[0, 1], [2, 3, 4]]}``;
    ``end=None`` never heals.  Copies *sent* across a cut during its window
    are lost (copies already on the wire when the cut starts still arrive).
    """
    return NetworkSpec("partitioned", {"partitions": [dict(window) for window in windows]})


def composed(*stages: NetworkSpec) -> NetworkSpec:
    """Chain several link models; each stage transforms the previous output."""
    return NetworkSpec("compose", {"stages": [stage.to_dict() for stage in stages]})


# ----------------------------------------------------------------------
# Monitoring topology
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec(_TaggedSection):
    """The monitoring topology (who monitors whom), as data.

    The default (``kind="full_mesh"``) reproduces the historical implicit
    all-to-all monitoring; :meth:`ScenarioSpec.to_dict` omits the section
    entirely in that case so pre-topology canonical hashes (and hence run-cache
    keys) are preserved.  ``ring`` and ``gossip`` select the sparse O(n·k)
    designs in :mod:`repro.topology`; the builder only accepts them for
    programs that declare themselves topology-aware.
    """

    kind: str = "full_mesh"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        # Fail at construction, not at run time, on an unknown kind or bad
        # parameters (build_topology validates both).
        self.build()

    @property
    def is_full_mesh(self) -> bool:
        """Whether this is the default (historical all-to-all) topology."""
        return self.kind == "full_mesh"

    def build(self) -> MonitoringTopology:
        """Materialise the :class:`~repro.topology.MonitoringTopology`."""
        return build_topology(self.kind, self.params)


def full_mesh() -> TopologySpec:
    """Every process monitors every other process (the historical default)."""
    return TopologySpec("full_mesh")


def ring(successors: int = 3) -> TopologySpec:
    """Each process monitors its ``successors`` next peers in ring order."""
    return TopologySpec("ring", {"successors": successors})


def gossip(fanout: int = 3) -> TopologySpec:
    """Heartbeat counters diffused to ``fanout`` seeded-random peers per period."""
    return TopologySpec("gossip", {"fanout": fanout})


# ----------------------------------------------------------------------
# Detectors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DetectorSpec(_TaggedSection):
    """One detector attachment: a registry name plus oracle parameters."""

    _TAG = "name"

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# The replicated KV service workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KVSpec:
    """The replicated KV service workload, as data.

    The scenario's *membership* describes the replica group (homonymy and all);
    ``clients`` extra uniquely-named client processes are added by the KV
    runner.  ``consensus`` names the registry algorithm driving each log slot.
    ``loop`` selects closed- (``think_time``) or open-loop (``rate``) traffic,
    ``skew`` the key popularity (``uniform`` or ``zipf`` with exponent
    ``zipf_s``), and ``read_mode`` whether GETs are serialized through the log
    (linearizable) or answered from the local store (fast, possibly stale).
    """

    clients: int = 4
    ops_per_client: int = 6
    consensus: str = "homega_majority"
    consensus_params: Mapping[str, Any] = field(default_factory=dict)
    loop: str = "closed"
    think_time: float = 2.0
    rate: float = 0.5
    key_space: int = 8
    skew: str = "uniform"
    zipf_s: float = 1.2
    read_mode: str = "log"
    mix: Mapping[str, float] | None = None
    sync_period: float = 10.0
    max_slots: int = 4096

    def __post_init__(self) -> None:
        object.__setattr__(self, "consensus_params", dict(self.consensus_params))
        if self.mix is not None:
            object.__setattr__(self, "mix", dict(self.mix))
        if self.clients < 1:
            raise ConfigurationError("a KV workload needs at least one client")
        if self.ops_per_client < 0:
            raise ConfigurationError("ops_per_client must be non-negative")
        if self.loop not in ("closed", "open"):
            raise ConfigurationError(f"kv loop must be 'closed' or 'open', got {self.loop!r}")
        if self.skew not in ("uniform", "zipf"):
            raise ConfigurationError(f"kv skew must be 'uniform' or 'zipf', got {self.skew!r}")
        if self.read_mode not in ("log", "local"):
            raise ConfigurationError(
                f"kv read_mode must be 'log' or 'local', got {self.read_mode!r}"
            )

    def to_dict(self) -> dict:
        payload = {name: getattr(self, name) for name in _KV_FIELDS}
        payload["consensus_params"] = dict(self.consensus_params)
        if self.mix is not None:
            payload["mix"] = dict(self.mix)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "KVSpec":
        return cls(**{name: payload[name] for name in _KV_FIELDS if name in payload})


_KV_FIELDS = tuple(spec_field.name for spec_field in fields(KVSpec))


# ----------------------------------------------------------------------
# The full scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable run configuration (see the module docstring).

    ``consensus`` and ``program`` name registry entries
    (:mod:`repro.runtime.registry`); when both are set the program is stacked
    *under* the consensus algorithm on every process, which is how the E8
    oracle-free configuration is expressed.  ``checks`` names detector
    property checkers evaluated over the finished trace.

    ``network`` selects the link model (loss, duplication, jitter, partitions;
    default: reliable links).  ``adversarial=True`` acknowledges that the
    scenario runs *outside* the paper's guarantees (e.g. post-GST loss in an
    HPS system); the builder rejects such combinations without it.
    """

    membership: MembershipSpec
    timing: TimingSpec = field(default_factory=asynchronous)
    crashes: CrashSpec = field(default_factory=no_crashes)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    adversarial: bool = False
    detectors: tuple[DetectorSpec, ...] = ()
    consensus: str | None = None
    consensus_params: Mapping[str, Any] = field(default_factory=dict)
    program: str | None = None
    program_params: Mapping[str, Any] = field(default_factory=dict)
    checks: tuple[str, ...] = ()
    kv: KVSpec | None = None
    topology: TopologySpec = field(default_factory=TopologySpec)
    backend: str = "sim"
    backend_params: Mapping[str, Any] = field(default_factory=dict)
    horizon: float = 500.0
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "detectors", tuple(self.detectors))
        object.__setattr__(self, "checks", tuple(self.checks))
        object.__setattr__(self, "consensus_params", dict(self.consensus_params))
        object.__setattr__(self, "program_params", dict(self.program_params))
        object.__setattr__(self, "backend_params", dict(self.backend_params))
        if self.backend not in ("sim", "real"):
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected 'sim' or 'real'"
            )

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A copy of this spec with a different seed (for sweeps)."""
        return ScenarioSpec.from_dict({**self.to_dict(), "seed": seed})

    def canonical_hash(self, *, include_seed: bool = False) -> str:
        """This spec's content hash (see :func:`canonical_spec_hash`)."""
        return canonical_spec_hash(self, include_seed=include_seed)

    def to_dict(self) -> dict:
        payload = {
            "membership": self.membership.to_dict(),
            "timing": self.timing.to_dict(),
            "crashes": self.crashes.to_dict(),
            "network": self.network.to_dict(),
            "adversarial": self.adversarial,
            "detectors": [detector.to_dict() for detector in self.detectors],
            "consensus": self.consensus,
            "consensus_params": dict(self.consensus_params),
            "program": self.program,
            "program_params": dict(self.program_params),
            "checks": list(self.checks),
            "horizon": self.horizon,
            "seed": self.seed,
            "name": self.name,
        }
        for section in _OPTIONAL_SECTIONS:
            if any(getattr(self, name) != getattr(_BLANK, name) for name in section):
                for name, (dump, _) in section.items():
                    payload[name] = dump(getattr(self, name))
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        return cls(
            membership=MembershipSpec.from_dict(payload["membership"]),
            timing=TimingSpec.from_dict(payload.get("timing", {"kind": "asynchronous"})),
            crashes=CrashSpec.from_dict(payload.get("crashes", {"kind": "none"})),
            network=NetworkSpec.from_dict(payload.get("network", {"kind": "reliable"})),
            adversarial=bool(payload.get("adversarial", False)),
            detectors=tuple(
                DetectorSpec.from_dict(entry) for entry in payload.get("detectors", ())
            ),
            consensus=payload.get("consensus"),
            consensus_params=dict(payload.get("consensus_params", {})),
            program=payload.get("program"),
            program_params=dict(payload.get("program_params", {})),
            checks=tuple(payload.get("checks", ())),
            horizon=payload.get("horizon", 500.0),
            seed=payload.get("seed", 0),
            name=payload.get("name", ""),
            **{
                name: load(payload[name])
                for section in _OPTIONAL_SECTIONS
                for name, (_, load) in section.items()
                if payload.get(name) is not None
            },
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


#: The hash-neutral optional sections: ``ScenarioSpec`` fields added after
#: canonical hashes became run-cache keys.  Each row is a group of fields
#: (``name -> (dump, load)``) that serialize together; ``to_dict`` omits a
#: group whose fields all hold their dataclass defaults, so a spec that does
#: not use the section hashes exactly as it did before the section existed,
#: and ``from_dict`` leaves absent fields at those defaults.  A new optional
#: section is one more row.
_OPTIONAL_SECTIONS: tuple[dict[str, tuple[Callable, Callable]], ...] = (
    {"kv": (KVSpec.to_dict, KVSpec.from_dict)},
    {"backend": (str, str), "backend_params": (dict, dict)},
    {"topology": (TopologySpec.to_dict, TopologySpec.from_dict)},
)

#: Every optional section at its default, for ``to_dict`` to compare against.
_BLANK = ScenarioSpec(membership=MembershipSpec("unique", n=1))
