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

Every way of making a spec — the fluent :func:`~repro.runtime.builder.scenario`
builder, ``from_dict``, ``with_seed``, ``dataclasses.replace`` — runs its
constructor, and the constructor checks the combination against the paper's
requirement table (:func:`~repro.runtime.builder.validate_spec`), so a spec that exists
is one the paper's results cover (or one marked ``adversarial``).  Before that, every
``name``/``kind`` + ``params`` pair binds its params to what the name picks
(:func:`_bind_params`), so no parameter is misspelt, mistyped or silently ignored.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from collections.abc import Callable, Mapping
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import lru_cache
from types import UnionType
from typing import Any, ClassVar, Literal, Union, get_args, get_origin, get_type_hints

from ..detectors.base import check_oracle_times
from ..errors import ConfigurationError
from ..membership import (
    Membership,
    anonymous_identities,
    grouped_identities,
    random_identities,
    unique_identities,
)
from ..topology import TOPOLOGIES
from ..sim.timing import (
    AsynchronousTiming,
    PartiallySynchronousTiming,
    SynchronousTiming,
    TimingModel,
)
from ..workloads.crashes import CRASH_KINDS
from ..workloads.homonymy import membership_with_distinct_ids
from .registry import CONSENSUS, DETECTORS, LINKS, PROGRAMS

__all__ = [
    "canonical_spec_hash",
    "MembershipSpec",
    "TimingSpec",
    "CrashSpec",
    "DetectorSpec",
    "KVSpec",
    "NetworkSpec",
    "TopologySpec",
    "RealBackend",
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


class _SpecPart:
    """What every part of a spec shares, the spec itself included.

    A part's fields hold their annotated types, checked when it is made (a
    list given for a tuple field becomes a tuple, a mapping a fresh dict).
    ``to_dict`` writes the fields as JSON has them, and ``from_dict`` reads
    exactly the part's fields, a nested part by its own ``from_dict``: an
    unknown or missing key raises :class:`ConfigurationError` where it is
    read, and an absent one takes the dataclass default.
    """

    def __post_init__(self) -> None:
        wrong = []
        for name, (accepts, freeze, _) in _layout(type(self)).items():
            value = getattr(self, name)
            if not accepts(value):
                wrong.append(f"{name}={value!r}")
            elif freeze is not None and value is not None:
                object.__setattr__(self, name, freeze(value))
        if wrong:
            raise ConfigurationError(
                f"{type(self).__name__} fields of a wrong type: {', '.join(wrong)}"
            )

    def to_dict(self) -> dict:
        return {name: _dump(getattr(self, name)) for name in _layout(type(self))}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]):
        if not isinstance(payload, Mapping):
            raise ConfigurationError(f"a {cls.__name__} is a mapping, got {payload!r}")
        _binding(f"a {cls.__name__}", cls, 0, frozenset(payload), frozenset())
        layout = _layout(cls)
        return cls(**{name: layout[name][2](value) for name, value in payload.items()})


def _dump(value: Any) -> Any:
    """A field value as JSON has it."""
    if isinstance(value, _SpecPart):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_dump(item) for item in value]
    return dict(value) if isinstance(value, Mapping) else value


@lru_cache(maxsize=None)
def _accepts(hint: Any) -> Callable[[Any], bool]:
    """Whether a value is of the annotated type ``hint``, as far as a plain
    ``isinstance`` can tell (a ``bool`` is no number; ``Any`` holds anything)."""
    origin, options = get_origin(hint), get_args(hint)
    if origin is Literal:
        return lambda value: value in options
    if origin in (Union, UnionType):
        # Most values are of a plain option's exact type: one set lookup.
        exact = {option for option in options if isinstance(option, type)}
        checks = [_accepts(option) for option in options]
        return lambda value: type(value) in exact or any(check(value) for check in checks)
    if origin is tuple:
        item = _accepts(options[0])
        return lambda value: isinstance(value, (tuple, list)) and all(map(item, value))
    if hint in (int, float):
        numbers = (int, float) if hint is float else int
        return lambda value: isinstance(value, numbers) and not isinstance(value, bool)
    kind = origin or hint
    if kind is Any or not isinstance(kind, type):
        return lambda value: True
    return lambda value: isinstance(value, kind)


@lru_cache(maxsize=None)
def _layout(cls: type) -> dict[str, tuple[Callable, Callable | None, Callable]]:
    """Per dataclass field of ``cls``: its type check, how its value is frozen
    (a list into a tuple, a mapping into a fresh dict), and how ``from_dict``
    reads it (a nested part by its own ``from_dict``; a null stays null)."""
    hints, layout = get_type_hints(cls), {}
    for spec_field in fields(cls):
        hint = hints[spec_field.name]
        options = (hint, *get_args(hint))
        containers = {get_origin(option) for option in options}
        freeze = tuple if tuple in containers else dict if Mapping in containers else None
        part = next((o for o in options if isinstance(o, type) and issubclass(o, _SpecPart)), None)
        if part is None:
            load = lambda value: value
        elif tuple in containers:
            load = lambda items, part=part: (
                [part.from_dict(item) for item in items] if isinstance(items, list) else items
            )
        else:
            load = lambda value, part=part: value if value is None else part.from_dict(value)
        layout[spec_field.name] = (_accepts(hint), freeze, load)
    return layout


@lru_cache(maxsize=None)
def _binding(
    what: str, maker: Callable[..., Any], leading: int, names: frozenset, injected: frozenset
) -> tuple[list[str], dict[str, Callable[[Any], bool]]]:
    """The names ``maker`` takes after ``leading`` positional arguments and
    besides the ``injected`` ones its caller passes, and the type check of each
    of ``names``; a :class:`ConfigurationError` if ``names`` do not bind."""
    signature = inspect.signature(maker, eval_str=True)
    parameters = signature.parameters
    accepted = [name for name in list(parameters)[leading:] if name not in injected]
    try:
        if names & injected:
            raise TypeError(f"{sorted(names & injected)} are passed by the engine")
        signature.bind(*(None,) * leading, **dict.fromkeys(names | (injected & parameters.keys())))
    except TypeError as error:
        raise ConfigurationError(
            f"{what} takes {accepted}, got {sorted(map(str, names))}: {error}"
        ) from None
    return accepted, {
        name: _accepts(parameters[name].annotation if name in parameters else Any)
        for name in names
    }


def _bind_params(what: str, maker: Callable, params: Mapping, leading=0, injected=frozenset()):
    """The one rule of every ``name``/``kind`` + ``params`` pair: ``params``
    bind to ``maker``'s keywords after ``leading`` positional arguments, name
    none of the ``injected`` ones the engine passes, and hold the types
    ``maker`` annotates; else a :class:`ConfigurationError` naming ``what``
    and the accepted names."""
    accepted, types = _binding(what, maker, leading, frozenset(params), injected)
    wrong = [f"{key}={value!r}" for key, value in params.items() if not types[key](value)]
    if wrong:
        raise ConfigurationError(
            f"{what} parameters of a wrong type: {', '.join(wrong)}; it takes {accepted}"
        )


class _TaggedSection(_SpecPart):
    """The rule shared by every ``kind``/``name`` + ``params`` section.

    A section is a frozen dataclass of a tag field (named by ``_TAG``) and a
    ``params`` mapping.  The tag names a row of the section's table
    (``_KINDS``: what each kind builds), and ``params`` must bind to
    that row's signature after its ``_LEADING`` positional arguments (the
    membership a crash resolver takes, the services a detector oracle takes)
    and hold the types it annotates, so a misspelt kind or parameter fails
    where the section is made.
    """

    _TAG: ClassVar[str] = "kind"
    #: What each kind builds.
    _KINDS: ClassVar[Mapping[str, Callable[..., Any]]]
    #: What the section is called in its error messages.
    _SECTION: ClassVar[str]
    _LEADING: ClassVar[int] = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        tag = getattr(self, self._TAG)
        if tag not in self._KINDS:
            raise ConfigurationError(
                f"unknown {self._SECTION} {self._TAG} {tag!r}; "
                f"expected one of {sorted(self._KINDS)}"
            )
        _bind_params(f"{self._SECTION} {tag!r}", self._KINDS[tag], self.params, self._LEADING)

    def build(self, *leading: Any) -> Any:
        """What the section's kind makes of its ``params`` (after the
        ``_LEADING`` arguments: a crash schedule takes the membership, a
        detector oracle the run's services)."""
        return self._KINDS[getattr(self, self._TAG)](*leading, **self.params)


# ----------------------------------------------------------------------
# Membership
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MembershipSpec(_SpecPart):
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

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in _MEMBERSHIP_NEEDS:
            raise ConfigurationError(
                f"unknown membership kind {self.kind!r}; expected one of {list(_MEMBERSHIP_NEEDS)}"
            )
        missing = [name for name in _MEMBERSHIP_NEEDS[self.kind] if getattr(self, name) is None]
        if missing:
            raise ConfigurationError(f"membership kind {self.kind!r} needs {missing}")

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
        return Membership.of(list(self.identities))  # "explicit"

    @property
    def size(self) -> int:
        """The number of processes the spec describes."""
        if self.kind == "groups":
            return sum(self.groups)
        if self.kind == "explicit":
            return len(self.identities)
        return self.n

    def to_dict(self) -> dict:
        return {name: value for name, value in super().to_dict().items() if value is not None}


#: The fields each membership kind needs.
_MEMBERSHIP_NEEDS: dict[str, tuple[str, ...]] = {
    "distinct_ids": ("n", "distinct"),
    "groups": ("groups",),
    "unique": ("n",),
    "anonymous": ("n",),
    "random": ("n", "domain_size"),
    "explicit": ("identities",),
}


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

    _KINDS = _TIMING_CLASSES
    _SECTION = "timing"

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)



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

    _KINDS = CRASH_KINDS
    _SECTION = "crash"
    _LEADING = 1  # the membership

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)


    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind == "at_times" and "times" in self.params:
            # JSON turns the integer process indices into strings; undo that.
            self.params["times"] = {
                int(index): when for index, when in self.params["times"].items()
            }


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

    _KINDS = LINKS
    _SECTION = "link model"

    kind: str = "reliable"
    params: Mapping[str, Any] = field(default_factory=dict)


    @property
    def is_reliable(self) -> bool:
        """Whether this is the default (identity) link model."""
        return self.kind == "reliable"


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
    designs in :mod:`repro.topology`; a spec accepts them only for
    programs that declare themselves topology-aware.
    """

    _KINDS = TOPOLOGIES
    _SECTION = "monitoring topology"

    kind: str = "full_mesh"
    params: Mapping[str, Any] = field(default_factory=dict)


    def __post_init__(self) -> None:
        super().__post_init__()
        self.build()  # a topology needs no n, so its values are checked here too

    @property
    def is_full_mesh(self) -> bool:
        """Whether this is the default (historical all-to-all) topology."""
        return self.kind == "full_mesh"


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
    _KINDS = DETECTORS
    _SECTION = "detector"
    _LEADING = 1  # the run's detector services

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_oracle_times(self.params.get("stabilization_time"), self.params.get("noise_period"))


# ----------------------------------------------------------------------
# The flat name + params pairs: program, consensus, backend
# ----------------------------------------------------------------------
def _takes_nothing() -> None:
    """What a pair without a name, or the simulator backend, takes: nothing."""


def _bind_named(section: str, table, name: str | None, params: Mapping[str, Any]) -> None:
    """``params`` bind to what row ``name`` of ``table`` builds: a program, or a
    consensus row's quorum rule."""
    if name is None:
        return _bind_params(f"a spec without a {section}", _takes_nothing, params)
    entry = table.resolve(name)
    maker = entry.build if table is PROGRAMS else entry.quorum_rule or _takes_nothing
    _bind_params(f"{section} {name!r}", maker, params, injected=entry.injected)


@dataclass(frozen=True, kw_only=True)
class RealBackend:
    """The ``backend_params`` of a ``backend="real"`` spec, every default here:
    wall seconds per scenario time unit; the margin between "all nodes ready"
    and t0; the orchestrator's wait for every node to be ready and each
    node's dial budget (slow machines raise both); how the crash schedule is
    injected (:mod:`repro.transport.faults`); where the JSONL node logs land
    and whether they outlive the run (by default, when ``log_dir`` is named)."""

    time_scale: float = 0.05
    settle: float = 0.3
    ready_timeout: float = 20.0
    mesh_deadline: float = 20.0
    fault_action: Literal["kill", "suspend"] = "kill"
    resume_after: float | None = None
    log_dir: str | None = None
    keep_logs: bool | None = None

    def __post_init__(self) -> None:
        for name in ("time_scale", "settle", "ready_timeout", "mesh_deadline", "resume_after"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigurationError(f"backend 'real' {name} must be positive, got {value!r}")
        if self.resume_after is not None and self.fault_action != "suspend":
            raise ConfigurationError("backend 'real' resume_after needs fault_action='suspend'")


#: What each backend's ``backend_params`` bind to.
_BACKENDS = {"sim": _takes_nothing, "real": RealBackend}


# ----------------------------------------------------------------------
# The replicated KV service workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KVSpec(_SpecPart):
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
    loop: Literal["closed", "open"] = "closed"
    think_time: float = 2.0
    rate: float = 0.5
    key_space: int = 8
    skew: Literal["uniform", "zipf"] = "uniform"
    zipf_s: float = 1.2
    read_mode: Literal["log", "local"] = "log"
    mix: Mapping[str, float] | None = None
    sync_period: float = 10.0
    max_slots: int = 4096

    def __post_init__(self) -> None:
        super().__post_init__()
        _bind_named("KV consensus", CONSENSUS, self.consensus, self.consensus_params)
        if self.clients < 1:
            raise ConfigurationError("a KV workload needs at least one client")
        if self.ops_per_client < 0:
            raise ConfigurationError("ops_per_client must be non-negative")


# ----------------------------------------------------------------------
# The full scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec(_SpecPart):
    """A complete, serializable run configuration (see the module docstring).

    ``consensus`` and ``program`` name registry entries
    (:mod:`repro.runtime.registry`); when both are set the program is stacked
    *under* the consensus algorithm on every process, which is how the E8
    oracle-free configuration is expressed.  ``checks`` names detector
    property checkers evaluated over the finished trace.

    ``network`` selects the link model (loss, duplication, jitter, partitions;
    default: reliable links).  ``adversarial=True`` acknowledges that the
    scenario runs *outside* the paper's guarantees (e.g. post-GST loss in an
    HPS system); the constructor rejects such combinations without it.
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
    backend: Literal["sim", "real"] = "sim"
    backend_params: Mapping[str, Any] = field(default_factory=dict)
    horizon: float = 500.0
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        _bind_named("program", PROGRAMS, self.program, self.program_params)
        _bind_named("consensus", CONSENSUS, self.consensus, self.consensus_params)
        _bind_params(f"backend {self.backend!r}", _BACKENDS[self.backend], self.backend_params)
        from .builder import validate_spec  # deferred: builder imports this module

        validate_spec(self)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A copy of this spec with a different seed (for sweeps)."""
        return replace(self, seed=seed)

    def canonical_hash(self, *, include_seed: bool = False) -> str:
        """This spec's content hash (see :func:`canonical_spec_hash`)."""
        return canonical_spec_hash(self, include_seed=include_seed)

    def to_dict(self) -> dict:
        payload = super().to_dict()
        for section in _OPTIONAL_SECTIONS:
            if all(getattr(self, name) == _DEFAULTS[name] for name in section):
                for name in section:
                    del payload[name]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


#: The hash-neutral optional sections: ``ScenarioSpec`` fields added after
#: canonical hashes became run-cache keys.  Each row is a group of fields that
#: serialize together; ``to_dict`` omits a group whose fields all hold their
#: dataclass defaults, so a spec that does not use the section hashes exactly
#: as it did before the section existed.  A new optional section is one more
#: row.
_OPTIONAL_SECTIONS = (("kv",), ("backend", "backend_params"), ("topology",))

#: The optional sections' dataclass defaults, for ``to_dict`` to compare against.
_DEFAULTS = {
    spec_field.name: (
        spec_field.default_factory() if spec_field.default is MISSING else spec_field.default
    )
    for spec_field in fields(ScenarioSpec)
    if any(spec_field.name in section for section in _OPTIONAL_SECTIONS)
}
