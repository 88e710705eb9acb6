"""Deterministic discrete-event simulation substrate.

This subpackage provides the message-passing environment the paper assumes:
crash-prone processes, broadcast links, and three timing disciplines
(asynchronous, partially synchronous with an unknown GST/δ, and synchronous).
Links are reliable by default but pluggable: a
:class:`~repro.sim.links.LinkModel` can inject loss, duplication, jitter,
per-direction latency penalties, and timed partitions per link.  Algorithms
are written as :class:`~repro.sim.process.ProcessProgram` subclasses and
executed by the :class:`~repro.sim.scheduler.Simulation` engine over a
:class:`~repro.sim.system.System` configuration.  What a run leaves is one
:class:`~repro.sim.trace.RunTrace`: a ``(time, value)`` series per process
and variable, the decisions, the crashes and the message counts.
"""

from .clock import Clock, Time
from .events import (
    KIND_CRASH,
    KIND_DELIVERY,
    KIND_DETECTOR,
    KIND_INTERNAL,
    KIND_RESUME,
    Event,
    EventQueue,
)
from .failures import CrashEvent, CrashSchedule, FailurePattern
from .links import (
    AsymmetricLinks,
    ComposedLinks,
    DuplicatingLinks,
    JitterLinks,
    LinkModel,
    LossyLinks,
    Partition,
    PartitionedLinks,
    ReliableLinks,
)
from .message import Message
from .network import Network
from .process import (
    NextSyncStep,
    ProcessContext,
    ProcessProgram,
    ProcessRuntime,
    Sleep,
    WaitUntil,
)
from .rng import RngStreams
from .scheduler import Simulation
from .system import (
    CompositeProgram,
    DetectorServices,
    System,
    build_system,
)
from .timing import (
    AsynchronousTiming,
    PartiallySynchronousTiming,
    SynchronousTiming,
    TimingModel,
)
from .trace import Decision, RunTrace

__all__ = [
    "AsymmetricLinks",
    "AsynchronousTiming",
    "Clock",
    "ComposedLinks",
    "CompositeProgram",
    "CrashEvent",
    "CrashSchedule",
    "Decision",
    "DetectorServices",
    "DuplicatingLinks",
    "Event",
    "EventQueue",
    "FailurePattern",
    "JitterLinks",
    "KIND_CRASH",
    "KIND_DELIVERY",
    "KIND_DETECTOR",
    "KIND_INTERNAL",
    "KIND_RESUME",
    "LinkModel",
    "LossyLinks",
    "Message",
    "Network",
    "NextSyncStep",
    "Partition",
    "PartitionedLinks",
    "ReliableLinks",
    "PartiallySynchronousTiming",
    "ProcessContext",
    "ProcessProgram",
    "ProcessRuntime",
    "RngStreams",
    "RunTrace",
    "Simulation",
    "Sleep",
    "SynchronousTiming",
    "System",
    "Time",
    "TimingModel",
    "WaitUntil",
    "build_system",
]
