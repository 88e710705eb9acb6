"""The one way a proposal becomes a consensus program.

Scenario-level code needs a *factory* that turns one process's proposal into a
program instance — the engine builds one per run, the replicated-KV workload
one instance per log slot.  An inline ``lambda`` cannot cross a process
boundary (the pool executors pickle by reference), and the run cache refuses to
key on it (``<lambda>`` qualnames are ambiguous).  A :class:`ConsensusFactory`
is a plain picklable object wrapping the program class and its fixed keyword
arguments; obtain one from a registry entry,
``CONSENSUS.resolve(name).factory(membership, **params)``.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["ConsensusFactory"]


class ConsensusFactory:
    """A named ``proposal -> ConsensusProgram`` callable.

    Instances pickle (class by reference, keyword arguments by value) and
    carry a stable qualified name, so scenarios built around one are eligible
    for run caching and pool dispatch — unlike inline lambdas.
    """

    def __init__(self, program_class: Callable[..., Any], **kwargs: Any) -> None:
        self.program_class = program_class
        self.kwargs = kwargs

    def __call__(self, proposal: Any) -> Any:
        return self.program_class(proposal, **self.kwargs)

    def describe(self) -> str:
        """Short human-readable name used in traces and experiment tables."""
        return self.program_class.__name__

    def __repr__(self) -> str:
        args = ", ".join(f"{key}={value!r}" for key, value in sorted(self.kwargs.items()))
        return f"ConsensusFactory({self.program_class.__name__}, {args})"
