"""Simulated client populations for the replicated KV service.

Clients are ordinary simulator processes: their think-times and arrivals draw
from the per-process deterministic RNG streams, their requests ride the same
(possibly lossy, partitioned, adversarial) links as the replication protocol,
and they crash if the crash schedule says so.  That is the point — the paper's
fault envelope applies to the *service*, traffic included, unchanged.

Two load shapes:

* **closed loop** — each client keeps at most one request outstanding and
  thinks (uniform around ``think_time``) between completions.  Offered load
  self-throttles when the service slows down.
* **open loop** — arrivals are a Poisson process of the configured ``rate``;
  requests are fired regardless of outstanding ones.  Offered load does not
  yield, which is how overload and staleness become visible.

Key choice is uniform or Zipf-skewed over a fixed key space; the operation
mix is configurable and defaults to a read-heavy blend.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable

from ...context import ProcessContext
from .commands import encode_command, request_id as make_request_id

__all__ = ["ClientLoad", "KVClientProgram", "DEFAULT_MIX"]

#: Read-heavy default operation mix.
DEFAULT_MIX = {"GET": 0.50, "SET": 0.30, "CAS": 0.12, "DEL": 0.08}

#: Fixed sampling order so RNG consumption is independent of dict ordering.
_OP_ORDER = ("GET", "SET", "CAS", "DEL")


@dataclass(frozen=True)
class ClientLoad:
    """The shape of one client's traffic.

    ``loop`` selects closed- (``think_time``) or open-loop (``rate``)
    behaviour; ``skew`` selects the key distribution over ``key_space`` keys.
    """

    ops: int = 10
    loop: str = "closed"
    think_time: float = 2.0
    rate: float = 0.5
    key_space: int = 8
    skew: str = "uniform"
    zipf_s: float = 1.2
    mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))

    def __post_init__(self) -> None:
        if self.loop not in ("closed", "open"):
            raise ValueError(f"loop must be 'closed' or 'open', got {self.loop!r}")
        if self.skew not in ("uniform", "zipf"):
            raise ValueError(f"skew must be 'uniform' or 'zipf', got {self.skew!r}")
        if self.ops < 0:
            raise ValueError("ops must be non-negative")
        if self.key_space < 1:
            raise ValueError("key_space must be at least 1")
        if self.think_time < 0 or self.rate <= 0:
            raise ValueError("think_time must be >= 0 and rate > 0")
        unknown = set(self.mix) - set(_OP_ORDER)
        if unknown:
            raise ValueError(f"unknown operations in mix: {sorted(unknown)}")
        if not any(self.mix.get(op, 0.0) > 0 for op in _OP_ORDER):
            raise ValueError("operation mix has no positive weight")

    def key_sampler(self) -> "KeySampler":
        return KeySampler(self)


class KeySampler:
    """Deterministic key sampling for one load shape."""

    __slots__ = ("key_space", "_cdf")

    def __init__(self, load: ClientLoad) -> None:
        self.key_space = load.key_space
        self._cdf: list[float] | None = None
        if load.skew == "zipf":
            weights = [1.0 / (rank**load.zipf_s) for rank in range(1, load.key_space + 1)]
            total = sum(weights)
            cdf, running = [], 0.0
            for weight in weights:
                running += weight / total
                cdf.append(running)
            cdf[-1] = 1.0
            self._cdf = cdf

    def sample(self, rng: Random) -> str:
        if self._cdf is None:
            index = rng.randrange(self.key_space)
        else:
            index = bisect_left(self._cdf, rng.random())
        return f"k{index}"


def sample_operation(rng: Random, mix: dict[str, float]) -> str:
    """Draw one operation kind from ``mix`` (fixed order, one RNG draw)."""
    total = sum(mix.get(op, 0.0) for op in _OP_ORDER)
    draw = rng.random() * total
    running = 0.0
    for op in _OP_ORDER:
        running += mix.get(op, 0.0)
        if draw <= running:
            return op
    return _OP_ORDER[-1]


class KVClientProgram:
    """One client process issuing :class:`ClientLoad`-shaped traffic.

    ``on_finished`` is called once, when the reply arrives that makes
    :attr:`finished` true — the only place it can flip — so a runner can count
    unfinished clients instead of polling every client after every event.
    Requests go to the processes at ``replicas`` (the replica group's indices);
    replies come back addressed to ``client_name``, the client's identifier.
    """

    def __init__(
        self,
        *,
        client_name: str,
        load: ClientLoad,
        replicas: range,
        on_finished: Callable[[], None],
    ) -> None:
        self.client_name = client_name
        self._replicas = replicas
        self.load = load
        self._on_finished = on_finished
        self.issued = 0
        self.completed = 0
        self._outstanding: dict[str, tuple[str, str, tuple[Any, ...]]] = {}
        self._observed: dict[str, Any] = {}
        self._keys = load.key_sampler()

    @property
    def finished(self) -> bool:
        """Every operation issued and answered (drives ``stop_when``)."""
        return self.issued >= self.load.ops and not self._outstanding

    def setup(self, ctx: ProcessContext) -> None:
        ctx.on("KV_REPLY", lambda msg: self._on_reply(ctx, msg))
        ctx.spawn(lambda: self._run(ctx), name=f"{self.client_name}-loop")

    def _run(self, ctx: ProcessContext):
        load = self.load
        for index in range(load.ops):
            if load.loop == "closed":
                if load.think_time > 0:
                    yield ctx.sleep(ctx.random.uniform(0.0, 2.0 * load.think_time))
                request_id = self._issue(ctx, index)
                yield ctx.wait_until(
                    lambda request_id=request_id: request_id not in self._outstanding
                )
            else:
                yield ctx.sleep(ctx.random.expovariate(load.rate))
                self._issue(ctx, index)

    def _issue(self, ctx: ProcessContext, index: int) -> str:
        rng = ctx.random
        request_id = make_request_id(self.client_name, index)
        op = sample_operation(rng, self.load.mix)
        key = self._keys.sample(rng)
        if op == "SET":
            args: tuple[Any, ...] = (f"v-{self.client_name}-{index}",)
        elif op == "CAS":
            args = (self._observed.get(key), f"v-{self.client_name}-{index}")
        else:
            args = ()
        command = encode_command(request_id, op, key, *args)
        self.issued += 1
        self._outstanding[request_id] = (op, key, args)
        ctx.record("kv.op", (request_id, op, key, args))
        ctx.multicast("KV_REQUEST", self._replicas, request_id=request_id, command=command)
        return request_id

    def _on_reply(self, ctx: ProcessContext, message: dict) -> None:
        request_id = message["request_id"]
        inflight = self._outstanding.pop(request_id, None)
        if inflight is None:
            return  # a duplicate reply from another replica
        self.completed += 1
        status, value = message["status"], message["value"]
        ctx.record("kv.done", (request_id, status, value, message["version"]))
        # Track the freshest value this client has seen per key, so CAS
        # expectations are realistic rather than uniformly stale.
        op, key, args = inflight
        if op == "GET":
            self._observed[key] = value
        elif op == "SET" and status == "ok":
            self._observed[key] = args[0]
        elif op == "CAS":
            self._observed[key] = args[1] if status == "ok" else value
        elif op == "DEL" and status == "ok":
            self._observed[key] = None
        if self.finished:
            self._on_finished()
