"""Spans around the calls into each layer, installed from outside.

``Tracer.install()`` replaces a fixed table of public callables with timing
wrappers — in this process only, by attribute replacement — and
``uninstall()`` puts the originals back.  A span records name, layer, start,
end, the span that caused it and the run it belongs to; spans stay in memory
until :meth:`Tracer.write`.  A layer's self time is its spans' duration minus
the part their direct children cover.

What happens *inside* ``Simulation.run`` is opaque from here (that is what
``bench.fold`` is for), with one exception: the ``stop_when`` predicate the
engine passes in is called once per event, so it gets a count + total
accumulator instead of span objects.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

__all__ = ["LAYERS", "Span", "Tracer", "self_times", "TARGETS"]

#: ``(module, dotted attribute, layer)``.  Functions are rebound in every
#: ``repro``/``bench`` module that imported them by name; methods on their class.
TARGETS = [
    ("repro.runtime.builder", "ScenarioBuilder.build", "runtime.builder"),
    ("repro.runtime.spec", "ScenarioSpec.to_dict", "runtime.spec"),
    ("repro.runtime.spec", "ScenarioSpec.canonical_hash", "runtime.spec"),
    ("repro.sim.system", "build_system", "sim.system"),
    ("repro.sim.scheduler", "Simulation.__init__", "sim.system"),
    ("repro.sim.scheduler", "Simulation.run", "sim.scheduler"),
    ("repro.consensus.validator", "validate_consensus", "consensus.validator"),
    ("repro.analysis.metrics", "consensus_metrics", "consensus.validator"),
    ("repro.workloads.kv.metrics", "kv_metrics", "workloads.kv.metrics"),
    ("repro.workloads.kv.linearizability", "check_history", "workloads.kv.linearizability"),
    ("repro.runtime.engine", "execute_spec", "runtime.engine"),
    ("repro.runtime.engine", "RunRecord.to_dict", "runtime.engine"),
    ("repro.runtime.engine", "Engine.run", "runtime.engine"),
    ("repro.runtime.engine", "Engine.run_many", "runtime.engine"),
    ("repro.runtime.engine", "Engine.run_sweep", "runtime.engine"),
    ("repro.runtime.engine", "Engine.sweep", "runtime.engine"),
    ("repro.runtime.executors", "WorkerPool.imap", "runtime.executors"),
    ("repro.fabric.plan", "plan_experiments", "fabric.plan"),
    ("repro.fabric.coordinator", "Coordinator.run", "fabric.coordinator"),
]
_CHECK_LAYER = "detectors.properties"
#: Every layer a span can belong to.
LAYERS = tuple(dict.fromkeys([layer for _, _, layer in TARGETS] + [_CHECK_LAYER]))


@dataclass
class Span:
    name: str
    layer: str
    parent: int  # index of the causing span, -1 at the top
    start: float
    end: float = 0.0
    run: str = ""  # ``scenario[seed]`` of the simulation it belongs to

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """``layer -> (self seconds, span count)``: duration minus direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    layers: dict[str, tuple[float, int]] = {}
    for span, seconds in zip(spans, own):
        total, count = layers.get(span.layer, (0.0, 0))
        layers[span.layer] = (total + seconds, count + 1)
    return layers


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []
        self.events = 0  # Σ Simulation.events_processed
        self.stop_pred_calls = 0
        self.stop_pred_seconds = 0.0

    # -- recording -----------------------------------------------------
    def _open(self, name: str, layer: str, run: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if not run and parent >= 0:
            run = self.spans[parent].run
        self.spans.append(Span(name, layer, parent, perf_counter(), run=run))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer._open(name, layer, _run_label(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn: Callable, name: str, layer: str) -> Callable:
        """One span per ``next()``: the consumer's code between two yields
        must not count as time inside the generator's layer."""
        tracer = self

        def traced(*args: Any, **kwargs: Any):
            inner = fn(*args, **kwargs)
            while True:
                index = tracer._open(name, layer, "")
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                yield item

        traced.__wrapped__ = fn
        return traced

    def _wrap_simulation_run(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        def traced(simulation, **kwargs: Any):
            predicate = kwargs.get("stop_when")
            if predicate is not None:

                def counted(sim):
                    started = perf_counter()
                    try:
                        return predicate(sim)
                    finally:
                        tracer.stop_pred_seconds += perf_counter() - started
                        tracer.stop_pred_calls += 1

                kwargs["stop_when"] = counted
            index = tracer._open(name, layer, _run_label((simulation,)))
            before = simulation.events_processed
            try:
                return fn(simulation, **kwargs)
            finally:
                tracer._close(index)
                tracer.events += simulation.events_processed - before

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        from repro.runtime.registry import CHECKS

        for module_name, path, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, attribute = path.rpartition(".")
            original = getattr(getattr(module, owner) if owner else module, attribute)
            if path == "Simulation.run":
                wrapped = self._wrap_simulation_run(original, path, layer)
            elif path == "WorkerPool.imap":
                wrapped = self._wrap_generator(original, path, layer)
            else:
                wrapped = self._wrap(original, path, layer)
            if owner:
                self._replace(getattr(module, owner), attribute, original, wrapped)
            else:
                self._rebind_everywhere(original, wrapped)
        # Property checks are reached two ways: by registry name (declarative
        # specs) and as ``check_*`` functions imported by name (E1).
        properties = importlib.import_module("repro.detectors.properties")
        for attribute in properties.__all__:
            original = getattr(properties, attribute)
            if attribute.startswith("check_") and callable(original):
                self._rebind_everywhere(original, self._wrap(original, attribute, _CHECK_LAYER))
        for name in CHECKS.names():
            original = CHECKS.resolve(name)
            CHECKS.register(
                name, self._wrap(original, f"CHECKS[{name}]", _CHECK_LAYER), overwrite=True
            )
            self._undo.append(
                lambda name=name, original=original: CHECKS.register(
                    name, original, overwrite=True
                )
            )

    def _replace(self, owner: Any, attribute: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attribute, wrapped)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def _rebind_everywhere(self, original: Any, wrapped: Any) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(("repro", "bench")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attribute, original, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------
    def attributed(self) -> float:
        """Seconds covered by top-level spans."""
        return sum(span.duration for span in self.spans if span.parent < 0)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **span.__dict__}) + "\n")


def _run_label(args: tuple) -> str:
    """``scenario[seed]`` when the receiver or first argument identifies a run."""
    for subject in args[:2]:
        subject = getattr(subject, "system", subject)  # a Simulation carries its System
        name, seed = getattr(subject, "name", None), getattr(subject, "seed", None)
        if isinstance(name, str) and isinstance(seed, int):
            return f"{name}[{seed}]"
    return ""
