"""Per-process query views of failure detectors.

A *view* is the object a process's algorithm holds when the system is enriched
with a failure detector: it exposes exactly the variables the class definition
gives that process (``h_leader`` and ``h_multiplicity`` for HΩ, ``h_quora``
and ``h_labels`` for HΣ, and so on) and nothing else.

A view is built over one reader callable, so the same view class serves the
ground-truth oracle and the message-passing implementations/reductions (whose
views read the emulating program's state).  Its class is derived from the
row's ``outputs`` by :func:`view_class`: a class with one variable reads it
directly; a class with several reads one tuple, so every variable of one
query belongs to the same instant, and ``read()`` returns that tuple whole.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["View", "view_class"]


class View:
    """A detector view: one reader; ``read()`` is the reader's raw value."""

    __slots__ = ("read",)

    def __init__(self, read: Callable[[], Any]) -> None:
        self.read = read


def view_class(name: str, outputs: tuple[str, ...]) -> type[View]:
    """The view class of a detector class with these ``outputs``: one
    property per output, reading the value itself when there is one output
    and its position of the tuple when there are several."""
    if len(outputs) == 1:
        properties = {outputs[0]: property(lambda view: view.read())}
    else:
        properties = {
            output: property(lambda view, at=at: view.read()[at])
            for at, output in enumerate(outputs)
        }
    return type(f"{name}View", (View,), {"__slots__": (), **properties})
