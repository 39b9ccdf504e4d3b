"""Event records for the discrete-event engine.

Events are ordered by ``(time, priority, seq)`` — the simulator pushes
that tuple (with the event last) onto its heap.  The monotonically
increasing sequence number makes ordering total and deterministic even when
many events share a timestamp — crucial for reproducibility of the
simulation, since protocol behaviour (e.g. which of two simultaneous task
placements lands first) must not depend on heap tie-breaking accidents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Event", "PRIORITY_HIGH", "PRIORITY_DEFAULT", "PRIORITY_LOW"]

#: Runs before same-time default events (e.g. overlay repair before routing).
PRIORITY_HIGH = 0
PRIORITY_DEFAULT = 5
#: Runs after same-time default events (e.g. metric sampling).
PRIORITY_LOW = 9


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    ``cancelled`` is checked at pop time; cancellation is O(1) and lazy
    (the entry stays in the heap until its timestamp).
    """

    time: float
    priority: int
    seq: int
    fn: Callable[..., Any]
    args: tuple = ()
    cancelled: bool = field(default=False, compare=False)
    #: Set once the event has been popped for execution — a late ``cancel()``
    #: on an already-fired event must not touch the live-event counter.
    done: bool = field(default=False, compare=False)
