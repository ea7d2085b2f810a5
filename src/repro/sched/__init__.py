"""Deterministic discrete-event scheduler for the async device core.

``repro.sched`` is the concurrency substrate of the event-driven NVMe
engine: a generator-based cooperative event loop on
:class:`~repro.common.clock.SimClock` (:mod:`repro.sched.core`) whose
tasks are the engine's queue-slot workers.  Background firmware work is
not a task: it runs at request admission in predicted-idle windows on
every host path.  See docs/SCHEDULER.md for the event model and the
determinism argument.
"""

from repro.sched.core import (
    Acquire,
    At,
    Delay,
    EventLoop,
    FifoTieBreak,
    Join,
    Lane,
    Release,
    SchedulerError,
    SeededTieBreak,
    Task,
)

__all__ = [
    "Acquire",
    "At",
    "Delay",
    "EventLoop",
    "FifoTieBreak",
    "Join",
    "Lane",
    "Release",
    "SchedulerError",
    "SeededTieBreak",
    "Task",
]
