"""Deterministic discrete-event kernel.

Time is integer **picoseconds** so all PE/bus clock periods divide evenly
(a 50 MHz cycle is exactly 20 000 ps).  Events at equal times fire in
scheduling order (a monotonic sequence number breaks ties), which makes
every simulation run bit-reproducible.  Pending events live in one binary
heap (see ``docs/kernel.md`` for the architecture guide).

Events are plain lists (``[time_ps, sequence, callback, cancelled,
dispatched]`` — see the ``EV_*`` index constants) so creating one costs a
single C-level allocation and ordering them uses C list comparison
instead of a Python ``__lt__`` call per heap compare.
"""

from __future__ import annotations

from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from typing import Callable, List, Optional, Type

from repro.errors import InvalidScheduleError, SimulationError
from repro.observability.tracer import KERNEL_TRACK, Tracer

PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000

#: Event-list layout: index of the absolute dispatch time in picoseconds.
EV_TIME = 0
#: Index of the global monotonic sequence number (same-time tie-breaker).
EV_SEQ = 1
#: Index of the zero-argument callback invoked at dispatch.
EV_CALLBACK = 2
#: Index of the cancellation flag (tombstone; skipped at dispatch).
EV_CANCELLED = 3
#: Index of the dispatched flag (set just before the callback runs).
EV_DISPATCHED = 4

#: An event handle as returned by :meth:`Kernel.schedule` — a plain
#: 5-slot list indexed by the ``EV_*`` constants above.
Event = List

#: Counter name for the scheduler-queue-depth series the kernel emits.
#: Traces recorded by older versions named this series ``events``;
#: readers should treat that name as an alias of this one.
QUEUE_DEPTH_COUNTER = "queue_depth"

#: With a tracer installed, the queue depth is sampled every this many
#: dispatches.
TRACE_STRIDE = 64

_BUDGET_MESSAGE = "event budget exceeded ({limit} events); runaway model?"


def cycles_to_ps(cycles: int, frequency_hz: int) -> int:
    """Duration of ``cycles`` clock cycles, in picoseconds."""
    if frequency_hz <= 0:
        raise SimulationError("frequency must be positive")
    if cycles < 0:
        # catch this here: a negative duration would otherwise surface
        # later as schedule()'s baffling "cannot schedule into the past"
        raise SimulationError(f"cycle count must be non-negative, got {cycles}")
    return (cycles * 1_000_000_000_000) // frequency_hz


def event_pending(event: Event) -> bool:
    """True while ``event`` awaits dispatch (not fired, not cancelled)."""
    return not event[EV_CANCELLED] and not event[EV_DISPATCHED]


class Kernel:
    """Binary-heap scheduler with a current time and a hard event budget.

    One ``heappush`` per scheduled event and one ``heappop`` per
    dispatched (or dropped cancelled) event, in exact
    ``(time_ps, sequence)`` order.  Two observation hooks are plain
    attributes that may be (un)set at any time, mid-run included:

    * ``tracer`` — samples the live queue depth every
      :data:`TRACE_STRIDE` dispatches (the ``queue_depth`` counter series
      in trace exports);
    * ``after_event`` — called between dispatches, where the queue is
      quiescent; the checkpoint subsystem snapshots from this hook.
    """

    __slots__ = (
        "now_ps",
        "max_events",
        "tracer",
        "after_event",
        "_heap",
        "_sequence",
        "_dispatched",
        "_live",
    )

    def __init__(
        self, max_events: int = 5_000_000, tracer: Optional[Tracer] = None
    ) -> None:
        self.now_ps: int = 0
        self.max_events = max_events
        self.tracer = tracer
        self.after_event: Optional[Callable[[], None]] = None
        self._heap: list = []
        self._sequence = 0
        self._dispatched = 0
        self._live = 0  # heap entries that are not cancelled tombstones

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay_ps: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay_ps`` after the current time."""
        if delay_ps < 0:
            # InvalidScheduleError is a ValueError: negative delays are a
            # caller bug (mirrors the cycles_to_ps negative guard above)
            raise InvalidScheduleError(
                f"cannot schedule into the past ({delay_ps} ps)"
            )
        self._sequence += 1
        event = [self.now_ps + delay_ps, self._sequence, callback, False, False]
        _heappush(self._heap, event)
        self._live += 1
        return event

    def schedule_at(self, time_ps: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at the absolute instant ``time_ps``."""
        return self.schedule(time_ps - self.now_ps, callback)

    def cancel(self, event: Event) -> None:
        """Mark ``event`` cancelled; it is skipped (and dropped) at dispatch.

        Cancelled events stay in the heap as tombstones; once tombstones
        outnumber live events the heap is rebuilt in one O(n) pass, so
        cancel-heavy models (timer resets) keep the queue proportional to
        the live event count.
        """
        if event[EV_CANCELLED] or event[EV_DISPATCHED]:
            return
        event[EV_CANCELLED] = True
        self._live -= 1
        heap = self._heap
        if len(heap) - self._live > len(heap) // 2 and len(heap) > 8:
            # in place: run() holds a reference to the heap list while a
            # callback may cancel
            heap[:] = [e for e in heap if not e[EV_CANCELLED]]
            _heapify(heap)

    @property
    def pending(self) -> int:
        """Scheduled events not yet dispatched or cancelled (O(1))."""
        return self._live

    @property
    def dispatched(self) -> int:
        """Events dispatched over the kernel's whole life (survives restore)."""
        return self._dispatched

    # kept for the benchmark harness, which reads "backend" and "spilled"
    def queue_stats(self) -> dict:
        """Lifetime queue counters: every dispatch is one heap pop."""
        return {"backend": "heap", "spilled": self._dispatched}

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def run(self, until_ps: Optional[int] = None) -> int:
        """Dispatch events in order until the heap drains or ``until_ps``.

        Returns the number of dispatched events.  The kernel clock is left
        at ``until_ps`` (if given) or at the last event time.
        """
        dispatched = 0
        heap = self._heap
        while heap:
            event = heap[0]
            if event[EV_CANCELLED]:
                _heappop(heap)
                continue
            if until_ps is not None and event[EV_TIME] > until_ps:
                break
            _heappop(heap)
            self._live -= 1
            event[EV_DISPATCHED] = True
            self.now_ps = event[EV_TIME]
            event[EV_CALLBACK]()
            dispatched += 1
            self._dispatched += 1
            tracer = self.tracer
            if tracer is not None and self._dispatched % TRACE_STRIDE == 0:
                tracer.counter(
                    QUEUE_DEPTH_COUNTER,
                    KERNEL_TRACK,
                    {"depth": self._live},
                    time_ps=self.now_ps,
                )
            if self._dispatched > self.max_events:
                raise SimulationError(
                    _BUDGET_MESSAGE.format(limit=self.max_events)
                )
            hook = self.after_event
            if hook is not None:
                hook()
        if until_ps is not None and until_ps > self.now_ps:
            self.now_ps = until_ps
        return dispatched

    # ------------------------------------------------------------------
    # checkpoint/restore protocol
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The kernel's serializable state (clock, sequence, dispatch count).

        Pending events are *not* serialized — they hold raw callbacks.
        Each owning component records what its events would do and
        re-materializes them on restore via :meth:`restore_event`.
        """
        return {
            "now_ps": self.now_ps,
            "sequence": self._sequence,
            "dispatched": self._dispatched,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore clock/counters; the heap must be empty (fresh kernel)."""
        if self._heap or self._dispatched:
            raise SimulationError(
                "load_state_dict needs a fresh kernel (events already "
                "scheduled or dispatched)"
            )
        self.now_ps = int(state["now_ps"])
        self._sequence = int(state["sequence"])
        self._dispatched = int(state["dispatched"])

    def restore_event(
        self, time_ps: int, sequence: int, callback: Callable[[], None]
    ) -> Event:
        """Re-materialize a checkpointed event with its *original* sequence.

        Keeping the original sequence number reproduces same-time dispatch
        order exactly, so a resumed run replays byte-identically.  Only
        valid for events from a snapshot: the sequence must already be
        accounted for by the restored sequence counter.
        """
        if sequence > self._sequence:
            raise SimulationError(
                f"restored event sequence {sequence} is ahead of the "
                f"kernel's counter {self._sequence}"
            )
        if time_ps < self.now_ps:
            raise SimulationError(
                f"restored event at {time_ps} ps is before the restored "
                f"clock ({self.now_ps} ps)"
            )
        event = [time_ps, sequence, callback, False, False]
        _heappush(self._heap, event)
        self._live += 1
        return event


# kept for the benchmark harness, which patches kernel.HeapKernel by name
HeapKernel = Kernel


# kept for the benchmark harness, which asks which kernel simulations use
def select_backend() -> Type[Kernel]:
    """The kernel class every simulation uses."""
    return Kernel
