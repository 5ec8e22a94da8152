"""The discrete-event simulator: an event heap and a clock.

Design notes
------------
* Events are ``(deadline, sequence, target)`` triples in a binary heap,
  where ``target`` is either a :class:`Timer` (cancellable, returned by
  :meth:`Simulator.schedule`) or a bare callback posted through the
  :meth:`Simulator.post` fast path.  The monotonically increasing
  sequence number makes ordering of same-deadline events deterministic
  (FIFO in scheduling order), which in turn makes every experiment
  bit-reproducible for a fixed seed; it also means heapq never compares
  the third element, so Timers and bare callables can share the heap.
* ``post``/``post_at`` exist because most events are never cancelled:
  message deliveries, process steps and open-loop ticks fire exactly
  once.  Skipping the Timer allocation and the cancellation bookkeeping
  for them roughly doubles raw event throughput.
* Cancellation is lazy: a cancelled :class:`Timer` stays in the heap and
  is skipped when popped.  This keeps ``schedule`` and ``cancel`` O(log n)
  and O(1) respectively.  The kernel counts cancelled-but-still-heaped
  entries and compacts the heap once they outnumber the live ones, so
  workloads that cancel most of their timers (retry timeouts, lease
  guards) don't grow the heap without bound.
* Time is a float in **seconds**.  All delay models and protocol
  parameters use seconds; reporting code converts to milliseconds.
* There is one event loop, :meth:`Simulator.run`, traced or not.  The
  kernel counts no event as it fires: :attr:`Simulator.events_fired` is
  derived from the sequence counter, the heap length and the count of
  cancelled entries removed, which only cancellation and compaction
  touch.
* ``sim.tracer`` is the run's :class:`~repro.obs.trace.Tracer`, or
  ``None`` (the default) in an untraced run; instrumented components
  record spans and events only when it is set.  The kernel itself records
  nothing and does not import :mod:`repro.obs`.
* :meth:`Simulator.run` pauses CPython's cyclic garbage collector.  A
  run's live heap (Raft logs, pending proposals, transaction records,
  store versions) only grows, and every collection of the older
  generations rescans it.  On a 2-vCPU host, one benchmark point at
  sub-seed 1000 ran 169/15/1 collections (generations 0/1/2) taking
  0.25 s of 2.4 s on ``ycsbt-natto``, and 378/34/3 taking 0.53 s of
  3.2 s on ``retwis-saturated``.  They find almost nothing: reference
  counting frees every acyclic object at once, and a whole
  ``ycsbt-natto`` run leaves ~160 objects of cyclic garbage, one
  16-object cycle per client (the open-loop tick closure refers to
  itself) and none per transaction or message;
  ``tests/harness/test_experiment.py`` checks that a longer run leaves
  no more.  ``run`` turns the collector back on when it returns, also
  through :meth:`Simulator.stop` or a raising callback, and only if it
  was on at entry: a nested ``run``, or a caller that turned it off,
  keeps it off.  ``gc.freeze`` would keep every discarded deployment
  (a cycle through sim, network and nodes) alive for the rest of the
  process, and ``gc`` thresholds are process-wide state that a library
  should not set.  One cost remains: with so few collections, the older
  generations a finished deployment sits in are seldom collected, so a
  process that runs deployment after deployment would hold many of
  them at once (Fig 7/13/14 sweep workers peaked at 362 MB instead of
  288 MB, a 40-scenario fuzz at 133 MB instead of 80 MB).  The loops
  that do so, :func:`repro.harness.parallel.run_point` and the
  ``python -m repro.fuzz`` scenario loop, collect once per finished
  deployment.
"""

from __future__ import annotations

import gc
import heapq
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

if TYPE_CHECKING:
    from repro.obs.trace import Tracer


class SimulationError(Exception):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class Timer:
    """Handle for a scheduled callback; supports cancellation."""

    # ``_sim`` doubles as the in-heap marker: the kernel nulls it when
    # the entry leaves the heap, so a late ``cancel`` doesn't disturb
    # the cancelled-entry count.
    __slots__ = ("deadline", "_callback", "_cancelled", "_sim")

    def __init__(
        self,
        deadline: float,
        callback: Callable[[], None],
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.deadline = deadline
        self._callback = callback
        self._cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        self._callback = _noop
        sim = self._sim
        if sim is not None:
            # Inlined for speed.  Below 64 entries lazy skipping beats
            # rebuilding: pops clear cancelled entries quickly and
            # compaction would thrash.
            sim._cancelled_in_heap += 1
            if sim._cancelled_in_heap * 2 > len(sim._heap) >= 64:
                sim._compact()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


def _noop() -> None:
    return None


class Simulator:
    """Deterministic discrete-event loop.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print(sim.now))
        sim.run()            # run until the event heap drains
        sim.run(until=60.0)  # or until simulated time passes 60 s
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._heap: List[Any] = []
        self._stopped = False
        self._cancelled_in_heap = 0
        #: Cancelled entries that left the heap, popped or compacted.
        self._cancelled_removed = 0
        #: The run's tracer; set by :meth:`repro.obs.trace.Tracer.attach`.
        self.tracer: Optional[Tracer] = None

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still in the heap."""
        return len(self._heap) - self._cancelled_in_heap

    @property
    def heap_size(self) -> int:
        """Raw heap length, cancelled entries included."""
        return len(self._heap)

    @property
    def events_fired(self) -> int:
        """Callbacks run so far.  Every entry ever pushed (counted by the
        sequence number) is still in the heap, fired, or removed as
        cancelled — popped by :meth:`run` or dropped by compaction."""
        return self._sequence - len(self._heap) - self._cancelled_removed

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s into the past")
        when = self._now + delay
        timer = Timer(when, callback, self)
        self._sequence += 1
        heappush(self._heap, (when, self._sequence, timer))
        return timer

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} (now is {self._now})"
            )
        timer = Timer(when, callback, self)
        self._sequence += 1
        heappush(self._heap, (when, self._sequence, timer))
        return timer

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`Timer`, no cancel.

        The hot path for events that are never cancelled (message
        deliveries, process resumptions, open-loop ticks): the heap
        entry holds the bare callback, skipping the Timer allocation on
        the way in and the cancellation checks on the way out.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s into the past")
        self._sequence += 1
        heappush(self._heap, (self._now + delay, self._sequence, callback))

    def post_at(self, when: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`schedule_at`; see :meth:`post`."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} (now is {self._now})"
            )
        self._sequence += 1
        heappush(self._heap, (when, self._sequence, callback))

    def spawn(self, generator: Generator) -> "Process":
        """Start a coroutine process; see :class:`repro.sim.process.Process`."""
        # Imported here to avoid a module cycle (process imports kernel types).
        from repro.sim.process import Process

        return Process(self, generator)

    def stop(self) -> None:
        """Make the current ``run`` call return after the current event."""
        self._stopped = True

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Deterministic: (deadline, sequence) keys are unique, so heapify
        yields the same pop order the lazy skip would have.  The heap is
        filtered in place: a ``run`` in progress holds it in a local.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [
            entry
            for entry in heap
            if entry[2].__class__ is not Timer or not entry[2]._cancelled
        ]
        heapq.heapify(heap)
        self._cancelled_removed += before - len(heap)
        self._cancelled_in_heap = 0

    def run(self, until: Optional[float] = None) -> None:
        """Process events in deadline order.

        With ``until``, the loop stops once the next event would be later
        than ``until`` and advances the clock exactly to ``until`` (so
        periodic activities observe a consistent end time).  Without it,
        the loop drains the heap.  A call ended by :meth:`stop` leaves
        the clock at the last event fired, so the next call never fires
        a queued event at an earlier time.

        The cyclic garbage collector is paused for the call; see the
        module notes.
        """
        self._stopped = False
        gc_paused = gc.isenabled()
        if gc_paused:
            gc.disable()
        # The innermost loop of every experiment: locals for the heap
        # and pop, an infinite sentinel instead of a None check per
        # event, and a single type test to split Timer entries (which
        # need cancellation bookkeeping) from posted bare callbacks.
        limit = float("inf") if until is None else until
        heap = self._heap
        pop = heappop
        timer_class = Timer
        try:
            while heap and not self._stopped:
                entry = heap[0]
                deadline = entry[0]
                if deadline > limit:
                    break
                pop(heap)
                target = entry[2]
                if target.__class__ is timer_class:
                    if target._cancelled:
                        self._cancelled_in_heap -= 1
                        self._cancelled_removed += 1
                        continue
                    target._sim = None
                    self._now = deadline
                    target._callback()
                else:
                    self._now = deadline
                    target()
        finally:
            if gc_paused:
                gc.enable()
        if until is not None and not self._stopped and self._now < until:
            self._now = until
