"""The discrete-event simulator: an event heap and a clock.

Design notes
------------
* Events are ``(deadline, sequence, target)`` triples in a binary heap,
  where ``target`` is either a :class:`Timer` (cancellable, returned by
  :meth:`Simulator.schedule`), a bare callback posted through the
  :meth:`Simulator.post` fast path, or a :class:`Lane` (its head's entry
  carries the item as a fourth element).  The monotonically increasing
  sequence number makes ordering of same-deadline events deterministic
  (FIFO in scheduling order), which in turn makes every experiment
  bit-reproducible for a fixed seed; it also means heapq never compares
  the third element, so Timers, lanes and bare callables can share the
  heap.
* ``post``/``post_at`` exist because most events are never cancelled:
  message deliveries, process steps and open-loop ticks fire exactly
  once.  Skipping the Timer allocation and the cancellation bookkeeping
  for them roughly doubles raw event throughput.
* A :class:`Lane` (made by :meth:`Simulator.lane`) is a FIFO of posted
  events whose ``(deadline, sequence)`` keys only grow, all run by one
  ``fire(item)`` function: the network keeps one per link for its
  arrivals and one per node for its CPU completions.  Only the lane's
  earliest entry sits in the heap, as ``(deadline, sequence, lane,
  item)``; when it fires, the kernel puts the next entry in its place
  with the key it was given at post time.  The pop order is the same as
  with every entry in the heap: an entry's successor has a larger key
  and enters the heap when the entry fires, so nothing with a larger
  key than the successor's can fire before it is there.  What a lane
  saves is the heap's depth (on the benchmark's ``retwis-saturated``
  workload, queued CPU completions were 98% of the heap's entries) and
  a ``partial`` per event.  A post with a
  deadline earlier than its lane's tail (float rounding) would break
  the lane's order, so it goes to the heap as a plain event instead,
  which is just as exact.
* Cancellation is lazy: a cancelled :class:`Timer` stays in the heap and
  is skipped when popped.  This keeps ``schedule`` and ``cancel`` O(log n)
  and O(1) respectively.  The kernel counts cancelled-but-still-heaped
  entries and compacts the heap once they outnumber the live ones, so
  a caller that cancels most of its timers does not grow the heap
  without bound.  Two callers cancel: a Natto participant re-arming its
  dispatch timer whenever its queue head changes, and
  ``RaftReplica.pause_heartbeats``.
* Time is a float in **seconds**.  All delay models and protocol
  parameters use seconds; reporting code converts to milliseconds.
* There is one event loop, :meth:`Simulator.run`, traced or not.  The
  kernel counts no event as it fires: :attr:`Simulator.events_fired` is
  derived from the sequence counter, the heap length, the lanes'
  backlog and the count of cancelled entries removed, which only
  cancellation and compaction touch.  :attr:`Simulator.heap_size` is
  the raw heap length, so it counts a lane as one entry however long
  its backlog; :attr:`Simulator.pending_events` counts every entry.
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
from collections import deque
from functools import partial
from heapq import heappop, heappush, heapreplace
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


class Lane:
    """A FIFO of posted events whose ``(deadline, sequence)`` keys only
    grow, each run as ``fire(item)``; made by :meth:`Simulator.lane`.

    ``_entries`` holds ``(deadline, sequence, lane, item)`` in key
    order; the first of them, if any, is also in the heap.
    """

    __slots__ = ("_fire", "_entries")

    def __init__(self, fire: Callable[[Any], None]) -> None:
        self._fire = fire
        self._entries: deque = deque()


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
        self._lanes: List[Lane] = []
        #: The run's tracer; set by :meth:`repro.obs.trace.Tracer.attach`.
        self.tracer: Optional[Tracer] = None

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events not yet fired, lane
        backlogs included."""
        return len(self._heap) - self._cancelled_in_heap + self._backlog()

    @property
    def heap_size(self) -> int:
        """Raw heap length, cancelled entries included; a lane counts
        once, by its head."""
        return len(self._heap)

    @property
    def events_fired(self) -> int:
        """Callbacks run so far.  Every entry ever posted (counted by the
        sequence number) is still in the heap, waiting in a lane behind
        its head, fired, or removed as cancelled — popped by :meth:`run`
        or dropped by compaction."""
        return (
            self._sequence - len(self._heap) - self._backlog()
            - self._cancelled_removed
        )

    def _backlog(self) -> int:
        """Lane entries waiting behind their lane's head (not in the heap)."""
        return sum(len(lane._entries) - 1 for lane in self._lanes
                   if lane._entries)

    def lane(self, fire: Callable[[Any], None]) -> Lane:
        """A new :class:`Lane` whose entries run as ``fire(item)``.

        Post to it with ``post_at(when, item, lane)``; the caller
        promises that its deadlines never go backwards (see the module
        notes).
        """
        lane = Lane(fire)
        self._lanes.append(lane)
        return lane

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

    def post_at(
        self, when: float, callback: Any, lane: Optional[Lane] = None
    ) -> None:
        """Fire-and-forget :meth:`schedule_at`; see :meth:`post`.

        With ``lane``, ``callback`` is instead the item that the lane's
        ``fire`` runs with, and the event joins the lane; one due before
        the lane's tail goes to the heap as a plain event instead.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} (now is {self._now})"
            )
        self._sequence += 1
        if lane is None:
            heappush(self._heap, (when, self._sequence, callback))
            return
        entries = lane._entries
        if not entries:
            entry = (when, self._sequence, lane, callback)
            entries.append(entry)
            heappush(self._heap, entry)
        elif when >= entries[-1][0]:
            entries.append((when, self._sequence, lane, callback))
        else:
            heappush(
                self._heap,
                (when, self._sequence, partial(lane._fire, callback)),
            )

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
        Lane heads are never cancelled and stay.
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
        # event, and type tests to split lane heads (replaced in the
        # heap by their successor in one sift) and Timer entries (which
        # need cancellation bookkeeping) from posted bare callbacks.
        limit = float("inf") if until is None else until
        heap = self._heap
        pop = heappop
        replace = heapreplace
        timer_class = Timer
        lane_class = Lane
        try:
            while heap and not self._stopped:
                entry = heap[0]
                deadline = entry[0]
                if deadline > limit:
                    break
                target = entry[2]
                kind = target.__class__
                if kind is lane_class:
                    entries = target._entries
                    entries.popleft()
                    if entries:
                        replace(heap, entries[0])
                    else:
                        pop(heap)
                    self._now = deadline
                    target._fire(entry[3])
                    continue
                pop(heap)
                if kind is timer_class:
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
