"""The host's speed, sampled while a sub-run runs.

On a shared host the same sub-run's wall time drifts by tens of percent,
and the drift flips between a fast and a slow state several times a
second, far faster than a sub-run lasts.  So a :class:`SpeedSampler`
interrupts the process on a wall-clock interval timer and times a small
fixed workload (:meth:`SpeedSampler.calibrate`) each time.  Each
sample's speed is :data:`REFERENCE_NS` over its duration.  The samples
are evenly spaced in wall time, so a phase's mean speed over its samples
is the host's mean speed in that phase, and the phase's wall time, less
the samples taken in it, times that speed is its length at reference
speed.

The workload has two halves of about equal time.  One walks a ring of
objects laid out at random over about 20 MB, one pointer at a time, as
the simulator reaches objects scattered over its heap.  The other runs a
small event loop on a few kilobytes: a heap of slotted events, method
calls, dict updates and integer arithmetic.  The host's slow state does
not always slow the two alike.  Over back-to-back ``ycsbt-natto``
sub-runs of one seed, in one stretch of time the ring tracked the
simulator best (raw wall times up to 1.6x apart were left 1.06-1.12x
apart, against 1.17-1.19x by the event loop); in another the event loop
did (1.53x left 1.15x, against 1.41x by the ring).  Their sum left 1.26x
in the second stretch.

The workload shares no code with the program, so no change to the
program changes its time.  It imports only the standard library, so the
sampler can start before the program is imported.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import time
from typing import List, Optional, Tuple

#: Wall-clock time between two samples, in seconds.
INTERVAL_S = 0.01
#: Objects in the ring.
RING = 1 << 18
#: Steps along the ring, and rounds of the event loop, per sample.
STEPS = 300
ROUNDS = 100
#: Duration of one sample at reference speed: about the median sample
#: inside a ``ycsbt-natto`` sub-run on a 2 GHz Xeon, so that times at
#: reference speed read close to that host's wall times.
REFERENCE_NS = 300_000


class _Node:
    __slots__ = ("next", "value")


class _Ring:
    """A cycle through :data:`RING` objects in a random order."""

    def __init__(self) -> None:
        nodes = [_Node() for _ in range(RING)]
        order = list(range(RING))
        random.Random(1).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
            nodes[here].value = here & 255
        self.at = nodes[0]

    def walk(self, steps: int) -> int:
        node, total = self.at, 0
        for _ in range(steps):
            node = node.next
            total += node.value
        self.at = node
        return total


class _Event:
    __slots__ = ("due", "key", "hits")

    def __init__(self, due: int, key: int) -> None:
        self.due = due
        self.key = key
        self.hits = 0

    def fire(self, table: dict) -> int:
        self.hits += 1
        table[self.key] = table.get(self.key, 0) + self.hits
        return self.due


class _EventLoop:
    """A heap of 512 events; each round adds one and fires the earliest."""

    def __init__(self) -> None:
        self.heap = [(i * 7919 % 100_003, i, _Event(i, i & 1023))
                     for i in range(512)]
        heapq.heapify(self.heap)
        self.table: dict = {}
        self.x = 12345
        self.n = 512

    def run(self, rounds: int) -> None:
        heap, table, x, n = self.heap, self.table, self.x, self.n
        push, pop = heapq.heappush, heapq.heappop
        for n in range(n, n + rounds):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            push(heap, (x, n, _Event(x, x & 1023)))
            pop(heap)[2].fire(table)
        self.x, self.n = x, n + 1


class SpeedSampler:
    """Samples of the host's speed, taken on a timer until stopped.

    Building the ring takes about 0.3 s; that time is kept
    like a sample's, so that :meth:`phase` takes it out of the phase it
    fell in.
    """

    def __init__(self) -> None:
        start = time.perf_counter_ns()
        self._ring = _Ring()
        self._loop = _EventLoop()
        #: (``time.monotonic_ns()`` at the end, duration ns) of building
        #: the ring, and of each sample.
        self.built: Tuple[int, int] = (
            time.monotonic_ns(), time.perf_counter_ns() - start,
        )
        self.samples: List[Tuple[int, int]] = []
        self._previous = None
        self._started = False
        self._sampling = False

    def calibrate(self) -> int:
        """Wall time (ns) of :data:`STEPS` steps along the ring and
        :data:`ROUNDS` rounds of the event loop.

        The garbage collector is off while it runs, so the objects the
        program holds do not slow it.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            self._ring.walk(STEPS)
            self._loop.run(ROUNDS)
            return time.perf_counter_ns() - start
        finally:
            if enabled:
                gc.enable()

    def _sample(self, signum, frame) -> None:
        # A sample that outlasts the interval is not interrupted by the
        # next one.
        if self._sampling:
            return
        self._sampling = True
        try:
            duration = self.calibrate()
            self.samples.append((time.monotonic_ns(), duration))
        finally:
            self._sampling = False

    def start(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._started = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        if self._started:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._started = False

    def phase(self, start_ns: Optional[int], end_ns: int) -> dict:
        """The samples that ended in (``start_ns``, ``end_ns``]
        (``time.monotonic_ns()`` readings; ``None`` is the start).

        ``sampled_ns`` is their total duration, with the ring's building
        if it ended in the span, and ``speed`` their mean speed relative
        to reference (1.0 when there is none).
        """
        def inside(at: int) -> bool:
            return (start_ns is None or at > start_ns) and at <= end_ns

        durations = [d for at, d in self.samples if inside(at)]
        speed = (
            sum(REFERENCE_NS / d for d in durations) / len(durations)
            if durations else 1.0
        )
        built_at, built_ns = self.built
        return {
            "samples": len(durations),
            "sampled_ns": sum(durations)
            + (built_ns if inside(built_at) else 0),
            "speed": speed,
        }
