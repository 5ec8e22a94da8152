"""Deterministic discrete-event simulation kernel.

Everything in this repository — network, clocks, Raft, the transaction
protocols — runs on this kernel.  Time is simulated: the kernel pops the
earliest pending event from a heap, advances ``now`` to its deadline and
invokes its callback.  Latency numbers reported by the harness are
differences of simulated timestamps, so they measure protocol structure
(round trips, queueing, retries) rather than Python interpreter speed.

Public surface:

* :class:`Simulator` — the event loop (``schedule``, ``spawn``, ``run``).
* :class:`Lane` — a FIFO of posted events of which only the head sits in
  the event heap (``Simulator.lane``).
* :class:`Future` — a one-shot, observable result container.
* :class:`Process` — a generator-based coroutine driven by the simulator;
  yields delays, futures or other processes.
* :func:`all_of` / :func:`any_of` — future combinators.
* :class:`RandomStreams` — named, independently seeded RNG streams so that
  experiments are reproducible and individually perturbable.
"""

from repro.sim.future import Future, all_of, any_of
from repro.sim.kernel import Lane, Simulator, SimulationError, Timer
from repro.sim.process import Process
from repro.sim.randomness import (
    BatchedGeometric,
    BatchedStandardExponential,
    BatchedUniform,
    RandomStreams,
)

__all__ = [
    "BatchedGeometric",
    "BatchedStandardExponential",
    "BatchedUniform",
    "Future",
    "Lane",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "Timer",
    "all_of",
    "any_of",
]
