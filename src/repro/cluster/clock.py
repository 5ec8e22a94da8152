"""Loosely synchronized per-node clocks.

Natto assumes clients and servers keep their clocks loosely synchronized
(e.g. with NTP).  We model each node's clock as::

    clock.now() = sim.now + offset

with ``offset`` drawn uniformly from ``[-max_offset, +max_offset]``.  An
optional periodic sync step redraws the offset inside ``sync_error``,
emulating an NTP discipline loop.

Domino-style one-way-delay estimation (``server_receive_clock_time -
client_send_clock_time``) deliberately *includes* the relative clock skew
between the two nodes, so timestamp decisions made against the server's
clock remain correct even when clocks disagree — the tests in
``tests/cluster/test_clock.py`` and ``tests/net/test_probing.py`` pin
this property down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim import Simulator


@dataclass(frozen=True)
class ClockConfig:
    """Parameters for a node clock.

    Attributes:
        max_offset: bound (seconds) on the initial offset magnitude.
        sync_interval: period (seconds) of the NTP-like discipline step;
            ``0`` disables periodic sync.
        sync_error: residual offset magnitude (seconds) after a sync step.
    """

    max_offset: float = 0.001
    sync_interval: float = 0.0
    sync_error: float = 0.0005


class Clock:
    """One node's view of time."""

    def __init__(
        self,
        sim: Simulator,
        config: ClockConfig = ClockConfig(),
        rng: np.random.Generator | None = None,
    ) -> None:
        self._sim = sim
        self._config = config
        self._rng = rng or np.random.default_rng(0)
        self._offset = float(
            self._rng.uniform(-config.max_offset, config.max_offset)
        )
        #: Additive fault-injected skew (seconds), layered on top of the
        #: NTP-disciplined offset so a sync step during a skew spike
        #: neither hides nor doubles the fault — the injector sets and
        #: clears this term symmetrically.
        self.fault_skew = 0.0
        if config.sync_interval > 0:
            sim.schedule(config.sync_interval, self._sync_step)

    @property
    def offset(self) -> float:
        """Current total offset relative to true simulated time."""
        return self._offset + self.fault_skew

    def now(self) -> float:
        """This node's current clock reading (seconds)."""
        return self._sim._now + self._offset + self.fault_skew

    def until(self, clock_time: float) -> float:
        """Simulated-time delay until this clock reads ``clock_time``.

        Never negative: a deadline already in the past maps to 0, so
        ``sim.schedule(clock.until(t), ...)`` is always legal.
        """
        return max(0.0, clock_time - self.now())

    def _sync_step(self) -> None:
        # NTP discipline: snap the offset back inside the residual
        # error bound.
        error = self._config.sync_error
        self._offset = float(self._rng.uniform(-error, error))
        self._sim.schedule(self._config.sync_interval, self._sync_step)
