"""Packet-loss effects: retransmission latency and throughput collapse.

The Figure 12 experiment injects uniform packet loss with ``tc`` and the
prototypes talk TCP (gRPC), so loss shows up in two ways:

1. **Retransmission latency.**  A lost segment is retransmitted after a
   timeout/fast-retransmit.  We model the number of transmission attempts
   per message as geometric with the loss probability, each extra attempt
   adding one retransmission delay (``rto`` seconds, defaulting to the
   200 ms Linux minimum RTO — WAN RTTs here are below that).

2. **Throughput collapse.**  Sustained TCP throughput under random loss
   follows the Mathis bound ``B ≈ MSS / (RTT · sqrt(p)) · C``.  The
   network turns this into a per-datacenter-pair bandwidth cap; messages
   then queue FIFO behind the pipe, which is what saturates Carousel
   Basic first (it replicates transactional data twice, so it pushes the
   most bytes), exactly the mechanism the paper describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.randomness import BatchedGeometric

#: Linux's minimum TCP retransmission timeout.
DEFAULT_RTO_SECONDS = 0.2

#: Typical maximum segment size on WAN paths (bytes).
MSS_BYTES = 1460

#: Mathis constant for random loss with delayed ACKs.
MATHIS_CONSTANT = 1.22


def mathis_throughput(
    loss_rate: float,
    rtt_seconds: float,
    cap_bytes_per_s: float = float("inf"),
) -> float:
    """Sustained TCP throughput (bytes/second) under random loss.

    With zero loss the link is only limited by ``cap_bytes_per_s`` (the
    physical capacity share).
    """
    if loss_rate <= 0.0:
        return cap_bytes_per_s
    bound = MATHIS_CONSTANT * MSS_BYTES / (rtt_seconds * math.sqrt(loss_rate))
    return min(cap_bytes_per_s, bound)


@dataclass(frozen=True)
class LossConfig:
    """Packet-loss parameters for the whole network.

    Attributes:
        loss_rate: per-segment loss probability (0.015 == 1.5%).
        rto: retransmission delay added per lost transmission attempt.
        link_capacity_bytes_per_s: loss-free per-pair capacity share.
            The paper's local cluster uses a 1 Gbps network shared by
            15 servers; the default approximates one flow's share.
    """

    loss_rate: float = 0.0
    rto: float = DEFAULT_RTO_SECONDS
    link_capacity_bytes_per_s: float = 8e6

    def effective_bandwidth(self, rtt_seconds: float) -> float:
        """Per-pair usable bandwidth after the Mathis cap."""
        return mathis_throughput(
            self.loss_rate,
            max(rtt_seconds, 1e-4),
            self.link_capacity_bytes_per_s,
        )


class LossModel:
    """Samples per-message retransmission penalties."""

    def __init__(self, config: LossConfig, rng: np.random.Generator) -> None:
        self._config = config
        self._rng = rng
        # The success probability is fixed for the run, so attempt
        # counts come from pre-filled geometric blocks (same sequence
        # as per-message scalar draws).  The loss stream is exclusive.
        self._attempts = (
            BatchedGeometric(rng, 1.0 - config.loss_rate)
            if config.loss_rate > 0.0
            else None
        )

    @property
    def config(self) -> LossConfig:
        return self._config

    def retransmission_delay(self) -> float:
        """Extra latency for one message due to lost transmissions.

        The number of transmissions is geometric(1 - p); each failed
        attempt costs one RTO.
        """
        if self._attempts is None:
            return 0.0
        return (self._attempts.next() - 1) * self._config.rto
