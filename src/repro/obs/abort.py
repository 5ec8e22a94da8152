"""The abort-reason taxonomy.

Every abort site in the repository classifies *why* an attempt died and
stamps that reason on (a) the refusal reply / no-vote / decision message
so the client driver can account for it, and (b) the trace stream so
``python -m repro.trace summary`` can break aborts down per reason and
priority.  The taxonomy is deliberately small: each value names a
distinct *mechanism*, not a site — e.g. a Natto priority abort and a
2PL wound are both ``PREEMPTED`` (a higher-priority/older transaction
evicted this one).
"""

from __future__ import annotations

import enum


class AbortReason(str, enum.Enum):
    """Why one transaction attempt aborted."""

    #: Blocked by / conflicting with currently *held* locks or prepared
    #: marks under a locking discipline (2PL lock denial, Natto
    #: high-priority path).
    LOCK_CONFLICT = "LOCK_CONFLICT"
    #: OCC validation failure: the key sets intersect a prepared (or
    #: earlier-waiting) transaction (Carousel, TAPIR prepared-set check,
    #: Natto low-priority path).
    OCC_CONFLICT = "OCC_CONFLICT"
    #: A read version no longer matches at validation time (TAPIR).
    STALE_READ = "STALE_READ"
    #: Arrived after its own execution timestamp in a way that violates
    #: timestamp order with an ongoing conflicting transaction (Natto
    #: late-arrival rule, §3.2).
    TIMESTAMP_MISS = "TIMESTAMP_MISS"
    #: Evicted by a higher-priority (or older, for wound-wait)
    #: transaction: Natto priority abort, 2PL wound.
    PREEMPTED = "PREEMPTED"
    #: A conditional prepare's condition failed (the blocker committed)
    #: and the retry path could not recover the attempt (Natto CP).
    CONDITION_FAILED = "CONDITION_FAILED"
    #: The attempt died waiting on a lost message.  No site stamps it:
    #: the network delivers every message (loss only adds delay).
    PACKET_LOSS_TIMEOUT = "PACKET_LOSS_TIMEOUT"
    #: The client chose to abort after its reads (2FI voluntary abort).
    VOLUNTARY = "VOLUNTARY"
    #: The retry budget ran out (terminal outcome, not a per-attempt
    #: cause — the attempts each carry their own reason).
    RETRY_EXHAUSTED = "RETRY_EXHAUSTED"
    #: No site classified the abort.  The trace CLI reports the fraction
    #: of these; it should stay ~0.
    UNKNOWN = "UNKNOWN"

    def __str__(self) -> str:  # "LOCK_CONFLICT", not "AbortReason.LOCK..."
        return self.value


def reason_value(reason) -> str:
    """Normalize an :class:`AbortReason`, string, or None to a string."""
    if reason is None:
        return AbortReason.UNKNOWN.value
    return getattr(reason, "value", None) or str(reason)
