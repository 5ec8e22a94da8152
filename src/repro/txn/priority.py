"""Transaction priorities.

The paper builds and measures two levels (following McWherter et al.:
"two priority levels are sufficient for many applications") but notes
that none of Natto's techniques is specific to two and names more
levels as future work.  This reproduction implements that extension:
priorities are ordered integers, every mechanism compares them
relationally (a transaction may preempt any *strictly lower* priority),
and a third built-in level (MEDIUM) is provided.  The evaluation uses
only LOW/HIGH, matching the paper.
"""

from __future__ import annotations

import enum


class Priority(enum.IntEnum):
    """Ordered priority levels: HIGH > MEDIUM > LOW."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @property
    def uses_locking(self) -> bool:
        """Natto prepares the lowest level with OCC and everything above
        it with the lock-based mechanism (§3.2, generalized)."""
        return self is not Priority.LOW
