"""In-memory versioned key-value store.

Each key holds a single current version (these systems are not MVCC —
Carousel/Natto serve reads from the latest committed state).  A version
records which transaction wrote it, which is what the history verifier
uses to reconstruct the commit order.

Missing keys are materialized on first read with a 64-byte initial value,
so a 1M-key dataset costs nothing until touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class VersionedValue:
    """One committed version of a key."""

    value: str
    version: int
    writer: Optional[str]  # txn id, None for the initial version


def _default_value(key: str) -> str:
    # 64-byte values, as in the evaluation's dataset.
    return f"init:{key}".ljust(64, "0")[:64]


class KeyValueStore:
    """The state machine each replica applies committed writes to."""

    def __init__(self) -> None:
        self._data: Dict[str, VersionedValue] = {}
        #: Per-key version chains, kept once the history verifier sets
        #: this (``repro.verify.history.enable_history``).
        self.record_history = False
        self.history: Dict[str, list] = {}

    def read(self, key: str) -> VersionedValue:
        """Current version of ``key`` (materializing the initial value)."""
        current = self._data.get(key)
        if current is None:
            current = VersionedValue(_default_value(key), 0, None)
            self._data[key] = current
        return current

    def apply(self, key: str, value: str, writer: str) -> VersionedValue:
        """Install a committed write; returns the new version."""
        previous = self.read(key)
        new = VersionedValue(value, previous.version + 1, writer)
        self._data[key] = new
        if self.record_history:
            self.history.setdefault(key, []).append(new)
        return new

    def apply_writes(self, writes: Dict[str, str], writer: str) -> None:
        for key, value in writes.items():
            self.apply(key, value, writer)

    def version_of(self, key: str) -> int:
        return self.read(key).version

    def __len__(self) -> int:
        return len(self._data)
