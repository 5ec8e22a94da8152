"""The 2FI transaction descriptor.

A :class:`TransactionSpec` is what a workload generator produces and a
client executes: fixed read/write key sets, a priority, and a
``compute_writes`` function that turns read results into write values
(the interactive half of 2FI).  ``compute_writes`` may also return
``None`` to abort voluntarily after the read round — permitted by the
model, unused by the paper's workloads.

The spec is immutable across retries; per-attempt state (timestamps,
arrival estimates) lives in the protocol messages, so retrying is just
re-running the client protocol with a fresh attempt id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.txn.priority import Priority

WriteFunction = Callable[[Mapping[str, str]], Optional[Dict[str, str]]]


def _overwrite_with_marker(reads: Mapping[str, str]) -> Dict[str, str]:
    """Default write function: tag every write key (ignores read values)."""
    return {}


@dataclass(frozen=True)
class TransactionSpec:
    """One 2FI transaction, as issued by a client.

    Attributes:
        txn_id: globally unique (client id + per-client counter).
        read_keys / write_keys: fixed sets, known at start.
        priority: LOW or HIGH.
        compute_writes: read results -> write values (or None to abort
            after the read round).  Keys in the result must be a subset
            of ``write_keys`` — a 2FI client "does not need to modify all
            of the keys in the write set".
        txn_type: workload label (e.g. "send_payment"), for reporting.
    """

    txn_id: str
    read_keys: Tuple[str, ...]
    write_keys: Tuple[str, ...]
    priority: Priority = Priority.LOW
    compute_writes: WriteFunction = field(default=_overwrite_with_marker)
    txn_type: str = "generic"

    def __post_init__(self) -> None:
        if not self.read_keys and not self.write_keys:
            raise ValueError(f"{self.txn_id}: empty transaction")

    def make_writes(self, reads: Mapping[str, str]) -> Optional[Dict[str, str]]:
        """Run the interactive write step, validating the key discipline."""
        writes = self.compute_writes(reads)
        if writes is None:
            return None
        illegal = set(writes) - set(self.write_keys)
        if illegal:
            raise ValueError(
                f"{self.txn_id} wrote outside its declared write set: "
                f"{sorted(illegal)}"
            )
        return writes
