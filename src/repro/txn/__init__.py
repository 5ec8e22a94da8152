"""Transaction model: 2FI descriptors, priorities, outcome records.

Natto (following Carousel) targets **2-round Fixed-set Interactive**
transactions: one round of reads, then one round of writes; read and
write key sets are declared up front; write *values* may depend on the
read results (the interactive part); the client may abort after reads.
"""

from repro.txn.priority import Priority
from repro.txn.stats import StatsCollector, TxnOutcome, TxnRecord
from repro.txn.transaction import TransactionSpec

__all__ = [
    "Priority",
    "StatsCollector",
    "TransactionSpec",
    "TxnOutcome",
    "TxnRecord",
]
