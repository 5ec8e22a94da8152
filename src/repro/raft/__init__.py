"""Raft replication (Ongaro & Ousterhout) for partition replica groups.

Natto/Carousel replicate each data partition with Raft; every latency
figure in the paper includes at least one "replicate to a majority"
round, so the cost structure here matters:

* the leader appends to its log and broadcasts ``AppendEntries``;
* followers ack; the entry commits when a majority (leader included)
  has it — i.e. one round trip to the **nearest majority** of followers;
* committed entries are applied in log order on every replica.

:class:`ReplicationGroup` is the facade the transaction systems use:
``group.replicate(payload) -> Future`` resolves when the entry commits
at the leader.  The paper's experiments run failure-free with
pre-designated leaders ("our prototypes do not implement fault
recovery"), so the leader is fixed: the group's first replica leads
from construction, every replica stays in term 1, and there are no
elections.
"""

from repro.raft.log import LogEntry, RaftLog
from repro.raft.node import RaftReplica, Role
from repro.raft.group import ReplicationGroup

__all__ = [
    "LogEntry",
    "RaftLog",
    "RaftReplica",
    "ReplicationGroup",
    "Role",
]
