"""Protocol message payloads, generated from one field table.

Every protocol message is a ``__slots__`` object whose wire size is
computed arithmetically at construction; ``Message.__init__`` reads the
``wire_size`` attribute instead of walking the payload.  The classes are
not written by hand: each is one row of the table at the bottom of this
module, built by :func:`payload_class`.  A row names the message shape
and maps each field, in order, to one of these size rules:

- ``NUM``: a number, 8 bytes;
- ``BOOL``: a bool, 1 byte;
- ``STR``: a string, its ``len``;
- ``OPT_STR``: a string, or ``None`` (1 byte);
- ``STRS`` / ``OPT_STRS``: a list of strings (the sum of their
  lengths), or that or ``None`` (1 byte);
- ``INTS``: a list of ints, 8 bytes each;
- ``NUM_MAP``: an ``{int: number}`` map, 16 bytes per item;
- ``STR_INT_MAP``: a ``{str: int}`` map, key lengths + 8 bytes per item;
- ``ENTRIES``: a list of Raft :class:`~repro.raft.log.LogEntry` objects,
  the sum of their precomputed ``wire_size``;
- ``ESTIMATE``: :func:`~repro.net.message.estimate_size` of the value
  (1 for ``None``, 0 for ``[]``, a nested payload's own ``wire_size``);
- ``NESTED``: the same number, read straight off a nested payload (an
  RPC result is one nearly always) before walking anything else.

Every field also costs its name's length, as a dict key did.  Two more
kinds of entry sit in a row: :class:`Fixed` fields have one value in
every instance (``kind="decision"``, ``ok=True``); they are on the wire
but live on the class, so they are not constructor arguments.
:class:`Absent` fields are *not* on the wire: a class-level default for
a field that a handler reads on every shape reaching it, where only some
shapes carry it (``CommitTxn.reason`` is ``None``).

**Bit-identity contract**: every class's ``wire_size`` equals
``estimate_size(payload.as_dict())``, the size of the dict the message
was first sent as.  Wire size feeds the bandwidth pipes, so a one-byte
slip shifts every downstream timestamp and breaks the recorded
fingerprints; ``tests/net/test_payload_classes.py`` checks the parity on
representative instances of every class.  To add a message, add one
row here and one instance to that test's ``INSTANCES``.

``__init__`` is generated as source text, as ``namedtuple`` does: one is
run per message sent, and a generic ``setattr`` loop costs several times
a hand-written body.  Payloads are read-only by convention, which lets a
sender share one payload object across a fan-out.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, NamedTuple

from repro.net.message import estimate_size

# Size rules: the source of a field's wire size, ``{0}`` standing for
# the field.  The two constant rules fold into the class's fixed size.
NUM = "8"
BOOL = "1"
STR = "len({0})"
OPT_STR = "(len({0}) if {0}.__class__ is str else 1)"
STRS = "sum(map(len, {0}))"
OPT_STRS = "(1 if {0} is None else sum(map(len, {0})))"
INTS = "8 * len({0})"
NUM_MAP = "16 * len({0})"
STR_INT_MAP = "sum(map(len, {0})) + 8 * len({0})"
ENTRIES = "sum(map(_wire_size, {0}))"
ESTIMATE = "estimate_size({0})"
NESTED = '(getattr({0}, "wire_size", None) or estimate_size({0}))'

#: The names the size rules call.
_RULE_GLOBALS = {
    "estimate_size": estimate_size,
    "_wire_size": attrgetter("wire_size"),
}


class Fixed(NamedTuple):
    """A field with the same value in every instance: on the wire, set
    on the class."""

    value: Any


class Absent(NamedTuple):
    """A field this shape does not carry: a class-level default for
    handlers that read it, never on the wire."""

    default: Any


class Payload:
    """Base of the generated payload classes."""

    __slots__ = ()
    #: Wire field names in row order (fixed fields included).
    _fields: tuple = ()

    def as_dict(self) -> dict:
        """The dict form of this payload: the wire-size reference."""
        return {name: getattr(self, name) for name in self._fields}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"<{type(self).__name__} {fields}>"


def payload_class(name: str, doc: str = "", **fields: Any) -> type:
    """Build a payload class from one table row (see the module doc)."""
    namespace = {"__doc__": doc, "__module__": __name__}
    params, body, sizes, wire = [], [], [], []
    constant = 0
    for field, rule in fields.items():
        if isinstance(rule, Absent):
            namespace[field] = rule.default
            continue
        wire.append(field)
        constant += len(field)
        if isinstance(rule, Fixed):
            namespace[field] = rule.value
            constant += estimate_size(rule.value)
            continue
        params.append(field)
        body.append(f"self.{field} = {field}")
        if rule.isdigit():
            constant += int(rule)
        else:
            sizes.append(rule.format(field))
    body.append(f"self.wire_size = {' + '.join([str(constant), *sizes])}")
    source = "def __init__({}):\n    {}\n".format(
        ", ".join(["self", *params]), "\n    ".join(body)
    )
    scope: dict = {}
    exec(source, _RULE_GLOBALS, scope)
    init = scope["__init__"]
    init.__qualname__ = f"{name}.__init__"
    namespace.update(
        __slots__=(*params, "wire_size"), __init__=init, _fields=tuple(wire)
    )
    return type(name, (Payload,), namespace)


# ----------------------------------------------------------------------
# The table: one row per message shape.

Reply = payload_class("Reply", "The RPC reply wrapper.", result=NESTED)

# Raft (repro.raft.node)
AppendEntries = payload_class(
    "AppendEntries", term=NUM, leader=STR, prev_index=NUM, prev_term=NUM,
    entries=ENTRIES, leader_commit=NUM,
)
AppendEntriesResponse = payload_class(
    "AppendEntriesResponse", term=NUM, success=BOOL, follower=STR,
    match_index=NUM,
)

# Delay probing (repro.net.probing)
Probe = payload_class("Probe", "A proxy's clock reading.", t=NUM)
ProbeReply = payload_class(
    "ProbeReply", "A probed server's clock reading.", server_time=NUM
)

# Read-and-prepare replies (Carousel, 2PL lock grants, Natto)
ReadOk = payload_class("ReadOk", ok=Fixed(True), values=ESTIMATE)
ReadOkEpoch = payload_class(
    "ReadOkEpoch", "Natto's read delivery.", ok=Fixed(True),
    values=ESTIMATE, epoch=NUM,
)
Refusal = payload_class("Refusal", ok=Fixed(False), reason=OPT_STR)

# 2PC votes.  The Natto coordinator reads epoch/conditional on every
# vote; only its yes-votes carry them.
Vote = payload_class(
    "Vote", "The 2PL yes-vote.", txn=STR, partition=NUM, vote=STR,
    participants=INTS, client=STR,
)
VoteReason = payload_class(
    "VoteReason", "Carousel's votes (reason None on yes) and every no-vote.",
    txn=STR, partition=NUM, vote=STR, participants=INTS, client=STR,
    reason=OPT_STR, epoch=Absent(0), conditional=Absent(None),
)
NattoVoteYes = payload_class(
    "NattoVoteYes", "Natto's yes-vote: read epoch + optional condition.",
    txn=STR, partition=NUM, vote=STR, epoch=NUM, conditional=OPT_STRS,
    participants=INTS, client=STR,
)

# Client requests (Carousel / Natto / 2PL)
CarouselReadAndPrepare = payload_class(
    "CarouselReadAndPrepare", txn=STR, reads=STRS, writes=STRS,
    coordinator=STR, client=STR, participants=INTS,
)
NattoReadAndPrepare = payload_class(
    "NattoReadAndPrepare", txn=STR, ts=NUM, priority=NUM, full_reads=STRS,
    full_writes=STRS, coordinator=STR, client=STR, participants=INTS,
    arrival_estimates=NUM_MAP, max_owd=NUM,
)
LockRead = payload_class(
    "LockRead", "2PL phase 1: lock acquisition + reads.", txn=STR,
    reads=STRS, writes=STRS, ts=NUM, priority=NUM, client=STR,
    coordinator=STR, participants=INTS,
)
TwoPLPrepare = payload_class(
    "TwoPLPrepare", "2PL phase 2: write data to a participant.", txn=STR,
    writes=ESTIMATE, coordinator=STR, client=STR, participants=INTS,
)
ReleaseLocks = payload_class("ReleaseLocks", txn=STR)
CommitRequest = payload_class(
    "CommitRequest", "Client -> coordinator: write data + commit.",
    txn=STR, client=STR, participants=INTS, writes=ESTIMATE,
    epochs=Absent({}), fast_path=Absent(False),
)
NattoCommitRequest = payload_class(
    "NattoCommitRequest", "Commit request + per-partition read epochs.",
    txn=STR, client=STR, participants=INTS, writes=ESTIMATE, epochs=NUM_MAP,
    fast_path=Absent(False),
)
FastCommitRequest = payload_class(
    "FastCommitRequest", "Carousel Fast: commit + unanimous-fast-path flag.",
    txn=STR, client=STR, participants=INTS, writes=ESTIMATE, fast_path=BOOL,
    epochs=Absent({}),
)
AbortRequest = payload_class(
    "AbortRequest", txn=STR, client=STR, participants=INTS
)

# Coordinator fan-out + client events
CommitTxn = payload_class(
    "CommitTxn", "Coordinator -> participant outcome.", txn=STR,
    decision=BOOL, writes=ESTIMATE, reason=Absent(None),
)
CommitTxnReason = payload_class(
    "CommitTxnReason", "Abort outcome carrying the classified reason.",
    txn=STR, decision=BOOL, writes=ESTIMATE, reason=STR,
)
FastOutcome = payload_class(
    "FastOutcome", "Carousel Fast abort notice to follower replicas.",
    txn=STR, decision=BOOL,
)
DecisionEvent = payload_class(
    "DecisionEvent", txn=STR, kind=Fixed("decision"), committed=BOOL,
    reason=Absent(None),
)
DecisionEventReason = payload_class(
    "DecisionEventReason", "Abort decision carrying the reason.", txn=STR,
    kind=Fixed("decision"), committed=BOOL, reason=STR,
)
ReadsEvent = payload_class(
    "ReadsEvent", "Natto's read delivery after a failed condition.",
    txn=STR, kind=Fixed("reads"), partition=NUM, values=ESTIMATE, epoch=NUM,
)
PartitionValuesEvent = payload_class(
    "PartitionValuesEvent", "RECSF values (recsf_base / recsf_reads).",
    txn=STR, kind=STR, partition=NUM, values=ESTIMATE,
)
WoundEvent = payload_class(
    "WoundEvent", "2PL wound notice to the victim's client.", txn=STR,
    kind=Fixed("wound"), by=STR,
)

# Natto CP / RECSF coordination
RecsfForward = payload_class(
    "RecsfForward", "Participant -> blocker's coordinator read forward.",
    txn=STR, reader=STR, reader_client=STR, partition=NUM, keys=STRS,
)
ConditionResolved = payload_class(
    "ConditionResolved", "Participant -> coordinator condition outcome.",
    txn=STR, partition=NUM, ok=BOOL, epoch=NUM,
)

# TAPIR
TapirRead = payload_class("TapirRead", keys=STRS)
TapirReadResult = payload_class(
    "TapirReadResult", "values: {key: (value, version)}.", values=ESTIMATE
)
TapirPrepare = payload_class(
    "TapirPrepare", txn=STR, read_versions=STR_INT_MAP, write_keys=STRS
)
TapirFinalize = payload_class(
    "TapirFinalize", txn=STR, decision=STR, read_versions=STR_INT_MAP,
    write_keys=STRS,
)
TapirVoteOk = payload_class("TapirVoteOk", vote=Fixed("ok"))
TapirVoteAbort = payload_class(
    "TapirVoteAbort", vote=Fixed("abort"), reason=STR
)
TapirAck = payload_class("TapirAck", ack=Fixed(True))
TapirCommit = payload_class("TapirCommit", txn=STR, writes=ESTIMATE)
TapirAbort = payload_class("TapirAbort", txn=STR)

#: Shared stateless instances: every ok-vote and ack is byte-identical,
#: so one object serves all replicas.
TAPIR_VOTE_OK = TapirVoteOk()
TAPIR_ACK = TapirAck()
