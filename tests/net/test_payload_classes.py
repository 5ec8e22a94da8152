"""Payload classes must put the same bytes on the wire as the dicts
they replaced.

Three layers of protection:

* **Wire-size parity** — every class's arithmetic ``wire_size`` must
  equal :func:`~repro.net.message.estimate_size` over ``as_dict()``
  exactly.  Wire size feeds the bandwidth pipes, so a one-byte slip
  shifts every downstream timestamp and silently changes experiment
  output.  A completeness guard fails if a payload class is added to
  :mod:`repro.net.payload` without a representative instance here.
* **Shape defaults** — a field a handler reads on a shape that does not
  carry it has a class-level default, which stays off the wire.
* **End-to-end fixture digests** — tiny single-point runs of all four
  system families, pinned to sha256 fingerprints over the full
  transaction record stream.  Any behavioral drift in the payload/
  messaging layer shows up here as a digest mismatch.
"""

from __future__ import annotations

import inspect

import pytest

from repro.net import payload as payload_mod
from repro.net.message import HEADER_BYTES, Message, estimate_size
from repro.net.payload import (
    TAPIR_ACK,
    TAPIR_VOTE_OK,
    AbortRequest,
    AppendEntries,
    AppendEntriesResponse,
    CarouselReadAndPrepare,
    CommitRequest,
    CommitTxn,
    CommitTxnReason,
    ConditionResolved,
    DecisionEvent,
    DecisionEventReason,
    FastCommitRequest,
    FastOutcome,
    LockRead,
    NattoCommitRequest,
    NattoReadAndPrepare,
    NattoVoteYes,
    PartitionValuesEvent,
    Payload,
    Probe,
    ProbeReply,
    ReadOk,
    ReadOkEpoch,
    ReadsEvent,
    RecsfForward,
    Refusal,
    ReleaseLocks,
    Reply,
    TapirAbort,
    TapirAck,
    TapirCommit,
    TapirFinalize,
    TapirPrepare,
    TapirRead,
    TapirReadResult,
    TapirVoteAbort,
    TapirVoteOk,
    TwoPLPrepare,
    Vote,
    VoteReason,
    WoundEvent,
)

# Representative instances: at least one per class, plus variants for
# every conditional-size branch (None vs str reasons, empty vs loaded
# containers, writes None vs dict, conditional None vs key list).
INSTANCES = [
    Reply("done"),
    Reply(None),
    Reply({"nested": [1, 2.5, "x"]}),
    Reply(ReadOk({"key-1": "v" * 64})),  # payload-in-payload result
    AppendEntries(3, "raft-0", 7, 2, [(3, {"op": "w", "key": "key-9"})], 6),
    AppendEntries(1, "raft-2", 0, 0, [], 0),  # idle heartbeat
    AppendEntriesResponse(3, True, "raft-1", 8),
    AppendEntriesResponse(4, False, "raft-2", 0),
    Probe(1.25),
    ProbeReply(2.5),
    ReadOk({"key-1": "v" * 64, "key-2": ""}),
    ReadOk({}),
    ReadOkEpoch({"key-3": "abc"}, 4),
    Refusal("preempted"),
    Refusal(None),
    Vote("c-1:0.0", 2, "yes", [0, 1, 2], "client-A"),
    VoteReason("c-1:0.0", 2, "no", [0, 1], "client-A", "late"),
    VoteReason("c-1:0.0", 2, "yes", [0], "client-A", None),
    NattoVoteYes("c-1:0.0", 1, "yes", 9, None, [0, 1], "client-A"),
    NattoVoteYes("c-1:0.0", 1, "yes", 9, ["key-1", "key-2"], [1], "cl"),
    CarouselReadAndPrepare(
        "c-1:0.0", ["key-1"], ["key-2"], "carousel-co-0", "client-A", [0, 1]
    ),
    NattoReadAndPrepare(
        "c-1:0.0", 1.5, 1, ["key-1"], ["key-1"], "natto-co-0", "client-A",
        [0, 2], {0: 0.04, 2: 0.08}, 0.08,
    ),
    LockRead(
        "c-1:0.0", ["key-1"], ["key-2"], 0.5, 0, "client-A", "co-1", [1]
    ),
    TwoPLPrepare("c-1:0.0", {"key-2": "v" * 64}, "co-1", "client-A", [1]),
    ReleaseLocks("c-1:0.0"),
    CommitRequest("c-1:0.0", "client-A", [0, 1], {"key-2": "v"}),
    NattoCommitRequest(
        "c-1:0.0", "client-A", [0, 1], {"key-2": "v"}, {0: 3, 1: 4}
    ),
    FastCommitRequest("c-1:0.0", "client-A", [0], {"key-1": "v"}, True),
    AbortRequest("c-1:0.0", "client-A", [0, 1]),
    CommitTxn("c-1:0.0", True, {"key-1": "v" * 64}),
    CommitTxn("c-1:0.0", False, None),
    CommitTxnReason("c-1:0.0", False, None, "cascade"),
    CommitTxnReason("c-1:0.0", False, {"key-1": "v"}, "late"),
    FastOutcome("c-1:0.0", False),
    DecisionEvent("c-1:0.0", True),
    DecisionEventReason("c-1:0.0", False, "preempted"),
    ReadsEvent("c-1:0.0", 2, {"key-5": "v"}, 7),
    PartitionValuesEvent("c-1:0.0", "recsf_base", 1, {"key-6": "w"}),
    PartitionValuesEvent("c-1:0.0", "recsf_reads", 1, {}),
    WoundEvent("c-1:0.0", "c-2:1.0"),
    RecsfForward("c-1:0.0", "c-2:1.0", "client-B", 2, ["key-1", "key-7"]),
    ConditionResolved("c-1:0.0", 2, True, 11),
    TapirRead(["key-1", "key-2"]),
    TapirReadResult({"key-1": ("v" * 64, 3), "key-2": ("", 0)}),
    TapirPrepare("c-1:0.0", {"key-1": 3}, ["key-2"]),
    TapirFinalize("c-1:0.0", "ok", {"key-1": 3}, ["key-2"]),
    TapirVoteOk(),
    TAPIR_VOTE_OK,
    TapirVoteAbort("conflict"),
    TapirAck(),
    TAPIR_ACK,
    TapirCommit("c-1:0.0", {"key-2": "v" * 64}),
    TapirAbort("c-1:0.0"),
]


def _all_payload_classes():
    return [
        cls
        for _, cls in inspect.getmembers(payload_mod, inspect.isclass)
        if issubclass(cls, Payload) and cls is not Payload
    ]


def test_every_payload_class_has_a_representative_instance():
    covered = {type(p) for p in INSTANCES}
    missing = [c.__name__ for c in _all_payload_classes() if c not in covered]
    assert not missing, f"no wire-size coverage for: {missing}"


@pytest.mark.parametrize(
    "instance", INSTANCES, ids=lambda p: type(p).__name__
)
def test_wire_size_matches_estimate_of_dict_form(instance):
    assert instance.wire_size == estimate_size(instance.as_dict())


#: (instance, field, default) for every field a handler reads on a
#: shape that does not carry it.
SHAPE_DEFAULTS = [
    (CommitTxn("c-1:0.0", False, None), "reason", None),
    (DecisionEvent("c-1:0.0", False), "reason", None),
    (VoteReason("c-1:0.0", 2, "no", [0, 1], "client-A", "late"), "epoch", 0),
    (
        VoteReason("c-1:0.0", 2, "no", [0, 1], "client-A", "late"),
        "conditional",
        None,
    ),
    (CommitRequest("c-1:0.0", "client-A", [0], {"k": "v"}), "epochs", {}),
    (
        CommitRequest("c-1:0.0", "client-A", [0], {"k": "v"}),
        "fast_path",
        False,
    ),
]


@pytest.mark.parametrize(
    "instance, field, default",
    SHAPE_DEFAULTS,
    ids=lambda v: type(v).__name__ if isinstance(v, Payload) else None,
)
def test_shape_default_is_readable_and_off_the_wire(instance, field, default):
    value = getattr(instance, field)
    assert value == default and type(value) is type(default)
    assert field not in instance.as_dict()
    assert field not in type(instance).__slots__
    assert instance.wire_size == estimate_size(instance.as_dict())


def test_message_wire_size_uses_payload_precompute():
    request = AppendEntries(3, "raft-0", 7, 2, [(3, {"k": "v"})], 6)
    message = Message("append_entries", request, "raft-0", "raft-1")
    assert message.wire_size == HEADER_BYTES + estimate_size(
        request.as_dict()
    )
    # Dict payloads still take the estimate walk, to the same number.
    dict_message = Message(
        "append_entries", request.as_dict(), "raft-0", "raft-1"
    )
    assert dict_message.wire_size == message.wire_size


def test_raft_append_entries_round_trip_over_network():
    """A Raft payload arrives through the real network as the object
    sent, read by attribute."""
    from repro.cluster.node import Node
    from repro.net.network import Network
    from repro.net.topology import Topology
    from repro.sim import Simulator

    sim = Simulator()
    topology = Topology(
        "two-dc",
        datacenters=("dc-a", "dc-b"),
        rtt_ms={("dc-a", "dc-b"): 10.0},
    )
    net = Network(sim, topology)

    received = []

    class Follower(Node):
        def handle_append_entries(self, payload, src):
            received.append((payload, src))

    leader = net.register(Node(sim, "leader", "dc-a"))
    net.register(Follower(sim, "follower", "dc-b"))

    sent = AppendEntries(2, "leader", 4, 1, [(2, {"op": "w"})], 3)
    net.send(leader, "follower", "append_entries", sent)
    sim.run()

    assert len(received) == 1
    payload, src = received[0]
    assert src == "leader"
    assert payload is sent  # no copy on the wire
    assert payload.entries == [(2, {"op": "w"})]
    assert payload.leader_commit == 3


# ----------------------------------------------------------------------
# End-to-end behavior pins: tiny fixture runs, one per system family.

#: Recorded from the pre-payload-conversion code path (dict payloads):
#: the conversion — and any future change to this layer — must leave
#: every family's full transaction record stream bit-identical.
FIXTURE_DIGESTS = {
    "2PL+2PC":
        "c05d24fe62bdfcddcf0f1ecc90b4a4c3187c177f803f30e539aa8c551c9837b0",
    "TAPIR":
        "1995bd97fcb959b05fac9d116902b2b0decc9b2de697b893957b2ccd11301126",
    "Carousel Basic":
        "6ee04f0e311b82220d042c4605a7b063b3a7a212ecbedcebfefc11c69a8a775c",
    "Natto-RECSF":
        "c1a4c65130948329086cd9fc5aa2e0a274fcc8ef056b2b8c6e6f1b4c97ddaf75",
}


@pytest.mark.parametrize("system", sorted(FIXTURE_DIGESTS))
def test_family_fixture_digest(system):
    from repro.experiments.common import Scale
    from repro.harness.experiment import ExperimentSettings
    from repro.harness.parallel import PointSpec, WorkloadSpec, run_point
    from repro.verify.fingerprint import fingerprint_result
    from repro.workloads import YcsbTWorkload

    scale = Scale("fixture", duration=1.0, trim=0.25, repeats=1, drain=3.0)
    settings = scale.apply(ExperimentSettings()).scaled(seed=7)
    spec = PointSpec(
        system=system,
        x=60,
        input_rate=60.0,
        workload=WorkloadSpec.of(YcsbTWorkload, num_keys=400),
        settings=settings,
        repeats=1,
    )
    repeated = run_point(spec)
    assert fingerprint_result(repeated.results[0]) == FIXTURE_DIGESTS[system]
