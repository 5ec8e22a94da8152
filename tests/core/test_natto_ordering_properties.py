"""Property-based tests of Natto's timestamp ordering at one server."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.partition import Partitioner
from repro.core.config import natto_ts
from repro.core.server import NattoParticipant
from repro.net.network import Network
from repro.net.payload import CommitTxn
from repro.net.topology import azure_topology
from repro.sim import Simulator

from tests.core.test_natto_server_unit import Recorder, rap


def build_server():
    sim = Simulator()
    net = Network(sim, azure_topology())
    server = NattoParticipant(
        sim,
        net,
        "p0-VA",
        "VA",
        peers=["p0-VA"],
        natto_config=natto_ts(),
        partitioner=Partitioner(1),
    )
    server.become_leader()
    net.register(Recorder(sim, "client"))
    net.register(Recorder(sim, "coord"))
    return sim, server


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=0.5),  # timestamp
            st.integers(min_value=0, max_value=2),     # priority
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_nonconflicting_transactions_dispatch_in_timestamp_order(specs):
    """With disjoint key sets, reads resolve exactly in (ts, id) order."""
    sim, server = build_server()
    completions = []
    expected = []
    for i, (ts, priority) in enumerate(specs):
        txn = f"t{i:02d}"
        reply = server.handle_read_and_prepare(
            rap(txn, ts, priority, [f"key-{i}"]), "client"
        )
        reply.add_done_callback(lambda f, txn=txn: completions.append(txn))
        expected.append(((ts, txn), txn))
    sim.run(until=2.0)
    assert completions == [txn for _, txn in sorted(expected)]


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=0.3),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=60, deadline=None)
def test_no_arrival_pattern_wedges_the_server(specs):
    """All-conflicting transactions on one key: every reply resolves
    once conflicts clear, and server structures drain."""
    sim, server = build_server()
    replies = []
    for i, (ts, priority) in enumerate(specs):
        replies.append(
            server.handle_read_and_prepare(
                rap(f"t{i:02d}", ts, priority, ["hot"]), "client"
            )
        )
    sim.run(until=1.0)
    # Resolve each prepared transaction so waiters advance.
    for _ in range(len(specs) + 1):
        for txn in sorted(server.prepared.txn_ids):
            server.handle_commit_txn(
                CommitTxn(txn, True, {"hot": txn}), "coord"
            )
        sim.run(until=sim.now + 1.0)
    assert all(r.done for r in replies)
    assert server.queue == []
    assert server.waiting == []
    assert len(server.prepared) == 0
