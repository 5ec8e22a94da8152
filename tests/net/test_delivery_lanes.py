"""Deliveries through kernel lanes match the two-event delivery they replace.

The network posts each message's arrival to its link's lane and its CPU
completion to the destination's lane.  The reference here gives every
one of those posts its own heap entry instead, so a delivery is what it
was before lanes: an ``_arrive`` post, ``admission_delay``, then a
``_handle`` post.  Handler order and times, and the kernel's event
counts after every run slice, must be the same.

Delays and service times are on a dyadic grid, so that equal arrival
instants on two links into one node, and CPU completions tied with
unrelated events, happen exactly.
"""

from functools import partial
from itertools import cycle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Node
from repro.net import LossConfig, Network, azure_topology
from repro.sim import Simulator

from tests.sim.test_kernel_lanes import PlainPosts

GRID = 2.0 ** -7
NAMES = ("a", "b", "c", "d")
DATACENTERS = ("VA", "VA", "SG", "SG")


class _ListDelay:
    """One-way delays taken in turn from a list."""

    def __init__(self, delays):
        self._delays = cycle(delays)

    def sample(self, src_dc, dst_dc):
        return next(self._delays)

    def mean(self, src_dc, dst_dc):  # pragma: no cover - not used
        return 0.0


class _Recorder(Node):
    def __init__(self, sim, name, dc, log, stop_at, service_time):
        super().__init__(sim, name, dc, service_time=service_time)
        self.log = log
        self.stop_at = stop_at

    def handle_m(self, payload, src):
        self.log.append(("handle", self.name, src, self.sim.now, payload))
        if payload == self.stop_at:
            self.sim.stop()
        return payload


def _scenario(sim_class, services, delays, capped, actions, cuts, stop_at):
    """Run ``actions`` on a four-node network; the handler log and the
    kernel's counts after every slice."""
    sim = sim_class()
    capacity = 8e6 if capped else float("inf")
    net = Network(
        sim,
        azure_topology(),
        delay_model=_ListDelay(delays),
        loss=LossConfig(link_capacity_bytes_per_s=capacity),
    )
    log = []
    nodes = [
        net.register(_Recorder(sim, name, dc, log, stop_at, service))
        for name, dc, service in zip(NAMES, DATACENTERS, services)
    ]

    def act(kind, src, dst, n):
        if kind == "send":
            net.send(nodes[src], NAMES[dst], "m", n)
        elif kind == "call":
            net.call(nodes[src], NAMES[dst], "m", n).add_done_callback(
                lambda f: log.append(("reply", NAMES[src], sim.now, f.value))
            )
        elif kind == "tick":
            log.append(("tick", sim.now, n))
        else:
            nodes[dst].service.stall_until(sim.now + (src + 1) * GRID)

    for n, (slot, kind, src, dst) in enumerate(actions):
        sim.post_at(slot * GRID, partial(act, kind, src, dst, n))
    counts = []
    # The second unbounded run drains what a stop() left.
    for until in [cut * GRID for cut in sorted(cuts)] + [None, None]:
        sim.run(until)
        counts.append((sim.now, sim.events_fired, sim.pending_events))
    return log, counts


def _check(**scenario):
    got = _scenario(Simulator, **scenario)
    assert got == _scenario(PlainPosts, **scenario)
    return got


node_index = st.integers(min_value=0, max_value=len(NAMES) - 1)


@given(
    services=st.lists(
        st.sampled_from([0.0, GRID / 4, GRID / 2, 3 * GRID / 4, 2 * GRID]),
        min_size=len(NAMES),
        max_size=len(NAMES),
    ),
    delays=st.lists(
        st.sampled_from([GRID, 2 * GRID, 3 * GRID, 5 * GRID]),
        min_size=1,
        max_size=6,
    ),
    capped=st.booleans(),
    actions=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.sampled_from(["send", "send", "call", "tick", "stall"]),
            node_index,
            node_index,
        ),
        max_size=40,
    ),
    cuts=st.lists(st.integers(min_value=1, max_value=40), max_size=4),
    stop_at=st.integers(min_value=-1, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_lane_deliveries_match_one_entry_per_event(
    services, delays, capped, actions, cuts, stop_at
):
    _check(
        services=services, delays=delays, capped=capped, actions=actions,
        cuts=cuts, stop_at=stop_at,
    )


def test_tied_arrivals_and_a_tied_cpu_completion():
    # a and b (both VA) send to c at the same instant over one delay:
    # equal arrival instants on two links into c, which has a service
    # time, so the second waits for the first.  A tick is due at the
    # instant the second completes; it was posted first, so it fires
    # first.  Then c stalls until 7 GRID, and a slice ends inside c's
    # backlog.
    log, counts = _check(
        services=[0.0, 0.0, GRID, 0.0],
        delays=[2 * GRID],
        capped=False,
        actions=[
            (0, "send", 0, 2),
            (0, "send", 1, 2),
            (4, "tick", 0, 0),
            (3, "stall", 3, 2),
            (3, "send", 0, 2),
        ],
        cuts=[3],
        stop_at=-1,
    )
    assert log == [
        ("handle", "c", "a", 3 * GRID, 0),
        ("tick", 4 * GRID, 2),
        ("handle", "c", "b", 4 * GRID, 1),
        ("handle", "c", "a", 8 * GRID, 4),
    ]
    assert counts[0] == (3 * GRID, 7, 3)
    assert counts[-1] == (8 * GRID, 11, 0)


def test_a_stop_inside_a_cpu_backlog():
    # Five calls queue at c's CPU; the second one's handler stops the
    # run with three still queued and two replies in flight.
    log, counts = _check(
        services=[0.0, 0.0, GRID, 0.0],
        delays=[GRID],
        capped=False,
        actions=[(0, "call", 0, 2)] * 5,
        cuts=[],
        stop_at=1,
    )
    assert [entry[-1] for entry in log if entry[0] == "handle"] == [
        0, 1, 2, 3, 4,
    ]
    assert len(log) == 10
    assert counts[0] == (3 * GRID, 12, 5)
    assert counts[-1] == (7 * GRID, 20, 0)
