"""Starvation mitigation: promotion after repeated priority aborts.

§3.3.1: "a low-priority transaction can be promoted to high priority if
it is aborted one or more times."  With ``promote_after_aborts=n``, a
low-priority transaction's (n+1)-th attempt runs at high priority, so a
steady stream of high-priority traffic cannot starve it forever.
"""

from repro.core import Natto, natto_pa
from repro.harness import run_until_settled
from repro.txn.priority import Priority

from tests.helpers import build_system, rmw_spec

WARMUP = 2.5


def run_scenario(promote_after):
    cluster, clients, stats = build_system(
        Natto(natto_pa(promote_after_aborts=promote_after)),
        client_dcs=["VA"],
    )
    cluster.sim.run(until=WARMUP)
    client = clients[0]

    def staged():
        # The victim: a low-priority transaction on the hot key.
        client.submit(rmw_spec("victim", ["hot", "far"], priority=Priority.LOW))
        # A dense stream of conflicting high-priority transactions: the
        # victim's ~110 ms buffering window (the far participant's
        # timestamp) always contains at least one VIP arrival, so every
        # attempt is priority-abortable until promotion kicks in.
        for i in range(30):
            yield 0.05
            client.submit(
                rmw_spec(f"vip-{i}", ["hot", "far"], priority=Priority.HIGH)
            )

    cluster.sim.spawn(staged())
    run_until_settled(
        cluster.sim, clients, after=WARMUP + 30 * 0.05, cap=WARMUP + 120
    )
    victim = next(r for r in stats.records if r.txn_id == "victim")
    return victim


def test_promotion_bounds_the_victims_retries():
    without = run_scenario(promote_after=None)
    with_promotion = run_scenario(promote_after=2)
    assert with_promotion.committed
    # Once promoted, the victim stops being priority-abortable, so its
    # retry count is capped near the promotion threshold.
    assert with_promotion.retries <= 4
    # Without promotion the victim suffers more under the same stream.
    assert without.retries > with_promotion.retries


def test_promotion_preserves_commitment_of_everyone():
    cluster, clients, stats = build_system(
        Natto(natto_pa(promote_after_aborts=1)), client_dcs=["VA"]
    )
    cluster.sim.run(until=WARMUP)
    client = clients[0]

    def staged():
        client.submit(rmw_spec("victim", ["hot"], priority=Priority.LOW))
        for i in range(5):
            yield 0.1
            client.submit(
                rmw_spec(f"vip-{i}", ["hot"], priority=Priority.HIGH)
            )

    cluster.sim.spawn(staged())
    run_until_settled(
        cluster.sim, clients, after=WARMUP + 5 * 0.1, cap=WARMUP + 60
    )
    assert all(r.committed for r in stats.records)
