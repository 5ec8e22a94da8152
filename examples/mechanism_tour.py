"""A guided tour of Natto's four mechanisms (Figures 3-6 of the paper).

Recreates the paper's illustrative scenarios — one low-priority and one
high-priority transaction colliding in controlled geometries — on each
variant of the mechanism ladder, and prints what fired and what it
bought in latency.

Run:  python examples/mechanism_tour.py
"""

from repro.cluster.clock import ClockConfig
from repro.core import (
    Natto,
    natto_cp,
    natto_lecsf,
    natto_pa,
    natto_recsf,
    natto_ts,
)
from repro.harness import deploy, run_until_settled
from repro.systems.base import SystemConfig
from repro.txn.priority import Priority
from repro.txn.transaction import TransactionSpec
from repro.net.topology import azure_topology

WARMUP = 2.5


def rmw(txn_id, keys, priority):
    keys = tuple(keys)
    return TransactionSpec(
        txn_id=txn_id,
        read_keys=keys,
        write_keys=keys,
        priority=priority,
        compute_writes=lambda reads: {
            k: (reads[k] + "|" + txn_id)[-64:] for k in keys
        },
    )


def key_for_partition(partitioner, pid):
    i = 0
    while True:
        key = f"key-{i}"
        if partitioner.partition_of(key) == pid:
            return key
        i += 1


def run_scenario(config, client_dc, keys_of, gap=0.020):
    """One low-priority then (gap later) one high-priority transaction
    over the same keys; returns (high latency ms, mechanism counters)."""
    system = Natto(config)
    cluster, clients, stats = deploy(
        system,
        azure_topology(),
        SystemConfig(clock=ClockConfig(max_offset=0.0)),
        3,
        [("app", client_dc)],
    )
    (client,) = clients
    cluster.sim.run(until=WARMUP)
    keys = keys_of(cluster.partitioner)

    def scenario():
        client.submit(rmw("tlow", keys, Priority.LOW))
        yield gap
        client.submit(rmw("thigh", keys, Priority.HIGH))

    cluster.sim.spawn(scenario())
    run_until_settled(cluster.sim, clients, after=WARMUP + gap, cap=WARMUP + 60)
    high = next(r for r in stats.records if r.priority is Priority.HIGH)
    counters = {}
    for group in system.groups.values():
        for name, value in group.leader.stats.items():
            counters[name] = counters.get(name, 0) + value
    return high.latency * 1000.0, counters


def main():
    ladder = [
        ("Natto-TS", natto_ts()),
        ("Natto-LECSF", natto_lecsf()),
        ("Natto-PA", natto_pa()),
        ("Natto-CP", natto_cp()),
        ("Natto-RECSF", natto_recsf()),
    ]

    print("Scenario A (Figures 3/4): conflicting on a near and a far")
    print("partition; client in WA.  PA evicts the queued low-priority")
    print("transaction; CP prepares past its prepared twin remotely.\n")
    keys_near_far = lambda p: [key_for_partition(p, 0), key_for_partition(p, 4)]
    print(f"{'variant':14s} {'high-pri latency':>16s}  mechanisms fired")
    for name, config in ladder:
        latency, counters = run_scenario(config, "WA", keys_near_far)
        fired = ", ".join(
            f"{key}={counters[key]}"
            for key in ("priority_aborts", "conditional_prepares",
                        "conditions_ok", "recsf_forwards")
            if counters.get(key)
        )
        print(f"{name:14s} {latency:14.1f}ms  {fired or '-'}")

    print("\nScenario B (Figures 5/6): blocked behind a committed-but-")
    print("unreplicated transaction on one far partition; client in PR.")
    print("LECSF removes a replication round; RECSF also forwards the")
    print("reads to the predecessor's coordinator.\n")
    keys_far = lambda p: [key_for_partition(p, 3)]
    print(f"{'variant':14s} {'high-pri latency':>16s}  mechanisms fired")
    for name, config in ladder:
        latency, counters = run_scenario(config, "PR", keys_far, gap=0.010)
        fired = ", ".join(
            f"{key}={counters[key]}"
            for key in ("priority_aborts", "conditional_prepares",
                        "recsf_forwards")
            if counters.get(key)
        )
        print(f"{name:14s} {latency:14.1f}ms  {fired or '-'}")


if __name__ == "__main__":
    main()
