"""Quickstart: a five-datacenter Natto deployment in ~40 lines.

Builds the paper's default topology (5 Azure DCs, 5 partitions x 3
replicas), runs one high-priority and one low-priority transaction that
conflict on a hot key, and prints what happened.

Run:  python examples/quickstart.py
"""

from repro.core import Natto, natto_recsf
from repro.harness import deploy
from repro.systems.base import SystemConfig
from repro.txn.priority import Priority
from repro.txn.transaction import TransactionSpec
from repro.net.topology import azure_topology


def transfer(txn_id, source, target, amount, priority):
    """A 2FI read-modify-write: move `amount` between two counters."""

    def compute_writes(reads):
        return {
            source: str(int(reads[source]) - amount),
            target: str(int(reads[target]) + amount),
        }

    return TransactionSpec(
        txn_id=txn_id,
        read_keys=(source, target),
        write_keys=(source, target),
        priority=priority,
        compute_writes=compute_writes,
    )


def main():
    # 1. Deploy Natto (all mechanisms on) over the paper's topology,
    # 2. with one client application server in Virginia.
    system = Natto(natto_recsf())
    cluster, (client,), stats = deploy(
        system, azure_topology(), SystemConfig(), 7, [("app-va", "VA")]
    )

    # 3. Give the probe proxies a moment to learn network delays, then
    #    seed two accounts and run conflicting transfers.
    cluster.sim.run(until=2.5)

    def scenario():
        # Seed balances (values are strings; the store's default value
        # is not a number, so write first).
        yield client.submit(
            TransactionSpec(
                "seed", ("alice", "bob"), ("alice", "bob"),
                compute_writes=lambda r: {"alice": "100", "bob": "100"},
            )
        )
        yield 0.5
        client.submit(transfer("batch-job", "alice", "bob", 10, Priority.LOW))
        yield 0.02  # 20 ms later, a premium user's transfer arrives
        client.submit(transfer("premium", "bob", "alice", 25, Priority.HIGH))

    cluster.sim.spawn(scenario())
    cluster.sim.run(until=30.0)

    # 4. Report.
    print(f"{'transaction':12s} {'priority':8s} {'latency':>9s} {'retries':>7s}")
    for record in stats.records:
        print(
            f"{record.txn_id:12s} {record.priority.name.lower():8s} "
            f"{record.latency * 1000:7.1f}ms {record.retries:7d}"
        )
    pid = cluster.partitioner.partition_of("alice")
    store = system.groups[pid].leader.store
    print(f"\nfinal balances: alice={store.read('alice').value}", end="")
    pid = cluster.partitioner.partition_of("bob")
    store = system.groups[pid].leader.store
    print(f" bob={store.read('bob').value}")


if __name__ == "__main__":
    main()
