"""Figure 10: SmallBank with only sendPayment at high priority.

Paper shape: as the input rate grows to 6000 txn/s the 2PL systems'
high-priority (sendPayment) 95P latency increases by >200% over its
value at 100 txn/s, while Natto-RECSF stays under a 50% increase.
"""

from repro.experiments import EXHIBITS, run_exhibit

from benchmarks.conftest import run_once

RATES = (100, 2500)


def test_fig10_sendpayment_priority(benchmark, bench_scale):
    tables = run_once(
        benchmark,
        lambda: run_exhibit(EXHIBITS["fig10"], bench_scale, x_values=RATES),
    )
    for table in tables.values():
        table.print()
    increase = tables["increase"]

    natto_increase = increase.value("Natto-RECSF", 2500)
    for twopl in ("2PL+2PC", "2PL+2PC(P)", "2PL+2PC(POW)"):
        assert natto_increase < increase.value(twopl, 2500)
    # Natto's growth stays moderate (paper: <50%; allow slack for the
    # scaled-down run).
    assert natto_increase < 120.0
