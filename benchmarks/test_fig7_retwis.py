"""Figure 7(c)/(d): Retwis on the Azure topology.

Paper shape: at 1500 txn/s Natto-RECSF sits around ~430 ms while the
2PL variants are in the seconds and TAPIR/Carousel worse still.
"""

from repro.experiments import EXHIBITS, run_exhibit

from benchmarks.conftest import run_once

SYSTEMS = ("2PL+2PC(P)", "TAPIR", "Carousel Basic",
           "Natto-TS", "Natto-RECSF")
RATES = (100, 1500)


def test_fig7cd_retwis(benchmark, bench_scale):
    tables = run_once(
        benchmark,
        lambda: run_exhibit(EXHIBITS["fig7c"], bench_scale, systems=SYSTEMS, x_values=RATES),
    )
    for table in tables.values():
        table.print()
    high = tables["high"]

    # High load: Natto < prioritized 2PL < TAPIR (paper: 432 / 1922 /
    # 4393 ms at 1500 txn/s).
    assert high.value("Natto-RECSF", 1500) < high.value("2PL+2PC(P)", 1500)
    assert high.value("Natto-RECSF", 1500) < 0.5 * high.value("TAPIR", 1500)
    assert high.value("Natto-TS", 1500) < high.value("Carousel Basic", 1500)

    # Low-priority goodput: Natto commits about as many low-priority
    # transactions as the input mix offers (no starvation collapse).
    goodput = tables["low_goodput"]
    assert goodput.value("Natto-RECSF", 1500) > 0.75 * 0.9 * 1500
