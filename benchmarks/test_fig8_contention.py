"""Figure 8: Zipf-coefficient sweep (contention) for YCSB+T and Retwis.

Paper shape at 0.95: Carousel/TAPIR take an order-of-magnitude latency
hit, the 2PL family worse still (queueing), Natto-TS only ~2.5x over
its 0.65 value, and the mechanism ladder (LECSF -> PA -> CP -> RECSF)
monotonically pays off for the high-priority tail.
"""

from repro.experiments import EXHIBITS, run_exhibit

from benchmarks.conftest import run_once


def test_fig8a_ycsbt(benchmark, bench_scale):
    tables = run_once(benchmark, lambda: run_exhibit(EXHIBITS["fig8a"], bench_scale, x_values=(0.65, 0.95), systems=("2PL+2PC", "TAPIR", "Carousel Basic", "Natto-TS", "Natto-LECSF", "Natto-PA", "Natto-CP", "Natto-RECSF")))
    for table in tables.values():
        table.print()
    high = tables["high"]

    # Contention hurts the baselines an order of magnitude more than
    # Natto (paper: Carousel/TAPIR >5000 ms, 2PL >25 s, Natto-TS 903 ms).
    assert high.value("Natto-TS", 0.95) < 0.5 * high.value(
        "Carousel Basic", 0.95
    )
    assert high.value("Natto-TS", 0.95) < 0.5 * high.value("TAPIR", 0.95)
    assert high.value("Natto-TS", 0.95) < 0.3 * high.value("2PL+2PC", 0.95)
    # Natto's growth from 0.65 to 0.95 stays within a small factor.
    assert high.value("Natto-TS", 0.95) < 4.0 * high.value("Natto-TS", 0.65)
    # The full mechanism stack beats plain timestamps under contention.
    assert high.value("Natto-RECSF", 0.95) < high.value("Natto-TS", 0.95)


def test_fig8b_retwis(benchmark, bench_scale):
    tables = run_once(benchmark, lambda: run_exhibit(EXHIBITS["fig8b"], bench_scale, x_values=(0.65, 0.95), systems=("2PL+2PC", "TAPIR", "Carousel Basic", "Natto-RECSF")))
    for table in tables.values():
        table.print()
    high = tables["high"]
    # Paper at 0.95: Natto-RECSF has ~10x lower latency than TAPIR,
    # Carousel, and 2PL+2PC.
    for baseline in ("TAPIR", "Carousel Basic", "2PL+2PC"):
        assert high.value("Natto-RECSF", 0.95) < 0.5 * high.value(
            baseline, 0.95
        )
