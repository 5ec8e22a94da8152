"""Command-line entry point for the experiment suite.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments fig7a --scale quick
    python -m repro.experiments fig7a --systems "Natto-RECSF" "Carousel Basic"
    python -m repro.experiments ablations --scale quick
    python -m repro.experiments all --scale bench
    python -m repro.experiments fig11 --scale full   # paper-scale (slow!)
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import table1
from repro.experiments.common import run_exhibit
from repro.experiments.exhibits import EXHIBITS
from repro.harness.systems import SYSTEM_FACTORIES

#: Names that run several exhibits.
GROUPS = {
    "ablations": [name for name in EXHIBITS if name.startswith("abl-")],
    "all": ["table1", *EXHIBITS],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "exhibit",
        choices=["table1", *EXHIBITS, *GROUPS],
        help="which exhibit to regenerate",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "bench", "full"),
        default="bench",
        help="run length/repetitions preset (default: bench)",
    )
    parser.add_argument(
        "--systems",
        nargs="+",
        choices=sorted(SYSTEM_FACTORIES),
        default=None,
        metavar="SYSTEM",
        help="restrict the figures to a subset of systems (paper "
        "labels); the ablations always run Natto-RECSF",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="enable tracing and export one .trace.jsonl per run into "
        "DIR (inspect with python -m repro.trace)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep points (default: all cores; "
        "1 = run in-process). Results are identical at any job count.",
    )
    args = parser.parse_args(argv)

    for name in GROUPS.get(args.exhibit, [args.exhibit]):
        started = time.time()
        print(f"\n##### {name} (scale={args.scale}) #####")
        if name == "table1":
            table1.run()
        else:
            tables = run_exhibit(
                EXHIBITS[name],
                args.scale,
                systems=None if name in GROUPS["ablations"] else args.systems,
                jobs=args.jobs,
                trace_dir=args.trace,
            )
            for table in tables.values():
                table.print()
        print(f"##### {name} done in {time.time() - started:.0f}s #####")
    return 0


if __name__ == "__main__":
    sys.exit(main())
