"""``python -m repro.fuzz`` — protocol-invariant fuzzing harness.

Runs seeded (workload × fault-schedule) scenarios across the four
protocol families under every invariant checker plus the
serializability checker.  Deterministic end to end: the same
``--scenarios``/``--seed``/``--systems`` arguments produce a
byte-identical scenario log, and every failure is shrunk to a minimal
fault schedule and written out as a replayable JSON artifact.

Examples::

    python -m repro.fuzz --scenarios 200 --seed 0
    python -m repro.fuzz --scenarios 50 --time-budget 600 --out fuzz-failures
    python -m repro.fuzz --systems "Natto-RECSF" --scenarios 25
    python -m repro.fuzz --replay fuzz-failures/natto-recsf-seed7.json
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from typing import List, Optional

from repro.verify.fuzz import (
    FUZZ_SYSTEMS,
    ScenarioSpec,
    replay_artifact,
    run_scenario,
    shrink,
    write_failure_artifact,
)


def _artifact_name(spec: ScenarioSpec) -> str:
    slug = spec.system.lower().replace(" ", "-").replace("+", "")
    return f"{slug}-seed{spec.seed}.json"


def _emit(line: str, log_handle) -> None:
    print(line)
    if log_handle is not None:
        log_handle.write(line + "\n")
        log_handle.flush()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Fault-injection fuzzing over the four protocol families.",
    )
    parser.add_argument(
        "--scenarios",
        type=int,
        default=40,
        help="total scenarios, round-robined over the selected systems",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed (scenario i uses seed+i)"
    )
    parser.add_argument(
        "--systems",
        nargs="+",
        default=list(FUZZ_SYSTEMS),
        help=f"system families to fuzz (default: {', '.join(FUZZ_SYSTEMS)})",
    )
    parser.add_argument(
        "--out",
        default="fuzz-failures",
        help="directory for failure artifacts (created on first failure)",
    )
    parser.add_argument(
        "--log", default=None, help="also append the scenario log to this file"
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="wall-clock budget in seconds; stops cleanly when exceeded",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip shrinking failing scenarios (faster triage)",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="ARTIFACT",
        help="re-run one failure artifact instead of fuzzing",
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        outcome = replay_artifact(args.replay)
        print(outcome.log_line())
        print(outcome.report.summary())
        return 0 if outcome.ok else 1

    log_handle = open(args.log, "w", encoding="utf-8") if args.log else None
    started = time.monotonic()
    failures = 0
    ran = 0
    try:
        for index in range(args.scenarios):
            if (
                args.time_budget is not None
                and time.monotonic() - started > args.time_budget
            ):
                _emit(
                    f"# time budget exhausted after {ran} scenarios",
                    log_handle,
                )
                break
            system = args.systems[index % len(args.systems)]
            spec = ScenarioSpec(system=system, seed=args.seed + index)
            outcome = run_scenario(spec)
            # Free the scenario's deployment (a reference cycle) now: see
            # repro.harness.parallel.run_point.
            gc.collect()
            ran += 1
            _emit(outcome.log_line(), log_handle)
            if outcome.ok:
                continue
            failures += 1
            for violation in outcome.violations:
                _emit(f"#   {violation}", log_handle)
            if not args.no_shrink:
                minimal, outcome, runs = shrink(outcome.spec)
                _emit(
                    f"# shrunk to {len(minimal.schedule)} fault event(s) "
                    f"in {runs} run(s): {minimal.schedule.describe()}",
                    log_handle,
                )
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, _artifact_name(outcome.spec))
            write_failure_artifact(outcome, path)
            _emit(f"# artifact: {path}", log_handle)
        _emit(
            f"# {ran} scenario(s), {failures} failure(s)",
            log_handle,
        )
    finally:
        if log_handle is not None:
            log_handle.close()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
