"""Protocol fuzz gate: seeded hostile-bytes matrix against live fronts.

Runs one :class:`~repro.streams.fuzz.FuzzPlan` per seed against a live
service front and a live host agent (same process, real sockets) and
FAILS if any case ends outside the contract — a hang, a connection
reset, an unhandled exception on a server thread, an over-cap
allocation, or a clean control cell whose result is not bit-identical
to the in-process reference. Every failure prints its reproducing seed:
``FuzzPlan.from_seed(seed, targets).wire_bytes()`` rebuilds the exact
hostile byte stream anywhere.

Writes ``BENCH_fuzz.json`` (outcome/mutation histograms, per-failure
seeds, wall time) for the CI artifact.

Usage::

    PYTHONPATH=src python benchmarks/perf/fuzz_bench.py --quick
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.streams.fuzz import CASE_TIMEOUT, FuzzHarness, run_fuzz


def run(args) -> dict:
    seeds = range(args.seed_base, args.seed_base + args.seeds)
    targets = ("service", "host")
    print(
        f"fuzzing {len(seeds)} seeds x {targets} "
        f"(case timeout {CASE_TIMEOUT:.0f}s)"
    )
    start = time.perf_counter()
    with FuzzHarness() as harness:
        report = run_fuzz(seeds, targets=targets, harness=harness)
    elapsed = time.perf_counter() - start

    payload = report.to_dict()
    for outcome, count in sorted(payload["outcomes"].items()):
        print(f"  {outcome:<20} {count}")
    for case in report.failures:
        print(
            f"FAIL seed={case.seed} target={case.target} "
            f"mutation={case.mutation} outcome={case.outcome}: "
            f"{case.detail}",
            file=sys.stderr,
        )
        print(
            f"  reproduce: FuzzPlan.from_seed({case.seed}, "
            f"targets={targets!r}).wire_bytes()",
            file=sys.stderr,
        )
    for line in report.thread_exceptions:
        print(f"THREAD EXCEPTION: {line}", file=sys.stderr)

    return {
        "bench": "protocol_fuzz",
        "quick": args.quick,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "seeds": args.seeds,
        "seed_base": args.seed_base,
        "targets": list(targets),
        "seconds": round(elapsed, 3),
        "cases_per_second": round(len(report.cases) / max(elapsed, 1e-9), 2),
        **payload,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="40-seed smoke instead of the full soak",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="seed count (default: 200, or 40 with --quick); each "
        "seed's plan draws its target front from the target pool",
    )
    parser.add_argument(
        "--seed-base",
        type=int,
        default=0,
        help="first seed of the contiguous range (default: 0)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_fuzz.json"),
        help="report path (default: BENCH_fuzz.json)",
    )
    args = parser.parse_args(argv)
    if args.seeds is None:
        args.seeds = 40 if args.quick else 200

    report = run(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(
        f"cases={report['cases']} in {report['seconds']}s "
        f"({report['cases_per_second']}/s)"
    )
    if not report["ok"]:
        print(
            f"FAIL: {len(report['failures'])} contract violation(s), "
            f"{len(report['thread_exceptions'])} thread exception(s)",
            file=sys.stderr,
        )
        return 1
    print("protocol fuzz: every case ended in a typed error or clean close")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
