"""Chaos soak gate: seeded fault-plan matrix with a bit-identity tripwire.

Runs the same seeded workload through a supervised process-backend
:class:`~repro.streams.service.StreamSession` once cleanly (the
baseline) and once per :class:`~repro.streams.faults.FaultPlan` in a
seeded matrix — worker kills, dropped/corrupted/truncated frames,
worker-process murders at event thresholds — with **zero caller-side
recovery code**, and then:

* FAILS if any plan's final estimate is not **bit-identical** to a
  serial run of the same ``(config, name)`` — the self-healing
  contract;
* FAILS if any scheduled fault never fired (the schedule ran past the
  stream: the matrix stops exercising what it claims to);
* writes ``BENCH_chaos.json`` (per-plan recovery counts, fired-fault
  ledgers, wall-time overhead vs the clean baseline) for the CI
  artifact.

Usage::

    PYTHONPATH=src python benchmarks/perf/chaos_bench.py --quick
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro import build_stream
from repro.graph.generators import powerlaw_cluster
from repro.streams.executor import ExecutorOptions
from repro.streams.faults import Fault, FaultPlan
from repro.streams.service import StreamConfig, StreamSession
from repro.streams.supervisor import RecoveryPolicy

STREAM_NAME = "chaos-soak"

#: Fast backoff: the soak measures recovery *work*, not sleep.
POLICY = RecoveryPolicy(backoff_base=0.01, backoff_max=0.05, failure_budget=64)


def build_workload(quick: bool):
    n = 300 if quick else 1_000
    edges = powerlaw_cluster(n, m=4, triangle_probability=0.6, rng=0)
    events = list(build_stream(edges, "light", beta=0.2, rng=1))
    config = StreamConfig(
        algorithm="WSD-H",
        pattern="triangle",
        budget=max(64, len(edges) // 4),
        seed=11,
        shards=2,
        mode="partition",
    )
    return events, config


def serial_reference(events, config) -> float:
    session = StreamSession(STREAM_NAME, config)
    try:
        session.ingest(events)
        return session.queries.estimate()
    finally:
        session.close()


def run_supervised(events, config, plan: FaultPlan | None) -> dict:
    """One process-backend run; the plan (if any) is the only difference."""
    start = time.perf_counter()
    if plan is not None:
        plan.__enter__()
    try:
        session = StreamSession(
            STREAM_NAME,
            config,
            options=ExecutorOptions(backend="process", recovery_policy=POLICY),
        )
        try:
            if plan is not None:
                plan.drive(session, events, step=512)
            else:
                for position in range(0, len(events), 512):
                    session.ingest(events[position:position + 512])
            estimate = session.queries.estimate()
            stats = session.supervisor.stats()
        finally:
            session.close()
    finally:
        if plan is not None:
            plan.__exit__(None, None, None)
    return {
        "estimate": estimate,
        "seconds": time.perf_counter() - start,
        "recoveries": stats["recoveries"],
        "failures": stats["failures"],
        "anonymous_failures": stats["anonymous_failures"],
    }


def build_matrix(events, config, plans: int) -> list[FaultPlan]:
    third = len(events) // 3
    matrix = [
        FaultPlan.random(
            seed, num_shards=config.shards, max_send=6, count=2
        )
        for seed in range(1, plans + 1)
    ]
    matrix.append(
        FaultPlan(
            [
                Fault("kill_worker", shard=0, at_event=third),
                Fault("kill_worker", shard=1, at_event=2 * third),
            ],
            name="murder",
        )
    )
    return matrix


def run(args: argparse.Namespace) -> dict:
    events, config = build_workload(args.quick)
    reference = serial_reference(events, config)
    baseline = run_supervised(events, config, plan=None)
    if baseline["estimate"] != reference:
        print("FATAL: clean process run diverged from serial", file=sys.stderr)
        raise SystemExit(1)

    rows = []
    failures = []
    for plan in build_matrix(events, config, args.plans):
        result = run_supervised(events, config, plan)
        row = {
            "plan": plan.name,
            "seed": plan.seed,
            "scheduled": len(plan.faults),
            "fired": plan.fired,
            "outstanding": len(plan.outstanding()),
            "bit_identical": result["estimate"] == reference,
            "seconds": round(result["seconds"], 4),
            "overhead_ratio": round(
                result["seconds"] / baseline["seconds"], 3
            ),
            "recoveries": result["recoveries"],
            "failures": result["failures"],
            "anonymous_failures": result["anonymous_failures"],
        }
        rows.append(row)
        if not row["bit_identical"]:
            failures.append(f"{plan.name}: estimate diverged from serial")
        if row["outstanding"]:
            failures.append(
                f"{plan.name}: {row['outstanding']} scheduled fault(s) "
                "never fired — shrink at_send/at_event or grow the stream"
            )
        status = "ok" if row["bit_identical"] else "DIVERGED"
        print(
            f"  {plan.name:<12} fired={len(plan.fired)} "
            f"recoveries={row['recoveries']} "
            f"overhead={row['overhead_ratio']:.2f}x  {status}"
        )

    report = {
        "bench": "chaos_soak",
        "quick": args.quick,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "workload": {
            "events": len(events),
            "shards": config.shards,
            "algorithm": config.algorithm,
            "pattern": config.pattern,
        },
        "policy": POLICY.to_dict(),
        "serial_estimate": reference,
        "baseline_seconds": round(baseline["seconds"], 4),
        "plans": rows,
        "summary": {
            "plans": len(rows),
            "all_bit_identical": all(r["bit_identical"] for r in rows),
            "total_recoveries": sum(r["recoveries"] for r in rows),
            "total_failures": sum(
                sum(r["failures"]) + r["anonymous_failures"] for r in rows
            ),
            "mean_overhead_ratio": round(
                sum(r["overhead_ratio"] for r in rows) / len(rows), 3
            ),
        },
        "failures": failures,
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="seconds-scale workload"
    )
    parser.add_argument(
        "--plans",
        type=int,
        default=4,
        help="number of seeded random fault plans (a worker-murder plan "
        "is always appended)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_chaos.json"),
        help="report path (default: BENCH_chaos.json)",
    )
    args = parser.parse_args(argv)

    report = run(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    summary = report["summary"]
    print(
        f"plans={summary['plans']} recoveries={summary['total_recoveries']} "
        f"mean_overhead={summary['mean_overhead_ratio']}x"
    )
    if report["failures"]:
        for failure in report["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos soak: every plan ended bit-identical to serial")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
