"""Tier-1 tests + throughput smoke pass → ``BENCH_throughput.json``.

The perf gate for this repository: runs the tier-1 test suite, then the
hot-path microbenchmarks (see ``microbench.py``), and writes
``BENCH_throughput.json`` at the repo root containing

* ``baseline`` — the pre-optimization numbers recorded in
  ``benchmarks/perf/baseline_seed.json`` (measured on the seed tree
  with the same harness);
* ``current`` — this run's numbers;
* ``speedup`` — events/sec ratios per sampler × pattern cell;
* ``estimates_match`` — whether every fixed-seed estimate is identical
  to the baseline's (bit-for-bit), the no-behaviour-change guarantee.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_all.py [--quick]
        [--skip-tests] [--repeats N] [--shards N]
        [--backend serial|process|both|remote]
        [--hosts N]
        [--min-process-ratio X] [--min-remote-ratio X] [--ab OLD,NEW]

``--quick`` runs a seconds-scale smoke pass (fewer events, 1 repeat);
the full pass is what future PRs should diff against.

``--shards N`` adds sharded-executor cells (WSD/triangle, partition
mode, columnar stream) to the report. With ``--backend both`` (the
default) the cell runs under the serial *and* the process backend and
the report gains a ``sharded.parity`` flag — the two backends must
produce bit-identical estimates under the fixed seed, and the run
**exits nonzero** when they do not. This is the CI tripwire for the
process backend's result-identity contract. ``--min-process-ratio X``
additionally fails the run when the process backend's throughput drops
below ``X``× the serial backend's on that cell (the perf ratchet for
the shared-memory transport).

``--backend remote`` runs the cell under the serial and the **remote**
backend instead: ``--hosts N`` (default 2) local shard host agents are
spawned for the duration (localhost stand-ins for N machines), shards
are leased across them over TCP, and the same bit-identity parity flag
gates the run — the distributed tier's result-identity tripwire.
``--min-remote-ratio X`` is the matching (deliberately low, on a
single box) throughput ratchet.

Every report records ``host`` metadata (python version, platform, CPU
count, wall-clock timestamp) so the documented ±10–20% cross-session
drift on the recording box is interpretable when comparing recorded
files.

``--ab OLD,NEW`` runs the whole matrix as an interleaved A/B of two
implementation variants in one process (see
``microbench.VARIANTS``) — the drift-robust way to compare a code
change on this host, recorded under the report's ``ab`` key — plus the
*steady-state dense* triangle cells (``microbench.run_ab_dense``,
recorded under ``ab_dense``): graph pre-filled past reservoir
capacity, throughput timed over a constant-density churn phase, which
is the regime where the γ(M) triangle delta dominates the event cost —
plus the WSD-L serving cells (``ab_learned``): the same frozen actor
served through the legacy WeightContext path vs the kernels' block
path on the wsd/triangle and wsd/wedge cells, whose speedup is the
learned fast path's headline number. Any A/B cell whose two estimates
disagree beyond 1e-6 relative fails the run. ``--min-ab-ratio X``
additionally fails the run when the dense ``wsd/triangle`` cell's
NEW/OLD speedup — or any ``ab_learned`` cell's block-over-context
speedup — falls below ``X``, the CI ratchet for the arena and WSD-L
hot paths, analogous to ``--min-process-ratio``.

Estimate comparison against the recorded baseline is tolerance-aware:
``estimate_match`` accepts relative drift up to 1e-6 (float-ordering
differences from estimator reorganisations, e.g. the aggregated wedge
delta), while ``estimate_exact`` records the bit-for-bit comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent.parent
BASELINE_FILE = PERF_DIR / "baseline_seed.json"
OUTPUT_FILE = REPO_ROOT / "BENCH_throughput.json"

sys.path.insert(0, str(PERF_DIR))

import microbench  # noqa: E402


def run_sharded_cells(
    num_events: int,
    budget: int,
    num_vertices: int,
    deletion_fraction: float,
    seed: int,
    shards: int,
    backends: tuple[str, ...],
    repeats: int = 3,
    hosts: tuple[str, ...] = (),
    recovery=None,
    heartbeat_interval: float | None = None,
) -> dict:
    """Benchmark the sharded WSD/triangle cell under each backend.

    Every backend run re-derives the same SeedSequence-spawned shard
    generators from the same root seed, so the estimates must match
    bit-for-bit across backends (``parity``); events/sec is recorded
    per backend the same way the single-sampler matrix records it. The
    stream is fed columnar (one ``EventBlock``), which is the intended
    production shape: the serial backend partitions it vectorised, the
    process backend ships the sub-blocks through the shared-memory
    transport, and the remote backend ships them as TCP frames to the
    shard host agents in ``hosts``.
    """
    from repro.graph.stream import EventBlock
    from repro.samplers.wsd import WSD
    from repro.streams.executor import ExecutorOptions, ShardedStreamExecutor
    from repro.utils.rng import spawn_generators
    from repro.weights.heuristic import GPSHeuristicWeight

    events = microbench.synthetic_stream(
        num_events, num_vertices, deletion_fraction, seed
    )
    block = EventBlock.from_events(events)
    shard_budget = max(3, budget // shards)
    cells: dict[str, dict] = {}
    for backend in backends:
        best = float("inf")
        estimate = None
        for _ in range(max(1, repeats)):
            shard_rngs = spawn_generators(seed, shards)
            executor = ShardedStreamExecutor(
                lambda i: WSD(
                    "triangle", shard_budget, GPSHeuristicWeight(),
                    rng=shard_rngs[i],
                ),
                shards,
                mode="partition",
                options=ExecutorOptions(
                    backend=backend,
                    hosts=hosts if backend == "remote" else (),
                    recovery_policy=recovery,
                    heartbeat_interval=(
                        heartbeat_interval if backend == "remote" else None
                    ),
                ),
            )
            # Warm the fleet outside the timed window: an empty batch
            # triggers the lazy worker spawn + checkpoint shipping
            # (no-op on the serial backend), so both backends time pure
            # streaming ingestion. Teardown/harvest is excluded on both
            # sides too. Best-of-``repeats`` like the main matrix —
            # the single-vCPU recording box jitters scheduler-heavy
            # runs far more than single-process ones.
            executor.process_batch([])
            start = time.perf_counter()
            executor.process_stream(block)
            run_estimate = executor.estimate  # process: final barrier
            elapsed = time.perf_counter() - start
            executor.close()
            best = min(best, elapsed)
            if estimate is None:
                estimate = run_estimate
            elif estimate != run_estimate:
                raise AssertionError(
                    f"sharded {backend}: fixed-seed estimate not "
                    f"reproducible across repeats"
                )
        cells[backend] = {
            "events_per_sec": len(events) / best,
            "seconds": best,
            "estimate": estimate,
            "num_events": len(events),
        }
        print(
            f"  sharded wsd/triangle x{shards} [{backend:>7s}]: "
            f"{cells[backend]['events_per_sec']:>12,.0f} events/s  "
            f"(estimate={estimate:.4f})",
            file=sys.stderr,
        )
    estimates = {cell["estimate"] for cell in cells.values()}
    return {
        "sampler": "wsd",
        "pattern": "triangle",
        "mode": "partition",
        "shards": shards,
        "shard_budget": shard_budget,
        "num_hosts": len(hosts) or None,
        "cells": cells,
        "parity": len(estimates) == 1,
    }


def run_tier1_tests() -> bool:
    """Run the repo's tier-1 verify command; return success."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "tests"],
        cwd=REPO_ROOT,
        env=env,
    )
    return result.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="seconds-scale smoke pass")
    parser.add_argument("--skip-tests", action="store_true",
                        help="benchmark only, no tier-1 pytest run")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--output", type=Path, default=OUTPUT_FILE)
    parser.add_argument(
        "--shards", type=int, default=0,
        help="also run a sharded wsd/triangle cell with N replicas "
             "(0 = skip)",
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "process", "both", "remote"),
        default="both",
        help="executor backend(s) for the sharded cell; 'both' asserts "
             "serial-vs-process estimate parity, 'remote' asserts "
             "serial-vs-remote parity across --hosts local host agents",
    )
    parser.add_argument(
        "--hosts", type=int, default=2,
        help="number of local shard host agents to spawn for "
             "--backend remote (localhost stand-ins for N machines)",
    )
    parser.add_argument(
        "--recovery-attempts", type=int, default=0,
        help="arm a RecoveryPolicy(max_attempts=N) on the sharded "
             "cells (0 = no supervised recovery); the estimates must "
             "stay bit-identical either way",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=None,
        help="liveness heartbeat cadence (seconds) on the sharded "
             "remote backend's transports",
    )
    parser.add_argument(
        "--min-process-ratio", type=float, default=0.0,
        help="fail when the sharded process backend's events/sec falls "
             "below this fraction of the serial backend's (0 = off)",
    )
    parser.add_argument(
        "--min-remote-ratio", type=float, default=0.0,
        help="fail when the sharded remote backend's events/sec falls "
             "below this fraction of the serial backend's (0 = off; "
             "requires --backend remote)",
    )
    parser.add_argument(
        "--ab", default=None, metavar="OLD,NEW",
        help="also run the matrix as an interleaved A/B of two named "
             "variants in one process (e.g. 'old,new'), plus the "
             "steady-state dense triangle cells; see "
             "microbench.VARIANTS",
    )
    parser.add_argument(
        "--min-ab-ratio", type=float, default=0.0,
        help="fail when the dense wsd/triangle A/B speedup (NEW over "
             "OLD) falls below this ratio (0 = off; requires --ab)",
    )
    args = parser.parse_args(argv)
    if args.min_ab_ratio > 0.0 and not args.ab:
        parser.error("--min-ab-ratio requires --ab")
    if args.min_remote_ratio > 0.0 and args.backend != "remote":
        parser.error("--min-remote-ratio requires --backend remote")
    if args.hosts < 1:
        parser.error("--hosts must be >= 1")
    if args.ab:
        try:
            variant_a, variant_b = (
                name.strip() for name in args.ab.split(",")
            )
        except ValueError:
            parser.error("--ab expects two comma-separated variant names")
        if any(
            microbench.VARIANTS.get(name, {}).get("learned")
            for name in (variant_a, variant_b)
        ):
            parser.error(
                "--ab: the learned variants are WSD-only, but the A/B "
                "matrices sweep every sampler; every --ab run (e.g. "
                "--ab old,new) already records learned-ctx vs "
                "learned-block in its 'ab_learned' section"
            )

    tests_passed = None
    if not args.skip_tests:
        print("== tier-1 test suite ==", file=sys.stderr)
        tests_passed = run_tier1_tests()
        if not tests_passed:
            print("tier-1 tests FAILED — not recording benchmark",
                  file=sys.stderr)
            return 1

    baseline = (
        json.loads(BASELINE_FILE.read_text(encoding="utf-8"))
        if BASELINE_FILE.exists()
        else None
    )
    config = (baseline or {}).get("config", {})
    num_events = config.get("num_events", 30_000)
    repeats = args.repeats
    if args.quick:
        num_events = min(num_events, 4_000)
        repeats = 1

    print("== throughput microbenchmarks ==", file=sys.stderr)
    current = microbench.run_matrix(
        num_events,
        config.get("budget", 1_500),
        config.get("num_vertices", 400),
        config.get("deletion_fraction", 0.2),
        config.get("seed", 2023),
        repeats,
    )

    report: dict = {
        "schema": "bench_throughput/v1",
        "tier1_tests_passed": tests_passed,
        "quick": args.quick,
        # Recording-box context: the documented ±10–20% cross-session
        # drift is only interpretable when each file says what box and
        # when. Purely descriptive — never compared or gated on.
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
        "current": current,
    }

    if args.ab:
        print(
            f"== interleaved A/B matrix ({variant_a} vs {variant_b}) ==",
            file=sys.stderr,
        )
        report["ab"] = microbench.run_ab_matrix(
            variant_a,
            variant_b,
            num_events,
            config.get("budget", 1_500),
            config.get("num_vertices", 400),
            config.get("deletion_fraction", 0.2),
            config.get("seed", 2023),
            repeats,
        )
        dense_cfg = (
            microbench.DENSE_AB_QUICK_CONFIG if args.quick
            else microbench.DENSE_AB_CONFIG
        )
        print(
            "== steady-state dense triangle A/B "
            f"({variant_a} vs {variant_b}) ==",
            file=sys.stderr,
        )
        report["ab_dense"] = microbench.run_ab_dense(
            variant_a,
            variant_b,
            dense_cfg["num_fill"],
            dense_cfg["num_events"],
            dense_cfg["budget"],
            dense_cfg["num_vertices"],
            dense_cfg["seed"],
            # The dense cells time long steady-state windows (far less
            # jittery than the sparse micro cells), so cap the repeats
            # to keep the recorded run minutes-scale.
            1 if args.quick else min(repeats, 2),
            samplers=dense_cfg["samplers"],
        )
        print(
            "== WSD-L serving A/B (learned-ctx vs learned-block) ==",
            file=sys.stderr,
        )
        report["ab_learned"] = microbench.run_ab_matrix(
            "learned-ctx",
            "learned-block",
            num_events,
            config.get("budget", 1_500),
            config.get("num_vertices", 400),
            config.get("deletion_fraction", 0.2),
            config.get("seed", 2023),
            repeats,
            samplers=microbench.LEARNED_AB_CONFIG["samplers"],
            patterns=microbench.LEARNED_AB_CONFIG["patterns"],
        )

    ab_estimates_failed = False
    ab_ratio_failed = False
    for section in ("ab", "ab_dense", "ab_learned"):
        for key, cell in report.get(section, {}).get("results", {}).items():
            if cell.get("estimate_match") is False:
                ab_estimates_failed = True
                print(
                    f"{section} {key}: variant estimates diverge beyond "
                    "1e-6 relative: "
                    + ", ".join(
                        f"{v}={cell[v]['estimate']!r}"
                        for v in report[section]["variants"]
                    ),
                    file=sys.stderr,
                )
    if args.min_ab_ratio > 0.0:
        gate_cell = (
            report.get("ab_dense", {}).get("results", {})
            .get("wsd/triangle")
        )
        if gate_cell is None:
            # Fail closed: a ratchet whose gate cell vanished protects
            # nothing and must not pass green.
            ab_ratio_failed = True
            print(
                "--min-ab-ratio set but the dense wsd/triangle gate "
                "cell is missing from the report",
                file=sys.stderr,
            )
        elif gate_cell["speedup"] < args.min_ab_ratio:
            ab_ratio_failed = True
            print(
                f"dense wsd/triangle A/B at {gate_cell['speedup']}x, "
                f"below the --min-ab-ratio {args.min_ab_ratio} "
                "ratchet",
                file=sys.stderr,
            )
        # The WSD-L serving cells ride the same ratchet: the block
        # path must beat the context path by at least the gate on
        # every recorded cell.
        for key, cell in (
            report.get("ab_learned", {}).get("results", {}).items()
        ):
            if cell["speedup"] < args.min_ab_ratio:
                ab_ratio_failed = True
                print(
                    f"wsd-l {key} serving A/B at {cell['speedup']}x, "
                    f"below the --min-ab-ratio {args.min_ab_ratio} "
                    "ratchet",
                    file=sys.stderr,
                )

    parity_failed = False
    ratio_failed = False
    if args.shards > 0:
        print("== sharded executor cells ==", file=sys.stderr)
        if args.backend == "both":
            backends = ("serial", "process")
        elif args.backend == "remote":
            backends = ("serial", "remote")
        else:
            backends = (args.backend,)
        from repro.streams.supervisor import RecoveryPolicy

        host_handles = []
        host_addresses: tuple[str, ...] = ()
        if "remote" in backends:
            from repro.streams.host import spawn_local_host

            host_handles = [
                spawn_local_host() for _ in range(args.hosts)
            ]
            host_addresses = tuple(h.address for h in host_handles)
            print(
                f"  spawned {len(host_handles)} local shard host "
                f"agent(s): {', '.join(host_addresses)}",
                file=sys.stderr,
            )
        try:
            # The sharded cell always runs at full stream size
            # (subsecond either way): at --quick's 4k events the
            # per-chunk round-trip latency dominates and the
            # parallel/serial ratio stops meaning anything — exactly
            # the number the --min-*-ratio flags gate on.
            sharded = run_sharded_cells(
                config.get("num_events", 30_000),
                config.get("budget", 1_500),
                config.get("num_vertices", 400),
                config.get("deletion_fraction", 0.2),
                config.get("seed", 2023),
                args.shards,
                backends,
                repeats=repeats,
                hosts=host_addresses,
                recovery=(
                    RecoveryPolicy(max_attempts=args.recovery_attempts)
                    if args.recovery_attempts > 0
                    else None
                ),
                heartbeat_interval=args.heartbeat_interval,
            )
        finally:
            for handle in host_handles:
                handle.stop()
        report["sharded"] = sharded
        if len(backends) > 1 and not sharded["parity"]:
            parity_failed = True
            print(
                "serial-vs-parallel estimate MISMATCH: "
                + ", ".join(
                    f"{name}={cell['estimate']!r}"
                    for name, cell in sharded["cells"].items()
                ),
                file=sys.stderr,
            )
        for flag, other in (
            (args.min_process_ratio, "process"),
            (args.min_remote_ratio, "remote"),
        ):
            if not (
                flag > 0.0 and {"serial", other} <= sharded["cells"].keys()
            ):
                continue
            ratio = (
                sharded["cells"][other]["events_per_sec"]
                / sharded["cells"]["serial"]["events_per_sec"]
            )
            sharded[f"{other}_serial_ratio"] = round(ratio, 3)
            if ratio < flag:
                ratio_failed = True
                print(
                    f"sharded {other} backend at {ratio:.2f}x serial, "
                    f"below the --min-{other}-ratio {flag} ratchet",
                    file=sys.stderr,
                )
    if baseline is not None:
        speedup = {}
        estimate_match = {}
        estimate_exact = {}
        comparable = not args.quick  # quick mode uses fewer events
        for key, cell in current["results"].items():
            base_cell = baseline["results"].get(key)
            if base_cell is None:
                continue
            speedup[key] = round(
                cell["events_per_sec"] / base_cell["events_per_sec"], 3
            )
            if comparable:
                # Fixed-seed comparison per cell. ``estimate_exact`` is
                # the bit-for-bit check; ``estimate_match`` additionally
                # accepts relative drift up to 1e-6 — cells legitimately
                # differ in the last float bits when an optimization
                # regroups estimator arithmetic (the contribution
                # multiset is unchanged; addition is not associative),
                # e.g. the aggregated wedge delta. Anything beyond the
                # tolerance is a real behaviour change.
                estimate_exact[key] = (
                    cell["estimate"] == base_cell["estimate"]
                )
                estimate_match[key] = estimate_exact[key] or (
                    abs(cell["estimate"] - base_cell["estimate"])
                    <= 1e-6 * max(
                        abs(base_cell["estimate"]), abs(cell["estimate"])
                    )
                )
        report["baseline"] = baseline
        report["speedup"] = speedup
        report["estimate_match"] = estimate_match if comparable else None
        report["estimate_exact"] = estimate_exact if comparable else None
        report["estimates_match_all"] = (
            all(estimate_match.values()) if comparable else None
        )

    args.output.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {args.output}", file=sys.stderr)
    if baseline is not None and not args.quick:
        wsd_tri = report["speedup"].get("wsd/triangle")
        print(f"wsd/triangle speedup vs seed: {wsd_tri}x", file=sys.stderr)
    if parity_failed:
        print(
            "FAILED: sharded parallel backend diverged from serial",
            file=sys.stderr,
        )
        return 1
    if ratio_failed:
        print(
            "FAILED: sharded parallel backend below the throughput "
            "ratchet",
            file=sys.stderr,
        )
        return 1
    if ab_estimates_failed:
        print(
            "FAILED: A/B variant estimates diverged beyond tolerance",
            file=sys.stderr,
        )
        return 1
    if ab_ratio_failed:
        print(
            "FAILED: dense triangle A/B below the throughput ratchet",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
