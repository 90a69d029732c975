"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload served-small-frames --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` runs the workload end to end with tracing off and prints
every end-to-end metric. ``--trace 1`` runs the layer ladder of every
workload (on inputs from the same seed) and prints every per-layer
metric. ``--smoke`` shrinks every input to seconds-scale for the
self-test. The last line of standard output is the JSON result; a run
record with host metadata, noise readings and (traced runs) the spans
is written under ``.perfbench-out/``.

The benchmark imports the library from ``src/`` next to this directory
and from nowhere else, and refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing.resource_tracker
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("served-small-frames", "durable-sharded-hubs", "paper-trials")

#: Seed used when ``--seed`` is omitted.
DEFAULT_SEED = 1


def _import_library() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


class Run:
    """One benchmark run: arguments, checks, tracer, scratch dir, metrics."""

    def __init__(self, args: argparse.Namespace) -> None:
        from harness import Checks, Tracer

        self.root = ROOT
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.checks = Checks()
        self.tracer = Tracer(self.run_id, enabled=bool(args.trace))
        self.tmp = ROOT / ".perfbench-tmp" / self.run_id
        self.tmp.mkdir(parents=True)
        self.metrics: dict[str, dict] = {}
        self.record: dict[str, dict] = {}
        self._services: list = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def service(self, *args: str, cpus: set[int] | None = None):
        """Spawn the service CLI; :meth:`close` reaps whatever is left."""
        from harness import ServiceProcess

        service = ServiceProcess(self.root, self.tmp / "service.log", *args, cpus=cpus)
        self._services.append(service)
        return service

    def close(self) -> None:
        for service in self._services:
            service.stop()
        self._services.clear()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run's scratch dir is still there


def _wait_for_stale(timeout: float = 10.0) -> list:
    from harness import owned_processes

    deadline = time.monotonic() + timeout
    while True:
        stale = owned_processes()
        if not stale or time.monotonic() > deadline:
            return stale
        time.sleep(0.2)


def _stop_resource_tracker() -> None:
    """End the shared-memory tracker our own process-backend rungs start."""
    tracker = multiprocessing.resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-scale inputs")
    args = parser.parse_args(argv)
    _import_library()

    from harness import cpu_ticks, host_metadata, host_noise
    import durable
    import served
    import trials

    stale = _wait_for_stale()
    if stale:
        for pid, cmdline in stale:
            print(f"perfbench: process {pid} from an earlier run is alive: {cmdline}", file=sys.stderr)
        return 3

    modules = {
        "served-small-frames": served,
        "durable-sharded-hubs": durable,
        "paper-trials": trials,
    }
    run = Run(args)
    ticks = cpu_ticks()
    started = time.perf_counter()
    error = None
    try:
        if args.trace:
            for name, module in modules.items():
                run.tracer.workload = name
                module.ladder(run, name)
        else:
            run.tracer.workload = args.workload
            modules[args.workload].run(run)
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        run.checks.fail("run aborted: " + error.strip().splitlines()[-1])
    finally:
        run.close()
        _stop_resource_tracker()

    for message in run.checks.failures:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "wall_s": time.perf_counter() - started,
        "host": host_metadata(),
        "noise": host_noise(ticks, cpu_ticks()),
        "metrics": run.metrics,
        "checks": {"attempted": run.checks.attempted, "failed": run.checks.failed,
                   "failures": run.checks.failures},
        **run.record,
    }
    if args.trace:
        record["trace"] = run.tracer.to_dict()
    (out_dir / f"{run.run_id}.json").write_text(json.dumps(record, indent=1))
    if error is not None:
        return 1
    correct = run.checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.checks.attempted),
        "failed": run.checks.failed,
        "metrics": run.metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
