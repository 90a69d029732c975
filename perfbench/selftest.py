"""Self-test of the benchmark on seconds-scale inputs.

Runs every workload end to end and the traced layer ladder with
``--smoke``, and checks that each run passes every correctness check
and prints exactly the metrics ``BENCHMARK.json`` declares, each with
its declared unit. Also checks that the benchmark refuses to run in a
directory holding only ``BENCHMARK.json`` and this directory.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _check_result(workload: str, trace: int) -> None:
    done = _run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, f"{workload} trace {trace} exited {done.returncode}:\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == declared, (
        f"{workload} trace {trace}: missing {sorted(set(declared) - set(printed))}, "
        f"undeclared {sorted(set(printed) - set(declared))}, "
        f"unit mismatches {sorted(n for n in declared if n in printed and printed[n] != declared[n])}"
    )
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name


def test_end_to_end_runs() -> None:
    for workload in SPEC["workloads"]:
        _check_result(workload["name"], 0)


def test_traced_ladder() -> None:
    _check_result(SPEC["workloads"][0]["name"], 1)


def test_refuses_without_the_library() -> None:
    bare = ROOT / ".perfbench-tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    tests = [test_end_to_end_runs, test_traced_ladder, test_refuses_without_the_library]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
