"""Shared plumbing for the benchmark: processes, /proc, checks, spans.

Everything here is workload-agnostic. The workload modules build their
inputs from the seed, drive the system, and report through the
:class:`Run` object they are handed.
"""

from __future__ import annotations

import os
import platform
import selectors
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

#: Python modules a benchmark run starts: the service CLI and the shard
#: host agent.
_OWNED_MODULES = ("repro.streams.service", "repro.streams.host")

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Seconds between the service's banner and a SIGINT. The service CLI
#: prints its banners before it enters the block that turns SIGINT into
#: a clean stop; a signal in that gap exits with status 1 and skips the
#: stop-time checkpoint.
_STARTUP_GRACE = 0.2


# -- correctness accounting ---------------------------------------------------


class Checks:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, count: int = 1) -> None:
        """Record ``count`` operations that completed without an error."""
        self.attempted += count

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok

    def fail(self, message: str) -> None:
        self.check(False, message)


# -- spans --------------------------------------------------------------------


class Tracer:
    """In-memory spans and counts, recorded around calls into a layer.

    A span is ``(id, name, start, end, parent, workload, run)``; the
    parent is the span open when this one started. Disabled tracers
    record nothing and cost one attribute test per call.
    """

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.workload = ""
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (
                span_id, name, start, end, parent, self.workload, self.run_id
            )

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            key = f"{self.workload}.{name}"
            self.counts[key] = self.counts.get(key, 0) + amount

    def spans_named(self, prefix: str) -> int:
        return sum(
            1 for span in self.spans
            if span is not None and span[5] == self.workload and span[1].startswith(prefix)
        )

    def cost_per_span(self, samples: int = 20000) -> float:
        """Seconds one span costs (measured on a scratch tracer)."""
        probe = Tracer(self.run_id, True)
        start = time.perf_counter()
        for _ in range(samples):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - start) / samples

    def to_dict(self) -> dict:
        return {
            "fields": ["id", "name", "start", "end", "parent", "workload", "run"],
            "spans": [list(span) for span in self.spans if span is not None],
            "counts": self.counts,
        }


@contextmanager
def pinned(cpus: set[int]):
    """Run the calling thread, and threads it starts, on ``cpus`` only."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


# -- /proc readers ------------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """utime + stime of one process, in seconds."""
    raw = Path(f"/proc/{pid}/stat").read_text()
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of one process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM")


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (all of its threads' children)."""
    children: list[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        children.extend(int(child) for child in text.split())
    return children


def cpu_ticks() -> dict:
    """System-wide CPU ticks from ``/proc/stat`` (including steal)."""
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    with open("/proc/stat") as handle:
        values = handle.readline().split()[1:1 + len(names)]
    return dict(zip(names, (int(value) for value in values)))


def host_metadata() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def host_noise(before: dict, after: dict) -> dict:
    """Steal ticks and load over a run, from two :func:`cpu_ticks` reads."""
    delta = {name: after[name] - before[name] for name in before}
    total = sum(delta.values())
    return {
        "ticks": delta,
        "steal_frac": delta["steal"] / total if total else 0.0,
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
    }


def group_members(pgid: int) -> list[int]:
    """Running (non-zombie) processes of one process group."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            raw = (entry / "stat").read_text()
        except OSError:
            continue
        fields = raw[raw.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def _ancestors() -> set[int]:
    pids, pid = set(), os.getpid()
    while pid > 1:
        pids.add(pid)
        raw = Path(f"/proc/{pid}/stat").read_text()
        pid = int(raw[raw.rindex(")") + 2:].split()[1])
    return pids


def owned_processes() -> list[tuple[int, str]]:
    """Live processes an earlier run may have left: a service, a host
    agent, or a benchmark process (forked workers keep its command
    line). This process and its ancestors are never listed."""
    mine = _ancestors()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) in mine:
            continue
        try:
            argv = (entry / "cmdline").read_bytes().decode(errors="replace").split("\0")
        except OSError:
            continue
        if not Path(argv[0]).name.startswith("python"):
            continue
        if any(arg in _OWNED_MODULES or arg.endswith("perfbench/run.py") for arg in argv[1:]):
            found.append((int(entry.name), " ".join(argv)))
    return found


# -- the service under test ---------------------------------------------------


class ServiceProcess:
    """``python -m repro.streams.service`` in its own process group.

    The group holds the service and everything it forks (shard workers,
    the shared-memory resource tracker), so :meth:`stop` can prove that
    nothing outlives it.
    """

    def __init__(self, root: Path, log_path: Path, *args: str, cpus: set[int] | None = None,
                 timeout: float = 60.0) -> None:
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.streams.service", "--listen", "127.0.0.1:0", *args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=root,
            env=env,
            start_new_session=True,
        )
        self.pid = self.proc.pid
        self._stopped = False
        try:
            if cpus is not None:
                # Set before the interpreter starts any thread; every
                # thread and child the service creates inherits it.
                os.sched_setaffinity(self.pid, cpus)
            self.address = self._read_address(timeout)
        except BaseException:
            self.stop()
            raise
        self.ready = time.perf_counter()

    def _read_address(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buffer:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise TimeoutError(f"service did not report its address within {timeout}s")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(
                        f"service exited with {self.proc.wait()} before listening; "
                        f"see {self.log_path}"
                    )
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode()
        if "listening on" not in line:
            raise RuntimeError(f"unexpected service banner {line!r}")
        return line.rsplit(" ", 1)[1]

    def log_tail(self, lines: int = 5) -> str:
        return "\n".join(self.log_path.read_text(errors="replace").splitlines()[-lines:])

    def cpu_seconds(self) -> float:
        """CPU of the service and its live children."""
        return sum(cpu_seconds(pid) for pid in [self.pid, *child_pids(self.pid)])

    def peak_rss_mb(self) -> float:
        """Peak RSS of the service plus each live child."""
        return sum(peak_rss_mb(pid) for pid in [self.pid, *child_pids(self.pid)])

    def stop(self, timeout: float = 30.0) -> int | None:
        """SIGINT, then SIGKILL to the whole group after ``timeout``."""
        if self._stopped:
            return self.proc.returncode
        self._stopped = True
        code = self.proc.poll()
        if code is None:
            time.sleep(max(0.0, getattr(self, "ready", 0.0) + _STARTUP_GRACE - time.perf_counter()))
            try:
                self.proc.send_signal(signal.SIGINT)
                code = self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                code = None
        if code is None:
            os.killpg(self.pid, signal.SIGKILL)
            code = self.proc.wait()
        # Forked children end after the service; give them a moment,
        # then kill whatever of the group is still running.
        deadline = time.monotonic() + 10.0
        while group_members(self.pid):
            if time.monotonic() > deadline:
                for pid in group_members(self.pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline = time.monotonic() + 10.0
            time.sleep(0.02)
        self.proc.stdout.close()
        self._log.close()
        return code
