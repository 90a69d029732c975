"""Deterministic fault injection through the shard-transport seam.

The library's recovery story rests on one oracle: after any sequence
of component failures, supervised recovery must leave the final
estimates **bit-equal to a serial run** of the same seeded stream.
This module makes that testable *systematically* rather than through
hand-written kill tests: a :class:`FaultPlan` is a seedable, fully
deterministic schedule of failures, and installing it (``with plan:``)
makes every :class:`~repro.streams.workers.ShardWorker` wrap its
transport in a :class:`FaultyTransport` that fires the scheduled
faults at exact send indices.

Two fault tiers:

* **transport faults** (``kill`` / ``drop`` / ``corrupt`` /
  ``truncate`` / ``delay``) fire on the Nth send crossing a shard's
  transport — counted cumulatively per shard across restarts, so the
  schedule stays meaningful while the supervisor respawns workers.
  ``corrupt`` and ``truncate`` mangle the columnar block payload
  (flipped magic / cut in half), exercising the loud-decode-failure
  path end to end; they defer to the next block-shaped send if the
  scheduled one is a control frame.
* **driver faults** (``kill_worker`` / ``partition_host``) fire at
  event-count thresholds and need process-level access (killing a
  worker process or a whole host agent), so they are applied by
  :meth:`FaultPlan.drive`, the chaos harness's ingest loop.

Everything here is test/bench plumbing: the production hot path pays
one ``None`` check per worker construction
(:func:`active_plan`) and nothing else.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.graph.stream import EventBlock
from repro.streams.transport import ShardTransport, TransportClosed

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultyTransport",
    "active_plan",
    "install",
    "uninstall",
]

#: Faults applied through a wrapped transport, at send granularity.
TRANSPORT_FAULTS = ("kill", "drop", "corrupt", "truncate", "delay")

#: Faults applied by the drive loop, at event-count granularity.
DRIVER_FAULTS = ("kill_worker", "partition_host")


@dataclass(frozen=True)
class Fault:
    """One scheduled failure.

    Transport faults name a ``shard`` (``None`` = any shard) and an
    ``at_send`` index: the fault fires on the first *eligible* send to
    that shard whose cumulative index is >= ``at_send`` (eligible =
    any send, or a block-shaped send for the payload-mangling kinds).
    Driver faults name an ``at_event`` ingestion threshold, plus the
    target ``shard`` (``kill_worker``) or ``host`` index
    (``partition_host``).
    """

    kind: str
    shard: int | None = None
    at_send: int | None = None
    at_event: int | None = None
    host: int | None = None
    seconds: float = 0.05

    def validate(self) -> None:
        if self.kind in TRANSPORT_FAULTS:
            if self.at_send is None or self.at_send < 0:
                raise ConfigurationError(
                    f"{self.kind!r} fault needs at_send >= 0, got "
                    f"{self.at_send!r}"
                )
        elif self.kind in DRIVER_FAULTS:
            if self.at_event is None or self.at_event < 0:
                raise ConfigurationError(
                    f"{self.kind!r} fault needs at_event >= 0, got "
                    f"{self.at_event!r}"
                )
            if self.kind == "kill_worker" and self.shard is None:
                raise ConfigurationError("kill_worker needs shard=")
            if self.kind == "partition_host" and self.host is None:
                raise ConfigurationError("partition_host needs host=")
        else:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; transport kinds: "
                f"{TRANSPORT_FAULTS}, driver kinds: {DRIVER_FAULTS}"
            )
        if self.seconds < 0:
            raise ConfigurationError("seconds must be >= 0")


class FaultPlan:
    """A deterministic, seedable schedule of failures.

    A plan is stateful once armed: each fault fires at most once, the
    per-shard send counters persist across worker restarts, and
    :attr:`fired` records what actually happened (the chaos bench
    publishes it). Use as a context manager to install the plan for
    every worker constructed in the block::

        with FaultPlan([Fault("kill", shard=1, at_send=3)]):
            session = repro.open_stream(...)
            ...

    ``FaultPlan.random(seed, ...)`` draws a small schedule from a
    seeded RNG, so a whole chaos matrix is reproducible from its seed
    list.
    """

    def __init__(self, faults, *, seed: int = 0, name: str = "") -> None:
        self.faults = tuple(faults)
        for fault in self.faults:
            fault.validate()
        self.seed = seed
        self.name = name
        #: Ledger of fired faults (dicts: kind/shard/at index).
        self.fired: list[dict] = []
        self._armed = set(range(len(self.faults)))
        self._send_counts: dict[int, int] = {}
        self._lock = threading.Lock()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        num_shards: int,
        max_send: int = 20,
        count: int = 2,
        kinds: tuple[str, ...] = ("kill", "drop", "truncate", "corrupt"),
    ) -> "FaultPlan":
        """A small random transport-fault schedule, seeded."""
        rng = random.Random(seed)
        faults = [
            Fault(
                kind=rng.choice(list(kinds)),
                shard=rng.randrange(num_shards),
                at_send=rng.randrange(max_send),
            )
            for _ in range(count)
        ]
        return cls(faults, seed=seed, name=f"random-{seed}")

    # -- install hook --------------------------------------------------------

    def __enter__(self) -> "FaultPlan":
        install(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        uninstall(self)

    def wrap(self, transport: ShardTransport) -> "FaultyTransport":
        """The transport seam: wrap one replica's pipe in this plan."""
        return FaultyTransport(transport, self)

    # -- transport-side scheduling ------------------------------------------

    def next_send(self, shard: int) -> int:
        """Count one send to ``shard``; return its cumulative index."""
        with self._lock:
            index = self._send_counts.get(shard, 0)
            self._send_counts[shard] = index + 1
            return index

    def take_transport_fault(
        self, shard: int, send_index: int, *, is_block: bool
    ) -> Fault | None:
        """The armed fault due on this send, if any (consumes it)."""
        with self._lock:
            for i in sorted(self._armed):
                fault = self.faults[i]
                if fault.kind not in TRANSPORT_FAULTS:
                    continue
                if fault.shard is not None and fault.shard != shard:
                    continue
                if send_index < fault.at_send:
                    continue
                if fault.kind in ("corrupt", "truncate") and not is_block:
                    continue  # defer to the next block-shaped send
                self._armed.discard(i)
                self.fired.append(
                    {
                        "kind": fault.kind,
                        "shard": shard,
                        "at_send": send_index,
                    }
                )
                return fault
        return None

    # -- driver-side scheduling ----------------------------------------------

    def _due_driver_faults(self, events_ingested: int) -> list[Fault]:
        with self._lock:
            due: list[Fault] = []
            for i in sorted(self._armed):
                fault = self.faults[i]
                if (
                    fault.kind in DRIVER_FAULTS
                    and fault.at_event <= events_ingested
                ):
                    self._armed.discard(i)
                    self.fired.append(
                        {
                            "kind": fault.kind,
                            "shard": fault.shard,
                            "host": fault.host,
                            "at_event": events_ingested,
                        }
                    )
                    due.append(fault)
            return due

    def drive(
        self,
        session,
        events,
        *,
        step: int = 512,
        hosts: tuple = (),
    ) -> None:
        """Ingest ``events`` through ``session``, applying driver faults.

        The chaos harness's ingest loop: events go in ``step``-sized
        slices (slice boundaries never change results), and before each
        slice any driver fault whose threshold has been reached is
        applied — a worker process killed mid-stream, a host agent
        partitioned away. Transport faults fire on their own through
        the installed wrap; this loop only supplies the event clock.
        """
        total = len(events)
        position = 0
        while position < total:
            for fault in self._due_driver_faults(position):
                self._apply_driver_fault(fault, session, hosts)
            chunk = events[position:position + step]
            session.ingest(chunk)
            position += len(chunk)
        for fault in self._due_driver_faults(total):
            self._apply_driver_fault(fault, session, hosts)

    @staticmethod
    def _apply_driver_fault(fault: Fault, session, hosts: tuple) -> None:
        if fault.kind == "kill_worker":
            workers = session.executor._workers
            if workers is not None:
                workers[fault.shard].transport.kill()
            return
        if fault.kind == "partition_host":
            if fault.host >= len(hosts):
                raise ConfigurationError(
                    f"partition_host host={fault.host} but only "
                    f"{len(hosts)} hosts supplied to drive()"
                )
            handle = hosts[fault.host]
            handle.process.kill()
            handle.process.join(timeout=5.0)

    # -- reporting -----------------------------------------------------------

    def outstanding(self) -> list[Fault]:
        """Faults that never fired (schedule ran past the stream)."""
        with self._lock:
            return [self.faults[i] for i in sorted(self._armed)]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"FaultPlan(name={self.name!r}, faults={len(self.faults)}, "
            f"fired={len(self.fired)})"
        )


# -- the module-level install hook --------------------------------------------

_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The installed plan, consulted at worker construction."""
    return _ACTIVE


def install(plan: FaultPlan) -> None:
    global _ACTIVE
    if _ACTIVE is not None:
        raise ConfigurationError(
            "a fault plan is already installed; plans do not nest"
        )
    _ACTIVE = plan


def uninstall(plan: FaultPlan) -> None:
    global _ACTIVE
    if _ACTIVE is plan:
        _ACTIVE = None


# -- the wrapped transport -----------------------------------------------------


def _mangle_block(payload: bytes, kind: str) -> bytes:
    """A deterministically broken block payload (decodes loudly wrong)."""
    if kind == "truncate":
        return payload[: max(1, len(payload) // 2)]
    # corrupt: flip the wire magic so the decoder rejects the payload
    # instead of silently accepting altered events.
    return bytes([payload[0] ^ 0xFF]) + payload[1:]


class FaultyTransport(ShardTransport):
    """A :class:`ShardTransport` that fires scheduled faults.

    Wraps the real transport, delegating everything; each send first
    asks the plan whether a fault is due. ``kill``/``drop`` tear the
    replica down through the inner transport's own kill path and
    surface as :class:`TransportClosed` — exactly the signal a real
    death produces, at a deterministic send index. ``corrupt`` and
    ``truncate`` forward a mangled block so the *replica side* fails
    loudly and reports back. ``delay`` stalls the send (for exercising
    idle deadlines).
    """

    def __init__(self, inner: ShardTransport, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.shard_index = inner.shard_index

    def _due_fault(self, *, is_block: bool) -> Fault | None:
        index = self.plan.next_send(self.shard_index)
        return self.plan.take_transport_fault(
            self.shard_index, index, is_block=is_block
        )

    def _fail(self, fault: Fault) -> None:
        self.inner.kill()
        raise TransportClosed(
            f"fault injection: {fault.kind} on shard {self.shard_index}"
        )

    def send(self, message: tuple) -> None:
        is_block = message[0] == "block"
        fault = self._due_fault(is_block=is_block)
        if fault is not None:
            if fault.kind in ("kill", "drop"):
                self._fail(fault)
            elif fault.kind == "delay":
                time.sleep(fault.seconds)
            elif is_block:
                message = (
                    "block",
                    _mangle_block(bytes(message[1]), fault.kind),
                )
        self.inner.send(message)

    def send_block(self, block: EventBlock) -> None:
        fault = self._due_fault(is_block=True)
        if fault is not None:
            if fault.kind in ("kill", "drop"):
                self._fail(fault)
            elif fault.kind == "delay":
                time.sleep(fault.seconds)
            else:
                self.inner.send(
                    ("block", _mangle_block(block.to_bytes(), fault.kind))
                )
                return
        self.inner.send_block(block)

    def recv(self) -> tuple:
        return self.inner.recv()

    def is_alive(self) -> bool:
        return self.inner.is_alive()

    def kill(self) -> None:
        self.inner.kill()

    def release(self) -> None:
        self.inner.release()

    def join(self, timeout: float) -> None:
        self.inner.join(timeout)

    def __getattr__(self, name: str):
        # Transport-specific attributes (``process``, the shm ring)
        # read through the wrapper.
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FaultyTransport({self.inner!r}, plan={self.plan.name!r})"
