"""Seeded, structure-aware fuzzing of the wire-protocol fronts.

The hardening contract of the RSX2 control plane is behavioural, not
aspirational: *any* byte sequence arriving at a listening front — the
counting service's asyncio server or a shard host agent — must end in
a typed error reply, a clean close, or normal service. Never a hang,
never a connection reset, never an unhandled exception in a server
thread, never an allocation sized by an attacker's length field. This
module makes that contract
executable the same way :mod:`repro.streams.faults` makes crash
recovery executable: a :class:`FuzzPlan` is derived entirely from an
integer seed, so any failure is reproducible from one number.

A plan starts from a **valid** frame script (HELLO, then real control
traffic for its target front) and applies one mutation class:

* ``bit_flip`` — flip random bits anywhere in the stream;
* ``truncate`` — cut the stream mid-frame and close;
* ``length_lie`` — rewrite a frame header's length field (including
  over-cap lies that must be refused before allocation);
* ``depth_bomb`` — a control payload nesting containers past the
  codec's depth bound;
* ``size_bomb`` — a control payload declaring astronomically many
  elements (or bytes) with almost no payload behind the claim;
* ``wrong_kind`` — an unknown frame kind;
* ``bad_magic`` / ``bad_version`` — wrong magic, cross-version frames
  (the mixed-fleet rejection path);
* ``handshake_cut`` — the connection dies partway through HELLO.

Every 8th seed is a **clean control cell**: the unmutated script must
be fully accepted, and the result it produces must be bit-identical
to an in-process reference run of the same seeded stream — proving
the hardening layer costs nothing on well-formed traffic.

After every case the harness probes the front with a fresh minimal
connection, so a wedged or crashed server surfaces as that case's
failure (with its reproducing seed), not as noise in a later one.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ProtocolError
from repro.graph.stream import INSERT, EdgeEvent, EventBlock
from repro.samplers.checkpoint import (
    restore_sampler,
    sampler_state_dict,
    state_from_wire,
    state_to_wire,
)
from repro.streams.codec import decode, encode
from repro.streams.host import HostAgent
from repro.streams.service import CountingService, ServiceConfig, StreamConfig
from repro.streams.transport import (
    _FRAME_HEADER,
    _FRAME_MAGIC,
    FRAME_BLOCK,
    FRAME_CONTROL,
    FRAME_HELLO,
    PROTOCOL_VERSION,
    frame_bytes,
    hello_payload,
    parse_address,
    read_frame,
)
from repro.streams.workers import handle_shard_message
from repro.utils.rng import derive_seed, spawn_generators
from repro.weights.registry import build_weight_fn

__all__ = [
    "MUTATIONS",
    "FuzzPlan",
    "FuzzCase",
    "FuzzHarness",
    "run_fuzz",
]

#: Mutation classes a plan can apply ("clean" is the control cell).
MUTATIONS = (
    "bit_flip",
    "truncate",
    "length_lie",
    "depth_bomb",
    "size_bomb",
    "wrong_kind",
    "bad_magic",
    "bad_version",
    "handshake_cut",
)

#: Every 8th seed runs its script unmutated and checks bit-identity.
CLEAN_EVERY = 8

#: Per-case deadline for reply drains and liveness probes. A front
#: that makes a client wait longer than this on a half-closed socket
#: is hanging, which is exactly the bug class fuzzing exists to find.
CASE_TIMEOUT = 10.0

_U32 = struct.Struct("<I")

# RSX2 tag bytes used to hand-build bombs the encoder itself would
# refuse to produce (kept in sync with repro.streams.codec).
_T_NONE = b"\x00"
_T_LIST = b"\x07"
_T_BYTES = b"\x06"


def _deep_list_payload(depth: int) -> bytes:
    """``[[[...]]]`` nested ``depth`` times — hand-framed bytes."""
    return (_T_LIST + _U32.pack(1)) * depth + _T_NONE


def _huge_count_payload(count: int) -> bytes:
    """A list declaring ``count`` elements with no bytes behind it."""
    return _T_LIST + _U32.pack(count)


def _huge_bytes_payload(length: int) -> bytes:
    """A bytes value declaring ``length`` bytes with none present."""
    return _T_BYTES + _U32.pack(length)


def _events_for(seed: int, count: int = 48) -> list[EdgeEvent]:
    """A deterministic insert-only event batch derived from ``seed``."""
    rng = random.Random(derive_seed(seed, "fuzz-events"))
    events: list[EdgeEvent] = []
    seen: set[tuple[int, int]] = set()
    while len(events) < count:
        u, v = rng.randrange(100), rng.randrange(100)
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in seen:
            continue
        seen.add(edge)
        events.append(EdgeEvent(INSERT, edge))
    return events


@dataclass(frozen=True)
class FuzzPlan:
    """One deterministic fuzz case: what to send, mutated how.

    Everything — target front, mutation class, mutation sites, the
    event batch of the underlying valid script — derives from ``seed``
    alone, so ``FuzzPlan.from_seed(s, targets)`` rebuilt anywhere
    reproduces the exact bytes this case put on the wire.
    """

    seed: int
    target: str  # "service" | "host"
    mutation: str  # one of MUTATIONS, or "clean"

    @classmethod
    def from_seed(
        cls, seed: int, targets: tuple[str, ...] = ("service", "host")
    ) -> "FuzzPlan":
        for target in targets:
            if target not in ("service", "host"):
                raise ConfigurationError(
                    f"unknown fuzz target {target!r} "
                    "(known: 'service', 'host')"
                )
        rng = random.Random(derive_seed(seed, "fuzz-plan"))
        target = targets[rng.randrange(len(targets))]
        if seed % CLEAN_EVERY == 0:
            return cls(seed=seed, target=target, mutation="clean")
        mutation = MUTATIONS[rng.randrange(len(MUTATIONS))]
        return cls(seed=seed, target=target, mutation=mutation)

    # -- the valid script ----------------------------------------------------

    def script(self) -> list[bytes]:
        """The valid frame sequence this plan mutates (one bytes per
        frame, HELLO first)."""
        if self.target == "service":
            return self._service_script()
        return self._host_script()

    def _service_script(self) -> list[bytes]:
        events = _events_for(self.seed)
        config = StreamConfig(
            algorithm="WSD-U", budget=64, seed=self.seed % 997
        )
        # Both write paths ride along: the acknowledged control-op
        # ingest of one block and the fire-and-forget columnar blocks,
        # as three consecutive BLOCK frames so the server's run of
        # buffered frames is in play.
        blocks = [
            EventBlock.from_events(events[start:start + 8])
            for start in (24, 32, 40)
        ]
        acked = EventBlock.from_events(events[:24])
        return [
            frame_bytes(FRAME_HELLO, hello_payload("client")),
            frame_bytes(
                FRAME_CONTROL,
                encode(
                    (
                        "create",
                        1,
                        f"fuzz-{self.seed}",
                        config.to_dict(),
                        None,
                    )
                ),
            ),
            frame_bytes(FRAME_CONTROL, encode(("ingest", 2, acked))),
            *(frame_bytes(FRAME_BLOCK, block.to_bytes()) for block in blocks),
            frame_bytes(FRAME_CONTROL, encode(("query", 3, "estimate", {}))),
        ]

    def _host_script(self) -> list[bytes]:
        state = _fresh_state(self.seed)
        block = EventBlock.from_events(_events_for(self.seed))
        return [
            frame_bytes(FRAME_HELLO, hello_payload("coordinator")),
            frame_bytes(
                FRAME_CONTROL,
                encode(("lease", 0, state_to_wire(state), ("uniform", {}))),
            ),
            frame_bytes(FRAME_BLOCK, block.to_bytes()),
            frame_bytes(FRAME_CONTROL, encode(("sync", 7))),
            frame_bytes(FRAME_CONTROL, encode(("stop", 9))),
        ]

    # -- mutation ------------------------------------------------------------

    def wire_bytes(self) -> bytes:
        """The (possibly mutated) byte stream this case sends."""
        frames = self.script()
        rng = random.Random(derive_seed(self.seed, "fuzz-mutate"))
        mutation = self.mutation
        if mutation == "clean":
            return b"".join(frames)
        if mutation == "handshake_cut":
            hello = frames[0]
            return hello[: rng.randrange(1, len(hello))]
        if mutation == "truncate":
            blob = b"".join(frames)
            return blob[: rng.randrange(1, len(blob))]
        if mutation == "bit_flip":
            blob = bytearray(b"".join(frames))
            for _ in range(rng.randrange(1, 9)):
                index = rng.randrange(len(blob))
                blob[index] ^= 1 << rng.randrange(8)
            return bytes(blob)
        # The remaining classes rewrite one non-HELLO frame (HELLO
        # mutations are covered by bit_flip/handshake_cut) and keep
        # the rest of the stream intact, so the front's recovery —
        # reject the frame, keep or drop the connection — is visible.
        index = rng.randrange(1, len(frames))
        magic, version, kind, length = _FRAME_HEADER.unpack(
            frames[index][: _FRAME_HEADER.size]
        )
        payload = frames[index][_FRAME_HEADER.size:]
        if mutation == "length_lie":
            lie = rng.choice(
                [0, 1, len(payload) // 2, 1 << 28, 1 << 40, (1 << 64) - 1]
            )
            length = lie % (1 << 64)
        elif mutation == "depth_bomb":
            payload = _deep_list_payload(64 + rng.randrange(64))
            length = len(payload)
        elif mutation == "size_bomb":
            payload = (
                _huge_count_payload((1 << 31) - rng.randrange(1, 1000))
                if rng.random() < 0.5
                else _huge_bytes_payload((1 << 32) - rng.randrange(1, 1000))
            )
            length = len(payload)
        elif mutation == "wrong_kind":
            kind = rng.randrange(4, 256)
        elif mutation == "bad_magic":
            magic = bytes(rng.randrange(256) for _ in range(4))
            if magic == _FRAME_MAGIC:  # pragma: no cover - 2^-32
                magic = b"EVIL"
        elif mutation == "bad_version":
            version = rng.choice(
                (0, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1, 99, 255)
            )
        header = _FRAME_HEADER.pack(magic, version, kind, length)
        frames[index] = header + payload
        return b"".join(frames[: index + 1])


def _fresh_state(seed: int) -> dict:
    """A real sampler state dict for lease scripts (deterministic)."""
    from repro.experiments.algorithms import make_sampler

    rngs = spawn_generators(derive_seed(seed, "fuzz-host"), 1)
    sampler = make_sampler("WSD-U", "triangle", 64, rng=rngs[0])
    return sampler_state_dict(sampler)


@dataclass
class FuzzCase:
    """The observed outcome of one executed plan."""

    seed: int
    target: str
    mutation: str
    #: "accepted" | "typed_error" | "clean_close" | "reset" |
    #: "rejected_handshake" | "hang" | "bit_mismatch" | "dead_front"
    outcome: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Whether this outcome honours the contract (a reset never does)."""
        if self.mutation == "clean":
            return self.outcome == "accepted"
        return self.outcome in (
            "typed_error",
            "clean_close",
            "rejected_handshake",
            # A mutation that leaves the stream well-formed (e.g. a
            # bit flip inside a string) may legitimately be served.
            "accepted",
        )


class _ThreadExceptionTrap:
    """Record uncaught exceptions in server threads during a fuzz run."""

    def __init__(self) -> None:
        self.records: list[str] = []
        self._previous = None

    def __enter__(self) -> "_ThreadExceptionTrap":
        self._previous = threading.excepthook
        trap = self

        def hook(args) -> None:
            trap.records.append(
                f"{args.thread.name if args.thread else '?'}: "
                f"{args.exc_type.__name__}: {args.exc_value}"
            )

        threading.excepthook = hook
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        threading.excepthook = self._previous


class FuzzHarness:
    """Live fronts to fuzz: one counting service + one host agent.

    Both are real servers on loopback sockets — the fuzzer exercises
    the exact accept loops, frame readers, and dispatchers production
    traffic hits, not mocks of them.
    """

    def __init__(self) -> None:
        self.service = CountingService(
            ServiceConfig(checkpoint_interval=None)
        )
        self.service_address = self.service.start()
        self.host_agent = HostAgent()
        self.host_address = self.host_agent.address
        self._host_thread = threading.Thread(
            target=self.host_agent.serve_forever,
            name="repro-fuzz-host",
            daemon=True,
        )
        self._host_thread.start()

    def close(self) -> None:
        self.host_agent.shutdown()
        self._host_thread.join(timeout=5)
        self.service.stop()

    def __enter__(self) -> "FuzzHarness":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def address_for(self, target: str) -> str:
        return (
            self.service_address if target == "service" else self.host_address
        )

    # -- execution -----------------------------------------------------------

    def run_case(self, plan: FuzzPlan) -> FuzzCase:
        """Send one plan's bytes; classify what came back."""
        blob = plan.wire_bytes()
        outcome, detail = self._exchange(plan.target, blob)
        if outcome == "accepted" and plan.mutation == "clean":
            mismatch = self._check_clean_identity(plan)
            if mismatch:
                outcome, detail = "bit_mismatch", mismatch
        if not self._probe(plan.target):
            return FuzzCase(
                seed=plan.seed,
                target=plan.target,
                mutation=plan.mutation,
                outcome="dead_front",
                detail="front stopped serving clean connections "
                f"after this case ({detail})",
            )
        return FuzzCase(
            seed=plan.seed,
            target=plan.target,
            mutation=plan.mutation,
            outcome=outcome,
            detail=detail,
        )

    def _exchange(self, target: str, blob: bytes) -> tuple[str, str]:
        """Write ``blob``, half-close, drain replies, classify."""
        deadline = time.monotonic() + CASE_TIMEOUT
        replies: list[tuple[int, bytes]] = []
        sent_all = True
        try:
            with self._connect(target) as sock:
                try:
                    sock.sendall(blob)
                except ConnectionResetError:
                    raise
                except OSError:
                    # The front already rejected and dropped us while
                    # bytes were still in flight — drain what it said.
                    sent_all = False
                try:
                    sock.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return "hang", (
                            f"no EOF within {CASE_TIMEOUT}s of half-close"
                        )
                    sock.settimeout(min(remaining, 1.0))
                    try:
                        frame = read_frame(sock, deadline=deadline)
                    except TimeoutError:
                        continue
                    except ProtocolError as exc:
                        return "clean_close", f"reply stream ended: {exc}"
                    if frame is None:
                        break
                    replies.append(frame)
        except ConnectionResetError as exc:
            # A reset can overtake the front's error reply: a failure.
            return "reset", f"connection reset: {exc}"
        except OSError as exc:
            return "clean_close", f"connect/teardown: {exc}"
        return self._classify(replies, sent_all)

    def _connect(self, target: str) -> socket.socket:
        host, port = parse_address(self.address_for(target))
        sock = socket.create_connection((host, port), timeout=CASE_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    @staticmethod
    def _classify(
        replies: list[tuple[int, bytes]], sent_all: bool
    ) -> tuple[str, str]:
        got_hello = any(kind == FRAME_HELLO for kind, _payload in replies)
        errors: list[str] = []
        decoded = 0
        for kind, payload in replies:
            if kind != FRAME_CONTROL:
                continue
            try:
                reply = decode(payload)
            except Exception:  # a reply we mangled nothing of; unlikely
                continue
            decoded += 1
            if isinstance(reply, tuple) and reply and reply[0] == "error":
                errors.append(str(reply[2])[:200])
        if errors:
            return "typed_error", errors[0]
        if not got_hello:
            return "rejected_handshake", (
                f"closed before HELLO reply ({len(replies)} frames)"
            )
        if decoded and sent_all:
            return "accepted", f"{decoded} control replies"
        return "clean_close", (
            f"hello + {decoded} control replies, then EOF"
        )

    def _probe(self, target: str) -> bool:
        """A minimal clean connection proving the front still serves."""
        deadline = time.monotonic() + CASE_TIMEOUT
        try:
            with self._connect(target) as sock:
                role = "client" if target == "service" else "coordinator"
                sock.sendall(frame_bytes(FRAME_HELLO, hello_payload(role)))
                frame = read_frame(sock, deadline=deadline)
                if frame is None or frame[0] != FRAME_HELLO:
                    return False
                meta = json.loads(frame[1].decode("utf-8"))
                return "protocol" in meta
        except Exception:
            return False

    # -- clean-cell bit-identity ---------------------------------------------

    def _check_clean_identity(self, plan: FuzzPlan) -> str:
        """Compare the front's clean-traffic result to a reference.

        Service cells re-run the same named, seeded stream in-process
        (name + config fully determine the randomness); host cells
        replay the leased state + batch through the same replica
        message handler. Any difference is a hardening regression —
        validation must be invisible on well-formed traffic.
        """
        if plan.target == "service":
            return self._check_service_identity(plan)
        return self._check_host_identity(plan)

    def _check_service_identity(self, plan: FuzzPlan) -> str:
        from repro.streams.service import StreamSession

        session = self.service.get_stream(f"fuzz-{plan.seed}")
        served = session.queries.estimate()
        events = _events_for(plan.seed)
        config = StreamConfig(
            algorithm="WSD-U", budget=64, seed=plan.seed % 997
        )
        with StreamSession(f"fuzz-{plan.seed}", config) as reference:
            reference.ingest(events)
            expected = reference.queries.estimate()
        if served != expected:
            return (
                f"service estimate {served!r} != serial reference "
                f"{expected!r}"
            )
        return ""

    def _check_host_identity(self, plan: FuzzPlan) -> str:
        # The sync reply the host sent is not retained per-frame here;
        # instead replay the exact lease through the same handler the
        # host runs and compare against a second exchange.
        state = _fresh_state(plan.seed)
        sampler = restore_sampler(
            state_from_wire(state_to_wire(state)),
            build_weight_fn("uniform", {}),
        )
        block = EventBlock.from_events(_events_for(plan.seed))
        handle_shard_message(sampler, ("block", block.to_bytes()))
        reply, _done = handle_shard_message(sampler, ("sync", 7))
        assert reply[:2] == ("sync", 7)
        expected = reply[3]
        observed = self._host_sync_estimate(plan)
        if observed is None:
            return "host front returned no sync reply on clean traffic"
        if observed != expected:
            return (
                f"host sync estimate {observed!r} != replica reference "
                f"{expected!r}"
            )
        return ""

    def _host_sync_estimate(self, plan: FuzzPlan):
        """Drive the clean host script again, returning the sync
        estimate the agent reports."""
        deadline = time.monotonic() + CASE_TIMEOUT
        with self._connect("host") as sock:
            for frame in plan.script():
                sock.sendall(frame)
            sock.shutdown(socket.SHUT_WR)
            while True:
                frame = read_frame(sock, deadline=deadline)
                if frame is None:
                    return None
                kind, payload = frame
                if kind != FRAME_CONTROL:
                    continue
                reply = decode(payload)
                if (
                    isinstance(reply, tuple)
                    and len(reply) == 4
                    and reply[0] == "sync"
                ):
                    return reply[3]


@dataclass
class FuzzReport:
    """The aggregate of one fuzz run (JSON-ready via :meth:`to_dict`)."""

    cases: list[FuzzCase] = field(default_factory=list)
    thread_exceptions: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[FuzzCase]:
        return [case for case in self.cases if not case.ok]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.thread_exceptions

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for case in self.cases:
            counts[case.outcome] = counts.get(case.outcome, 0) + 1
        return counts

    def mutation_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for case in self.cases:
            counts[case.mutation] = counts.get(case.mutation, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "cases": len(self.cases),
            "ok": self.ok,
            "outcomes": self.outcome_counts(),
            "mutations": self.mutation_counts(),
            "failures": [
                {
                    "seed": case.seed,
                    "target": case.target,
                    "mutation": case.mutation,
                    "outcome": case.outcome,
                    "detail": case.detail,
                }
                for case in self.failures
            ],
            "thread_exceptions": list(self.thread_exceptions),
        }


def run_fuzz(
    seeds,
    *,
    targets: tuple[str, ...] = ("service", "host"),
    harness: FuzzHarness | None = None,
) -> FuzzReport:
    """Execute one plan per seed against live fronts; return the report.

    Failures carry their reproducing seed —
    ``FuzzPlan.from_seed(seed, targets).wire_bytes()`` rebuilds the
    exact hostile byte stream anywhere.
    """
    report = FuzzReport()
    owned = harness is None
    if harness is None:
        harness = FuzzHarness()
    try:
        with _ThreadExceptionTrap() as trap:
            for seed in seeds:
                plan = FuzzPlan.from_seed(int(seed), targets)
                report.cases.append(harness.run_case(plan))
        report.thread_exceptions = trap.records
    finally:
        if owned:
            harness.close()
    return report
