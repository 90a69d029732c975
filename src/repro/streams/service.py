"""Counting as a service: long-lived, multi-tenant streaming sessions.

Everything below this module answers one question per call: *given this
stream, what is the estimate now?* The service tier turns that into an
operated system: many named streams (tenants), each a sampler
configuration × shard layout backed by a
:class:`~repro.streams.executor.ShardedStreamExecutor` on any backend,
ingesting for hours while clients query, workers crash, and the process
itself restarts. Three objects carry the design:

* :class:`StreamConfig` — *what* a stream counts: algorithm, pattern,
  budget, seed, shard layout. JSON round-trippable, so it travels over
  the wire and into checkpoint manifests. The ``(config, name)`` pair
  defines the stream's randomness: per-shard generators are spawned
  from ``derive_seed(config.seed, "stream-<name>")``, so a serial
  re-run of the same named stream is bit-identical to the hosted one —
  the library's fixed-seed contract, extended to the service tier.
* :class:`StreamSession` — one live tenant. Owns the executor, an
  in-memory write-ahead log of everything since the last checkpoint
  barrier, and the durable on-disk checkpoint. A crashed worker is
  restored from its retained snapshot and the *exact* sub-stream it
  lost is replayed from the log (clock-delta replay, see
  :meth:`StreamSession._replay`), so recovery is invisible in the
  numbers, not just approximately patched.
* :class:`CountingService` — the registry + operations loop: restores
  every tenant found under ``state_dir`` at boot, runs the asyncio
  ingestion front (:mod:`repro.streams.ingest`) and a durability
  thread that checkpoints every tenant on a fixed cadence.
  ``python -m repro.streams.service --listen HOST:PORT`` is the
  operator entry point.

Durability uses generation-numbered checkpoint files: every shard
state of generation *g* — the framed format-5 bytes its worker sent,
written without decoding — is written (atomically, via
:func:`~repro.utils.io.atomic_write_bytes`) together with its own
``manifest-g<g>.json`` before ``manifest.json`` — the commit point —
is replaced to name them; generations *g* and *g-1* are both retained
(only *g-2* and older are pruned), so a checkpoint that turns out to
be corrupt on disk never strands the stream. A crash at any byte
leaves at least one complete checkpoint, never only a torn mix.

Everything read back from disk is validated before it is trusted:
WAL spill segments are CRC-framed (:mod:`repro.streams.codec`),
checkpoint shard files carry their own CRC-framed format (format 5;
format-4 files are read as a migration), and manifests are
structurally checked. A file that fails — truncated, bit-flipped,
zero-length, wrong format — is renamed into the stream's
``quarantine/`` directory with a :class:`~repro.errors.CorruptStateWarning`
and restore falls back to the newest generation that validates in
full. No pickle is read from disk on any of these paths.

Trust model: the service speaks the shard-transport wire format,
whose control frames are RSX2-encoded and schema-validated — hostile
bytes raise typed errors instead of executing code (see
:mod:`repro.streams.transport`).
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import threading
import traceback
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from repro.errors import (
    ConfigurationError,
    CorruptStateWarning,
    PeerLostError,
    ProtocolError,
    ServiceError,
    ServiceOverloadedError,
    WorkerCrashError,
)
from repro.estimators.local import LocalSubgraphCounter
from repro.graph.stream import EventBlock
from repro.patterns.matching import get_pattern
from repro.samplers.checkpoint import (
    check_state_wire,
    restore_sampler,
    state_from_wire,
)
from repro.streams.codec import wal_from_wire, wal_to_wire
from repro.streams.executor import (
    ExecutorOptions,
    ShardedStreamExecutor,
    as_event_block,
    partition_block,
)
from repro.streams.queries import StreamQueries
from repro.streams.supervisor import DEFAULT_RECOVERY_POLICY
from repro.utils.io import atomic_write_bytes, atomic_write_text
from repro.utils.rng import derive_seed, spawn_generators
from repro.weights.heuristic import GPSHeuristicWeight, UniformWeight

__all__ = [
    "SERVICE_ALGORITHMS",
    "StreamConfig",
    "StreamSession",
    "ServiceConfig",
    "CountingService",
    "main",
]

#: On-disk checkpoint manifest format; bumped on incompatible changes.
MANIFEST_FORMAT = 1

#: Default cap on write-ahead-log events before an automatic snapshot
#: barrier trims it (bounds both replay time and parent memory).
DEFAULT_WAL_LIMIT = 1 << 17

#: Spilled-WAL segment filename: base checkpoint generation + sequence.
_WAL_SEGMENT = "wal-g{generation:06d}-{seq:06d}.seg"

_WAL_SEGMENT_RE = re.compile(r"^wal-g(\d{6})-(\d{6})\.seg$")

#: Per-generation checkpoint manifest (``manifest.json`` is the commit
#: pointer naming the latest one).
_MANIFEST_FILE = "manifest-g{generation:06d}.json"

_MANIFEST_RE = re.compile(r"^manifest-g(\d{6})\.json$")

#: Any generation-numbered checkpoint artefact (for retention pruning).
_GENERATION_FILE_RE = re.compile(
    r"^(?:shard-\d{4}-|local-|manifest-)g(\d{6})\.(?:ckpt|json)$"
)

#: Algorithms the service can host. WSD-L is deliberately absent: it
#: needs a live policy object, which neither the wire nor the JSON
#: checkpoint manifest carries — host it in-process by building a
#: :class:`StreamSession` yourself and injecting a sampler factory.
SERVICE_ALGORITHMS = ("WSD-H", "WSD-U", "GPS-A", "GPS", "Triest", "ThinkD", "WRS")

_SERVICE_KEYS = {name.upper() for name in SERVICE_ALGORITHMS}

#: Stream names double as checkpoint directory names, so they are
#: restricted to a filesystem- and wire-safe alphabet.
_STREAM_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


def _validate_stream_name(name: str) -> None:
    if not isinstance(name, str) or not _STREAM_NAME.match(name):
        raise ConfigurationError(
            f"bad stream name {name!r}: need 1-128 chars of "
            "[A-Za-z0-9._-], starting with an alphanumeric"
        )


def _validate_wal_limits(
    limit: int, spill: int | None, hard_limit: int | None
) -> None:
    """The WAL bounds' rules, shared by the service and its sessions."""
    if limit < 1:
        raise ConfigurationError("wal_limit_events must be >= 1")
    if spill is not None and spill < 1:
        raise ConfigurationError(
            "wal_spill_events must be >= 1 (or None to disable)"
        )
    if hard_limit is not None:
        if hard_limit < 1:
            raise ConfigurationError(
                "wal_hard_limit_events must be >= 1 (or None)"
            )
        if spill is not None and hard_limit <= spill:
            raise ConfigurationError(
                "wal_hard_limit_events must exceed wal_spill_events "
                f"({hard_limit} <= {spill})"
            )


def _quarantine_file(directory: Path, path: Path, reason: str) -> Path | None:
    """Move a corrupt persisted file into ``<stream dir>/quarantine/``.

    The file is renamed (never deleted — an operator may want the
    bytes for forensics) and a :class:`CorruptStateWarning` names both
    ends of the move and why. Returns the quarantine path, or ``None``
    when even the rename failed (the warning still fires).
    """
    target: Path | None = None
    try:
        quarantine = directory / "quarantine"
        quarantine.mkdir(parents=True, exist_ok=True)
        target = quarantine / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = quarantine / f"{path.name}.{suffix}"
        path.rename(target)
    except OSError:  # pragma: no cover - rename is same-filesystem
        target = None
    warnings.warn(
        CorruptStateWarning(
            f"quarantined {path} ({reason})"
            + (f" -> {target}" if target is not None else "")
        ),
        stacklevel=2,
    )
    return target


class _SkippedGeneration(Exception):
    """Internal: this manifest repeats a generation already attempted."""


def _manifest_candidates(directory: Path) -> list[Path]:
    """Checkpoint manifests to try, newest first.

    ``manifest.json`` (the commit pointer) leads; the per-generation
    ``manifest-g*.json`` files follow in descending generation order,
    so a corrupt latest checkpoint falls back one generation at a
    time. Duplicate generations are filtered later (the pointer is a
    copy of the newest per-generation manifest).
    """
    candidates: list[Path] = []
    pointer = directory / "manifest.json"
    if pointer.is_file():
        candidates.append(pointer)
    generations: list[tuple[int, Path]] = []
    if directory.is_dir():
        for child in directory.iterdir():
            found = _MANIFEST_RE.match(child.name)
            if found is not None:
                generations.append((int(found.group(1)), child))
    candidates.extend(path for _gen, path in sorted(generations, reverse=True))
    return candidates


# Local-count vertices are int or str; JSON object keys are str-only,
# so accumulators persist as tagged pairs.
def _encode_vertex(vertex) -> list:
    if isinstance(vertex, bool) or not isinstance(vertex, (int, str)):
        raise ConfigurationError(
            f"local-count persistence supports int/str vertices, got "
            f"{type(vertex).__name__}"
        )
    return ["i", vertex] if isinstance(vertex, int) else ["s", vertex]


def _decode_vertex(pair: list):
    kind, value = pair
    return int(value) if kind == "i" else str(value)


def _tail_entries(entries: list[EventBlock], count: int) -> list:
    """The suffix of a routed WAL holding exactly ``count`` events."""
    tail: list = []
    need = count
    for entry in reversed(entries):
        if need <= 0:
            break
        if len(entry) <= need:
            tail.append(entry)
            need -= len(entry)
        else:
            tail.append(entry[-need:])
            need = 0
    tail.reverse()
    return tail


@dataclass(frozen=True)
class StreamConfig:
    """What one hosted stream counts (JSON round-trippable).

    ``(seed, stream name)`` fully determines the randomness: the
    session spawns per-shard generators from
    ``derive_seed(seed, "stream-<name>")``, so two streams with the
    same config but different names are independent, and a serial
    reference run of the same named config reproduces the hosted
    stream bit for bit.
    """

    algorithm: str = "WSD-H"
    pattern: str = "triangle"
    budget: int = 10_000
    seed: int = 0
    shards: int = 1
    mode: str = "partition"
    #: Track per-vertex local counts (anomaly-detection workloads).
    #: Requires ``shards=1`` and the serial backend: the counter
    #: observes the replica's counted instances in-process.
    track_local: bool = False

    def validate(self) -> None:
        key = str(self.algorithm).upper().replace("_", "-")
        if key == "WSD-L":
            raise ConfigurationError(
                "the service cannot host WSD-L: it needs a live trained "
                "policy, which does not travel over the wire or into a "
                "checkpoint manifest; serve WSD-H, or run WSD-L "
                "in-process with a StreamSession you build yourself"
            )
        if key not in _SERVICE_KEYS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; the service "
                f"hosts {SERVICE_ALGORITHMS}"
            )
        get_pattern(self.pattern)  # raises on unknown patterns
        if self.budget < 1:
            raise ConfigurationError("budget must be >= 1")
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.mode not in {"partition", "broadcast"}:
            raise ConfigurationError(
                f"mode must be 'partition' or 'broadcast', got {self.mode!r}"
            )
        if self.track_local and self.shards != 1:
            raise ConfigurationError(
                "track_local requires shards=1 (the local counter "
                "observes a single replica's instances)"
            )

    def shard_budget(self) -> int:
        """Per-replica budget: split in partition mode, full otherwise.

        The same convention as the experiment runner: partition mode
        divides M across the replicas (memory parity with a single
        sampler, floored at |H| so the estimators stay defined);
        broadcast replicas each sample the whole stream with the full
        budget.
        """
        if self.mode == "partition":
            return max(get_pattern(self.pattern).num_edges, self.budget // self.shards)
        return self.budget

    def build_weight_fn(self):
        """The algorithm's weight function (for checkpoint restores)."""
        key = str(self.algorithm).upper().replace("_", "-")
        if key in {"WSD-H", "GPS", "GPS-A"}:
            return GPSHeuristicWeight()
        if key == "WSD-U":
            return UniformWeight()
        return None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "StreamConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown StreamConfig keys: {unknown}; known: {sorted(known)}"
            )
        config = cls(**payload)
        config.validate()
        return config

    def with_changes(self, **kwargs) -> "StreamConfig":
        return replace(self, **kwargs)


class StreamSession:
    """One live hosted stream: executor + replay log + durability.

    The session's job is to make a long-lived stream safe to operate:

    * **Writes** (:meth:`ingest`) append to an in-memory write-ahead
      log *before* dispatching to the executor, so any event the
      executor might lose to a worker crash is replayable.
    * **Crash recovery** is clock-delta replay: restart the crashed
      shard from its retained snapshot, read every shard's event clock
      (a barrier), and re-feed each shard exactly the suffix of its
      routed sub-stream that its clock says it is missing — survivors
      replay nothing, the restored shard replays everything since the
      snapshot, and the recovered state is bit-identical to a run with
      no crash at all.
    * **Durability** (:meth:`checkpoint`) persists a
      generation-numbered, atomically-committed checkpoint that
      :meth:`restore` turns back into a bit-identical continuation.

    Reads go through :attr:`queries`
    (a :class:`~repro.streams.queries.StreamQueries`); all paths
    share one re-entrant lock, so queries interleave with ingestion at
    batch boundaries only.
    """

    def __init__(
        self,
        name: str,
        config: StreamConfig,
        *,
        options: ExecutorOptions | None = None,
        state_dir: str | Path | None = None,
        wal_limit_events: int = DEFAULT_WAL_LIMIT,
        wal_spill_events: int | None = None,
        wal_hard_limit_events: int | None = None,
        _checkpoint: tuple[list, list[bytes]] | None = None,
        _generation: int = 0,
        _local_counts: dict | None = None,
    ) -> None:
        _validate_stream_name(name)
        config.validate()
        if options is None:
            options = ExecutorOptions()
        options.validate()
        if config.track_local and options.backend != "serial":
            raise ConfigurationError(
                "track_local requires the serial executor backend (the "
                "local counter observes replica instances in-process)"
            )
        _validate_wal_limits(
            wal_limit_events, wal_spill_events, wal_hard_limit_events
        )
        self.name = name
        self.config = config
        self.options = options
        self._wal_limit = int(wal_limit_events)
        self._wal_spill = (
            None if wal_spill_events is None else int(wal_spill_events)
        )
        self._wal_hard_limit = (
            None
            if wal_hard_limit_events is None
            else int(wal_hard_limit_events)
        )
        #: The retry hint shipped inside overload rejections.
        self.retry_after_hint = 1.0
        recovery_policy = options.recovery_policy
        if recovery_policy is None:
            recovery_policy = DEFAULT_RECOVERY_POLICY
        #: The recovery engine (public: the chaos bench reads its stats).
        self.supervisor = recovery_policy.build_supervisor(
            config.shards, name=name
        )
        self._state_dir = Path(state_dir) if state_dir is not None else None
        self._lock = threading.RLock()
        self._wal: list = []
        self._wal_events = 0
        self._wal_memory_events = 0
        #: Closed WAL segments spilled to disk: (path, event count).
        self._segments: list[tuple[Path, int]] = []
        self._spilled_events = 0
        self._spill_seq = 0
        #: Corrupt persisted files renamed aside over this session's
        #: lifetime (segments + events lost to them), surfaced in
        #: :meth:`wal_stats`.
        self._quarantined_segments = 0
        self._quarantined_events = 0
        # Whether _base_clocks match the persisted checkpoint of
        # self._generation — the precondition for spilled segments to
        # be replayable at restore (a snapshot() without persist breaks
        # it; the next checkpoint() re-establishes it). Fresh sessions
        # start aligned: no manifest carries generation 0, so their
        # segments can never be mis-replayed.
        self._base_aligned = True
        self._generation = int(_generation)
        self._closed = False

        if _checkpoint is None:
            from repro.experiments.algorithms import make_sampler

            shard_budget = config.shard_budget()
            rngs = spawn_generators(
                derive_seed(config.seed, f"stream-{name}"), config.shards
            )

            def factory(index: int):
                return make_sampler(
                    config.algorithm, config.pattern, shard_budget,
                    rng=rngs[index],
                )
        else:
            # Replicas restored by _load_checkpoint, with the shard
            # files they came from.
            replicas, blobs = _checkpoint

            def factory(index: int):
                return replicas[index]

        #: The underlying executor. Public for operational tooling and
        #: tests; normal callers use :meth:`ingest` and :attr:`queries`.
        self.executor = ShardedStreamExecutor(
            factory, config.shards, mode=config.mode, options=options
        )
        #: Per-vertex local counter when ``config.track_local``.
        self.local: LocalSubgraphCounter | None = None
        if config.track_local:
            self.local = LocalSubgraphCounter().attach(self.executor.shards[0])
            if _local_counts:
                self.local.load_vertex_estimates(_local_counts)
        # Arm restart_shard from event zero (or the restored cut, with
        # the bytes read from disk): the executor retains these
        # checkpoints until the next snapshot replaces them.
        if _checkpoint is None:
            self.executor.snapshot()
        else:
            self.executor.adopt_snapshot(blobs)
        self._base_clocks = self.executor.shard_times()
        #: The read surface (estimate / stats / top_vertices / ...).
        self.queries = StreamQueries(self)

    # -- identity ------------------------------------------------------------

    @property
    def clock(self) -> int:
        """Events ingested into this session over its whole lifetime."""
        with self._lock:
            if not self._base_clocks:
                return self._wal_events
            if self.config.mode == "broadcast":
                return self._base_clocks[0] + self._wal_events
            return sum(self._base_clocks) + self._wal_events

    @property
    def durable(self) -> bool:
        """Whether :meth:`checkpoint` persists to disk."""
        return self._state_dir is not None

    @property
    def state_path(self) -> Path | None:
        """This stream's checkpoint directory (``None`` if in-memory)."""
        if self._state_dir is None:
            return None
        return self._state_dir / self.name

    # -- write path ----------------------------------------------------------

    def ingest(self, events) -> None:
        """Feed a batch (EventBlock or event iterable) into the stream.

        The batch lands in the write-ahead log before it is dispatched,
        so a worker crash at any point is recoverable by replay; when
        the log exceeds the session's limit, a snapshot barrier trims
        it. No synchronisation barrier otherwise — worker backends keep
        pipelining until the next read.

        The batch becomes one int64 :class:`EventBlock` first
        (:func:`~repro.streams.executor.as_event_block`): a label that
        does not fit raises before anything is logged or applied.

        Backpressure (both knobs off by default): past
        ``wal_spill_events`` in-memory events, closed WAL segments
        spill to disk under the stream's state directory (bounding
        parent memory without a barrier); past
        ``wal_hard_limit_events`` *total* WAL events the batch is
        rejected atomically — nothing appended, nothing dispatched —
        with :class:`~repro.errors.ServiceOverloadedError` carrying a
        retry-after hint. A checkpoint trims the log and ingestion
        resumes.
        """
        events = as_event_block(events)
        if not len(events):
            return
        with self._lock:
            if self._closed:
                raise ServiceError(f"stream {self.name!r} is closed")
            if (
                self._wal_hard_limit is not None
                and self._wal_events + len(events) > self._wal_hard_limit
            ):
                raise ServiceOverloadedError(
                    f"stream {self.name!r} write-ahead log is at "
                    f"{self._wal_events} events; accepting "
                    f"{len(events)} more would exceed the hard limit "
                    f"of {self._wal_hard_limit} — checkpoint (or wait "
                    "for the durability cadence) and retry",
                    retry_after=self.retry_after_hint,
                )
            self._wal.append(events)
            self._wal_events += len(events)
            self._wal_memory_events += len(events)
            try:
                self.executor.ingest(events)
            except (WorkerCrashError, PeerLostError) as exc:
                self._recover(exc)
            if (
                self._wal_spill is not None
                and self._wal_memory_events >= self._wal_spill
            ):
                self._spill_or_trim()
            if self._wal_events >= self._wal_limit:
                self.snapshot()

    # -- read path -----------------------------------------------------------

    def _read(self, fn):
        """Run one executor read under the lock, recovering crashes."""
        with self._lock:
            try:
                return fn(self.executor)
            except (WorkerCrashError, PeerLostError) as exc:
                self._recover(exc)
                return fn(self.executor)

    # -- crash recovery ------------------------------------------------------

    def _recover(self, exc) -> None:
        """Restore a crashed shard and replay its lost sub-stream.

        Recovery runs under the session's :attr:`supervisor`: each
        attempt restarts whichever shard failed last (replay itself can
        surface another silent death — its first send is how one is
        discovered — which continues the same incident against the new
        failure), with policy-driven backoff between attempts. When the
        incident's attempt limit or the shard's lifetime failure budget
        is exhausted, the supervisor escalates with
        :class:`~repro.errors.ShardUnrecoverableError` — determinism
        included: a fixed fault sequence escalates at a fixed point.
        """
        def attempt(error) -> None:
            index = getattr(error, "shard_index", None)
            if not isinstance(index, int) or not (
                0 <= index < self.config.shards
            ):
                # No shard to restart (e.g. a lost service-level peer):
                # nothing this session can rebuild — re-raise so the
                # supervisor burns the incident down and escalates.
                raise error
            self.executor.restart_shard(index)
            self._replay()

        self.supervisor.recover(exc, attempt)

    def _wal_entries(self) -> list:
        """Every live WAL entry, oldest first: spilled segments, then
        the in-memory tail (segments are read back from disk only
        here, on the recovery path).

        Segments are CRC-framed; one that fails validation is
        quarantined — along with every later segment, because replay
        order cannot skip a gap — and recovery degrades to best
        effort for the events it held (see :meth:`_replay`).
        """
        entries: list = []
        survivors: list[tuple[Path, int]] = []
        corrupt_from: int | None = None
        for index, (path, count) in enumerate(self._segments):
            if corrupt_from is not None:
                break
            try:
                entries.extend(wal_from_wire(path.read_bytes()))
                survivors.append((path, count))
            except (OSError, ProtocolError) as exc:
                corrupt_from = index
                directory = self.state_path
                assert directory is not None
                _quarantine_file(directory, path, str(exc))
        if corrupt_from is not None:
            for path, count in self._segments[corrupt_from:]:
                self._quarantined_segments += 1
                self._quarantined_events += count
                self._spilled_events -= count
                self._wal_events -= count
                if path.is_file():
                    directory = self.state_path
                    assert directory is not None
                    _quarantine_file(
                        directory,
                        path,
                        "follows a corrupt WAL segment (replay cannot "
                        "skip a gap)",
                    )
            self._segments = survivors
        entries.extend(self._wal)
        return entries

    def _routed_wal(self) -> list[list]:
        """The WAL as per-shard sub-streams (the executor's routing)."""
        shards = self.config.shards
        entries = self._wal_entries()
        if self.config.mode == "broadcast":
            return [list(entries) for _ in range(shards)]
        routed: list[list] = [[] for _ in range(shards)]
        for entry in entries:
            buckets = partition_block(entry, shards, self.executor.shard_key)
            for index, bucket in enumerate(buckets):
                routed[index].append(bucket)
        return routed

    def _replay(self) -> None:
        """Clock-delta replay: re-feed exactly what each shard lost.

        ``shard_times()`` is a barrier, so each clock reflects every
        event that reached its shard (including events a dead worker
        buffered but never processed — those never advance the clock,
        which is why the clock is the ground truth, not the dispatch
        history). A shard whose clock matches its expected position
        (base clock at the last snapshot + its routed share of the WAL)
        replays nothing; the restored shard replays the missing suffix
        of its own sub-stream via the executor's direct-delivery path.
        """
        times = self.executor.shard_times()
        routed = self._routed_wal()
        expected = [
            self._base_clocks[index] + sum(len(entry) for entry in routed[index])
            for index in range(self.config.shards)
        ]
        for index in range(self.config.shards):
            behind = expected[index] - times[index]
            if behind <= 0:
                continue
            for entry in _tail_entries(routed[index], behind):
                self.executor.ingest_shard(index, entry)
        # Barrier again so a replay failure surfaces here (and is
        # retried by _recover), not on some later unrelated query.
        final = self.executor.shard_times()
        for index in range(self.config.shards):
            if final[index] == expected[index]:
                continue
            if self._quarantined_segments and final[index] > expected[index]:
                # Quarantined segments took events out of the WAL that
                # surviving shards already processed: their clocks run
                # ahead of what the degraded log can account for. The
                # CorruptStateWarning already flagged the gap.
                continue
            raise ServiceError(
                f"replay did not converge for shard {index} of "
                f"stream {self.name!r}: clock {final[index]} != "
                f"expected {expected[index]}"
            )

    # -- WAL spill ----------------------------------------------------------

    @property
    def _wal_dir(self) -> Path | None:
        path = self.state_path
        return None if path is None else path / "wal"

    def _spill_or_trim(self) -> None:
        """Get in-memory WAL events under the spill mark.

        Durable sessions whose base snapshot matches their persisted
        checkpoint spill the closed entries to an on-disk segment (no
        barrier, replayable at restore); otherwise the trim falls back
        to a checkpoint (durable, re-aligns) or a plain snapshot
        barrier (in-memory sessions have no disk to spill to).
        """
        if self.durable and self._base_aligned:
            self._spill()
        elif self.durable:
            self.checkpoint()
        else:
            self.snapshot()

    def _spill(self) -> None:
        """Close the in-memory WAL entries into one on-disk segment."""
        if not self._wal:
            return
        directory = self._wal_dir
        assert directory is not None
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / _WAL_SEGMENT.format(
            generation=self._generation, seq=self._spill_seq
        )
        count = self._wal_memory_events
        atomic_write_bytes(path, wal_to_wire(self._wal))
        self._spill_seq += 1
        self._segments.append((path, count))
        self._spilled_events += count
        self._wal = []
        self._wal_memory_events = 0

    def _drop_segments(self) -> None:
        """Delete every tracked spilled segment (WAL was trimmed)."""
        for path, _count in self._segments:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self._segments = []
        self._spilled_events = 0
        self._spill_seq = 0

    def wal_stats(self) -> dict:
        """Write-ahead-log accounting: totals, memory share, segments.

        The observable contract of the bounded WAL: ``memory_events``
        stays under ``spill_events`` (when spilling is on) no matter
        how long checkpoints are withheld, and ``events`` never
        exceeds ``hard_limit_events``.
        """
        with self._lock:
            return {
                "events": self._wal_events,
                "memory_events": self._wal_memory_events,
                "spilled_events": self._spilled_events,
                "segments": len(self._segments),
                "limit_events": self._wal_limit,
                "spill_events": self._wal_spill,
                "hard_limit_events": self._wal_hard_limit,
                "aligned": self._base_aligned,
                "quarantined_segments": self._quarantined_segments,
                "quarantined_events": self._quarantined_events,
            }

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> list[bytes]:
        """Barrier-checkpoint every shard in memory; trim the WAL.

        Returns the shards' framed checkpoints, which the executor
        retains as the restart point for crashed shards; the base
        clocks come from the same barrier. The write-ahead log is reset
        to this cut — the session only ever needs to replay *since the
        last snapshot*.
        """
        with self._lock:
            try:
                blobs = self.executor.snapshot()
            except (WorkerCrashError, PeerLostError) as exc:
                self._recover(exc)
                blobs = self.executor.snapshot()
            self._wal.clear()
            self._wal_events = 0
            self._wal_memory_events = 0
            self._drop_segments()
            self._base_clocks = self.executor.shard_times()
            # The new base is an in-memory cut until the next persist.
            self._base_aligned = False
            return blobs

    def checkpoint(self) -> list[bytes]:
        """Snapshot, then persist durably when the session has a state dir."""
        with self._lock:
            blobs = self.snapshot()
            if self._state_dir is not None:
                self._persist(blobs)
            return blobs

    def _persist(self, blobs: list[bytes]) -> None:
        """Commit one checkpoint generation atomically.

        Every file of generation *g* is written (each one atomically),
        including the generation's own ``manifest-g<g>.json``, before
        ``manifest.json`` — the commit point — is atomically replaced
        to name them. Generation *g-1* is **retained**: a checkpoint
        that later fails validation (disk corruption discovered at
        restore) must never have destroyed its predecessor, so only
        generations *g-2* and older are pruned. A crash at any step
        leaves a manifest whose named files all exist and are
        internally CRC-checked, so restore always sees at least one
        complete, consistent checkpoint.

        The shard files are the workers' framed checkpoints, written as
        they arrived: only each frame and its CRC-32 are checked, all of
        them before the first file is written.
        """
        for blob in blobs:
            check_state_wire(blob)
        directory = self.state_path
        assert directory is not None
        directory.mkdir(parents=True, exist_ok=True)
        generation = self._generation + 1
        shard_files = [
            f"shard-{index:04d}-g{generation:06d}.ckpt"
            for index in range(len(blobs))
        ]
        for fname, blob in zip(shard_files, blobs):
            atomic_write_bytes(directory / fname, blob)
        local_file = None
        if self.local is not None:
            local_file = f"local-g{generation:06d}.json"
            counts = self.local.vertex_estimates()
            payload = json.dumps(
                {
                    "vertices": [
                        [_encode_vertex(vertex), value]
                        for vertex, value in sorted(
                            counts.items(), key=lambda item: repr(item[0])
                        )
                    ]
                }
            )
            atomic_write_text(directory / local_file, payload)
        manifest = {
            "format": MANIFEST_FORMAT,
            "name": self.name,
            "generation": generation,
            "clock": self.clock,
            "config": self.config.to_dict(),
            "options": self.options.to_dict(),
            "shard_files": shard_files,
            "local_file": local_file,
        }
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True)
        atomic_write_text(
            directory / _MANIFEST_FILE.format(generation=generation),
            manifest_text,
        )
        atomic_write_text(directory / "manifest.json", manifest_text)
        self._generation = generation
        # The freshly committed manifest is exactly the snapshot that
        # cut the WAL, so spilled segments may build on it again.
        self._base_aligned = True
        # Retention: keep this generation and the previous one; prune
        # g-2 and older, plus anything unrecognised.
        keep = {"manifest.json", "wal", "quarantine"}
        for stale in directory.iterdir():
            if stale.name in keep:
                continue
            found = _GENERATION_FILE_RE.match(stale.name)
            if found is not None and int(found.group(1)) in (
                generation,
                generation - 1,
            ):
                continue
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        # Every WAL segment predates the manifest commit (checkpoint
        # trims the log first), so the spill directory sweeps clean.
        wal_dir = directory / "wal"
        if wal_dir.is_dir():
            for stale in wal_dir.iterdir():
                try:
                    stale.unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    @classmethod
    def restore(
        cls,
        name: str,
        state_dir: str | Path,
        *,
        options: ExecutorOptions | None = None,
        wal_limit_events: int = DEFAULT_WAL_LIMIT,
        wal_spill_events: int | None = None,
        wal_hard_limit_events: int | None = None,
    ) -> "StreamSession":
        """Rebuild a session from its latest durable checkpoint.

        The continuation is bit-identical: replicas are restored from
        their CRC-checked shard states, local accumulators reload, and
        the stream picks up exactly where the checkpoint barrier cut
        it. ``options`` defaults to the options recorded in the
        manifest, so a process-backend stream resumes as one.

        WAL segments spilled on top of this checkpoint's generation are
        replayed in order through the ordinary ingest path and then
        folded into a fresh checkpoint, so events that outlived their
        process only in the spill directory are not lost; segments from
        any other generation are stale and deleted.

        Every file is validated before it is trusted: a manifest that
        does not parse, a shard file that fails its framed-format
        checks, or a local-count file that does not decode is
        quarantined (renamed into ``quarantine/`` with a
        :class:`~repro.errors.CorruptStateWarning`) and restore falls
        back to the newest older generation that validates in full —
        generations N and N-1 are both on disk by construction. Only
        when no generation validates does restore raise.
        """
        directory = Path(state_dir) / name
        candidates = _manifest_candidates(directory)
        if not candidates:
            raise ServiceError(
                f"no checkpoint for stream {name!r} under {state_dir}"
            )
        failures: list[str] = []
        tried: set[int] = set()
        for manifest_path in candidates:
            if not manifest_path.is_file():
                continue  # quarantined by an earlier candidate's failure
            try:
                manifest, config, manifest_options, checkpoint, local_counts = (
                    cls._load_checkpoint(directory, manifest_path, tried)
                )
            except _SkippedGeneration:
                continue
            except ServiceError as exc:
                failures.append(str(exc))
                continue
            session = cls(
                name,
                config,
                options=options if options is not None else manifest_options,
                state_dir=state_dir,
                wal_limit_events=wal_limit_events,
                wal_spill_events=wal_spill_events,
                wal_hard_limit_events=wal_hard_limit_events,
                _checkpoint=checkpoint,
                _generation=int(manifest["generation"]),
                _local_counts=local_counts,
            )
            session._replay_spilled(int(manifest["generation"]))
            return session
        raise ServiceError(
            f"no checkpoint generation for stream {name!r} under "
            f"{state_dir} validates: " + "; ".join(failures)
        )

    @classmethod
    def _load_checkpoint(
        cls, directory: Path, manifest_path: Path, tried: set[int]
    ) -> tuple:
        """Read and fully validate one checkpoint generation.

        Returns ``(manifest, config, options, (replicas, blobs),
        local_counts)``: every shard restored from its file, next to the
        file's bytes. Raises :class:`ServiceError` naming what failed —
        after quarantining the corrupt file so the next restore attempt (or
        the fallback to an older generation) does not trip over it
        again. Raises :class:`_SkippedGeneration` when this manifest
        names a generation an earlier candidate already covered.
        """
        try:
            manifest = json.loads(manifest_path.read_text("utf-8"))
            if not isinstance(manifest, dict):
                raise ValueError("manifest is not a JSON object")
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            _quarantine_file(directory, manifest_path, f"unreadable manifest: {exc}")
            raise ServiceError(
                f"{manifest_path.name} does not parse: {exc}"
            ) from exc
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ServiceError(
                f"{manifest_path.name} has format "
                f"{manifest.get('format')!r}; this build reads "
                f"{MANIFEST_FORMAT}"
            )
        generation = manifest.get("generation")
        if isinstance(generation, int):
            if generation in tried:
                raise _SkippedGeneration()
            tried.add(generation)
        try:
            config = StreamConfig.from_dict(manifest["config"])
            manifest_options = ExecutorOptions.from_dict(manifest["options"])
            shard_files = manifest["shard_files"]
            if not isinstance(shard_files, list) or not all(
                isinstance(fname, str) for fname in shard_files
            ):
                raise ValueError("shard_files is not a list of names")
        except (
            KeyError,
            TypeError,
            ValueError,
            ConfigurationError,
        ) as exc:
            _quarantine_file(
                directory, manifest_path, f"malformed manifest: {exc}"
            )
            raise ServiceError(
                f"{manifest_path.name} is malformed: {exc}"
            ) from exc
        if len(shard_files) != config.shards:
            raise ServiceError(
                f"{manifest_path.name} names {len(shard_files)} shard "
                f"files but its config declares {config.shards}"
            )
        weight_fn = config.build_weight_fn()
        replicas, blobs = [], []
        for fname in shard_files:
            shard_path = directory / fname
            if not shard_path.is_file():
                raise ServiceError(
                    f"{manifest_path.name} names missing shard file {fname}"
                )
            try:
                blob = shard_path.read_bytes()
                replicas.append(
                    restore_sampler(state_from_wire(blob), weight_fn)
                )
                blobs.append(blob)
            except Exception as exc:
                _quarantine_file(directory, shard_path, str(exc))
                raise ServiceError(
                    f"shard file {fname} fails validation: {exc}"
                ) from exc
        local_counts = None
        if manifest.get("local_file"):
            local_path = directory / manifest["local_file"]
            if not local_path.is_file():
                raise ServiceError(
                    f"{manifest_path.name} names missing local-count "
                    f"file {manifest['local_file']}"
                )
            try:
                payload = json.loads(local_path.read_text("utf-8"))
                local_counts = {
                    _decode_vertex(pair): float(value)
                    for pair, value in payload["vertices"]
                }
            except Exception as exc:
                _quarantine_file(directory, local_path, str(exc))
                raise ServiceError(
                    f"local-count file {manifest['local_file']} fails "
                    f"validation: {exc}"
                ) from exc
        return (
            manifest, config, manifest_options, (replicas, blobs),
            local_counts,
        )

    def _replay_spilled(self, generation: int) -> None:
        """Fold restore-time WAL segments back into the stream.

        Segments whose base generation matches the restored checkpoint
        are replayed oldest-first through :meth:`ingest` (so routing,
        recovery, and bit-identity all hold by construction, and the
        event lists that protocol-2 builds spilled become blocks), then a
        fresh checkpoint commits the recovered cut and sweeps the spill
        directory. Spill and the hard limit are suspended during the
        replay — these events were already accepted once. Idempotent
        under crashes: the segments outlive the replay until the final
        checkpoint's manifest commit, so a re-restore replays them
        again from the same base.

        Each segment is CRC-validated before a single event of it is
        replayed; a segment that fails is quarantined together with
        every later segment (replay cannot skip a gap), and the valid
        prefix is still folded in.
        """
        wal_dir = self._wal_dir
        if wal_dir is None or not wal_dir.is_dir():
            return
        matched: list[tuple[int, Path]] = []
        stale: list[Path] = []
        for child in wal_dir.iterdir():
            found = _WAL_SEGMENT_RE.match(child.name)
            if found is None:
                continue
            if int(found.group(1)) == generation:
                matched.append((int(found.group(2)), child))
            else:
                stale.append(child)
        for path in stale:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        if not matched:
            return
        directory = self.state_path
        assert directory is not None
        ordered = sorted(matched)
        decoded: list[list] = []
        for index, (_seq, path) in enumerate(ordered):
            try:
                decoded.append(wal_from_wire(path.read_bytes()))
            except (OSError, ProtocolError) as exc:
                _quarantine_file(directory, path, str(exc))
                self._quarantined_segments += 1
                for _later_seq, later in ordered[index + 1:]:
                    self._quarantined_segments += 1
                    _quarantine_file(
                        directory,
                        later,
                        "follows a corrupt WAL segment (replay cannot "
                        "skip a gap)",
                    )
                break
        if not decoded:
            return
        with self._lock:
            spill, self._wal_spill = self._wal_spill, None
            hard, self._wal_hard_limit = self._wal_hard_limit, None
            try:
                for entries in decoded:
                    for entry in entries:
                        self.ingest(entry)
            finally:
                self._wal_spill = spill
                self._wal_hard_limit = hard
            self.checkpoint()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop accepting events and tear the executor down (idempotent).

        Worker backends harvest final states into the parent replicas,
        so estimates stay readable after close; a worker that died
        before delivering its final state is tolerated — the last
        checkpoint already covers it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self.executor.close()
            except WorkerCrashError:
                pass

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"StreamSession(name={self.name!r}, "
            f"algorithm={self.config.algorithm!r}, "
            f"pattern={self.config.pattern!r}, shards={self.config.shards}, "
            f"clock={self.clock})"
        )


@dataclass(frozen=True)
class ServiceConfig:
    """How the counting service runs (not what any stream counts).

    ``executor`` is the default execution backend for streams created
    without explicit options; ``checkpoint_interval`` drives the
    durability thread (``None`` disables it — streams still checkpoint
    on WAL pressure and at shutdown).

    The robustness knobs (all off by default): ``wal_spill_events`` /
    ``wal_hard_limit_events`` bound every tenant's write-ahead log
    (spill to disk, then shed load with typed overload errors);
    ``executor.recovery_policy`` governs supervised crash recovery;
    ``heartbeat_timeout`` drops ingest connections that go fully
    silent; ``auth_key`` requires HMAC-signed frames from every
    client; ``max_frame_bytes`` caps how large a single wire frame's
    declared payload may be (enforced on header bytes, before any
    allocation — ``None`` uses
    :data:`~repro.streams.transport.DEFAULT_MAX_FRAME_BYTES`).
    """

    listen: str = "127.0.0.1:0"
    state_dir: str | Path | None = None
    checkpoint_interval: float | None = 30.0
    executor: ExecutorOptions = field(default_factory=ExecutorOptions)
    wal_limit_events: int = DEFAULT_WAL_LIMIT
    wal_spill_events: int | None = None
    wal_hard_limit_events: int | None = None
    heartbeat_timeout: float | None = None
    auth_key: str | None = None
    max_frame_bytes: int | None = None

    def validate(self) -> None:
        if self.checkpoint_interval is not None and not self.checkpoint_interval > 0:
            raise ConfigurationError(
                "checkpoint_interval must be > 0 (or None to disable)"
            )
        _validate_wal_limits(
            self.wal_limit_events,
            self.wal_spill_events,
            self.wal_hard_limit_events,
        )
        if (
            self.heartbeat_timeout is not None
            and not self.heartbeat_timeout > 0
        ):
            raise ConfigurationError(
                "heartbeat_timeout must be > 0 (or None)"
            )
        if self.max_frame_bytes is not None and self.max_frame_bytes < 4096:
            raise ConfigurationError(
                f"max_frame_bytes must be >= 4096 (or None), got "
                f"{self.max_frame_bytes}"
            )
        self.executor.validate()

    def with_changes(self, **kwargs) -> "ServiceConfig":
        return replace(self, **kwargs)


class CountingService:
    """The multi-tenant registry + operations loop.

    Construction restores every tenant found under ``state_dir`` (any
    subdirectory with a committed manifest), so a killed service comes
    back serving the same streams at their last checkpoint cut.
    :meth:`start` brings up the TCP ingestion front and the durability
    thread; :meth:`stop` checkpoints everything and tears down.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.config.validate()
        self._lock = threading.Lock()
        self._sessions: dict[str, StreamSession] = {}
        self._server = None
        self._durability: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._stopped = False
        if self.config.state_dir is not None:
            root = Path(self.config.state_dir)
            root.mkdir(parents=True, exist_ok=True)
            for child in sorted(root.iterdir()):
                if not _manifest_candidates(child):
                    continue
                self._sessions[child.name] = StreamSession.restore(
                    child.name,
                    root,
                    wal_limit_events=self.config.wal_limit_events,
                    wal_spill_events=self.config.wal_spill_events,
                    wal_hard_limit_events=self.config.wal_hard_limit_events,
                )

    # -- registry ------------------------------------------------------------

    def streams(self) -> tuple[str, ...]:
        """The registered stream names, sorted."""
        with self._lock:
            return tuple(sorted(self._sessions))

    def create_stream(
        self,
        name: str,
        config: StreamConfig,
        *,
        options: ExecutorOptions | None = None,
    ) -> StreamSession:
        """Register and start a new named stream."""
        _validate_stream_name(name)
        with self._lock:
            if self._stopped:
                raise ServiceError("the service is stopped")
            if name in self._sessions:
                raise ServiceError(f"stream {name!r} already exists")
            session = StreamSession(
                name,
                config,
                options=options if options is not None else self.config.executor,
                state_dir=self.config.state_dir,
                wal_limit_events=self.config.wal_limit_events,
                wal_spill_events=self.config.wal_spill_events,
                wal_hard_limit_events=self.config.wal_hard_limit_events,
            )
            self._sessions[name] = session
            return session

    def get_stream(self, name: str) -> StreamSession:
        """Look a tenant up by name."""
        with self._lock:
            session = self._sessions.get(name)
            known = sorted(self._sessions)
        if session is None:
            raise ServiceError(
                f"no stream named {name!r}; registered: {known}"
            )
        return session

    def _session_list(self) -> list[StreamSession]:
        with self._lock:
            return list(self._sessions.values())

    def checkpoint_all(self) -> dict[str, int]:
        """Checkpoint every tenant; returns name -> clock at the cut."""
        clocks: dict[str, int] = {}
        for session in self._session_list():
            session.checkpoint()
            clocks[session.name] = session.clock
        return clocks

    # -- operations loop -----------------------------------------------------

    @property
    def address(self) -> str | None:
        """The bound ``host:port`` once started."""
        return self._server.address if self._server is not None else None

    def start(self) -> str:
        """Start the ingestion front + durability loop; return the address."""
        from repro.streams.ingest import StreamIngestServer

        if self._server is not None:
            raise ServiceError("the service is already started")
        if self._stopped:
            raise ServiceError("the service is stopped")
        self._server = StreamIngestServer(self, self.config.listen)
        address = self._server.start()
        if self.config.checkpoint_interval is not None:
            self._durability = threading.Thread(
                target=self._durability_loop,
                name="repro-service-durability",
                daemon=True,
            )
            self._durability.start()
        return address

    def _durability_loop(self) -> None:
        # One failed cadence (e.g. a crash recovery in progress on some
        # stream) must not kill durability for every later cadence.
        while not self._stop_event.wait(self.config.checkpoint_interval):
            try:
                self.checkpoint_all()
            except Exception:  # pragma: no cover - defensive
                traceback.print_exc()

    def serve_forever(self) -> None:
        """Block until :meth:`stop` is called (or KeyboardInterrupt)."""
        self._stop_event.wait()

    def stop(self) -> None:
        """Checkpoint every tenant, stop serving, tear down (idempotent)."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self._stop_event.set()
        if self._durability is not None:
            self._durability.join(timeout=30)
            self._durability = None
        if self._server is not None:
            self._server.stop()
            self._server = None
        for session in self._session_list():
            try:
                session.checkpoint()
            except Exception:  # pragma: no cover - defensive
                traceback.print_exc()
            session.close()

    def __enter__(self) -> "CountingService":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CountingService(streams={list(self.streams())}, "
            f"address={self.address!r})"
        )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.streams.service``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.streams.service",
        description=(
            "Run a long-lived subgraph-counting service: clients create "
            "named streams, push edge events over TCP, and query "
            "estimates while ingestion continues. Control frames are "
            "RSX2-encoded and schema-validated (no pickle on the "
            "wire); pass --auth-key to additionally require "
            "HMAC-signed frames."
        ),
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        help="bind address as host:port (port 0 picks a free port)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help=(
            "directory for durable checkpoints; streams found here are "
            "restored at boot"
        ),
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=30.0,
        help="seconds between durability checkpoints (0 disables)",
    )
    parser.add_argument(
        "--backend",
        default="serial",
        choices=("serial", "process"),
        help="default executor backend for newly created streams",
    )
    parser.add_argument(
        "--wal-spill",
        type=int,
        default=None,
        metavar="EVENTS",
        help=(
            "spill the in-memory write-ahead log to disk segments past "
            "this many events (default: no spilling)"
        ),
    )
    parser.add_argument(
        "--wal-hard-limit",
        type=int,
        default=None,
        metavar="EVENTS",
        help=(
            "reject ingestion with a typed overload error once the "
            "write-ahead log holds this many events (default: no limit)"
        ),
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "drop client connections that send no frame (not even a "
            "heartbeat) for this long (default: wait forever)"
        ),
    )
    parser.add_argument(
        "--auth-key",
        default=None,
        metavar="KEY",
        help=(
            "shared secret enabling HMAC-SHA256 frame signing; clients "
            "must present the same key (default: unsigned)"
        ),
    )
    parser.add_argument(
        "--max-frame-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "cap on a single wire frame's declared payload, enforced "
            "before allocation (default: 64 MiB)"
        ),
    )
    args = parser.parse_args(argv)
    config = ServiceConfig(
        listen=args.listen,
        state_dir=args.state_dir,
        checkpoint_interval=args.checkpoint_interval or None,
        executor=ExecutorOptions(backend=args.backend),
        wal_spill_events=args.wal_spill,
        wal_hard_limit_events=args.wal_hard_limit,
        heartbeat_timeout=args.heartbeat_timeout,
        auth_key=args.auth_key,
        max_frame_bytes=args.max_frame_bytes,
    )
    # A process started with SIGINT ignored (``cmd &`` in a
    # non-interactive shell) inherits SIG_IGN; restore the default so
    # SIGINT always reaches the stop-time checkpoint below.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    service = CountingService(config)
    # Everything after construction sits inside the try, so a SIGINT
    # at any point still runs stop() and its stop-time checkpoint.
    try:
        address = service.start()
        print(f"counting service listening on {address}", flush=True)
        restored = service.streams()
        if restored:
            print(f"restored streams: {', '.join(restored)}", flush=True)
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
