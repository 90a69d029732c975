"""Sharded stream executor: scale one sampler into N replicas.

Production streams outgrow a single consumer in two different ways, and
the executor covers both with the same driver:

* **partition** mode — the fully dynamic edge stream is hash-partitioned
  across N independent sampler replicas: every event routes to the shard
  owning its edge (deterministically, so a deletion always reaches the
  shard holding the insertion and per-shard feasibility is preserved).
  Each replica does 1/N of the work, so this is the *throughput*
  scale-out; the merged estimate rescales the sum of shard-local
  estimates by N^{|H|-1}
  (:func:`~repro.estimators.combine.combine_partition`) because an
  instance survives partitioning only when all its edges co-locate.
* **broadcast** mode — every replica consumes the whole stream with
  independent sampling randomness. Same work per replica as a single
  sampler, but the merged mean of N independent unbiased estimates cuts
  the variance by 1/N (:func:`~repro.estimators.combine.combine_mean`;
  supply per-replica variances to ``merged_estimate`` for the
  inverse-variance weighting). This is the *accuracy* scale-out.

Replicas are ordinary :class:`~repro.samplers.base.SubgraphCountingSampler`
instances driven through their batched ingestion path, so every kernel
fast loop applies shard-locally.

Both modes run under any of three **backends**, chosen by
``ExecutorOptions(backend=...)``:

* ``"serial"`` — every replica lives in this process and is driven
  inline (zero overhead, no parallelism); any hashable vertex label.
* ``"process"`` — every replica runs in its own worker process
  (:mod:`repro.streams.workers`), fed int64 event blocks
  (:func:`as_event_block`) over a bounded queue so ingestion
  pipelines with the parent's stream iteration.
  Fresh replicas are still *constructed* in the parent and shipped as
  checkpoints, so a process run consumes exactly the randomness of the
  serial run: **under fixed seeds the two backends produce identical
  estimates** (the load-bearing contract, tested per sampler and per
  mode). A restored executor (:meth:`ShardedStreamExecutor.from_checkpoints`)
  ships its checkpoint bytes as given and builds no replica here.
* ``"remote"`` — every replica is **leased onto a shard host agent**
  (:mod:`repro.streams.host`) over TCP, with this executor acting as
  the coordinator: it assigns shards to ``hosts`` round-robin, routes
  event blocks through the same deterministic partitioner, maps
  connection loss onto :class:`~repro.errors.WorkerCrashError` /
  :meth:`restart_shard`, and supports **elastic membership** —
  :meth:`add_host` / :meth:`drain_host` move shards between hosts by a
  snapshot barrier + checkpoint handoff, never replaying events on
  surviving shards. The replicas still restore from parent-shipped
  checkpoints and see the identical event sequence, so the
  bit-identity contract extends to serial == process == remote.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from repro.errors import ConfigurationError, WorkerCrashError
from repro.estimators.combine import (
    combine_mean,
    combine_partition,
    combine_variance_weighted,
)
from repro.graph.edges import Edge
from repro.graph.stream import EdgeEvent, EdgeStream, EventBlock
from repro.patterns.matching import get_pattern
from repro.samplers.base import SubgraphCountingSampler
from repro.samplers.checkpoint import (
    restore_sampler,
    sampler_state_dict,
    state_from_wire,
    state_to_wire,
)
from repro.streams.workers import ShardWorker
from repro.weights.base import WeightFunction

__all__ = [
    "ExecutorOptions",
    "ShardedStreamExecutor",
    "as_event_block",
    "default_shard_key",
    "partition_events",
    "partition_block",
    "vectorized_edge_hash",
]

#: Executor execution modes.
_MODES = ("partition", "broadcast")

#: Executor backends.
_BACKENDS = ("serial", "process", "remote")

#: Backends whose replicas live behind ShardWorker handles.
_WORKER_BACKENDS = ("process", "remote")


@dataclass(frozen=True)
class ExecutorOptions:
    """How a :class:`ShardedStreamExecutor` runs its replicas.

    The one carrier for every knob about *where and how* the replicas
    execute — as opposed to *what* they compute (the sampler factory,
    shard count, mode and routing key, which stay positional on the
    executor). Pass it as ``ShardedStreamExecutor(..., options=...)``,
    ``ExperimentConfig(executor=...)``, ``ServiceConfig(executor=...)``
    or ``StreamSession(..., options=...)``. No field changes an
    estimate: under fixed seeds every backend and setting is
    bit-identical.

    Attributes:
        backend: ``"serial"`` (inline replicas), ``"process"`` (one
            worker process per replica, launched lazily on first
            ingestion; replicas must be checkpointable and their weight
            functions picklable) or ``"remote"`` (replicas leased onto
            shard host agents).
        hosts: shard host agent addresses (``"host:port"``, no
            duplicates) for the remote backend; shards are leased
            across them round-robin at launch (routing stays
            ``hash % num_shards`` — membership changes move replicas
            between hosts, never re-route events). Required for, and
            only valid with, ``backend="remote"``.
        chunk_size: events per dispatched chunk on the worker backends.
            Chunk boundaries never change results, so this is purely a
            latency/throughput knob: the default (8192, one
            shared-memory slot per chunk) favours throughput; lower it
            when estimate reads must observe ingestion promptly.
        queue_depth: per-worker bound on undelivered chunks before
            ingestion blocks (the pipelining backpressure).
        mp_context: multiprocessing context or start-method name for
            the process backend; ``None`` uses the platform default.
            State ships as checkpoints either way, so results do not
            depend on the start method.
        recovery_policy: a
            :class:`~repro.streams.supervisor.RecoveryPolicy` for
            supervised retry of worker bring-up and, in a
            :class:`~repro.streams.service.StreamSession`, for
            restart-and-replay recovery; ``None`` means no bring-up
            retries here and the library default in a session.
        heartbeat_interval: seconds between liveness heartbeats on
            remote shard transports; ``None`` (default) sends none.
        auth_key: shared secret for HMAC frame signing on remote
            transports; must match the host agents' ``--auth-key``.
        max_frame_bytes: per-frame payload cap for remote transports,
            enforced before allocation; ``None`` uses the transport
            default (64 MiB).

    ``mp_context`` is process-local (a live :mod:`multiprocessing`
    context does not serialise), so :meth:`to_dict` drops it — options
    that travel over a wire or into a manifest come back with the
    platform default context. ``auth_key`` is a secret, so
    :meth:`to_dict` drops it too: manifests and wire payloads never
    carry the key.
    """

    backend: str = "serial"
    hosts: tuple[str, ...] = ()
    chunk_size: int = 8192
    queue_depth: int = 8
    mp_context: object | None = None
    recovery_policy: "RecoveryPolicy | None" = None
    heartbeat_interval: float | None = None
    auth_key: str | None = None
    max_frame_bytes: int | None = None

    def validate(self) -> None:
        """Reject invalid settings (the only check of these fields)."""
        if self.backend not in _BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.backend == "remote" and not self.hosts:
            raise ConfigurationError(
                "backend='remote' requires hosts=(...) (shard host "
                "agent addresses)"
            )
        if self.hosts and self.backend != "remote":
            raise ConfigurationError(
                "hosts= is only valid with backend='remote', got "
                f"backend {self.backend!r}"
            )
        if len(set(self.hosts)) != len(self.hosts):
            raise ConfigurationError(
                f"duplicate addresses in hosts={list(self.hosts)!r}"
            )
        if self.heartbeat_interval is not None and not (
            self.heartbeat_interval > 0
        ):
            raise ConfigurationError(
                "heartbeat_interval must be > 0, got "
                f"{self.heartbeat_interval!r}"
            )
        if self.max_frame_bytes is not None and self.max_frame_bytes < 4096:
            # Below a few KiB not even a handshake fits; reject the
            # footgun rather than hand out an unconnectable executor.
            raise ConfigurationError(
                f"max_frame_bytes must be >= 4096, got "
                f"{self.max_frame_bytes!r}"
            )
        if self.recovery_policy is not None:
            self.recovery_policy.validate()

    def to_dict(self) -> dict:
        """JSON form (drops the process-local context and the secret)."""
        payload = asdict(self)
        payload.pop("mp_context")
        payload.pop("auth_key")
        payload["hosts"] = list(self.hosts)
        if self.recovery_policy is not None:
            payload["recovery_policy"] = self.recovery_policy.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutorOptions":
        """Rebuild options written by :meth:`to_dict`.

        Unknown keys are ignored, so manifests and wire payloads that
        carry knobs this version no longer has still load.
        """
        known = {
            name: payload[name]
            for name in (
                "backend",
                "chunk_size",
                "queue_depth",
                "heartbeat_interval",
                "max_frame_bytes",
            )
            if name in payload
        }
        policy = payload.get("recovery_policy")
        if isinstance(policy, dict):
            from repro.streams.supervisor import RecoveryPolicy

            policy = RecoveryPolicy.from_dict(policy)
        return cls(
            hosts=tuple(payload.get("hosts", ())),
            recovery_policy=policy,
            **known,
        )


def as_event_block(events: EventBlock | Iterable[EdgeEvent]) -> EventBlock:
    """``events`` as one :class:`EventBlock`, the only event form that
    leaves a process (worker queues, sockets, the session WAL).

    Callers convert before anything is sent, logged or applied; a label
    that does not fit an int64 raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if isinstance(events, EventBlock):
        return events
    try:
        return EventBlock.from_events(events)
    except (TypeError, ValueError) as exc:  # ValueError: ragged labels
        raise ConfigurationError(
            f"{exc}: events cross process, socket and WAL boundaries as "
            "int64 EventBlocks; map other vertex labels to ints first "
            "(repro.graph.VertexInterner)"
        ) from None


def _checkpoint_bytes(shard: SubgraphCountingSampler) -> bytes:
    return state_to_wire(sampler_state_dict(shard))


def _shared_pattern(patterns: list):
    names = sorted({pattern.name for pattern in patterns})
    if len(names) != 1:
        raise ConfigurationError(f"shards must share one pattern, got {names}")
    return patterns[0]


def default_shard_key(edge: Edge) -> int:
    """Deterministic, process-stable hash of a canonical edge.

    Integer vertices use the tuple hash (Python int/tuple hashing is
    not randomised, unlike str hashing, so routing is reproducible
    across processes — a requirement for deterministic replay and for
    deletions reaching the same shard in a restarted pipeline).
    Int/str mixes fall back to CRC-32 of the edge repr, which is
    process-stable for those types. Anything else is rejected: a
    default ``repr`` embeds the object address, which would route the
    same edge to different shards after a restart — pass a custom
    ``shard_key`` for exotic vertex types.
    """
    u, v = edge
    if type(u) is int and type(v) is int:
        return hash(edge)
    if isinstance(u, (int, str)) and isinstance(v, (int, str)):
        return zlib.crc32(repr(edge).encode("utf-8"))
    raise ConfigurationError(
        "default_shard_key supports int/str vertices (process-stable "
        f"routing), got {type(u).__name__}/{type(v).__name__}; supply a "
        "custom shard_key"
    )


def partition_events(
    events: Iterable[EdgeEvent],
    num_shards: int,
    shard_key: Callable[[Edge], int] = default_shard_key,
) -> list[list[EdgeEvent]]:
    """Split events into ``num_shards`` order-preserving sub-streams.

    Every edge routes to ``shard_key(edge) % num_shards``, so a
    deletion lands in the sub-stream that received the insertion and
    each sub-stream is itself a feasible fully dynamic stream.
    """
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    buckets: list[list[EdgeEvent]] = [[] for _ in range(num_shards)]
    for event in events:
        buckets[shard_key(event.edge) % num_shards].append(event)
    return buckets


# CPython's tuple hash (xxHash-flavoured, pyhash.c) reimplemented over
# uint64 columns so a whole EventBlock routes in a few numpy passes.
# The constants and steps mirror the C implementation exactly; parity
# with ``hash((u, v))`` is locked down by tests.
_XXPRIME_1 = np.uint64(11400714785074694791)
_XXPRIME_2 = np.uint64(14029467366897019727)
_XXPRIME_5 = np.uint64(2870177450012600261)
#: hash(n) = n mod (2^61 - 1) for non-negative Python ints.
_PYHASH_MODULUS = np.uint64((1 << 61) - 1)
_ROT = np.uint64(31)
_INV_ROT = np.uint64(33)


def vectorized_edge_hash(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``hash((u, v))`` for int64 column pairs, as CPython computes it.

    Only non-negative labels are supported (the library convention;
    checked by the caller) — negative ints hash through a sign-folding
    rule that is not worth vectorising.
    """
    with np.errstate(over="ignore"):
        acc = np.full(u.shape, _XXPRIME_5, dtype=np.uint64)
        for lane in (
            u.astype(np.uint64) % _PYHASH_MODULUS,
            v.astype(np.uint64) % _PYHASH_MODULUS,
        ):
            acc += lane * _XXPRIME_2
            acc = (acc << _ROT) | (acc >> _INV_ROT)
            acc *= _XXPRIME_1
        acc += np.uint64(2) ^ (_XXPRIME_5 ^ np.uint64(3527539))
    result = acc.view(np.int64).copy()
    result[result == -1] = 1546275796
    return result


def partition_block(
    block: EventBlock,
    num_shards: int,
    shard_key: Callable[[Edge], int] = default_shard_key,
) -> list[EventBlock]:
    """Columnar :func:`partition_events`: split a block into sub-blocks.

    With the default shard key and non-negative labels the routing hash
    for the whole block is computed in a handful of numpy passes
    (identical values to ``default_shard_key`` edge by edge, so mixed
    block/event pipelines route consistently); custom keys fall back to
    a per-edge loop. Each sub-block preserves event order, so it is a
    feasible sub-stream exactly like the event-list variant's buckets.
    """
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    u, v = block.u, block.v
    if (
        shard_key is default_shard_key
        and (len(u) == 0 or (int(u.min()) >= 0 and int(v.min()) >= 0))
    ):
        routes = np.mod(vectorized_edge_hash(u, v), num_shards)
    else:
        routes = np.fromiter(
            (
                shard_key((eu, ev)) % num_shards
                for eu, ev in zip(u.tolist(), v.tolist())
            ),
            dtype=np.int64,
            count=len(u),
        )
    is_insert = block.is_insert
    return [
        EventBlock(
            is_insert[mask], u[mask], v[mask], canonical=True
        )
        for mask in (routes == shard for shard in range(num_shards))
    ]


class ShardedStreamExecutor:
    """Drive N sampler replicas over one stream and merge their estimates.

    Mirrors the single-sampler interface (``process`` /
    ``process_batch`` / ``process_stream`` / ``estimate``), so the
    experiment runner can use an executor anywhere a sampler fits.

    Args:
        sampler_factory: called as ``sampler_factory(shard_index)`` and
            must return a fresh sampler per shard. Replicas must carry
            *independent* rngs (e.g. from
            :class:`~repro.utils.rng.RngFactory` keyed by shard index)
            — identical seeds would make broadcast replicas redundant
            copies rather than independent estimators.
        num_shards: N ≥ 1.
        mode: ``"partition"`` (hash-route each event to one shard) or
            ``"broadcast"`` (every shard sees every event).
        shard_key: edge → int routing hash (partition mode only).
        options: an :class:`ExecutorOptions` carrying every execution
            knob (backend, hosts, chunk and queue sizing, start method,
            recovery policy, remote liveness and framing); ``None``
            runs the serial backend with the defaults.

    :meth:`from_checkpoints` builds an executor that resumes from
    per-shard checkpoints instead.
    """

    def __init__(
        self,
        sampler_factory: Callable[[int], SubgraphCountingSampler],
        num_shards: int,
        mode: str = "partition",
        shard_key: Callable[[Edge], int] = default_shard_key,
        options: ExecutorOptions | None = None,
    ) -> None:
        self._configure(num_shards, mode, shard_key, options)
        #: The replicas in this process: every shard on the serial
        #: backend; on the worker backends the factory's replicas
        #: (shipped at launch) or, after :meth:`close`, the harvested
        #: final states. ``None`` while a restored worker-backend
        #: executor holds its shards as checkpoint bytes or workers.
        self.shards: list[SubgraphCountingSampler] | None = [
            sampler_factory(i) for i in range(num_shards)
        ]
        self.pattern = _shared_pattern([s.pattern for s in self.shards])
        self._weight_fns = [
            getattr(shard, "weight_fn", None) for shard in self.shards
        ]

    @classmethod
    def from_checkpoints(
        cls,
        blobs: Sequence[bytes],
        *,
        states: Sequence[dict] | None = None,
        mode: str = "partition",
        shard_key: Callable[[Edge], int] = default_shard_key,
        options: ExecutorOptions | None = None,
        weight_fn: WeightFunction | None = None,
    ) -> "ShardedStreamExecutor":
        """Resume an executor from per-shard framed checkpoints.

        ``blobs[i]`` is shard *i*'s
        :func:`~repro.samplers.checkpoint.state_to_wire` bytes, as
        :meth:`snapshot` returned them or as read from disk; ``states``
        are their :func:`~repro.samplers.checkpoint.state_from_wire`
        decodes when the caller already validated them (decoded here
        otherwise). ``weight_fn`` is the threshold samplers' weight
        function (``None`` for the pairing samplers, or for a WSD-L
        checkpoint, which embeds its actor).

        The serial backend restores its replicas here. The worker
        backends restore none in this process: the bytes are held as
        given, shipped at the first event (the same lazy launch as a
        fresh executor) and kept as the restart point for
        :meth:`restart_shard`. Until the launch, clock and estimate
        reads come from the decoded headers — exact, since nothing has
        been dispatched since the cut — except Triest estimates (its
        header holds τ, not the estimate), whose first read launches
        the workers.
        """
        if states is None:
            states = [state_from_wire(blob) for blob in blobs]
        if len(states) != len(blobs):
            raise ConfigurationError(
                f"{len(states)} decoded states for {len(blobs)} checkpoints"
            )
        executor = cls.__new__(cls)
        executor._configure(len(blobs), mode, shard_key, options)
        executor.pattern = _shared_pattern(
            [get_pattern(state["pattern"]) for state in states]
        )
        executor._weight_fns = [weight_fn] * executor.num_shards
        executor._snapshots = list(blobs)
        if executor._uses_workers:
            executor.shards = None
            executor._worker_times = [state["time"] for state in states]
            executor._worker_estimates = [
                None if state["algorithm"] == "triest"
                else float(state["estimate"])
                for state in states
            ]
            executor._synced = True
        else:
            executor.shards = [
                restore_sampler(state, weight_fn) for state in states
            ]
        return executor

    def _configure(
        self,
        num_shards: int,
        mode: str,
        shard_key: Callable[[Edge], int],
        options: ExecutorOptions | None,
    ) -> None:
        """Validate and set what both constructors share."""
        if options is None:
            options = ExecutorOptions()
        options.validate()
        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if mode not in _MODES:
            raise ConfigurationError(
                f"mode must be one of {_MODES}, got {mode!r}"
            )
        self.num_shards = num_shards
        self.mode = mode
        self.shard_key = shard_key
        #: The execution knobs (remote host membership may drift from
        #: ``options.hosts`` via add/drain; :attr:`hosts` is current).
        self.options = options
        #: Lazily-built supervisor for worker bring-up retries.
        self._spawn_supervisor = None
        #: Host membership (remote backend); mutated by add/drain.
        self._hosts: list[str] = list(options.hosts)
        #: Current shard → host placement (remote backend, after launch).
        self._assignment: list[str] | None = None
        #: Live worker handles (process backend, after lazy start).
        self._workers: list[ShardWorker] | None = None
        #: Events buffered in the parent, not yet dispatched to workers.
        self._pending: list[EdgeEvent] = []
        #: Last shard checkpoints (framed bytes): the restart point for
        #: :meth:`restart_shard`, and the shards' current state while a
        #: restored worker-backend executor has not launched.
        self._snapshots: list[bytes] | None = None
        #: Per-shard clocks and estimates as of the last barrier (or
        #: the checkpoint headers, before a restored fleet launches;
        #: ``None`` where a Triest header holds τ, not the estimate).
        self._worker_times: list[int] = []
        self._worker_estimates: list = []
        self._synced = False

    # -- worker-backend lifecycle --------------------------------------------

    @property
    def _uses_workers(self) -> bool:
        return self.options.backend in _WORKER_BACKENDS

    @property
    def _process_active(self) -> bool:
        return self._workers is not None

    @property
    def _out_of_process(self) -> bool:
        """Whether shard state lives in workers or held checkpoint
        bytes rather than in :attr:`shards`."""
        return self._workers is not None or self.shards is None

    def _ensure_workers(self) -> None:
        """Lazily launch the worker fleet (process/remote backends).

        A restored executor ships its held checkpoint bytes as they are;
        otherwise every parent replica is snapshotted through the
        checkpoint layer. Either way each worker restores its replica
        from those bytes, bit-identical to the state at launch. From
        this point on the workers hold the authoritative state;
        ``self.shards`` is refreshed from their final checkpoints on
        :meth:`close`. On the remote backend the fleet launch is also
        the lease placement: shard *i* goes to ``hosts[i % len(hosts)]``.
        """
        if not self._uses_workers or self._workers is not None:
            return
        if self.options.backend == "remote":
            self._assignment = [
                self._hosts[i % len(self._hosts)]
                for i in range(self.num_shards)
            ]
        states = (
            self._snapshots if self.shards is None
            else map(_checkpoint_bytes, self.shards)
        )
        workers: list[ShardWorker] = []
        try:
            for index, state in enumerate(states):
                workers.append(
                    self._spawn_worker(
                        index,
                        state,
                        host=(
                            None if self._assignment is None
                            else self._assignment[index]
                        ),
                    )
                )
        except BaseException:
            for worker in workers:
                worker.kill()
            raise
        self._workers = workers
        self._synced = False

    def _spawn_worker(
        self, index: int, state: bytes, host: str | None = None
    ) -> ShardWorker:
        return ShardWorker(
            index,
            state,
            weight_fn=self._weight_fns[index],
            options=self.options,
            host=host,
        )

    # -- ingestion ----------------------------------------------------------

    def process(self, event: EdgeEvent) -> None:
        """Consume one stream event.

        On the process/remote backends the event is buffered and
        dispatched in chunks; it is guaranteed to be applied by the
        next estimate / snapshot / time query (which flush the buffer
        first).
        """
        if self._uses_workers:
            u, v = event.edge
            if not (type(u) is type(v) is int and -(1 << 63) <= u < v < 1 << 63):
                as_event_block((event,))  # raises: the label is refused here
            self._ensure_workers()
            self._pending.append(event)
            if len(self._pending) >= self.options.chunk_size:
                self._flush_pending()
            return
        if self.mode == "partition":
            self.shards[
                self.shard_key(event.edge) % self.num_shards
            ].process(event)
        else:
            for shard in self.shards:
                shard.process(event)

    def _ingest(self, events: list[EdgeEvent] | EventBlock) -> None:
        """Route a batch to the replicas without computing the estimate."""
        if self._uses_workers:
            block = as_event_block(events)
            self._ensure_workers()
            if self._pending:
                self._flush_pending()
            chunk_size = self.options.chunk_size
            for start in range(0, len(block), chunk_size):
                self._dispatch(block[start:start + chunk_size])
            return
        if self.mode == "partition":
            if isinstance(events, EventBlock):
                block_buckets = partition_block(
                    events, self.num_shards, self.shard_key
                )
                for shard, bucket in zip(self.shards, block_buckets):
                    if len(bucket):
                        shard.process_batch(bucket)
                return
            buckets = partition_events(events, self.num_shards, self.shard_key)
            for shard, bucket in zip(self.shards, buckets):
                if bucket:
                    shard.process_batch(bucket)
        else:
            for shard in self.shards:
                shard.process_batch(events)

    def _dispatch(self, block: EventBlock) -> None:
        """Ship one chunk to the worker fleet (process/remote backends).

        Callers convert with :func:`as_event_block` first, so a label
        that cannot ride an int64 block fails before any replica sees
        the chunk.
        """
        workers = self._workers
        if self.mode == "partition":
            block_buckets = partition_block(
                block, self.num_shards, self.shard_key
            )
            for worker, bucket in zip(workers, block_buckets):
                if len(bucket):
                    worker.send_block(bucket)
        else:
            for worker in workers:
                worker.send_block(block)
        self._synced = False

    def _flush_pending(self) -> None:
        block, self._pending = as_event_block(self._pending), []
        self._dispatch(block)

    def ingest(
        self, events: EventBlock | Iterable[EdgeEvent]
    ) -> None:
        """Route a batch to the replicas without a synchronisation barrier.

        The serving tier's write path: like :meth:`process_batch` but
        without the estimate read, so worker-backend ingestion keeps
        pipelining — the next ``estimate`` / ``time`` / ``shard_times``
        read is the barrier where it lands. Results are bit-identical
        however the stream is cut into ``ingest`` calls.
        """
        if not isinstance(events, (list, EventBlock)):
            events = list(events)
        self._ingest(events)

    def ingest_shard(
        self, index: int, events: EventBlock | list[EdgeEvent]
    ) -> None:
        """Deliver events to one replica directly, bypassing routing.

        The crash-recovery replay primitive: after
        :meth:`restart_shard` restores a replica to its last
        checkpoint, the session layer re-feeds exactly the sub-stream
        that replica lost — already routed, so re-partitioning (or
        broadcasting) it would be wrong. Only the named replica is
        touched; its siblings never see these events.
        """
        if not 0 <= index < self.num_shards:
            raise ConfigurationError(
                f"shard index {index} out of range [0, {self.num_shards})"
            )
        if not len(events):
            return
        if not self._uses_workers:
            self.shards[index].process_batch(events)
            return
        block = as_event_block(events)
        self._ensure_workers()
        if self._pending:
            self._flush_pending()
        self._workers[index].send_block(block)
        self._synced = False

    def process_batch(
        self, events: EventBlock | Iterable[EdgeEvent]
    ) -> float:
        """Consume a batch of events; return the merged estimate.

        Accepts a columnar :class:`~repro.graph.stream.EventBlock` or
        any :class:`EdgeEvent` iterable (results are bit-identical
        across representations). Partition mode groups the batch into
        per-shard sub-batches (order-preserving) and drives each
        replica through its batched fast path once; broadcast mode
        hands every replica the whole batch. On the process backend,
        returning the estimate is a synchronisation point — prefer
        :meth:`process_stream` (one final barrier) when ingesting large
        streams.
        """
        if not isinstance(events, (list, EventBlock)):
            events = list(events)
        self._ingest(events)
        return self.estimate

    def process_stream(
        self, stream: EdgeStream | EventBlock | Iterable[EdgeEvent]
    ) -> float:
        """Consume a whole stream; return the merged final estimate.

        Lazy iterables are consumed in bounded chunks (the same
        single-pass, fixed-memory contract as the samplers'). On the
        process backend the chunks are dispatched without intermediate
        barriers, so the parent's iteration pipelines with the workers'
        ingestion; the single synchronisation happens at the end.
        """
        if isinstance(stream, (list, tuple, EdgeStream, EventBlock)):
            if not isinstance(stream, (list, EventBlock)):
                stream = list(stream)
            self._ingest(stream)
            return self.estimate
        iterator = iter(stream)
        while True:
            chunk = list(islice(iterator, 8192))
            if not chunk:
                break
            self._ingest(chunk)
        return self.estimate

    # -- worker synchronisation ---------------------------------------------

    def _sync(self) -> None:
        """Flush buffered events and barrier every worker.

        After this returns, ``_worker_times`` / ``_worker_estimates``
        reflect every event handed to the executor so far.
        """
        if self._pending:
            self._flush_pending()
        if self._synced:
            return
        times: list[int] = []
        estimates: list[float] = []
        for worker in self._workers:
            _, _, shard_time, shard_estimate = worker.request("sync")
            times.append(shard_time)
            estimates.append(shard_estimate)
        self._worker_times = times
        self._worker_estimates = estimates
        self._synced = True

    # -- checkpointing / crash recovery --------------------------------------

    def snapshot(self) -> list[bytes]:
        """Checkpoint every shard; return the per-shard framed checkpoints.

        Each entry is the bytes of
        :func:`~repro.samplers.checkpoint.state_to_wire`, exactly as the
        worker (or, on the serial backend, this process) encoded it —
        this process never decodes them. On the worker backends the buffer
        is flushed and every worker barriered first, so the snapshot
        covers every event handed to the executor, and
        :meth:`shard_times` reads the barrier's clocks without another
        round trip; before a restored fleet launches, the held bytes
        are returned as they are. The result is also retained as the
        restart point for :meth:`restart_shard`.
        """
        if self._process_active:
            self._sync()
            blobs = [reply[2] for reply in self._ask_all("snapshot")]
        elif self.shards is None:
            # Nothing was dispatched since these bytes were cut.
            return list(self._snapshots)
        else:
            blobs = [_checkpoint_bytes(shard) for shard in self.shards]
        self._snapshots = blobs
        return blobs

    def _ask_all(self, tag: str) -> list[tuple]:
        """Post ``tag`` to every worker, then collect every reply.

        The replicas work on the request at the same time. A failure is
        raised only after every request already posted has had its reply
        collected, so no stale reply is left queued for the next one.
        """
        posted: list[tuple[ShardWorker, int]] = []
        failure: Exception | None = None
        for worker in self._workers:
            try:
                posted.append((worker, worker.post(tag)))
            except Exception as exc:
                failure = exc
                break
        replies = []
        for worker, token in posted:
            try:
                replies.append(worker.collect(tag, token))
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        return replies

    def restart_shard(
        self,
        index: int,
        state: bytes | None = None,
        host: str | None = None,
    ) -> None:
        """Respawn one crashed (or killed) worker from a checkpoint.

        ``state`` (framed checkpoint bytes) defaults to the shard's
        entry in the latest :meth:`snapshot`. Only the named shard is
        rebuilt — the other workers keep their live state, so recovery
        never replays their events. Events dispatched to the shard
        *after* the checkpoint was taken are lost; callers coordinate
        snapshots with ingestion (e.g. snapshot at batch boundaries) to
        bound that window.

        On the remote backend, ``host`` re-places the shard (e.g. onto
        a surviving host after its old host died); it must be a current
        member, and defaults to the shard's existing placement.
        """
        if not self._process_active:
            raise ConfigurationError(
                "restart_shard requires a started process or remote "
                "backend"
            )
        if not 0 <= index < self.num_shards:
            raise ConfigurationError(
                f"shard index {index} out of range [0, {self.num_shards})"
            )
        if host is not None:
            if self.options.backend != "remote":
                raise ConfigurationError(
                    "restart_shard(host=...) is only valid with "
                    "backend='remote'"
                )
            if host not in self._hosts:
                raise ConfigurationError(
                    f"host {host!r} is not a member; current hosts: "
                    f"{self._hosts}"
                )
        if state is None:
            if self._snapshots is None:
                raise ConfigurationError(
                    f"no checkpoint to restart shard {index} from; call "
                    "snapshot() (or pass state=) first"
                )
            state = self._snapshots[index]
        if self._assignment is not None:
            if host is not None:
                self._assignment[index] = host
            host = self._assignment[index]
        self._workers[index].kill()
        self._workers[index] = self._supervised_spawn(index, state, host)
        self._synced = False

    def _supervised_spawn(
        self, index: int, state: bytes, host: str | None
    ) -> ShardWorker:
        """Spawn a replacement worker, retrying bring-up under policy.

        With ``options.recovery_policy``, transient spawn failures (a
        host agent still rebooting, a leased port mid-handoff) back off
        and retry instead of failing the whole recovery incident on a
        race the next attempt would win.
        """
        policy = self.options.recovery_policy
        if policy is None:
            return self._spawn_worker(index, state, host=host)
        if self._spawn_supervisor is None:
            self._spawn_supervisor = policy.build_supervisor(
                self.num_shards, name="executor-spawn"
            )
        return self._spawn_supervisor.run(
            lambda: self._spawn_worker(index, state, host=host),
            what=f"respawning shard {index}",
        )

    # -- elastic membership (remote backend) ----------------------------------

    @property
    def hosts(self) -> tuple[str, ...]:
        """Current host membership (remote backend; empty otherwise)."""
        return tuple(self._hosts)

    def shard_hosts(self) -> list[str] | None:
        """Current shard → host placement (``None`` before launch)."""
        return None if self._assignment is None else list(self._assignment)

    def _host_load(self, address: str) -> int:
        return sum(1 for placed in self._assignment if placed == address)

    def _move_shard(self, index: int, target: str) -> None:
        """Hand one shard to ``target`` by checkpoint handoff.

        ``stop()`` is the per-shard snapshot barrier: the old replica
        drains its inbox in order, ships its final checkpoint, and ends
        its lease; the new replica restores from exactly that state on
        the target host. No other shard is touched — survivors never
        replay — and the shard's event routing is unchanged (routing is
        ``hash % num_shards``; only placement moved), so the stream
        continues bit-identically.
        """
        state = self._workers[index].stop()
        self._workers[index] = self._spawn_worker(index, state, host=target)
        self._assignment[index] = target
        self._synced = False

    def add_host(self, address: str) -> list[int]:
        """Join ``address`` to the fleet and rebalance shards onto it.

        Moves shards (highest index first, from the most-loaded hosts)
        until the new host holds ``num_shards // len(hosts)`` replicas
        — each move a snapshot-barrier checkpoint handoff that never
        replays surviving shards. Returns the moved shard indices (may
        be empty: before launch the new host simply participates in the
        initial placement; with more hosts than shards there is nothing
        to move).
        """
        if self.options.backend != "remote":
            raise ConfigurationError(
                "add_host requires backend='remote'"
            )
        if address in self._hosts:
            raise ConfigurationError(
                f"host {address!r} is already a member"
            )
        self._hosts.append(address)
        if self._workers is None:
            return []
        if self._pending:
            self._flush_pending()
        target_load = self.num_shards // len(self._hosts)
        moved: list[int] = []
        while self._host_load(address) < target_load:
            donor = max(
                (h for h in self._hosts if h != address),
                key=lambda h: (
                    self._host_load(h),
                    -self._hosts.index(h),
                ),
            )
            index = max(
                i for i, placed in enumerate(self._assignment)
                if placed == donor
            )
            self._move_shard(index, address)
            moved.append(index)
        return moved

    def drain_host(self, address: str) -> list[int]:
        """Move every shard off ``address`` and drop it from the fleet.

        Each shard hands off to the least-loaded remaining host by
        snapshot-barrier checkpoint handoff (survivors never replay).
        Returns the moved shard indices. The drained host's agent is
        *not* contacted beyond the clean lease stops — shutting the
        agent process down is the caller's business.
        """
        if self.options.backend != "remote":
            raise ConfigurationError(
                "drain_host requires backend='remote'"
            )
        if address not in self._hosts:
            raise ConfigurationError(
                f"host {address!r} is not a member; current hosts: "
                f"{self._hosts}"
            )
        if len(self._hosts) == 1:
            raise ConfigurationError(
                f"cannot drain {address!r}: it is the only host"
            )
        moved: list[int] = []
        if self._workers is not None:
            if self._pending:
                self._flush_pending()
            remaining = [h for h in self._hosts if h != address]
            for index, placed in enumerate(self._assignment):
                if placed != address:
                    continue
                target = min(
                    remaining,
                    key=lambda h: (
                        self._host_load(h),
                        remaining.index(h),
                    ),
                )
                self._move_shard(index, target)
                moved.append(index)
        self._hosts.remove(address)
        return moved

    def shard_times(self) -> list[int]:
        """Per-shard event clocks (events each replica has consumed).

        A worker-backend read is a synchronisation barrier, exactly
        like :attr:`time`. Exposed so recovery and elasticity tests can
        assert that surviving shards were never replayed.
        """
        if self._out_of_process:
            self._sync()
            return list(self._worker_times)
        return [shard.time for shard in self.shards]

    def close(self) -> None:
        """Stop the worker fleet, harvesting final state into the parent.

        Each worker's final checkpoint is restored into
        :attr:`shards`, so after ``close()`` the executor keeps answering
        ``estimate`` / ``shard_estimates`` / ``time`` queries serially
        with exactly the workers' final state. A worker found dead is
        replaced by its entry in the latest :meth:`snapshot` when one
        exists (its parent replica otherwise keeps the pre-crash state
        it had), and the first such crash is re-raised once every worker
        has been stopped. Idempotent; a no-op on the serial backend and
        before a launch (a restored executor that never launched keeps
        its held bytes).
        """
        if not self._process_active:
            return
        first_crash: WorkerCrashError | None = None
        try:
            if self._pending:
                self._flush_pending()
        except WorkerCrashError as exc:
            first_crash = exc
        workers, self._workers = self._workers, None
        shards = self.shards or [None] * self.num_shards
        for index, worker in enumerate(workers):
            try:
                final_state = worker.stop()
            except WorkerCrashError as exc:
                worker.kill()
                if first_crash is None:
                    first_crash = exc
                if self._snapshots is not None:
                    final_state = self._snapshots[index]
                else:
                    continue
            shards[index] = restore_sampler(
                state_from_wire(final_state), self._weight_fns[index]
            )
        self.shards = shards
        self._pending.clear()
        self._synced = False
        if first_crash is not None:
            raise first_crash

    def __enter__(self) -> "ShardedStreamExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except WorkerCrashError:
            # Don't mask an in-flight exception with the teardown's.
            if exc_type is None:
                raise

    # -- merged estimation --------------------------------------------------

    def shard_estimates(self) -> list[float]:
        """The raw per-shard partial estimates."""
        if self._out_of_process:
            if None in self._worker_estimates:
                # A restored Triest header holds τ, not the estimate.
                self._ensure_workers()
            self._sync()
            return list(self._worker_estimates)
        return [shard.estimate for shard in self.shards]

    def merged_estimate(
        self, variances: Sequence[float] | None = None
    ) -> float:
        """Fuse the partial estimates according to the execution mode.

        In broadcast mode, passing per-replica ``variances`` selects
        the inverse-variance weighting; partition mode ignores them
        (the partition merge is a scaled sum, not a weighted mean).
        """
        estimates = self.shard_estimates()
        if self.mode == "partition":
            return combine_partition(
                estimates, self.num_shards, self.pattern.num_edges
            )
        if variances is not None:
            return combine_variance_weighted(estimates, variances)
        return combine_mean(estimates)

    @property
    def estimate(self) -> float:
        """The merged estimate of |J(t)|."""
        return self.merged_estimate()

    @property
    def time(self) -> int:
        """Number of events consumed, derived from the shard clocks.

        Partition shards split the stream, so their clocks sum to the
        events consumed; broadcast shards each see every event, so the
        furthest clock is the count. Deriving (rather than keeping a
        separate counter) keeps the value consistent with actual shard
        state even when a shard raises mid-batch.
        """
        if self._out_of_process:
            self._sync()
            clocks = self._worker_times
        else:
            clocks = [shard.time for shard in self.shards]
        if self.mode == "partition":
            return sum(clocks)
        return max(clocks)

    def __repr__(self) -> str:
        # Never synchronise (or raise) from a repr: with live workers
        # the clock/estimate reads are barriers, so show the cached
        # values and flag their staleness instead.
        if self._out_of_process and (
            self._pending
            or not self._synced
            or None in self._worker_estimates
        ):
            state = "unsynced"
        else:
            state = f"t={self.time}, estimate={self.estimate:.3f}"
        return (
            f"ShardedStreamExecutor(mode={self.mode!r}, "
            f"shards={self.num_shards}, "
            f"backend={self.options.backend!r}, "
            f"pattern={self.pattern.name!r}, {state})"
        )
