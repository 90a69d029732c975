"""Checkpoint-backed shard workers for the parallel executor.

The :class:`~repro.streams.executor.ShardedStreamExecutor` scales a
sampler to N replicas; this module hosts one replica per **worker
process** so the replicas actually run in parallel and ingestion is
pipeline-asynchronous with the parent's stream iteration. Three design
rules keep the parallel run *result-identical* to the serial one:

* **State travels as checkpoints.** A worker never constructs its
  sampler from scratch. For a fresh stream the parent builds every
  replica (so all randomness derives in one place), snapshots it
  through the generic checkpoint layer and ships the framed checkpoint
  bytes (:func:`~repro.samplers.checkpoint.state_to_wire`); a restored
  stream ships the checkpoint bytes it read, and its parent builds no
  replica at all. Either way the worker rebuilds a bit-identical
  continuation via
  :func:`~repro.samplers.checkpoint.restore_sampler`. Snapshot and stop
  replies carry the replica's checkpoint back in the same bytes, which
  the parent keeps undecoded. The same transport serves mid-run
  snapshots, final-state harvest, and crash-restart of a single shard.
  Because nothing depends on inherited parent memory, workers are safe
  under every multiprocessing start method, ``spawn`` included.
* **Events travel columnar through shared memory.** Stream chunks
  cross the process boundary as encoded
  :class:`~repro.graph.stream.EventBlock` payloads written into a
  per-worker ring of shared-memory slots — a memcpy per column, no
  pickling, and the worker feeds the decoded block straight into the
  sampler's columnar fast loop without ever materialising
  :class:`~repro.graph.stream.EdgeEvent` objects. The bounded inbox
  queue still carries the (tiny) ``("batch_shm", slot, nbytes)``
  control messages, so backpressure and ordering are unchanged. Where
  shared memory is unavailable blocks ride the queue encoded — the
  event sequence the replica sees is identical either way, so results
  do not depend on the wire format. Blocks are the only event form:
  the executor converts before dispatch and rejects labels that do not
  fit an int64 (:func:`~repro.streams.executor.as_event_block`).
* **The weight function ships up front.** Threshold samplers need
  their weight function re-supplied on restore. For the local process
  tier it is pickled in the parent *regardless of start method* so a
  configuration that would fail under ``spawn`` fails identically (and
  immediately) under ``fork`` — the queue between parent and child is
  in-process trust, the one place pickle remains. Remote leases ship a
  *named weight-spec registry entry* instead
  (:func:`repro.weights.registry.weight_spec_for`), resolved against
  the host agent's own registry — no callable ever crosses a socket.

The wire protocol is a strict request/reply sequence per worker:
``("block", bytes)`` / ``("batch_shm", slot, nbytes)`` messages carry
event chunks and generate no reply (a bounded inbox provides
backpressure); ``("sync", token)``, ``("snapshot",
token)`` and ``("stop", token)`` each produce exactly one tagged reply.
A worker that raises reports ``("error", ...)`` with the formatted
traceback and exits; the parent surfaces it as
:class:`~repro.errors.WorkerCrashError` naming the shard.

Since the distributed tier landed, that protocol is layered over an
explicit :class:`~repro.streams.transport.ShardTransport` interface:
:class:`ShardWorker` owns the request/reply discipline, token matching
and crash surfacing, while the transport owns *where the replica runs
and how bytes reach it*. :class:`ProcessShardTransport` (here) is the
local tier — bounded queues plus the shared-memory slot ring —
spawning the worker process itself;
:class:`~repro.streams.transport.TcpShardTransport` leases the replica
onto a remote host agent over a socket. The protocol layer cannot tell
them apart, which is what makes serial == process == remote
bit-identity a transport property rather than a per-backend proof.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import time
import traceback
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, WorkerCrashError
from repro.graph.stream import EventBlock
from repro.samplers.checkpoint import (
    restore_sampler,
    sampler_state_dict,
    state_from_wire,
    state_to_wire,
)
from repro.streams.transport import (
    POLL_SECONDS,
    ShardTransport,
    TcpShardTransport,
    TransportClosed,
)
from repro.utils.text import clip_text
from repro.weights.registry import weight_spec_for

if TYPE_CHECKING:  # pragma: no cover - annotations only (import cycle)
    from repro.streams.executor import ExecutorOptions

try:  # pragma: no cover - import guard for exotic builds
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "ShardWorker",
    "ProcessShardTransport",
    "handle_shard_message",
]

#: Seconds between liveness checks while waiting for a shared-memory
#: slot to free up. Slots recycle at chunk-processing speed, so this
#: wait is the shm transport's backpressure — poll fast.
_SLOT_POLL_SECONDS = 0.0005

#: Seconds a clean :meth:`ShardWorker.stop` waits for the replica to
#: exit after its final checkpoint arrives.
_STOP_TIMEOUT = 10.0


def _attach_shm(name: str):
    """Attach to an existing segment without resource-tracker tracking.

    On POSIX every process that *opens* a segment registers it with a
    resource tracker (until 3.13's ``track=False``): under ``spawn``
    the worker's own tracker would unlink the parent's segment when the
    worker exits, and under ``fork`` the shared tracker's books would
    be unbalanced. The segment has exactly one owner — the parent, who
    created it and deterministically unlinks it — so the worker must
    attach untracked: via ``track=False`` where available, else by
    suppressing the register call for the duration of the attach (the
    worker is single-threaded at this point).
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


# -- replica-side message dispatch --------------------------------------------


def handle_shard_message(sampler, message: tuple):
    """Apply one protocol message to a hosted replica.

    The single source of truth for replica-side semantics, shared by the
    local worker process (:func:`_worker_main`) and the network host
    agent (:mod:`repro.streams.host`) so both tiers process the exact
    same event sequence the exact same way. Returns ``(reply, done)``:
    ``reply`` is the tagged reply tuple to ship back (``None`` for
    block messages, which generate no reply) and ``done`` is whether
    this message ends the replica's session. ``snapshot``/``stop``
    replies carry the replica's framed checkpoint bytes, the one form a
    checkpoint leaves a replica in on either tier. Transport-specific
    messages (``"batch_shm"``) are handled by the caller before
    delegating here.
    """
    tag = message[0]
    if tag == "block":
        sampler.process_batch(EventBlock.from_buffer(message[1]))
    elif tag == "sync":
        return ("sync", message[1], sampler.time, sampler.estimate), False
    elif tag in ("snapshot", "stop"):
        blob = state_to_wire(sampler_state_dict(sampler))
        return (tag, message[1], blob), tag == "stop"
    else:
        raise RuntimeError(f"unknown worker message tag {tag!r}")
    return None, False


# -- worker process entry point -----------------------------------------------


def _worker_main(
    shard_index, state, weight_blob, inbox, outbox, shm_spec=None
):
    """Run one shard replica: restore, serve the message loop, report.

    ``shm_spec`` is ``(segment name, num_slots, slot_bytes)`` when the
    parent set up the shared-memory transport (the segment starts with
    one slot-state byte per slot, then the slot payload area). Top-level
    (not a closure) so it is importable — and therefore picklable —
    under the ``spawn`` start method.
    """
    shm = None
    try:
        weight_fn = (
            None if weight_blob is None else pickle.loads(weight_blob)
        )
        sampler = restore_sampler(state_from_wire(state), weight_fn)
        flags = None
        num_slots = slot_bytes = 0
        if shm_spec is not None:
            name, num_slots, slot_bytes = shm_spec
            shm = _attach_shm(name)
            flags = np.frombuffer(shm.buf, dtype=np.uint8, count=num_slots)
        while True:
            message = inbox.get()
            if message[0] == "batch_shm":
                slot = message[1]
                # Copy the block out of the slot, then free the slot
                # *before* processing so the parent can refill it while
                # the sampler works — that overlap is the pipeline.
                block = EventBlock.from_buffer(
                    shm.buf, num_slots + slot * slot_bytes
                )
                flags[slot] = 0
                sampler.process_batch(block)
                continue
            reply, done = handle_shard_message(sampler, message)
            if reply is not None:
                outbox.put(reply)
            if done:
                return
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        outbox.put(
            (
                "error",
                None,
                clip_text(
                    f"{type(exc).__name__}: {exc}\n"
                    f"{traceback.format_exc()}"
                ),
            )
        )
    finally:
        if shm is not None:
            flags = None
            try:
                shm.close()
            except BufferError:  # pragma: no cover - defensive
                pass


# -- local process transport --------------------------------------------------


class ProcessShardTransport(ShardTransport):
    """Local tier: a worker process fed by queues + a shm slot ring.

    Constructing the transport spawns the worker process (restoring the
    replica from its shipped checkpoint) and, where shared memory is
    available, a ring of shared-memory slots for columnar event chunks
    (without one, encoded blocks ride the queue). The bounded inbox
    queue is the backpressure: :meth:`send` blocks when the worker is
    ``queue_depth`` undelivered chunks behind, while polling for death
    so a crashed worker surfaces as :class:`TransportClosed` (carrying
    the worker's error report when one was salvaged) instead of a hang.

    Args:
        shard_index: position of this replica in the executor.
        state: the replica's framed checkpoint bytes.
        weight_blob: the replica's pickled weight function, or ``None``.
        mp_context: a :mod:`multiprocessing` context (already resolved
            by the caller).
        queue_depth: bound on the inbox queue — how many undelivered
            batch chunks the parent may run ahead of this worker before
            ingestion blocks.
        chunk_hint: the executor's chunk size — sizes the slots so one
            dispatched chunk always fits one slot.
    """

    def __init__(
        self,
        shard_index: int,
        state: bytes,
        weight_blob: bytes | None,
        mp_context,
        queue_depth: int = 8,
        chunk_hint: int = 2048,
    ) -> None:
        self.shard_index = shard_index
        self._inbox = mp_context.Queue(maxsize=queue_depth)
        self._outbox = mp_context.Queue()
        # Replies popped while hunting for an error report during a
        # blocked send. The protocol invariant says there should never
        # be one (event chunks generate no replies; requests are awaited
        # synchronously), but stashing beats silently dropping.
        self._pending: deque[tuple] = deque()
        # -- shared-memory slot ring ------------------------------------
        # Layout: one state byte per slot (0 = free, 1 = in flight;
        # written by exactly one side each, so no torn updates), then
        # ``num_slots`` fixed-size payload slots. Slot count exceeds the
        # queue depth so the parent never waits on a slot while the
        # inbox still has room.
        self._shm = None
        self._slot_flags = None
        self._num_slots = 0
        self._slot_bytes = 0
        self._next_slot = 0
        shm_spec = None
        if _shared_memory is not None:
            num_slots = queue_depth + 2
            slot_bytes = EventBlock.byte_size(max(1, chunk_hint))
            try:
                self._shm = _shared_memory.SharedMemory(
                    create=True, size=num_slots * (1 + slot_bytes)
                )
            except Exception:
                self._shm = None  # no shm here: blocks ride the queue
            if self._shm is not None:
                self._shm.buf[:num_slots] = bytes(num_slots)
                self._slot_flags = np.frombuffer(
                    self._shm.buf, dtype=np.uint8, count=num_slots
                )
                self._num_slots = num_slots
                self._slot_bytes = slot_bytes
                shm_spec = (self._shm.name, num_slots, slot_bytes)
        try:
            self.process = mp_context.Process(
                target=_worker_main,
                args=(
                    shard_index, state, weight_blob,
                    self._inbox, self._outbox, shm_spec,
                ),
                name=f"repro-shard-{shard_index}",
                daemon=True,
            )
            self.process.start()
        except BaseException:
            self.release()
            raise

    # -- liveness ----------------------------------------------------------

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def _check_reply(self, reply) -> None:
        """Classify a reply popped while blocked in :meth:`send`."""
        if reply is None:
            return
        if reply[0] == "error":
            raise TransportClosed(reply[2])
        self._pending.append(reply)

    def _drain_after_death(self):
        """Final drain once the process is seen dead.

        The worker's ``("error", ...)`` report (or a last reply) can
        still be in flight through the queue's feeder thread for a
        moment after the process exits, so poll briefly before giving
        up — otherwise the real traceback is lost and the caller only
        learns "died unexpectedly". Returns a reply or ``None``.
        """
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            try:
                return self._outbox.get_nowait()
            except queue.Empty:
                time.sleep(0.02)
            except ValueError:  # queues already closed by kill()
                return None
        return None

    # -- protocol ----------------------------------------------------------

    def send(self, message: tuple) -> None:
        while True:
            try:
                self._inbox.put(message, timeout=POLL_SECONDS)
                return
            except ValueError:
                # kill() closed the queues: the same death signal a
                # dead process produces, at whatever send comes next.
                raise TransportClosed() from None
            except queue.Full:
                # The only out-of-band traffic a blocked inbox can
                # coincide with is a failure report (event chunks produce no
                # replies, and requests are awaited synchronously).
                try:
                    self._check_reply(self._outbox.get_nowait())
                except queue.Empty:
                    pass
                if not self.process.is_alive():
                    self._check_reply(self._drain_after_death())
                    raise TransportClosed() from None

    def send_block(self, block: EventBlock) -> None:
        """Ship one columnar event chunk (blocks on backpressure).

        Rides the shared-memory slot ring when available; otherwise the
        encoded block travels through the queue (still no per-event
        pickling and no worker-side ``EdgeEvent`` construction). Blocks
        larger than a slot are split — chunk boundaries never change
        results.
        """
        if self._shm is None:
            self.send(("block", block.to_bytes()))
            return
        nbytes = block.nbytes
        if nbytes > self._slot_bytes:
            header = EventBlock.byte_size(0)
            per_slot = max(1, (self._slot_bytes - header) // 17)
            for start in range(0, len(block), per_slot):
                self.send_block(block[start:start + per_slot])
            return
        slot = self._next_slot
        self._wait_slot_free(slot)
        offset = self._num_slots + slot * self._slot_bytes
        block.write_into(
            memoryview(self._shm.buf)[offset:offset + nbytes]
        )
        self._slot_flags[slot] = 1
        self.send(("batch_shm", slot, nbytes))
        self._next_slot = (slot + 1) % self._num_slots

    def _wait_slot_free(self, slot: int) -> None:
        """Block until the worker has drained ``slot`` (liveness-checked)."""
        flags = self._slot_flags
        while flags[slot]:
            try:
                self._check_reply(self._outbox.get_nowait())
            except queue.Empty:
                pass
            if not self.process.is_alive():
                self._check_reply(self._drain_after_death())
                raise TransportClosed() from None
            time.sleep(_SLOT_POLL_SECONDS)

    def recv(self) -> tuple:
        if self._pending:
            return self._pending.popleft()
        while True:
            try:
                return self._outbox.get(timeout=POLL_SECONDS)
            except ValueError:
                raise TransportClosed() from None
            except queue.Empty:
                if not self.process.is_alive():
                    reply = self._drain_after_death()
                    if reply is None:
                        raise TransportClosed() from None
                    return reply

    # -- lifecycle ----------------------------------------------------------

    def join(self, timeout: float) -> None:
        self.process.join(timeout)

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        # The queues hold a feeder thread each; cancel the join so a
        # killed worker can never wedge interpreter shutdown on
        # undelivered items.
        for q in (self._inbox, self._outbox):
            q.cancel_join_thread()
            q.close()
        self.release()

    def release(self) -> None:
        """Close and unlink the slot ring (idempotent; parent owns it)."""
        shm, self._shm = self._shm, None
        self._slot_flags = None
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover - defensive
            return
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __del__(self):  # pragma: no cover - GC-order dependent
        # Drop the flags view before the segment so SharedMemory's own
        # finaliser never sees exported buffers (a worker abandoned
        # without stop()/kill() — e.g. after a crash test — still
        # releases its slot ring).
        try:
            self.release()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - trivial
        status = "alive" if self.is_alive() else "dead"
        return f"ProcessShardTransport(shard={self.shard_index}, {status})"


# -- parent-side handle -------------------------------------------------------


class ShardWorker:
    """Parent-side handle for one shard replica, wherever it runs.

    The protocol layer: strict request/reply with token matching,
    crash bookkeeping, and the clean-stop handshake — all on top of a
    :class:`~repro.streams.transport.ShardTransport`. By default the
    replica runs in a local worker process
    (:class:`ProcessShardTransport`); pass ``host="host:port"`` to
    lease it onto a remote host agent instead
    (:class:`~repro.streams.transport.TcpShardTransport`). Either way
    the replica sees the identical message sequence, so results are
    transport-independent.

    Args:
        shard_index: position of this replica in the executor.
        state: the replica's framed checkpoint bytes
            (:func:`~repro.samplers.checkpoint.state_to_wire`).
        weight_fn: the replica's weight function, or ``None`` for the
            pairing samplers. For local workers it is pickled here, in
            the parent, so the spawn-safety contract is enforced
            uniformly; for remote leases it is translated to its named
            weight-spec registry entry (an unregistered function fails
            here, before any bytes move).
        options: the executor's
            :class:`~repro.streams.executor.ExecutorOptions`; ``None``
            uses the defaults. A local worker reads ``mp_context``,
            ``queue_depth`` (the inbox bound — how many undelivered
            chunks the parent may run ahead before ingestion blocks)
            and ``chunk_size`` (sizes the shared-memory slots so one
            dispatched chunk always fits one slot); a remote lease reads
            ``heartbeat_interval``, ``auth_key`` and ``max_frame_bytes``
            (its backpressure bound is the kernel socket buffer).
        host: ``"host:port"`` of a running shard host agent
            (:mod:`repro.streams.host`); when given, the replica is
            leased there instead of spawning a local process.
    """

    def __init__(
        self,
        shard_index: int,
        state: bytes,
        weight_fn=None,
        options: ExecutorOptions | None = None,
        host: str | None = None,
    ) -> None:
        if options is None:
            from repro.streams.executor import ExecutorOptions

            options = ExecutorOptions()
        options.validate()
        self.shard_index = shard_index
        self.host = host
        self._token = 0
        self._failure: str | None = None
        try:
            if host is not None:
                # Remote tier: a named registry spec, never a pickled
                # callable. Unregistered weight functions fail here,
                # in the parent, with configuration guidance.
                try:
                    weight_spec = weight_spec_for(weight_fn)
                except ConfigurationError as exc:
                    raise ConfigurationError(
                        f"shard {shard_index}: {exc}"
                    ) from None
                self.transport: ShardTransport = TcpShardTransport(
                    shard_index, state, weight_spec, host,
                    heartbeat_interval=options.heartbeat_interval,
                    auth_key=options.auth_key,
                    max_frame_bytes=options.max_frame_bytes,
                )
            else:
                # Local tier: the queue between parent and child is
                # in-process trust — pickling the weight function here
                # (regardless of start method) keeps the spawn-safety
                # contract uniform.
                try:
                    weight_blob = (
                        None if weight_fn is None else pickle.dumps(weight_fn)
                    )
                except Exception as exc:
                    raise ConfigurationError(
                        f"shard {shard_index}: weight function "
                        f"{type(weight_fn).__name__} is not picklable; the "
                        "parallel backends ship it to the worker — use a "
                        "picklable weight function or the serial backend"
                    ) from exc
                mp_context = options.mp_context
                if mp_context is None or isinstance(mp_context, str):
                    mp_context = multiprocessing.get_context(mp_context)
                self.transport = ProcessShardTransport(
                    shard_index, state, weight_blob, mp_context,
                    queue_depth=options.queue_depth,
                    chunk_hint=options.chunk_size,
                )
        except TransportClosed as exc:
            self._failure = exc.failure or "worker failed to start"
            raise self._crash() from None
        # The fault-injection seam: an installed FaultPlan wraps every
        # new replica's transport so scheduled faults fire at exact
        # send indices (chaos tests only; None check is the whole cost).
        from repro.streams import faults as _faults

        plan = _faults.active_plan()
        if plan is not None:
            self.transport = plan.wrap(self.transport)

    # -- liveness ----------------------------------------------------------

    def is_alive(self) -> bool:
        """Whether the worker's replica is believed reachable."""
        return self._failure is None and self.transport.is_alive()

    def _crash(self) -> WorkerCrashError:
        message = self._failure or "worker process died unexpectedly"
        return WorkerCrashError(self.shard_index, message)

    def _closed(self, exc: TransportClosed) -> WorkerCrashError:
        """Record a transport death and convert it to the public error."""
        if self._failure is None:
            self._failure = exc.failure or "worker process died unexpectedly"
        return self._crash()

    def _raise_if_failed(self, reply=None) -> None:
        """Record and raise a worker-reported failure, if ``reply`` is one."""
        if reply is not None and reply[0] == "error":
            self._failure = reply[2]
            raise self._crash()

    # -- protocol ----------------------------------------------------------

    def send_block(self, block: EventBlock) -> None:
        """Ship one columnar event chunk (blocks on backpressure)."""
        if self._failure is not None:
            raise self._crash()
        try:
            self.transport.send_block(block)
        except TransportClosed as exc:
            raise self._closed(exc) from None

    def _get(self):
        try:
            reply = self.transport.recv()
        except TransportClosed as exc:
            raise self._closed(exc) from None
        self._raise_if_failed(reply)
        return reply

    def request(self, tag: str):
        """Send a ``tag`` request and block for its matching reply."""
        return self.collect(tag, self.post(tag))

    def post(self, tag: str) -> int:
        """Send a ``tag`` request without waiting; return its token.

        Every posted request must be answered through :meth:`collect`
        before the next one is sent — the discipline :meth:`request`
        keeps in one call. Posting to several workers before collecting
        lets their replicas work on the request at the same time.
        """
        if self._failure is not None:
            raise self._crash()
        token = self._token = self._token + 1
        try:
            self.transport.send((tag, token))
        except TransportClosed as exc:
            raise self._closed(exc) from None
        return token

    def collect(self, tag: str, token: int):
        """Block for the reply to the request :meth:`post` sent."""
        reply = self._get()
        if reply[0] != tag or reply[1] != token:
            self._failure = (
                f"protocol violation: expected ({tag!r}, {token}) reply, "
                f"got {reply[:2]!r}"
            )
            raise self._crash()
        return reply

    def stop(self) -> bytes:
        """Stop the worker cleanly; return its final framed checkpoint."""
        try:
            reply = self.request("stop")
        except WorkerCrashError:
            self.transport.release()
            raise
        self.transport.join(_STOP_TIMEOUT)
        self.transport.release()
        return reply[2]

    def kill(self) -> None:
        """Terminate the worker immediately, discarding its state."""
        self.transport.kill()

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.transport.release()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - trivial
        status = "alive" if self.is_alive() else "dead"
        where = f", host={self.host!r}" if self.host else ""
        return f"ShardWorker(shard={self.shard_index}{where}, {status})"
