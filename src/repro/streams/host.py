"""Shard host agent: hosts leased shard replicas behind a TCP socket.

One agent per machine (``python -m repro.streams.host --listen
HOST:PORT``) turns that machine into capacity for a
:class:`~repro.streams.executor.ShardedStreamExecutor` running with
``ExecutorOptions(backend="remote")``. The coordinator connects once
per shard it places here, and each connection is one **lease**: a
handshake, the shard's framed checkpoint state plus a *named*
weight-spec registry entry, then the ordinary worker protocol (event
blocks, ``sync``/``snapshot``/``stop``) until the session ends.
Replicas are restored with
:func:`~repro.samplers.checkpoint.restore_sampler` and driven through
the same :func:`~repro.streams.workers.handle_shard_message` dispatch
as local worker processes — the replica cannot tell which tier it runs
in, which is what keeps remote results bit-identical to serial ones.

Each lease runs in its own thread, so one agent hosts any number of
shards (subject to Python's GIL — on a many-core host, run several
agents). A replica's lifetime is its connection's lifetime: a clean
``stop`` ships the final checkpoint back and ends the session; a
dropped connection discards the replica (the coordinator restarts it
elsewhere from the retained snapshot). Failures inside the replica are
reported as ``("error", ...)`` frames with the formatted traceback,
exactly like a worker process reports through its outbox.

Security: **nothing on the wire is pickled.** Control payloads ride
the RSX2 codec (:mod:`repro.streams.codec`) and are schema-validated
before dispatch, the lease's weight function is a named registry entry
resolved against code already installed here
(:func:`repro.weights.registry.build_weight_fn`), and oversized frame
claims are refused before allocation — a hostile peer gets typed
errors, not code execution. ``--auth-key`` narrows *who* can speak at
all: with a shared key, every frame (starting with the HELLO) carries
an HMAC-SHA256 tag under a per-connection session key, so an unkeyed
peer cannot lease a replica or inject a single frame. Payloads still
travel unencrypted, so this remains cluster-internal plumbing.

Liveness: ``--heartbeat-timeout`` bounds how long a lease may sit idle
with no frame (not even a HEARTBEAT) from its coordinator before the
agent declares the peer lost and discards the replica. Pair it with
the coordinator's ``heartbeat_interval`` (the agent echoes every
HEARTBEAT, so the coordinator's idle detection works symmetrically);
both default to off.
"""

from __future__ import annotations

import argparse
import signal
import socket
import threading
import time
import traceback

from repro.errors import PeerLostError, ProtocolError
from repro.samplers.checkpoint import restore_sampler, state_from_wire
from repro.streams.codec import (
    decode as _decode_payload,
)
from repro.streams.codec import (
    encode as _encode_payload,
)
from repro.streams.codec import (
    validate_host_request,
)
from repro.streams.transport import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_BLOCK,
    FRAME_CONTROL,
    FRAME_HEADER_SIZE,
    FRAME_HEARTBEAT,
    FrameAuth,
    accept_hello,
    block_from_frame,
    parse_address,
    read_frame,
    write_frame,
)
from repro.streams.workers import handle_shard_message
from repro.utils.text import clip_text
from repro.weights.registry import build_weight_fn

__all__ = ["HostAgent", "spawn_local_host", "main"]

#: Accept-loop poll granularity; bounds how long shutdown() can lag.
_ACCEPT_POLL_SECONDS = 0.2

#: How long a rejected connection is drained after the error reply.
_DRAIN_SECONDS = 0.5


def _send_control(
    sock: socket.socket, reply: tuple, auth: FrameAuth | None = None
) -> None:
    write_frame(sock, FRAME_CONTROL, _encode_payload(reply), auth)


class HostAgent:
    """Accepts shard leases and serves one replica per connection.

    Args:
        host: interface to bind (default loopback — binding a routable
            interface is an explicit opt-in, see the module's security
            note).
        port: TCP port; ``0`` picks a free one (the resolved address is
            available as :attr:`address`).
        heartbeat_timeout: drop a lease whose coordinator sends no
            frame (not even a HEARTBEAT) for this many seconds;
            ``None`` (default) waits forever.
        auth_key: shared secret enabling HMAC frame signing; peers
            without the same key are rejected at HELLO. ``None``
            (default) accepts unsigned frames.
        max_frame_bytes: per-frame payload cap, enforced before
            allocation; ``None`` uses the transport default (64 MiB).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_timeout: float | None = None,
        auth_key: str | None = None,
        max_frame_bytes: int | None = None,
    ) -> None:
        self._heartbeat_timeout = heartbeat_timeout
        self._max_frame_bytes = max_frame_bytes
        self._static_auth = None if auth_key is None else FrameAuth(auth_key)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listener.bind((host, port))
        self._listener.listen()
        self._listener.settimeout(_ACCEPT_POLL_SECONDS)
        bound_host, bound_port = self._listener.getsockname()[:2]
        #: The resolved ``"host:port"`` this agent listens on.
        self.address = f"{bound_host}:{bound_port}"
        self._shutdown = threading.Event()
        self._sessions: set[socket.socket] = set()
        self._lock = threading.Lock()

    # -- serving -----------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept leases until :meth:`shutdown` (blocks the caller)."""
        try:
            while not self._shutdown.is_set():
                try:
                    conn, _ = self._listener.accept()
                except TimeoutError:
                    continue
                except OSError:
                    break  # listener closed under us by shutdown()
                with self._lock:
                    self._sessions.add(conn)
                threading.Thread(
                    target=self._serve_lease,
                    args=(conn,),
                    name="repro-shard-lease",
                    daemon=True,
                ).start()
        finally:
            self._listener.close()

    def shutdown(self) -> None:
        """Stop accepting and drop every active lease."""
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - defensive
            pass
        with self._lock:
            sessions, self._sessions = self._sessions, set()
        for conn in sessions:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass

    # -- one lease ---------------------------------------------------------

    def _serve_lease(self, conn: socket.socket) -> None:
        auth: FrameAuth | None = None
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._heartbeat_timeout is not None:
                # Finite socket timeout gives deadline-aware reads
                # their poll ticks; the per-frame deadline does the
                # actual idle accounting, the HELLO included.
                conn.settimeout(min(1.0, self._heartbeat_timeout))
            hello = read_frame(
                conn,
                deadline=self._read_deadline(),
                max_frame_bytes=self._max_frame_bytes,
            )
            reply, auth = accept_hello(hello, "host", auth=self._static_auth)
            conn.sendall(reply)
            sampler = self._accept_lease(conn, auth)
            if sampler is not None:
                self._serve_replica(conn, sampler, auth)
        except Exception as exc:  # noqa: BLE001 - reported on the wire
            # Report the failure on the wire if the socket still works;
            # either way the lease (and its replica) ends here.
            self._report_error(conn, exc, auth)
            self._drain(conn)
        finally:
            with self._lock:
                self._sessions.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def _read_deadline(self) -> float | None:
        if self._heartbeat_timeout is None:
            return None
        return time.monotonic() + self._heartbeat_timeout

    def _accept_lease(self, conn: socket.socket, auth: FrameAuth | None):
        """Restore the leased replica; reply with acceptance.

        The lease payload is hostile until proven otherwise: the RSX2
        decode bounds its size and depth, the schema check pins its
        shape, the checkpoint wire frame verifies the state's CRC, and
        the weight spec is resolved against the local registry — an
        unknown spec name is a typed :class:`ProtocolError` reported
        back to the coordinator, never imported or executed code.
        """
        frame = read_frame(
            conn,
            deadline=self._read_deadline(),
            auth=auth,
            max_frame_bytes=self._max_frame_bytes,
        )
        if frame is None:
            return None  # coordinator went away before leasing
        kind, payload = frame
        if kind != FRAME_CONTROL:
            raise ProtocolError(
                f"expected a lease control frame, got kind {kind}"
            )
        message = validate_host_request(_decode_payload(payload))
        if message[0] != "lease":
            raise ProtocolError(
                f"expected a lease, got {message[0]!r}"
            )
        _, shard_index, state_wire, weight_spec = message
        state = state_from_wire(state_wire)
        weight_fn = (
            None
            if weight_spec is None
            else build_weight_fn(weight_spec[0], weight_spec[1])
        )
        sampler = restore_sampler(state, weight_fn)
        _send_control(conn, ("lease", shard_index, "ok"), auth)
        return sampler

    def _serve_replica(
        self, conn: socket.socket, sampler, auth: FrameAuth | None
    ) -> None:
        """Drive the replica's message loop until stop or disconnect.

        With a heartbeat timeout configured, every read is bounded: a
        coordinator that sends nothing — not even a HEARTBEAT — for
        the whole window is declared lost and the replica is discarded
        (the coordinator restarts it elsewhere from its retained
        snapshot). HEARTBEAT frames are echoed back, so the
        coordinator's own idle detection sees a live peer.
        """
        while True:
            try:
                frame = read_frame(
                    conn,
                    deadline=self._read_deadline(),
                    auth=auth,
                    max_frame_bytes=self._max_frame_bytes,
                )
            except TimeoutError:
                raise PeerLostError(
                    "coordinator sent no frame (not even a heartbeat) "
                    f"for {self._heartbeat_timeout}s; dropping lease"
                ) from None
            if frame is None:
                return  # coordinator dropped the lease; discard replica
            kind, payload = frame
            if kind == FRAME_HEARTBEAT:
                write_frame(conn, FRAME_HEARTBEAT, b"", auth)
                continue
            if kind == FRAME_BLOCK:
                sampler.process_batch(block_from_frame(payload))
                continue
            if kind != FRAME_CONTROL:
                raise ProtocolError(
                    f"unexpected frame kind {kind} inside a lease"
                )
            reply, done = handle_shard_message(
                sampler, validate_host_request(_decode_payload(payload))
            )
            if reply is not None:
                _send_control(conn, reply, auth)
            if done:
                return

    def _report_error(
        self,
        conn: socket.socket,
        exc: BaseException,
        auth: FrameAuth | None = None,
    ) -> None:
        try:
            _send_control(
                conn,
                (
                    "error",
                    None,
                    clip_text(
                        f"{type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc()}"
                    ),
                ),
                auth,
            )
        except OSError:  # the connection itself is gone
            pass

    def _drain(self, conn: socket.socket) -> None:
        """Half-close, then read what the peer already sent.

        A frame rejected on its header leaves its payload unread, and
        closing a socket with unread input sends a reset that can
        overtake the error reply. Draining — bounded by the frame cap
        and by :data:`_DRAIN_SECONDS` — lets the close end in a FIN.
        """
        cap = self._max_frame_bytes or DEFAULT_MAX_FRAME_BYTES
        left = FRAME_HEADER_SIZE + cap
        deadline = time.monotonic() + _DRAIN_SECONDS
        try:
            conn.shutdown(socket.SHUT_WR)
            while left > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                conn.settimeout(remaining)
                chunk = conn.recv(min(left, 65536))
                if not chunk:
                    break
                left -= len(chunk)
        except OSError:  # timed out, reset, or closed by shutdown()
            pass


# -- process helper for tests and benchmarks ----------------------------------


def _host_agent_main(
    host: str,
    port: int,
    address_pipe,
    heartbeat_timeout: float | None = None,
    auth_key: str | None = None,
    max_frame_bytes: int | None = None,
) -> None:
    """Entry point for :func:`spawn_local_host` (top-level: spawn-safe)."""
    agent = HostAgent(
        host,
        port,
        heartbeat_timeout=heartbeat_timeout,
        auth_key=auth_key,
        max_frame_bytes=max_frame_bytes,
    )
    address_pipe.send(agent.address)
    address_pipe.close()
    agent.serve_forever()


class LocalHostHandle:
    """A host agent running in a child process on this machine.

    Exposes the pieces tests and benchmarks need: the resolved
    :attr:`address` to lease against, the raw :attr:`process` (so fault
    tests can ``kill()`` it mid-stream), and :meth:`stop` for cleanup.
    """

    def __init__(self, process, address: str) -> None:
        self.process = process
        self.address = address

    def stop(self) -> None:
        """Tear the agent down (hard — leases just drop)."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(timeout=5.0)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        status = "alive" if self.process.is_alive() else "dead"
        return f"LocalHostHandle(address={self.address!r}, {status})"


def spawn_local_host(
    mp_context=None,
    *,
    heartbeat_timeout: float | None = None,
    auth_key: str | None = None,
    max_frame_bytes: int | None = None,
) -> LocalHostHandle:
    """Start a host agent in a child process; return its handle.

    The localhost stand-in for a real remote machine: tests and the
    benchmark harness spawn N of these to get an N-host topology on one
    box. The agent binds a free loopback port; the resolved address is
    read back through a pipe before this returns.
    """
    import multiprocessing

    if mp_context is None or isinstance(mp_context, str):
        mp_context = multiprocessing.get_context(mp_context)
    recv_end, send_end = mp_context.Pipe(duplex=False)
    process = mp_context.Process(
        target=_host_agent_main,
        args=(
            "127.0.0.1", 0, send_end, heartbeat_timeout, auth_key,
            max_frame_bytes,
        ),
        name="repro-shard-host",
        daemon=True,
    )
    process.start()
    send_end.close()
    if not recv_end.poll(timeout=30.0):
        process.terminate()
        raise RuntimeError("host agent did not report its address")
    address = recv_end.recv()
    recv_end.close()
    return LocalHostHandle(process, address)


# -- CLI -----------------------------------------------------------------------


def main(argv=None) -> int:
    """``python -m repro.streams.host --listen HOST:PORT``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.streams.host",
        description=(
            "Run a shard host agent: accepts shard leases from a "
            "ShardedStreamExecutor coordinator (backend='remote') "
            "and hosts the replicas. Trusted networks only."
        ),
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help=(
            "interface and port to listen on (port 0 picks a free "
            "port; default %(default)s)"
        ),
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "drop a lease whose coordinator sends no frame for this "
            "long (default: wait forever); pair with the executor's "
            "heartbeat_interval"
        ),
    )
    parser.add_argument(
        "--auth-key",
        default=None,
        metavar="KEY",
        help=(
            "shared secret enabling HMAC-SHA256 frame signing; "
            "coordinators must pass the same key (default: unsigned)"
        ),
    )
    parser.add_argument(
        "--max-frame-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "refuse frames declaring payloads above this many bytes, "
            "before allocating (default: the transport's 64 MiB cap)"
        ),
    )
    args = parser.parse_args(argv)
    host, port = parse_address(args.listen)
    # A process started with SIGINT ignored (``cmd &`` in a
    # non-interactive shell) inherits SIG_IGN; restore the default so
    # Ctrl-C / SIGINT always stops the agent.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    agent = HostAgent(
        host,
        port,
        heartbeat_timeout=args.heartbeat_timeout,
        auth_key=args.auth_key,
        max_frame_bytes=args.max_frame_bytes,
    )
    try:
        print(f"shard host agent listening on {agent.address}", flush=True)
        agent.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        agent.shutdown()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
