"""Shard transports: how a coordinator reaches a shard replica.

The :class:`~repro.streams.workers.ShardWorker` protocol layer (strict
request/reply, crash surfacing, token matching) is transport-agnostic;
this module defines the :class:`ShardTransport` interface it drives and
the *network* implementation. Three transports exist:

* the bounded-queue and shared-memory slot-ring paths of the process
  backend (:class:`~repro.streams.workers.ProcessShardTransport`,
  which lives next to the worker entry point it spawns);
* :class:`TcpShardTransport` (here) — the same protocol over a TCP
  connection to a shard **host agent** (:mod:`repro.streams.host`),
  which is what makes shard replicas location-transparent in fact: a
  replica restored from a shipped checkpoint behind a socket behaves
  bit-identically to one in a local worker process.

Wire format (stdlib only — ``socket`` + ``struct``): every frame is a
fixed header (magic, protocol version byte, frame kind, payload
length) followed by exactly ``length`` payload bytes. A truncated
frame, a wrong magic, a declared length above the frame cap
(:data:`DEFAULT_MAX_FRAME_BYTES`, checked *before* any allocation), or
a cross-version frame raises :class:`~repro.errors.ProtocolError`
instead of deserialising garbage, and version mismatches are rejected
at the HELLO handshake before any payload is exchanged. Three frame
kinds carry the whole protocol:

* ``HELLO`` — handshake metadata (JSON), exchanged once per
  connection in both directions, version- and role-checked;
* ``BLOCK`` — one encoded :class:`~repro.graph.stream.EventBlock`
  (the ``write_into``/``from_buffer`` format of the shared-memory
  transport, reused byte-for-byte), with the declared event count
  cross-checked against the frame length. Events cross a socket in
  this form only;
* ``CONTROL`` — a protocol tuple in the RSX2 control codec
  (:mod:`repro.streams.codec`): ``sync``/``snapshot``/``stop``
  requests and replies, the initial shard lease, and error reports.
  Every decoded message is
  schema-validated before dispatch, so a well-formed-but-wrong tuple
  is as loud as a corrupt one. Checkpoint states inside control
  tuples travel framed by
  :func:`~repro.samplers.checkpoint.state_to_wire` (magic + version +
  CRC-32), so state corruption also fails loudly.

Backpressure: the host agent reads and processes one frame at a time,
so an ingesting coordinator can run ahead of a shard only by what the
kernel socket buffers hold — a fixed bound, playing the role the
bounded inbox queue plays for the process backend. Ordering and the
strict request/reply discipline are identical across transports, which
is why serial == process == remote bit-identity holds.

Liveness: a fourth frame kind, ``HEARTBEAT`` (empty payload), lets
either end of a connection prove it is alive without application
traffic. Senders that enable ``heartbeat_interval`` emit one per
interval from a background thread (all writes to a shared socket are
serialised by a send lock, so a heartbeat can never tear a mid-flight
frame); receivers that enable an idle deadline treat *any* frame —
heartbeats included — as liveness, and declare the peer lost when the
window passes with silence. A declared-dead peer surfaces as the typed
(retryable) :class:`~repro.errors.PeerLostError` instead of a hang or
a late send failure.

Trust model: **no pickle on the wire.** Since protocol version 2,
control payloads ride the RSX2 codec — tagged scalars and containers
with hard depth and size limits — and leases carry a *named*
weight-spec registry entry instead of a pickled callable, so hostile
bytes can produce a typed error, never code execution or an oversized
allocation. Optional shared-key authentication (:class:`FrameAuth`)
narrows *who* can speak at all: with ``--auth-key`` set on both ends,
every frame carries an HMAC-SHA256 tag keyed by a per-connection
session key (each HELLO contributes a fresh nonce), so an unkeyed
peer cannot get a single frame accepted. HMAC narrows who, the codec
narrows what; neither encrypts traffic — this remains a
cluster-internal transport, not a public API surface.
"""

from __future__ import annotations

import contextlib
import hashlib
import hmac as hmac_module
import json
import os
import socket
import struct
import threading
import time
from abc import ABC, abstractmethod

from repro.errors import ConfigurationError, PeerLostError, ProtocolError
from repro.graph.stream import EventBlock
from repro.streams.codec import decode as _decode_payload
from repro.streams.codec import encode as _encode_payload
from repro.streams.codec import validate_host_reply

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "ShardTransport",
    "TransportClosed",
    "TcpShardTransport",
    "FrameAuth",
    "parse_address",
    "frame_bytes",
    "parse_frame_header",
    "read_frame",
    "write_frame",
    "FRAME_HEADER_SIZE",
    "FRAME_HELLO",
    "FRAME_CONTROL",
    "FRAME_BLOCK",
    "FRAME_HEARTBEAT",
]

#: Version byte carried by every frame; bumped on any incompatible
#: wire-format change. Mismatches are rejected at handshake, so a
#: mixed fleet fails closed with a typed error instead of misparsing.
#: Version 2 retired pickled CONTROL payloads for the RSX2 codec;
#: version 3 made EventBlock the only event form (the host ``batch``
#: op is gone, and a service ``ingest`` carries one block).
PROTOCOL_VERSION = 3

#: Frame header: magic, protocol version, frame kind, payload length.
_FRAME_MAGIC = b"RSX1"
_FRAME_HEADER = struct.Struct("<4sBBxxQ")

FRAME_HELLO = 0
FRAME_CONTROL = 1
FRAME_BLOCK = 2
#: Liveness proof; empty payload. Same header, so pre-heartbeat peers
#: reject it loudly (unknown kind) rather than misparsing it.
FRAME_HEARTBEAT = 3
_FRAME_KINDS = (FRAME_HELLO, FRAME_CONTROL, FRAME_BLOCK, FRAME_HEARTBEAT)

#: Default upper bound on a declared payload length, enforced *before*
#: any allocation: a hostile u64 length claim fails as a ProtocolError
#: while still just a header. 64 MiB is far above any real frame
#: (event chunks are slot-ring sized, checkpoints are compact JSON)
#: yet small enough that even a burst of lying peers cannot pressure
#: memory. Raisable per executor/service via the ``max_frame_bytes``
#: knob when genuinely huge checkpoints need to travel.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Seconds between liveness checks while a shard transport blocks on its
#: peer (a full inbox, an awaited reply). Small enough that a dead
#: replica surfaces promptly, large enough that healthy waits stay cheap.
POLL_SECONDS = 0.2


class TransportClosed(Exception):
    """Internal signal: the peer is gone (or reported a failure).

    Transports raise this from :meth:`ShardTransport.send` /
    :meth:`ShardTransport.recv`; the protocol layer
    (:class:`~repro.streams.workers.ShardWorker`) converts it into a
    :class:`~repro.errors.WorkerCrashError` naming the shard. Never
    part of the public API.
    """

    def __init__(self, failure: str | None = None) -> None:
        super().__init__(failure or "transport closed")
        #: The peer's error report (formatted traceback text) when one
        #: was salvaged before the connection died, else ``None``.
        self.failure = failure


class ShardTransport(ABC):
    """One shard replica's message pipe, launch included.

    A transport owns the *whole* path to a replica: constructing it
    brings the replica up at the far end (spawning a worker process, or
    leasing the shard onto a remote host agent from its checkpoint) and
    tearing it down releases every resource. The protocol layer above
    is identical for every implementation — that is the point: the
    executor cannot tell a local worker from a remote one.

    Contracts every implementation honours:

    * :meth:`send` blocks on backpressure and raises
      :class:`TransportClosed` (carrying any salvaged error report)
      when the peer is dead;
    * :meth:`recv` blocks for the next reply and raises
      :class:`TransportClosed` when the peer dies with no reply left;
      error reports travel as ordinary ``("error", ...)`` replies;
    * message order is preserved, and chunk/framing boundaries never
      change what the replica computes.
    """

    #: Position of this replica in the executor (for error messages).
    shard_index: int

    @abstractmethod
    def send(self, message: tuple) -> None:
        """Ship one protocol message (blocks on backpressure)."""

    def send_block(self, block: EventBlock) -> None:
        """Ship one columnar event chunk (optimised per transport)."""
        self.send(("block", block.to_bytes()))

    @abstractmethod
    def recv(self) -> tuple:
        """Block for the peer's next reply."""

    @abstractmethod
    def is_alive(self) -> bool:
        """Whether the peer is believed reachable."""

    @abstractmethod
    def kill(self) -> None:
        """Force-terminate the peer side and release local resources."""

    @abstractmethod
    def release(self) -> None:
        """Release local resources after a clean stop (idempotent)."""

    def join(self, timeout: float) -> None:
        """Wait for the peer to wind down after a clean stop."""


def parse_address(address: str) -> tuple[str, int]:
    """Split a ``"host:port"`` string, validating the port."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"host address must look like 'host:port', got {address!r}"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ConfigurationError(
            f"bad port in host address {address!r}"
        ) from exc
    if not 0 <= port <= 65535:
        raise ConfigurationError(f"port out of range in {address!r}")
    return host, port


# -- frame authentication -----------------------------------------------------


class FrameAuth:
    """Shared-key HMAC-SHA256 signing of RSX1 frames.

    Construction wraps the *static* shared key (the ``--auth-key``
    value, both ends identical). Each side's HELLO carries a fresh
    random nonce and is signed with the static key; after the
    handshake, both sides derive the same per-connection **session
    key** from the two nonces (:meth:`derived`) and sign every later
    frame with it — so a captured frame cannot be replayed into a
    different connection, and a peer without the key cannot produce a
    single acceptable frame. The tag covers the frame kind byte as
    well as the payload, so a signed CONTROL frame cannot be replayed
    as a BLOCK.

    This is peer *authentication*, not encryption: payloads still
    travel in the clear, on what must remain a trusted network.
    """

    #: HMAC-SHA256 digest size appended to every signed payload.
    TAG_BYTES = 32

    def __init__(self, key: str | bytes) -> None:
        if isinstance(key, str):
            key = key.encode("utf-8")
        if not key:
            raise ConfigurationError("auth key must be non-empty")
        self._key = key

    @staticmethod
    def new_nonce() -> str:
        """A fresh per-connection challenge (hex, HELLO-safe)."""
        return os.urandom(16).hex()

    def derived(self, initiator_nonce: str, acceptor_nonce: str) -> "FrameAuth":
        """The session-key variant bound to one connection's nonces.

        Both ends call this with the nonces in the same role order
        (connection initiator first), so they derive the same key.
        """
        material = f"{initiator_nonce}:{acceptor_nonce}".encode("utf-8")
        session_key = hmac_module.new(
            self._key, material, hashlib.sha256
        ).digest()
        return FrameAuth(session_key)

    def sign(self, kind: int, payload: bytes) -> bytes:
        """The tag to append to ``payload`` for a ``kind`` frame."""
        return hmac_module.new(
            self._key, bytes([kind]) + payload, hashlib.sha256
        ).digest()

    def verify(self, kind: int, signed_payload: bytes) -> bytes:
        """Check and strip the tag; raises ProtocolError on any failure."""
        if len(signed_payload) < self.TAG_BYTES:
            raise ProtocolError(
                "unauthenticated frame from peer (frame shorter than "
                "an HMAC tag; is the peer running without --auth-key?)"
            )
        payload = signed_payload[: -self.TAG_BYTES]
        tag = signed_payload[-self.TAG_BYTES:]
        if not hmac_module.compare_digest(tag, self.sign(kind, payload)):
            raise ProtocolError(
                "frame HMAC verification failed: peer is unkeyed, "
                "wrong-keyed, or the frame was tampered with"
            )
        return payload


# -- frame plumbing -----------------------------------------------------------

#: Size of the fixed frame header, for readers that buffer their own
#: bytes (the asyncio ingestion front) instead of owning a socket.
FRAME_HEADER_SIZE = _FRAME_HEADER.size


def frame_bytes(kind: int, payload, auth: FrameAuth | None = None) -> bytes:
    """One wire frame (header + payload) as a single bytes object."""
    if auth is not None:
        payload = bytes(payload) + auth.sign(kind, payload)
    header = _FRAME_HEADER.pack(
        _FRAME_MAGIC, PROTOCOL_VERSION, kind, len(payload)
    )
    return header + payload if len(payload) else header


def parse_frame_header(
    header_bytes: bytes, max_frame_bytes: int | None = None
) -> tuple[int, int]:
    """Validate a frame header; return ``(kind, payload length)``.

    The validation half of :func:`read_frame`, factored out for
    readers that do their own buffering (``asyncio`` streams): magic,
    protocol version, frame kind, and the declared-length cap
    (``max_frame_bytes``, default :data:`DEFAULT_MAX_FRAME_BYTES`) all
    fail with :class:`~repro.errors.ProtocolError` exactly as the
    socket reader does — and the cap fails *here*, on header bytes
    alone, so a lying length never reaches an allocation.
    """
    cap = DEFAULT_MAX_FRAME_BYTES if max_frame_bytes is None else max_frame_bytes
    magic, version, kind, length = _FRAME_HEADER.unpack(header_bytes)
    if magic != _FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"peer speaks protocol version {version}, this build speaks "
            f"{PROTOCOL_VERSION}; refusing the frame"
        )
    if kind not in _FRAME_KINDS:
        raise ProtocolError(f"unknown frame kind {kind}")
    if length > cap:
        raise ProtocolError(
            f"frame declares a payload of {length} bytes, above the "
            f"{cap}-byte frame cap; refusing before allocation"
        )
    return kind, length


def write_frame(
    sock: socket.socket,
    kind: int,
    payload,
    auth: FrameAuth | None = None,
) -> None:
    """Send one framed payload (header + exact payload bytes).

    Header and payload go out as two ``sendall`` calls on purpose: a
    peer death between them surfaces on the payload send, so a failed
    frame is detected *during* the frame that lost it rather than one
    frame later — the remote executor's fault-injection tests pin that
    timing. With ``auth``, the HMAC tag rides inside the payload (the
    declared length covers it).
    """
    if auth is not None:
        payload = bytes(payload) + auth.sign(kind, payload)
    header = _FRAME_HEADER.pack(
        _FRAME_MAGIC, PROTOCOL_VERSION, kind, len(payload)
    )
    sock.sendall(header)
    if len(payload):
        sock.sendall(payload)


def _recv_exact(
    sock: socket.socket,
    n: int,
    *,
    at_boundary: bool,
    deadline: float | None = None,
) -> bytes:
    """Read exactly ``n`` bytes, tolerating timeout-based liveness polls.

    A clean EOF *between* frames (``at_boundary``) returns ``b""`` so
    the caller can treat it as a session end; EOF mid-frame is a
    truncation and raises :class:`~repro.errors.ProtocolError`.

    ``deadline`` (a :func:`time.monotonic` timestamp) bounds the wait:
    the socket must carry a finite timeout for the poll ticks to fire,
    and a tick past the deadline raises :class:`TimeoutError` instead
    of polling forever — the hook every idle-deadline and op-timeout
    above this function hangs off. Payload bytes mid-frame count as
    activity only in the sense that the deadline is the caller's to
    refresh per frame.
    """
    chunks: list[bytes] = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(n - got)
        except TimeoutError:
            # Liveness poll: nothing arrived this tick.
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"no data from peer within the deadline ({got} of "
                    f"{n} bytes read)"
                ) from None
            continue
        if not chunk:
            if at_boundary and not chunks:
                return b""
            raise ProtocolError(
                f"truncated frame: connection closed after {got} of "
                f"{n} bytes"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket,
    *,
    deadline: float | None = None,
    auth: FrameAuth | None = None,
    max_frame_bytes: int | None = None,
) -> tuple[int, bytes] | None:
    """Read one frame; ``None`` on a clean close between frames.

    Validates the magic, the protocol version, the frame kind, and the
    declared length (the payload read is exact, so a peer that died
    mid-frame surfaces as a truncation) — any violation raises
    :class:`~repro.errors.ProtocolError`, and an over-cap declared
    length is refused before the payload is read. ``deadline`` bounds
    the whole read (see :func:`_recv_exact`); ``auth`` verifies and
    strips the frame's HMAC tag.
    """
    header_bytes = _recv_exact(
        sock, _FRAME_HEADER.size, at_boundary=True, deadline=deadline
    )
    if not header_bytes:
        return None
    kind, length = parse_frame_header(header_bytes, max_frame_bytes)
    payload = (
        _recv_exact(sock, length, at_boundary=False, deadline=deadline)
        if length
        else b""
    )
    if auth is not None:
        payload = auth.verify(kind, payload)
    return kind, payload


#: HELLO roles in pairs: a connection's initiator and the acceptor it
#: must reach. A peer announcing any other role is the wrong endpoint.
_HELLO_PEERS = {
    "coordinator": "host", "host": "coordinator",
    "client": "service", "service": "client",
}


def hello_payload(role: str, *, nonce: str | None = None) -> bytes:
    """The JSON handshake payload (version is also in every header).

    ``nonce`` is the sender's per-connection challenge when frame
    authentication is on; both nonces feed the session key
    (:meth:`FrameAuth.derived`).
    """
    meta: dict = {"protocol": PROTOCOL_VERSION, "role": role}
    if nonce is not None:
        meta["nonce"] = nonce
    return json.dumps(meta).encode("utf-8")


def check_hello(
    frame: tuple[int, bytes] | None,
    *,
    peer: str,
    role: str,
    auth: FrameAuth | None = None,
) -> dict:
    """Validate a HELLO frame already read from ``peer``; return its meta.

    The reader already checked the header's version byte, so a
    cross-version peer fails here, at handshake, before any control
    payload is decoded; so does a peer that does not announce ``role``
    (the wrong kind of endpoint). With ``auth`` (the *static* key:
    session keys need both nonces), an unsigned or wrong-keyed HELLO
    fails, and the HELLO must carry a nonce.
    """
    if frame is None:
        raise ProtocolError(f"{peer} closed the connection before HELLO")
    kind, payload = frame
    if kind != FRAME_HELLO:
        reason = f"got frame kind {kind}"
        if kind == FRAME_CONTROL:  # an acceptor refusing our HELLO says why
            with contextlib.suppress(ProtocolError):
                reply = _decode_payload(payload)
                if isinstance(reply, tuple) and reply[:1] == ("error",):
                    reason = f"got its refusal: {reply[-1]}"
        raise ProtocolError(f"expected HELLO from {peer}, {reason}")
    if auth is not None:
        payload = auth.verify(kind, payload)
    try:
        meta = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        meta = None
    if not isinstance(meta, dict):
        raise ProtocolError(f"malformed HELLO payload from {peer}")
    if meta.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"{peer} speaks protocol {meta.get('protocol')!r}, this "
            f"build speaks {PROTOCOL_VERSION}"
        )
    if meta.get("role") != role:
        raise ProtocolError(
            f"{peer} announced role {meta.get('role')!r}, not {role!r}"
        )
    if auth is not None and not meta.get("nonce"):
        raise ProtocolError(
            f"{peer} sent a HELLO without a nonce; frame authentication "
            "requires one from both ends"
        )
    return meta


def expect_hello(
    sock: socket.socket, *, peer: str, role: str, deadline=None, auth=None
) -> dict:
    """Read ``peer``'s HELLO from ``sock`` and :func:`check_hello` it."""
    frame = read_frame(sock, deadline=deadline)
    return check_hello(frame, peer=peer, role=role, auth=auth)


def initiate_hello(
    sock: socket.socket, role: str, *, peer: str, deadline=None, auth_key=None
) -> FrameAuth | None:
    """The connecting end's handshake; return the session auth.

    Sends a HELLO as ``role`` (``"coordinator"`` or ``"client"``) and
    checks the acceptor's reply. With ``auth_key`` both HELLOs are
    signed and carry nonces, and the session key is returned.
    """
    static = None if auth_key is None else FrameAuth(auth_key)
    nonce = None if static is None else FrameAuth.new_nonce()
    write_frame(sock, FRAME_HELLO, hello_payload(role, nonce=nonce), static)
    meta = expect_hello(
        sock, peer=peer, role=_HELLO_PEERS[role], deadline=deadline,
        auth=static,
    )
    # The initiator's nonce comes first in the derivation on both ends.
    return None if static is None else static.derived(nonce, meta["nonce"])


def accept_hello(
    frame: tuple[int, bytes] | None, role: str, *, auth: FrameAuth | None
) -> tuple[bytes, FrameAuth | None]:
    """The accepting end's handshake; return ``(reply, session auth)``.

    ``frame`` is the initiator's first frame, already read; ``role`` is
    this end's (``"host"`` or ``"service"``) and ``auth`` its static
    key. ``reply`` is this end's HELLO frame, ready to write.
    """
    peer = _HELLO_PEERS[role]
    meta = check_hello(frame, peer=peer, role=peer, auth=auth)
    nonce = None if auth is None else FrameAuth.new_nonce()
    reply = frame_bytes(FRAME_HELLO, hello_payload(role, nonce=nonce), auth)
    return reply, None if auth is None else auth.derived(meta["nonce"], nonce)


def block_from_frame(payload: bytes) -> EventBlock:
    """Decode a BLOCK frame payload with an explicit length cross-check.

    The embedded :class:`EventBlock` header declares an event count;
    requiring the frame length to match exactly turns a truncated or
    padded payload into a :class:`~repro.errors.ProtocolError` rather
    than an out-of-bounds read or silently dropped events.
    """
    try:
        block = EventBlock.from_buffer(payload)
    except (ValueError, struct.error) as exc:
        raise ProtocolError(f"undecodable EventBlock frame: {exc}") from exc
    if EventBlock.byte_size(len(block)) != len(payload):
        raise ProtocolError(
            f"EventBlock frame length mismatch: {len(payload)} payload "
            f"bytes for a declared {len(block)}-event block"
        )
    return block


# -- TCP client transport -----------------------------------------------------


class TcpShardTransport(ShardTransport):
    """Reach a shard replica hosted by a remote agent over TCP.

    Constructing the transport performs the whole bring-up: connect,
    exchange HELLO handshakes (version-checked both ways), then lease
    the shard — ship its framed checkpoint state and named weight-spec
    registry entry — and wait for the host's acceptance. From then on
    the message protocol is exactly the process backend's; checkpoint
    states in ``snapshot``/``stop`` replies arrive framed and are
    decoded (integrity-checked) here, so the protocol layer above sees
    plain state dicts on every transport. Every control reply is
    decoded by the RSX2 codec and schema-validated before it reaches
    the protocol layer.

    Args:
        shard_index: position of this replica in the executor.
        state: the replica's checkpoint (ships framed).
        weight_spec: the replica's named weight spec ``(name, params)``
            from :func:`repro.weights.registry.weight_spec_for`, or
            ``None`` (pairing samplers; learned weights ride the
            checkpoint).
        address: the host agent's ``"host:port"``.
        connect_timeout: seconds allowed for connect + handshake +
            lease acceptance.
        max_frame_bytes: per-connection frame cap override (``None``
            uses :data:`DEFAULT_MAX_FRAME_BYTES`).
        heartbeat_interval: seconds between HEARTBEAT frames sent to
            the host from a background thread (``None`` disables).
            A failed heartbeat send marks the peer lost, so a dead or
            partitioned host surfaces within roughly one interval as
            :class:`~repro.errors.PeerLostError` — the retryable
            signal the supervisor re-leases on — instead of on the
            next application send.
        auth_key: shared secret enabling per-frame HMAC signing (must
            match the host agent's ``--auth-key``); ``None`` runs the
            legacy unauthenticated protocol.
    """

    def __init__(
        self,
        shard_index: int,
        state: dict,
        weight_spec: tuple[str, dict] | None,
        address: str,
        connect_timeout: float = 10.0,
        heartbeat_interval: float | None = None,
        auth_key: str | None = None,
        max_frame_bytes: int | None = None,
    ) -> None:
        from repro.samplers.checkpoint import state_to_wire

        self.shard_index = shard_index
        self.address = address
        self._max_frame_bytes = max_frame_bytes
        self._closed = False
        self._sock: socket.socket | None = None
        self._auth: FrameAuth | None = None
        self._send_lock = threading.Lock()
        self._peer_lost: str | None = None
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_stop = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None
        host, port = parse_address(address)
        try:
            sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise PeerLostError(
                f"cannot connect to shard host {address}: {exc}",
                shard_index=shard_index,
            ) from exc
        self._sock = sock
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(min(POLL_SECONDS, connect_timeout))
            self._auth = initiate_hello(
                sock,
                "coordinator",
                peer=f"shard host {address}",
                deadline=time.monotonic() + connect_timeout,
                auth_key=auth_key,
            )
            self.send(
                ("lease", shard_index, state_to_wire(state), weight_spec)
            )
            reply = self.recv()
            if reply[0] == "error":
                raise TransportClosed(reply[2])
            if reply[:2] != ("lease", shard_index):
                raise ProtocolError(
                    f"shard host {address} answered the lease with "
                    f"{reply[:2]!r}"
                )
            sock.settimeout(None)
        except TimeoutError as exc:
            self._closed = True
            sock.close()
            raise PeerLostError(
                f"shard host {address} did not complete the handshake "
                f"within {connect_timeout}s: {exc}",
                shard_index=shard_index,
            ) from None
        except BaseException:
            self._closed = True
            sock.close()
            raise
        if heartbeat_interval is not None:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"repro-shard-{shard_index}-heartbeat",
                daemon=True,
            )
            self._heartbeat_thread.start()

    # -- liveness -----------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        """Prove liveness each interval; declare the peer lost on failure.

        The send lock serialises heartbeats against application frames,
        so a heartbeat can never land inside a half-written BLOCK. A
        failed send closes the socket too, which wakes any reader
        blocked in :meth:`recv` within one poll tick.
        """
        while not self._heartbeat_stop.wait(self._heartbeat_interval):
            if self._closed:
                return
            try:
                with self._send_lock:
                    sock = self._sock
                    if sock is None:
                        return
                    sock.settimeout(self._heartbeat_interval)
                    write_frame(sock, FRAME_HEARTBEAT, b"", self._auth)
            except TimeoutError:
                # Kernel send buffer full: application backpressure is
                # in charge, not a dead peer — skip this beat.
                continue
            except (OSError, AttributeError):
                self._peer_lost = (
                    f"shard host {self.address} stopped accepting "
                    "heartbeats"
                )
                self._shutdown()
                return

    def _raise_if_lost(self) -> None:
        if self._peer_lost is not None:
            raise PeerLostError(
                self._peer_lost, shard_index=self.shard_index
            )

    # -- protocol ----------------------------------------------------------

    def send(self, message: tuple) -> None:
        self._raise_if_lost()
        if self._closed:
            raise TransportClosed()
        sock = self._sock
        try:
            with self._send_lock:
                sock.settimeout(None)  # sends block on backpressure
                if message[0] == "block":
                    write_frame(sock, FRAME_BLOCK, message[1], self._auth)
                else:
                    write_frame(
                        sock, FRAME_CONTROL,
                        _encode_payload(message),
                        self._auth,
                    )
        except OSError:
            self._raise_if_lost()
            # The host may have shipped an error report before dying;
            # salvage it so the caller learns the real traceback.
            failure = self._drain_error()
            self._shutdown()
            raise TransportClosed(failure) from None

    def recv(self) -> tuple:
        self._raise_if_lost()
        if self._closed:
            raise TransportClosed()
        sock = self._sock
        sock.settimeout(POLL_SECONDS)
        while True:
            try:
                frame = read_frame(
                    sock,
                    auth=self._auth,
                    max_frame_bytes=self._max_frame_bytes,
                )
            except (ProtocolError, OSError) as exc:
                self._raise_if_lost()
                self._shutdown()
                raise TransportClosed(
                    f"connection to shard host {self.address} broke: {exc}"
                ) from None
            if frame is None:
                self._raise_if_lost()
                self._shutdown()
                raise TransportClosed(
                    f"shard host {self.address} closed the connection"
                )
            if frame[0] == FRAME_HEARTBEAT:
                continue  # the host's liveness echo; not a reply
            return self._decode_control(frame)

    def _decode_control(self, frame: tuple[int, bytes]) -> tuple:
        from repro.samplers.checkpoint import state_from_wire

        kind, payload = frame
        if kind != FRAME_CONTROL:
            self._shutdown()
            raise TransportClosed(
                f"unexpected frame kind {kind} from shard host "
                f"{self.address} (expected a control reply)"
            )
        try:
            reply = validate_host_reply(_decode_payload(payload))
        except ProtocolError as exc:
            self._shutdown()
            raise TransportClosed(
                f"undecodable reply from shard host {self.address}: {exc}"
            ) from None
        # Checkpoint-bearing replies carry framed states; decode them
        # here so every transport hands the protocol layer plain dicts.
        if reply[0] in ("snapshot", "stop") and isinstance(reply[2], bytes):
            try:
                reply = reply[:2] + (state_from_wire(reply[2]),)
            except ProtocolError as exc:
                self._shutdown()
                raise TransportClosed(
                    f"shard host {self.address} shipped a corrupt "
                    f"checkpoint frame: {exc}"
                ) from None
        return reply

    def _drain_error(self) -> str | None:
        """Fish a pending ``("error", ...)`` reply out of the socket."""
        sock = self._sock
        if sock is None:
            return None
        try:
            sock.settimeout(1.0)
            while True:
                frame = read_frame(
                    sock,
                    deadline=time.monotonic() + 1.0,
                    auth=self._auth,
                    max_frame_bytes=self._max_frame_bytes,
                )
                if frame is None:
                    return None
                kind, payload = frame
                if kind != FRAME_CONTROL:
                    continue
                reply = validate_host_reply(_decode_payload(payload))
                if reply[0] == "error":
                    return reply[2]
        except Exception:
            return None

    # -- lifecycle ----------------------------------------------------------

    def is_alive(self) -> bool:
        return not self._closed

    def _shutdown(self) -> None:
        self._closed = True
        self._heartbeat_stop.set()
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def kill(self) -> None:
        # Dropping the connection is the kill: the host agent tears the
        # leased replica down when its session socket dies.
        self._shutdown()

    def release(self) -> None:
        self._shutdown()

    def join(self, timeout: float) -> None:
        # The remote replica lives in the host agent's process; after a
        # clean stop reply there is nothing left to wait for here.
        return

    def __repr__(self) -> str:  # pragma: no cover - trivial
        status = "closed" if self._closed else "open"
        return (
            f"TcpShardTransport(shard={self.shard_index}, "
            f"host={self.address!r}, {status})"
        )
