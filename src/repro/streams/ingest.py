"""The counting service's TCP front: asyncio server + blocking client.

One wire format serves the whole library: the ``RSX1`` frames of
:mod:`repro.streams.transport`. A service connection is

1. a HELLO exchange (JSON, version- and role-checked both ways by the
   same handshake code as the shard transports);
2. CONTROL frames carrying RSX2-encoded ``(op, token, ...)`` requests
   (:mod:`repro.streams.codec` — a self-describing tagged binary
   format, not pickle) — ``create`` / ``attach`` / ``ingest`` (one
   acknowledged :class:`~repro.graph.stream.EventBlock`) /
   ``query`` / ``checkpoint`` / ``streams`` — answered by
   ``(op, token, value)`` or ``("error", token, traceback_text)``.
   Every decoded request is schema-validated (op whitelist, field
   types, bounds) before it is dispatched;
3. BLOCK frames carrying columnar
   :class:`~repro.graph.stream.EventBlock` payloads for the selected
   stream — the fire-and-forget fast path: no per-block acknowledgement,
   so ingestion pipelines; an ingest failure is reported once (token
   ``None``) and drops the connection. The server applies a BLOCK frame
   together with every further BLOCK frame already buffered in full
   behind it, up to 8,192 events, as one session batch (chunk
   boundaries never change results); any other frame ends the run, so
   a query sees every block sent before it. The backpressure bound is
   the socket buffers plus one such run. The one exception is WAL
   overload: a block rejected by the session's hard limit is reported
   out-of-band (``("overloaded", None, info)``), once per shed frame,
   and the connection stays up — the stream state is untouched, so
   there is nothing fatal about the rejection;
4. HEARTBEAT frames for liveness: a client with a heartbeat interval
   pings between requests and the server echoes, so the server's idle
   deadline (``ServiceConfig.heartbeat_timeout``) reaps only peers
   that are actually gone, and the client notices a dead service from
   a failed ping instead of on its next query.

The server (:class:`StreamIngestServer`) runs one asyncio event loop in
a daemon thread; session work (sampler ingestion, barrier reads) runs
on the default thread-pool executor so the loop stays responsive to
other connections. Per-stream ordering is preserved where it matters:
frames of one connection are applied strictly in order, and sessions
serialise concurrent writers under their own lock.

Trust model: **no pickle on the wire.** CONTROL payloads are RSX2 —
decoding hostile bytes can raise :class:`~repro.errors.ProtocolError`
or allocate up to the frame cap (``ServiceConfig.max_frame_bytes``,
enforced on header bytes before any allocation), never execute code.
With ``ServiceConfig.auth_key`` set, every frame additionally carries
an HMAC-SHA256 tag under a per-connection session key (see
:class:`~repro.streams.transport.FrameAuth`): unkeyed or wrong-keyed
peers are rejected at HELLO. The two controls compose: HMAC narrows
*who* can speak to holders of the shared key; RSX2 + schema
validation narrows *what* any peer — keyed or not — can make the
service do.
"""

from __future__ import annotations

import asyncio
import functools
import socket
import threading
import time
import traceback

from repro.errors import (
    ConfigurationError,
    OperationTimeoutError,
    PeerLostError,
    ProtocolError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.graph.stream import EventBlock
from repro.streams.codec import (
    decode as _decode_payload,
    encode as _encode_payload,
    validate_service_reply,
    validate_service_request,
)
from repro.streams.executor import ExecutorOptions, as_event_block
from repro.streams.queries import run_query
from repro.streams.service import StreamConfig
from repro.streams.transport import (
    FRAME_BLOCK,
    FRAME_CONTROL,
    FRAME_HEARTBEAT,
    FRAME_HEADER_SIZE,
    FrameAuth,
    accept_hello,
    block_from_frame,
    frame_bytes,
    initiate_hello,
    parse_address,
    parse_frame_header,
    read_frame,
    write_frame,
)
from repro.utils.text import clip_text

__all__ = ["StreamIngestServer", "ServiceClient"]


#: Most events one run of buffered BLOCK frames may carry, so a run
#: holds the session lock no longer than one 8,192-event frame does.
_RUN_MAX_EVENTS = 8192

#: Bytes asked of the ``StreamReader`` per read: more than it buffers
#: before it pauses the socket, so one read takes all it holds.
_READ_BYTES = 256 * 1024


class _FrameReader:
    """One connection's frames, cut from a per-connection byte buffer.

    Bytes arrive through the public :meth:`asyncio.StreamReader.read`,
    which hands over everything the stream has buffered, so the frames
    that already arrived in full are visible here without waiting for
    another byte (:meth:`buffered_blocks`).

    ``idle_timeout`` bounds the wait for the *next* frame to start: a
    peer that sends nothing at all (not even a HEARTBEAT) for the whole
    window raises :class:`~repro.errors.PeerLostError`. A frame that has
    started arriving is read to completion without the bound. The frame
    cap (``max_frame_bytes``) is checked on header bytes, before the
    payload is read.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        idle_timeout: float | None = None,
        max_frame_bytes: int | None = None,
    ) -> None:
        self._reader = reader
        self._idle_timeout = idle_timeout
        self._max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        #: Offset of the first buffered byte not yet handed out.
        self._start = 0

    def _pending(self) -> int:
        return len(self._buffer) - self._start

    def _header(self) -> tuple[int, int]:
        start = self._start
        return parse_frame_header(
            bytes(self._buffer[start:start + FRAME_HEADER_SIZE]),
            self._max_frame_bytes,
        )

    async def _fill(self) -> bool:
        """Append the stream's next bytes; ``False`` at end of stream."""
        del self._buffer[: self._start]
        self._start = 0
        read = self._reader.read(_READ_BYTES)
        if self._buffer or self._idle_timeout is None:
            chunk = await read
        else:
            try:
                chunk = await asyncio.wait_for(read, self._idle_timeout)
            except asyncio.TimeoutError:
                raise PeerLostError(
                    "peer sent no frame (not even a heartbeat) for "
                    f"{self._idle_timeout}s"
                ) from None
        self._buffer += chunk
        return bool(chunk)

    async def read_frame(self) -> tuple[int, bytes] | None:
        """The next frame, reading as needed; ``None`` on clean close."""
        while self._pending() < FRAME_HEADER_SIZE:
            if not await self._fill():
                if not self._buffer:
                    return None
                raise ProtocolError(
                    f"connection closed mid-header ({len(self._buffer)} "
                    f"of {FRAME_HEADER_SIZE} bytes)"
                )
        kind, length = self._header()
        while self._pending() < FRAME_HEADER_SIZE + length:
            if not await self._fill():
                raise ProtocolError(
                    "connection closed mid-frame "
                    f"({self._pending() - FRAME_HEADER_SIZE} of {length} "
                    "payload bytes)"
                )
        begin = self._start + FRAME_HEADER_SIZE
        self._start = begin + length
        return kind, bytes(self._buffer[begin:self._start])

    def buffered_blocks(
        self, first: EventBlock, auth: FrameAuth | None = None
    ) -> list[EventBlock]:
        """``first`` plus the BLOCK frames already whole in the buffer.

        Takes frames in order while each is a complete, verified,
        well-formed BLOCK frame and the run stays within
        :data:`_RUN_MAX_EVENTS` (a first block above the cap runs
        alone). The first frame that is anything else — CONTROL,
        HEARTBEAT, partial, over the cap, or malformed — stays in the
        buffer for :meth:`read_frame`, so queries see every block sent
        before them and a bad frame fails exactly as it would alone.
        Never waits for bytes.
        """
        run = [first]
        room = _RUN_MAX_EVENTS - len(first)
        tag_bytes = 0 if auth is None else FrameAuth.TAG_BYTES
        while self._pending() >= FRAME_HEADER_SIZE:
            try:
                kind, length = self._header()
            except ProtocolError:
                break
            if (
                kind != FRAME_BLOCK
                or self._pending() < FRAME_HEADER_SIZE + length
                or length - tag_bytes > EventBlock.byte_size(room)
            ):
                break
            begin = self._start + FRAME_HEADER_SIZE
            payload = bytes(self._buffer[begin:begin + length])
            try:
                if auth is not None:
                    payload = auth.verify(kind, payload)
                block = block_from_frame(payload)
            except ProtocolError:
                break
            self._start = begin + length
            run.append(block)
            room -= len(block)
        return run


def _ingest_run(
    session, run: list[EventBlock]
) -> list[ServiceOverloadedError]:
    """Apply one run of BLOCK frames; return one rejection per shed frame.

    Chunk boundaries never change results, so the run goes in as one
    concatenated block. If the WAL hard limit sheds it (atomically:
    nothing applied), the frames are applied one at a time instead, so
    exactly the frames that fit land, as if each had arrived alone.
    """
    if len(run) > 1:
        try:
            session.ingest(run[0].concat(*run[1:]))
            return []
        except ServiceOverloadedError:
            pass
    shed = []
    for block in run:
        try:
            session.ingest(block)
        except ServiceOverloadedError as exc:
            shed.append(exc)
    return shed


def _control_reply(
    op: str, token, value, auth: FrameAuth | None = None
) -> bytes:
    return frame_bytes(FRAME_CONTROL, _encode_payload((op, token, value)), auth)


class StreamIngestServer:
    """The asyncio ingestion front of one :class:`CountingService`.

    Runs a dedicated event loop in a daemon thread; :meth:`start`
    returns the bound ``host:port`` (port 0 in ``listen`` picks a free
    one). One coroutine per connection; blocking session work is pushed
    to the default thread-pool executor.
    """

    def __init__(self, service, listen: str = "127.0.0.1:0") -> None:
        self._service = service
        self._host, self._port = parse_address(listen)
        config = getattr(service, "config", None)
        #: Idle deadline: drop a connection whose peer sends nothing
        #: (not even a HEARTBEAT) for this long. ``None`` = patient.
        self._idle_timeout = getattr(config, "heartbeat_timeout", None)
        #: Per-frame payload cap, enforced on header bytes before any
        #: allocation. ``None`` = :data:`DEFAULT_MAX_FRAME_BYTES`.
        self._max_frame_bytes = getattr(config, "max_frame_bytes", None)
        auth_key = getattr(config, "auth_key", None)
        self._static_auth = None if auth_key is None else FrameAuth(auth_key)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        #: The bound ``host:port`` once started.
        self.address: str | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> str:
        if self._thread is not None:
            raise ServiceError("ingest server already started")
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        boot_errors: list[BaseException] = []

        def run() -> None:
            loop = self._loop
            asyncio.set_event_loop(loop)
            try:
                self._server = loop.run_until_complete(
                    asyncio.start_server(
                        self._serve_connection, self._host, self._port
                    )
                )
            except BaseException as exc:  # surface bind failures to start()
                boot_errors.append(exc)
                started.set()
                return
            sockname = self._server.sockets[0].getsockname()
            self.address = f"{sockname[0]}:{sockname[1]}"
            started.set()
            try:
                loop.run_forever()
            finally:
                self._server.close()
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.run_until_complete(self._server.wait_closed())
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-service-ingest", daemon=True
        )
        self._thread.start()
        started.wait()
        if boot_errors:
            self._thread.join(timeout=5)
            self._thread = None
            raise boot_errors[0]
        assert self.address is not None
        return self.address

    def stop(self) -> None:
        """Stop accepting and drop live connections (idempotent)."""
        loop, thread = self._loop, self._thread
        if loop is not None and not loop.is_closed() and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=10)
        self._thread = None
        self._loop = None
        self._server = None

    # -- connection handling -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        session = None
        auth: FrameAuth | None = None
        frames = _FrameReader(
            reader, self._idle_timeout, self._max_frame_bytes
        )
        try:
            hello, auth = accept_hello(
                await frames.read_frame(), "service", auth=self._static_auth
            )
            writer.write(hello)
            await writer.drain()
            while True:
                frame = await frames.read_frame()
                if frame is None:
                    return
                kind, payload = frame
                if auth is not None:
                    payload = auth.verify(kind, payload)
                if kind == FRAME_HEARTBEAT:
                    # Liveness ping: echo it so the client's reply
                    # reads observe a live socket too.
                    writer.write(frame_bytes(FRAME_HEARTBEAT, b"", auth))
                    await writer.drain()
                    continue
                if kind == FRAME_BLOCK:
                    if session is None:
                        raise ServiceError(
                            "received an event block before create/attach "
                            "selected a stream"
                        )
                    # One session batch for this frame and every BLOCK
                    # frame already buffered behind it.
                    run = frames.buffered_blocks(
                        block_from_frame(payload), auth
                    )
                    shed = await loop.run_in_executor(
                        None, _ingest_run, session, run
                    )
                    if shed:
                        # Backpressure is not connection-fatal: each
                        # shed block was atomically rejected (no partial
                        # state), so report out-of-band (token None),
                        # once per frame, and keep serving — the client
                        # re-sends.
                        for exc in shed:
                            writer.write(
                                _control_reply(
                                    "overloaded",
                                    None,
                                    {
                                        "retry_after": exc.retry_after,
                                        "message": str(exc),
                                    },
                                    auth,
                                )
                            )
                        await writer.drain()
                    continue
                if kind != FRAME_CONTROL:
                    raise ProtocolError(
                        f"unexpected frame kind {kind} mid-session"
                    )
                message = validate_service_request(_decode_payload(payload))
                op, token = message[0], message[1]
                try:
                    if op == "create":
                        _, _, name, config_dict, options_dict = message
                        config = StreamConfig.from_dict(config_dict)
                        options = (
                            ExecutorOptions.from_dict(options_dict)
                            if options_dict is not None
                            else None
                        )
                        session = await loop.run_in_executor(
                            None,
                            functools.partial(
                                self._service.create_stream,
                                name,
                                config,
                                options=options,
                            ),
                        )
                        value = {"name": name, "clock": session.clock}
                    elif op == "attach":
                        session = self._service.get_stream(message[2])
                        value = {
                            "name": session.name,
                            "clock": session.clock,
                            "config": session.config.to_dict(),
                        }
                    elif op == "ingest":
                        # The acknowledged write: one block, applied
                        # before the reply, so overload surfaces here.
                        if session is None:
                            raise ServiceError(
                                "no stream selected; create or attach first"
                            )
                        block = message[2]
                        await loop.run_in_executor(
                            None, session.ingest, block
                        )
                        value = len(block)
                    elif op == "query":
                        _, _, query_kind, query_args = message
                        if session is None:
                            raise ServiceError(
                                "no stream selected; create or attach first"
                            )
                        value = await loop.run_in_executor(
                            None, run_query, session, query_kind, query_args
                        )
                    elif op == "checkpoint":
                        if session is None:
                            raise ServiceError(
                                "no stream selected; create or attach first"
                            )
                        await loop.run_in_executor(None, session.checkpoint)
                        value = {
                            "clock": session.clock,
                            "durable": session.durable,
                        }
                    elif op == "streams":
                        value = list(self._service.streams())
                    else:
                        raise ProtocolError(f"unknown control op {op!r}")
                    reply = _control_reply(op, token, value, auth)
                except asyncio.CancelledError:
                    raise
                except ServiceOverloadedError as exc:
                    # WAL hard limit: a typed, retryable rejection —
                    # not worth a traceback, and never fatal.
                    reply = _control_reply(
                        "overloaded",
                        token,
                        {
                            "retry_after": exc.retry_after,
                            "message": str(exc),
                        },
                        auth,
                    )
                except Exception:
                    # Control failures are per-request: report with the
                    # (size-capped) remote traceback, keep the
                    # connection alive.
                    reply = _control_reply(
                        "error", token, clip_text(traceback.format_exc()), auth
                    )
                writer.write(reply)
                await writer.drain()
        except asyncio.CancelledError:
            # Cancellation only originates from our own stop(); finish
            # quietly so asyncio's stream-protocol done-callback does
            # not log a spurious traceback for every open connection.
            return
        except (ConnectionError, OSError):
            pass  # peer vanished; nothing to report to
        except Exception:
            # Protocol violations, idle-deadline expiry, and block-path
            # ingest failures are connection-fatal: report once (token
            # None), then drop.
            try:
                writer.write(
                    _control_reply(
                        "error", None, clip_text(traceback.format_exc()), auth
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionError,
                OSError,
                # stop() can cancel us while the close handshake (or
                # an unread error reply to a gone peer) is pending.
                asyncio.CancelledError,
            ):  # pragma: no cover
                pass


class ServiceClient:
    """Blocking client for one counting-service connection.

    A connection addresses one stream at a time: :meth:`create_stream`
    or :meth:`attach` selects it, then :meth:`send_block` /
    :meth:`send_events` push events (fire-and-forget pipelining) and
    the query helpers read. Service-side failures raise
    :class:`~repro.errors.ServiceError` carrying the remote traceback.

    Liveness: every reply wait is bounded by ``op_timeout`` (a hung or
    silently dead service raises the retryable
    :class:`~repro.errors.OperationTimeoutError` instead of hanging the
    caller forever). With ``heartbeat_interval`` set, a daemon thread
    pings the service between requests — keeping an idle connection
    alive past the server's idle deadline, and turning a dead peer into
    :class:`~repro.errors.PeerLostError` at the next call. A block or
    request shed by the service's WAL hard limit raises
    :class:`~repro.errors.ServiceOverloadedError` with the server's
    retry-after hint.

    ``auth_key`` must match the service's ``--auth-key``; every frame
    is then HMAC-signed under a per-connection session key.

    Not thread-safe: one thread drives a client (the internal
    heartbeat thread is coordinated via a send lock).
    """

    def __init__(
        self,
        address: str,
        *,
        connect_timeout: float = 10.0,
        op_timeout: float | None = 60.0,
        heartbeat_interval: float | None = None,
        auth_key: str | None = None,
        max_frame_bytes: int | None = None,
    ) -> None:
        if op_timeout is not None and op_timeout <= 0:
            raise ConfigurationError(
                f"op_timeout must be positive or None, got {op_timeout}"
            )
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ConfigurationError(
                "heartbeat_interval must be positive or None, got "
                f"{heartbeat_interval}"
            )
        host, port = parse_address(address)
        self.address = address
        #: Deadline for every token-matched reply wait (``None`` waits
        #: forever, the pre-liveness behaviour).
        self.op_timeout = op_timeout
        #: Per-frame payload cap for replies (``None`` uses
        #: :data:`~repro.streams.transport.DEFAULT_MAX_FRAME_BYTES`).
        self._max_frame_bytes = max_frame_bytes
        self._auth: FrameAuth | None = None
        self._send_lock = threading.Lock()
        self._peer_lost: str | None = None
        self._heartbeat_stop = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise ServiceError(
                f"cannot connect to counting service {address}: {exc}"
            ) from exc
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._auth = initiate_hello(
                self._sock,
                "client",
                peer=f"counting service {address}",
                deadline=time.monotonic() + connect_timeout,
                auth_key=auth_key,
            )
            self._sock.settimeout(None)
        except BaseException:
            self._sock.close()
            raise
        self._token = 0
        #: Name of the stream this connection is attached to.
        self.stream: str | None = None
        if heartbeat_interval is not None:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                args=(heartbeat_interval,),
                name="repro-client-heartbeat",
                daemon=True,
            )
            self._heartbeat_thread.start()

    # -- plumbing ------------------------------------------------------------

    def _heartbeat_loop(self, interval: float) -> None:
        """Ping between requests; a failed ping marks the peer lost.

        Sends never change the socket timeout (the app thread owns
        it): a ``TimeoutError`` here just means the send buffer is
        full — backpressure, not death, and the queued bytes prove
        liveness to the server once they land.
        """
        while not self._heartbeat_stop.wait(interval):
            try:
                with self._send_lock:
                    if self._peer_lost is not None:
                        return
                    self._sock.sendall(
                        frame_bytes(FRAME_HEARTBEAT, b"", self._auth)
                    )
            except TimeoutError:
                continue
            except OSError as exc:
                if not self._heartbeat_stop.is_set():
                    self._peer_lost = f"heartbeat send failed: {exc}"
                return

    def _raise_if_lost(self) -> None:
        if self._peer_lost is not None:
            raise PeerLostError(
                f"counting service {self.address} is unreachable "
                f"({self._peer_lost})"
            )

    def _send_frame(self, kind: int, payload) -> None:
        self._raise_if_lost()
        try:
            with self._send_lock:
                self._sock.settimeout(None)
                write_frame(self._sock, kind, payload, self._auth)
        except OSError as exc:
            self._raise_if_lost()
            # The server reports connection-fatal failures and then
            # drops the link; our send can hit the broken pipe before
            # we ever read that report. Salvage it if it is there.
            failure = self._drain_error()
            if failure is not None:
                raise ServiceError(
                    f"counting service {self.address} reported:\n{failure}"
                ) from exc
            raise ServiceError(
                f"connection to counting service {self.address} broke "
                f"mid-send: {exc}"
            ) from exc

    def _drain_error(self) -> str | None:
        """Best-effort read of a pending ``("error", None, ...)`` reply."""
        deadline = time.monotonic() + 1.0
        try:
            self._sock.settimeout(0.1)
            while True:
                frame = read_frame(
                    self._sock,
                    deadline=deadline,
                    auth=self._auth,
                    max_frame_bytes=self._max_frame_bytes,
                )
                if frame is None:
                    return None
                kind, payload = frame
                if kind != FRAME_CONTROL:
                    continue
                reply = _decode_payload(payload)
                if (
                    isinstance(reply, tuple)
                    and len(reply) == 3
                    and reply[0] == "error"
                    and isinstance(reply[2], str)
                ):
                    return reply[2]
        except Exception:
            return None

    def _read_reply(self, deadline: float | None) -> tuple:
        """One decoded CONTROL reply, skipping heartbeat echoes."""
        while True:
            try:
                if deadline is None:
                    self._sock.settimeout(None)
                    frame = read_frame(
                        self._sock,
                        auth=self._auth,
                        max_frame_bytes=self._max_frame_bytes,
                    )
                else:
                    # Finite socket timeout = the deadline's poll tick.
                    self._sock.settimeout(0.1)
                    frame = read_frame(
                        self._sock,
                        deadline=deadline,
                        auth=self._auth,
                        max_frame_bytes=self._max_frame_bytes,
                    )
            except TimeoutError:
                raise OperationTimeoutError(
                    f"counting service {self.address} sent no reply "
                    f"within {self.op_timeout}s"
                ) from None
            except OSError as exc:
                self._raise_if_lost()
                raise ServiceError(
                    f"connection to counting service {self.address} "
                    f"broke mid-reply: {exc}"
                ) from exc
            if frame is None:
                self._raise_if_lost()
                raise ServiceError(
                    f"counting service {self.address} closed the "
                    "connection"
                )
            kind, payload = frame
            if kind == FRAME_HEARTBEAT:
                continue  # server echo of our liveness ping
            if kind != FRAME_CONTROL:
                raise ProtocolError(
                    f"expected a control reply, got frame kind {kind}"
                )
            return validate_service_reply(_decode_payload(payload))

    def _overloaded(self, info) -> ServiceOverloadedError:
        info = info if isinstance(info, dict) else {}
        message = info.get("message") or (
            f"counting service {self.address} is overloaded"
        )
        return ServiceOverloadedError(
            message, retry_after=info.get("retry_after")
        )

    def _control(self, op: str, *rest):
        self._token += 1
        token = self._token
        self._send_frame(FRAME_CONTROL, _encode_payload((op, token, *rest)))
        deadline = (
            None
            if self.op_timeout is None
            else time.monotonic() + self.op_timeout
        )
        overload: ServiceOverloadedError | None = None
        while True:
            reply = self._read_reply(deadline)
            if reply[0] == "overloaded":
                if reply[1] is None:
                    # Out-of-band: an earlier fire-and-forget block was
                    # shed. Our request's own reply is still coming —
                    # stay in sync, then surface the rejection.
                    overload = overload or self._overloaded(reply[2])
                    continue
                if reply[1] != token:
                    raise ProtocolError(
                        f"out-of-order reply {reply[:2]!r} to "
                        f"({op!r}, {token})"
                    )
                raise self._overloaded(reply[2])
            if reply[0] == "error":
                raise ServiceError(
                    f"counting service {self.address} reported:\n{reply[2]}"
                )
            if reply[0] != op or reply[1] != token:
                raise ProtocolError(
                    f"out-of-order reply {reply[:2]!r} to ({op!r}, {token})"
                )
            if overload is not None:
                # The request succeeded, but a pipelined block was
                # dropped: the caller must know to re-send it.
                raise overload
            return reply[2]

    # -- stream selection ----------------------------------------------------

    def create_stream(
        self,
        name: str,
        config,
        *,
        options: ExecutorOptions | None = None,
    ) -> dict:
        """Create a named stream and attach this connection to it."""
        info = self._control(
            "create",
            name,
            config.to_dict(),
            options.to_dict() if options is not None else None,
        )
        self.stream = name
        return info

    def attach(self, name: str) -> dict:
        """Attach this connection to an existing stream."""
        info = self._control("attach", name)
        self.stream = name
        return info

    def streams(self) -> list[str]:
        """The service's registered stream names."""
        return self._control("streams")

    # -- write path ----------------------------------------------------------

    def send_block(self, block: EventBlock) -> None:
        """Push one columnar block (fire-and-forget, pipelines).

        If the service sheds the block (WAL hard limit), the typed
        rejection surfaces as :class:`ServiceOverloadedError` on the
        next acknowledged call (any query/checkpoint/control op).
        """
        self._send_frame(FRAME_BLOCK, block.to_bytes())

    def send_events(self, events) -> None:
        """Push an event batch as one block, like :meth:`send_block`.

        A label that does not fit an int64 raises before any byte is
        sent (:func:`~repro.streams.executor.as_event_block`).
        """
        block = as_event_block(events)
        if len(block):
            self.send_block(block)

    def ingest(self, events) -> int:
        """Push an event batch and wait for the ack (no pipelining).

        The acknowledged alternative to :meth:`send_events` (one block,
        converted the same way): overload rejections surface here.
        """
        return self._control("ingest", as_event_block(events))

    # -- read path -----------------------------------------------------------

    def query(self, kind: str, **args):
        """One named query against the attached stream (a barrier)."""
        return self._control("query", kind, args)

    def estimate(self) -> float:
        return float(self.query("estimate"))

    def time(self) -> int:
        return int(self.query("time"))

    def shard_times(self) -> list[int]:
        return self.query("shard_times")

    def shard_estimates(self) -> list[float]:
        return self.query("shard_estimates")

    def stats(self) -> dict:
        """Estimate + clocks as one consistent snapshot dict."""
        return self.query("stats")

    def top_vertices(self, k: int = 10) -> list[tuple[object, float]]:
        return [tuple(item) for item in self.query("top_vertices", k=k)]

    def local_counts(self, vertices) -> dict:
        return self.query("local_counts", vertices=list(vertices))

    # -- durability ----------------------------------------------------------

    def checkpoint(self) -> dict:
        """Force a checkpoint of the attached stream (a barrier)."""
        return self._control("checkpoint")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._heartbeat_stop.set()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=2)
            self._heartbeat_thread = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ServiceClient(address={self.address!r}, "
            f"stream={self.stream!r})"
        )
