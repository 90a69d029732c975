"""RSX2: the self-describing binary codec for control payloads.

Protocol version 2 retired :mod:`pickle` from every byte that crosses a
socket or touches a disk. CONTROL frames, host-agent leases and
replies, and write-ahead-log spill segments all carry payloads encoded
here instead: a small tagged format (stdlib ``struct`` only) that can
express exactly the value shapes the control protocols need — ``None``,
booleans, 64-bit and big integers, floats, UTF-8 strings, bytes,
lists, tuples, string/int-keyed dicts, plus two domain values,
:class:`~repro.graph.stream.EventBlock` (the one event form on the
wire since protocol version 3) and
:class:`~repro.graph.stream.EdgeEvent` (read back from WAL segments
that protocol-2 builds wrote) — and nothing else. Decoding
hostile bytes can therefore produce a value or a typed
:class:`~repro.errors.ProtocolError`; it can never execute code, and
hard limits make it unable to amplify: a declared container count is
checked against the bytes actually remaining (every element costs at
least one tag byte, so a length-field lie fails before any
allocation), string/bytes lengths are bounds-checked before slicing,
and nesting beyond :data:`MAX_DEPTH` is rejected outright.

Tuples and lists are distinct tags on purpose: the control protocols
compare reply prefixes against tuples (``reply[:2] == ("lease", i)``),
so round-tripping a tuple into a list would silently break dispatch.
Dict keys are restricted to ints and strings — the only key types the
protocols use (per-vertex counters, JSON-shaped config dicts).

The second half of this module is the **schema layer**: decoded
messages are still arbitrary well-formed values, so every front
validates shape before dispatch — op whitelist, field types, bounds —
via :func:`validate_host_request` / :func:`validate_host_reply` /
:func:`validate_service_request` / :func:`validate_service_reply`.
A message that decodes but does not validate is the same class of
failure as one that does not decode: :class:`~repro.errors.ProtocolError`.

WAL spill segments add a CRC-32 frame on top
(:func:`wal_to_wire` / :func:`wal_from_wire`): magic, format version,
checksum, and payload length, so a truncated or bit-flipped segment is
detected *as corruption* and can be quarantined rather than replayed.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import ProtocolError
from repro.graph.stream import DELETE, INSERT, EdgeEvent, EventBlock

__all__ = [
    "MAX_DEPTH",
    "encode",
    "decode",
    "wal_to_wire",
    "wal_from_wire",
    "WAL_MAGIC",
    "WAL_VERSION",
    "HOST_REQUEST_OPS",
    "HOST_REPLY_OPS",
    "SERVICE_REQUEST_OPS",
    "SERVICE_REPLY_OPS",
    "validate_host_request",
    "validate_host_reply",
    "validate_service_request",
    "validate_service_reply",
    "validate_weight_spec",
]

#: Hard bound on value nesting. The deepest real control message is a
#: dict inside a tuple inside a tuple; 32 leaves room without letting
#: a crafted payload recurse the decoder into the ground.
MAX_DEPTH = 32

# One tag byte per value. Gaps left for future scalars.
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT64 = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_BIGINT = 0x0A
_T_EVENT = 0x0B
_T_BLOCK = 0x0C

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Cap on a big-integer payload (bytes). 512 bytes is a 4096-bit
#: integer — far beyond any vertex label or counter, small enough that
#: a bignum can never be an allocation bomb.
_MAX_BIGINT_BYTES = 512


# -- encoding -----------------------------------------------------------------


def _encode_int(out: bytearray, value: int) -> None:
    if _INT64_MIN <= value <= _INT64_MAX:
        out.append(_T_INT64)
        out += _I64.pack(value)
        return
    raw = value.to_bytes(
        (value.bit_length() + 8) // 8, "little", signed=True
    )
    if len(raw) > _MAX_BIGINT_BYTES:
        raise ProtocolError(
            f"integer too large for the control codec "
            f"({len(raw)} bytes, cap {_MAX_BIGINT_BYTES})"
        )
    out.append(_T_BIGINT)
    out.append(len(raw))
    out += raw


def _encode_into(out: bytearray, obj, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise ProtocolError(
            f"value nests deeper than the codec limit ({MAX_DEPTH})"
        )
    if obj is None:
        out.append(_T_NONE)
    elif obj is True:
        out.append(_T_TRUE)
    elif obj is False:
        out.append(_T_FALSE)
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append(_T_TRUE if obj else _T_FALSE)
    elif isinstance(obj, int):
        _encode_int(out, obj)
    elif isinstance(obj, float):
        out.append(_T_FLOAT)
        out += _F64.pack(obj)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        out.append(_T_BYTES)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(obj, EdgeEvent):
        out.append(_T_EVENT)
        out.append(1 if obj.op == INSERT else 0)
        u, v = obj.edge
        _encode_into(out, u, depth + 1)
        _encode_into(out, v, depth + 1)
    elif isinstance(obj, EventBlock):
        raw = obj.to_bytes()
        out.append(_T_BLOCK)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(obj, tuple):
        out.append(_T_TUPLE)
        out += _U32.pack(len(obj))
        for item in obj:
            _encode_into(out, item, depth + 1)
    elif isinstance(obj, list):
        out.append(_T_LIST)
        out += _U32.pack(len(obj))
        for item in obj:
            _encode_into(out, item, depth + 1)
    elif isinstance(obj, dict):
        out.append(_T_DICT)
        out += _U32.pack(len(obj))
        for key, value in obj.items():
            if isinstance(key, bool) or not isinstance(key, (int, str)):
                if isinstance(key, np.integer):
                    key = int(key)
                else:
                    raise ProtocolError(
                        "control codec dict keys must be int or str, "
                        f"got {type(key).__name__}"
                    )
            _encode_into(out, key, depth + 1)
            _encode_into(out, value, depth + 1)
    elif isinstance(obj, np.integer):
        _encode_int(out, int(obj))
    elif isinstance(obj, np.floating):
        out.append(_T_FLOAT)
        out += _F64.pack(float(obj))
    else:
        raise ProtocolError(
            f"type {type(obj).__name__} has no control-codec encoding"
        )


def encode(obj) -> bytes:
    """Encode one control value as RSX2 bytes.

    Raises :class:`~repro.errors.ProtocolError` for values outside the
    codec's vocabulary — by design there is no escape hatch to an
    arbitrary-object serialiser.
    """
    out = bytearray()
    _encode_into(out, obj, 0)
    return bytes(out)


# -- decoding -----------------------------------------------------------------


class _Decoder:
    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.end = len(data)

    def _take(self, n: int) -> bytes:
        if n > self.end - self.pos:
            raise ProtocolError(
                f"truncated control payload: needs {n} more bytes, "
                f"{self.end - self.pos} remain"
            )
        start = self.pos
        self.pos = start + n
        return self.data[start:self.pos]

    def _count(self, per_item: int, what: str) -> int:
        """Read a u32 count, bounded by the bytes actually remaining.

        Every encoded element costs at least ``per_item`` bytes, so a
        declared count above ``remaining / per_item`` is a lie — reject
        it before allocating anything proportional to it.
        """
        (count,) = _U32.unpack(self._take(4))
        if count * per_item > self.end - self.pos:
            raise ProtocolError(
                f"{what} declares {count} elements but only "
                f"{self.end - self.pos} payload bytes remain"
            )
        return count

    def value(self, depth: int):
        if depth > MAX_DEPTH:
            raise ProtocolError(
                f"payload nests deeper than the codec limit ({MAX_DEPTH})"
            )
        tag = self._take(1)[0]
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT64:
            return _I64.unpack(self._take(8))[0]
        if tag == _T_FLOAT:
            return _F64.unpack(self._take(8))[0]
        if tag == _T_STR:
            (n,) = _U32.unpack(self._take(4))
            try:
                return self._take(n).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(
                    "control payload string is not valid UTF-8"
                ) from exc
        if tag == _T_BYTES:
            (n,) = _U32.unpack(self._take(4))
            return self._take(n)
        if tag == _T_BIGINT:
            n = self._take(1)[0]
            if n == 0 or n > _MAX_BIGINT_BYTES:
                raise ProtocolError(f"bad big-integer length {n}")
            return int.from_bytes(self._take(n), "little", signed=True)
        if tag == _T_LIST:
            count = self._count(1, "list")
            return [self.value(depth + 1) for _ in range(count)]
        if tag == _T_TUPLE:
            count = self._count(1, "tuple")
            return tuple(self.value(depth + 1) for _ in range(count))
        if tag == _T_DICT:
            count = self._count(2, "dict")
            result = {}
            for _ in range(count):
                key = self.value(depth + 1)
                if isinstance(key, bool) or not isinstance(key, (int, str)):
                    raise ProtocolError(
                        "control payload dict key must be int or str, "
                        f"got {type(key).__name__}"
                    )
                result[key] = self.value(depth + 1)
            return result
        if tag == _T_EVENT:
            op_byte = self._take(1)[0]
            if op_byte not in (0, 1):
                raise ProtocolError(f"bad event op byte {op_byte}")
            u = self.value(depth + 1)
            v = self.value(depth + 1)
            for label in (u, v):
                if isinstance(label, bool) or not isinstance(
                    label, (int, str)
                ):
                    raise ProtocolError(
                        "event vertex labels must be int or str, got "
                        f"{type(label).__name__}"
                    )
            try:
                return EdgeEvent(INSERT if op_byte else DELETE, (u, v))
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"undecodable event: {exc}") from exc
        if tag == _T_BLOCK:
            (n,) = _U32.unpack(self._take(4))
            raw = self._take(n)
            try:
                block = EventBlock.from_buffer(raw)
            except (ValueError, struct.error) as exc:
                raise ProtocolError(
                    f"undecodable embedded EventBlock: {exc}"
                ) from exc
            if EventBlock.byte_size(len(block)) != n:
                raise ProtocolError(
                    f"embedded EventBlock length mismatch: {n} bytes "
                    f"for a declared {len(block)}-event block"
                )
            return block
        raise ProtocolError(f"unknown control codec tag 0x{tag:02x}")


def decode(payload) -> object:
    """Decode one RSX2 value; reject trailing bytes.

    Any malformation — unknown tag, truncation, length-field lie,
    over-deep nesting, invalid UTF-8 — raises
    :class:`~repro.errors.ProtocolError`; hostile input cannot reach
    an allocation larger than the payload itself.
    """
    decoder = _Decoder(bytes(payload))
    value = decoder.value(0)
    if decoder.pos != decoder.end:
        raise ProtocolError(
            f"control payload carries {decoder.end - decoder.pos} "
            "trailing bytes after the encoded value"
        )
    return value


# -- WAL segment framing ------------------------------------------------------

WAL_MAGIC = b"RWL1"
WAL_VERSION = 1
#: magic, version, CRC-32 of the payload, payload length.
_WAL_HEADER = struct.Struct("<4sBxxxII")


def wal_to_wire(entries: list) -> bytes:
    """Frame one WAL spill segment: header + CRC + RSX2 entry list.

    Each entry is what the session's in-memory WAL holds — an
    :class:`EventBlock` — encoded with the control codec, so segments
    read back through the same typed, bounded decode path as network
    frames.
    """
    payload = encode(list(entries))
    header = _WAL_HEADER.pack(
        WAL_MAGIC, WAL_VERSION, zlib.crc32(payload), len(payload)
    )
    return header + payload


def wal_from_wire(blob: bytes) -> list:
    """Decode one WAL segment, verifying magic, version, length, CRC.

    Every corruption mode a disk can produce — zero-length file,
    truncation, bit flip, wrong format — raises
    :class:`~repro.errors.ProtocolError` so the caller can quarantine
    the segment instead of crashing on garbage. Entries are blocks, or
    :class:`EdgeEvent` lists in segments that protocol-2 builds wrote.
    """
    blob = bytes(blob)
    if len(blob) < _WAL_HEADER.size:
        raise ProtocolError(
            f"WAL segment too short for a header ({len(blob)} bytes)"
        )
    magic, version, crc, length = _WAL_HEADER.unpack(
        blob[:_WAL_HEADER.size]
    )
    if magic != WAL_MAGIC:
        raise ProtocolError(f"bad WAL segment magic {magic!r}")
    if version != WAL_VERSION:
        raise ProtocolError(
            f"WAL segment format {version} unsupported "
            f"(this build writes {WAL_VERSION})"
        )
    payload = blob[_WAL_HEADER.size:]
    if len(payload) != length:
        raise ProtocolError(
            f"WAL segment truncated: header declares {length} payload "
            f"bytes, {len(payload)} present"
        )
    if zlib.crc32(payload) != crc:
        raise ProtocolError("WAL segment CRC mismatch (corrupt bytes)")
    entries = decode(payload)
    if not isinstance(entries, list):
        raise ProtocolError(
            "WAL segment payload is not an entry list"
        )
    for entry in entries:
        if isinstance(entry, EventBlock):
            continue
        if isinstance(entry, list) and all(
            isinstance(event, EdgeEvent) for event in entry
        ):
            continue
        raise ProtocolError(
            "WAL segment entry is neither an EventBlock nor an "
            "EdgeEvent list"
        )
    return entries


# -- schema validation --------------------------------------------------------
#
# Decoding bounds *how much* a payload can be; these bound *what*. Each
# front validates the full message shape before dispatch, so protocol
# handlers only ever see the tuples they were written for.

#: Upper bound on a shard index in a lease. Executors shard far below
#: this; its job is to reject nonsense before it names a thread.
_MAX_SHARD_INDEX = 1 << 20

#: Upper bound on a stream/spec/query name. Service names are further
#: validated by the session registry; this stops megabyte "names".
_MAX_NAME_CHARS = 256

_NO_TOKEN = object()


def _fail(front: str, detail: str) -> ProtocolError:
    return ProtocolError(f"invalid {front} message: {detail}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_tuple(message, front: str) -> tuple:
    if not isinstance(message, tuple) or not message:
        raise _fail(front, "not a non-empty tuple")
    if not isinstance(message[0], str):
        raise _fail(front, "op is not a string")
    return message


def _check_token(token, front: str, *, allow_none: bool = False):
    if token is None and allow_none:
        return token
    if not _is_int(token) or token < 0:
        raise _fail(front, f"bad token {token!r}")
    return token


def _check_name(name, front: str, what: str) -> str:
    if not isinstance(name, str) or not name:
        raise _fail(front, f"{what} is not a non-empty string")
    if len(name) > _MAX_NAME_CHARS:
        raise _fail(
            front, f"{what} longer than {_MAX_NAME_CHARS} characters"
        )
    return name


def validate_weight_spec(spec, front: str = "lease"):
    """Validate a named weight-spec entry: ``None`` or ``(name, params)``.

    ``params`` values are restricted to scalars — a spec names a
    registered builder and feeds it keyword numbers/strings, nothing
    richer (that is the point of retiring pickled callables).
    """
    if spec is None:
        return spec
    if not (isinstance(spec, tuple) and len(spec) == 2):
        raise _fail(front, "weight spec is not (name, params)")
    name, params = spec
    _check_name(name, front, "weight spec name")
    if not isinstance(params, dict) or len(params) > 32:
        raise _fail(front, "weight spec params is not a small dict")
    for key, value in params.items():
        if not isinstance(key, str):
            raise _fail(front, "weight spec param name is not a string")
        if value is not None and not isinstance(
            value, (bool, int, float, str)
        ):
            raise _fail(
                front,
                f"weight spec param {key!r} is not a scalar",
            )
    return spec


HOST_REQUEST_OPS = ("lease", "sync", "snapshot", "stop")
HOST_REPLY_OPS = ("lease", "sync", "snapshot", "stop", "error")
SERVICE_REQUEST_OPS = (
    "create", "attach", "ingest", "query", "checkpoint", "streams"
)
SERVICE_REPLY_OPS = SERVICE_REQUEST_OPS + ("error", "overloaded")


def validate_host_request(message) -> tuple:
    """Schema-check one coordinator→host control message."""
    front = "host request"
    message = _check_tuple(message, front)
    op = message[0]
    if op == "lease":
        if len(message) != 4:
            raise _fail(front, f"lease has {len(message)} fields, not 4")
        _, shard_index, state_wire, spec = message
        if not _is_int(shard_index) or not (
            0 <= shard_index < _MAX_SHARD_INDEX
        ):
            raise _fail(front, f"bad shard index {shard_index!r}")
        if not isinstance(state_wire, bytes) or not state_wire:
            raise _fail(front, "lease state is not non-empty bytes")
        validate_weight_spec(spec, front)
        return message
    if op in ("sync", "snapshot", "stop"):
        if len(message) != 2:
            raise _fail(front, f"{op} has {len(message)} fields, not 2")
        _check_token(message[1], front)
        return message
    raise _fail(front, f"unknown op {op!r} (known: {HOST_REQUEST_OPS})")


def validate_host_reply(reply) -> tuple:
    """Schema-check one host→coordinator control reply."""
    front = "host reply"
    reply = _check_tuple(reply, front)
    op = reply[0]
    if op == "lease":
        if len(reply) != 3 or not _is_int(reply[1]) or reply[2] != "ok":
            raise _fail(front, "malformed lease acceptance")
        return reply
    if op == "sync":
        if len(reply) != 4:
            raise _fail(front, f"sync reply has {len(reply)} fields, not 4")
        _check_token(reply[1], front)
        if not _is_int(reply[2]) or reply[2] < 0:
            raise _fail(front, "sync time is not a non-negative int")
        if not isinstance(reply[3], (int, float)) or isinstance(
            reply[3], bool
        ):
            raise _fail(front, "sync estimate is not a number")
        return reply
    if op in ("snapshot", "stop"):
        if len(reply) != 3:
            raise _fail(front, f"{op} reply has {len(reply)} fields, not 3")
        _check_token(reply[1], front)
        if not isinstance(reply[2], bytes):
            raise _fail(front, f"{op} state is not bytes")
        return reply
    if op == "error":
        if len(reply) != 3 or not isinstance(reply[2], str):
            raise _fail(front, "malformed error report")
        return reply
    raise _fail(front, f"unknown op {op!r} (known: {HOST_REPLY_OPS})")


def validate_service_request(message) -> tuple:
    """Schema-check one client→service control message."""
    front = "service request"
    message = _check_tuple(message, front)
    op = message[0]
    if op not in SERVICE_REQUEST_OPS:
        raise _fail(
            front, f"unknown op {op!r} (known: {SERVICE_REQUEST_OPS})"
        )
    if len(message) < 2:
        raise _fail(front, f"{op} carries no token")
    _check_token(message[1], front)
    if op == "create":
        if len(message) != 5:
            raise _fail(front, f"create has {len(message)} fields, not 5")
        _check_name(message[2], front, "stream name")
        if not isinstance(message[3], dict):
            raise _fail(front, "stream config is not a dict")
        if message[4] is not None and not isinstance(message[4], dict):
            raise _fail(front, "executor options is not a dict or None")
    elif op == "attach":
        if len(message) != 3:
            raise _fail(front, f"attach has {len(message)} fields, not 3")
        _check_name(message[2], front, "stream name")
    elif op == "ingest":
        if len(message) != 3:
            raise _fail(front, f"ingest has {len(message)} fields, not 3")
        if not isinstance(message[2], EventBlock):
            raise _fail(front, "ingest payload is not an EventBlock")
    elif op == "query":
        if len(message) != 4:
            raise _fail(front, f"query has {len(message)} fields, not 4")
        _check_name(message[2], front, "query kind")
        if message[3] is not None and not isinstance(message[3], dict):
            raise _fail(front, "query args is not a dict or None")
    else:  # checkpoint / streams: bare (op, token)
        if len(message) != 2:
            raise _fail(front, f"{op} has {len(message)} fields, not 2")
    return message


def validate_service_reply(reply) -> tuple:
    """Schema-check one service→client control reply."""
    front = "service reply"
    reply = _check_tuple(reply, front)
    op = reply[0]
    if op not in SERVICE_REPLY_OPS:
        raise _fail(
            front, f"unknown op {op!r} (known: {SERVICE_REPLY_OPS})"
        )
    if len(reply) != 3:
        raise _fail(front, f"{op} reply has {len(reply)} fields, not 3")
    _check_token(reply[1], front, allow_none=op in ("error", "overloaded"))
    if op == "error" and not isinstance(reply[2], str):
        raise _fail(front, "error report is not a string")
    if op == "overloaded" and not isinstance(reply[2], dict):
        raise _fail(front, "overload info is not a dict")
    return reply
