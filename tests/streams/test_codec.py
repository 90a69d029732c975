"""The RSX2 control codec: round-trips, bombs, schema validators.

The codec is the hostile-bytes boundary — everything a socket or a WAL
segment can contain goes through :func:`decode` before any protocol
handler sees it. These tests pin the two halves of that contract:
well-formed values round-trip exactly (types included), and malformed
or adversarial bytes raise :class:`ProtocolError` without unbounded
allocation or recursion.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.graph.stream import DELETE, INSERT, EdgeEvent, EventBlock
from repro.streams.codec import (
    MAX_DEPTH,
    WAL_MAGIC,
    decode,
    encode,
    validate_host_reply,
    validate_host_request,
    validate_service_reply,
    validate_service_request,
    validate_weight_spec,
    wal_from_wire,
    wal_to_wire,
)

_U32 = struct.Struct("<I")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            (1 << 63) - 1,
            -(1 << 63),
            1 << 200,  # bigint path
            -(1 << 200),
            3.5,
            float("inf"),
            "",
            "héllo",
            b"",
            b"\x00\xff" * 10,
            [],
            [1, "two", None],
            (),
            (1, (2, (3,))),
            {},
            {"a": 1, 2: "b"},
            ("sync", 7, 123, 4.5),
        ],
    )
    def test_value_round_trips_exactly(self, value):
        restored = decode(encode(value))
        assert restored == value
        assert type(restored) is type(value)

    def test_nan_round_trips(self):
        restored = decode(encode(float("nan")))
        assert restored != restored  # NaN

    def test_bool_is_not_collapsed_to_int(self):
        assert decode(encode(True)) is True
        assert decode(encode([0, False])) == [0, False]
        assert [type(v) for v in decode(encode([0, False]))] == [int, bool]

    def test_numpy_scalars_coerce_to_python(self):
        value = decode(
            encode([np.int64(7), np.float64(2.5), np.bool_(True)])
        )
        assert value == [7, 2.5, True]
        assert [type(v) for v in value] == [int, float, bool]

    def test_edge_event_round_trips(self):
        events = [
            EdgeEvent(INSERT, (3, 9)),
            EdgeEvent(DELETE, (9, 3)),
            EdgeEvent(INSERT, ("a", "b")),
        ]
        restored = decode(encode(events))
        assert restored == events
        assert all(isinstance(event, EdgeEvent) for event in restored)

    def test_event_block_round_trips(self):
        block = EventBlock.from_events(
            [EdgeEvent(INSERT, (u, u + 1)) for u in range(50)]
        )
        restored = decode(encode(block))
        assert isinstance(restored, EventBlock)
        assert restored.to_bytes() == block.to_bytes()

    def test_unencodable_value_raises(self):
        with pytest.raises(ProtocolError, match="no control-codec encoding"):
            encode(object())
        with pytest.raises(ProtocolError):
            encode({("tuple", "key"): 1})  # dict keys are int/str only


class TestHostileBytes:
    def test_empty_and_truncated_payloads(self):
        with pytest.raises(ProtocolError):
            decode(b"")
        blob = encode(("sync", 7, 123, 4.5))
        for cut in (1, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ProtocolError):
                decode(blob[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError, match="trailing"):
            decode(encode(1) + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError):
            decode(b"\xfe")

    def test_depth_bomb_rejected(self):
        # [[[...]]] nested past MAX_DEPTH, hand-framed: the encoder
        # refuses to produce this, so build the bytes directly.
        bomb = (b"\x07" + _U32.pack(1)) * (MAX_DEPTH + 1) + b"\x00"
        with pytest.raises(ProtocolError, match="nests deeper"):
            decode(bomb)
        legal = (b"\x07" + _U32.pack(1)) * (MAX_DEPTH - 1) + b"\x00"
        assert decode(legal) is not None

    def test_size_bomb_rejected_without_allocation(self):
        # A 9-byte payload declaring 2**31-1 list elements: the count
        # must be bounded by the bytes actually present, not trusted.
        bomb = b"\x07" + _U32.pack((1 << 31) - 1)
        with pytest.raises(ProtocolError, match="declares"):
            decode(bomb)
        with pytest.raises(ProtocolError):
            decode(b"\x06" + _U32.pack((1 << 32) - 9))  # huge bytes claim
        with pytest.raises(ProtocolError):
            decode(b"\x05" + _U32.pack(1 << 30))  # huge str claim

    def test_oversized_bigint_rejected(self):
        with pytest.raises(ProtocolError):
            encode(1 << 5000)
        with pytest.raises(ProtocolError):
            decode(b"\x0a" + bytes([255]))


class TestWalFraming:
    def _entries(self):
        events = [EdgeEvent(INSERT, (u, u + 1)) for u in range(20)]
        return [events[:10], EventBlock.from_events(events[10:])]

    def test_round_trip(self):
        entries = self._entries()
        restored = wal_from_wire(wal_to_wire(entries))
        assert restored[0] == entries[0]
        assert isinstance(restored[1], EventBlock)
        assert restored[1].to_bytes() == entries[1].to_bytes()

    def test_zero_length_segment_rejected(self):
        with pytest.raises(ProtocolError, match="short"):
            wal_from_wire(b"")

    def test_truncated_segment_rejected(self):
        blob = wal_to_wire(self._entries())
        with pytest.raises(ProtocolError, match="truncated"):
            wal_from_wire(blob[:-3])

    def test_bit_flip_fails_crc(self):
        blob = bytearray(wal_to_wire(self._entries()))
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(ProtocolError, match="CRC"):
            wal_from_wire(bytes(blob))

    def test_wrong_magic_and_version_rejected(self):
        blob = wal_to_wire(self._entries())
        assert blob[:4] == WAL_MAGIC
        with pytest.raises(ProtocolError, match="magic"):
            wal_from_wire(b"XXXX" + blob[4:])
        wrong_version = bytearray(blob)
        wrong_version[4] = 99
        with pytest.raises(ProtocolError, match="format"):
            wal_from_wire(bytes(wrong_version))

    def test_payload_that_is_not_an_entry_list_rejected(self):
        payload = encode({"not": "entries"})
        header = struct.Struct("<4sBxxxII").pack(
            WAL_MAGIC, 1, zlib.crc32(payload), len(payload)
        )
        with pytest.raises(ProtocolError, match="entry list"):
            wal_from_wire(header + payload)


class TestSchemaValidators:
    def test_valid_host_messages_pass_through(self):
        lease = ("lease", 3, b"state", ("uniform", {}))
        assert validate_host_request(lease) is lease
        assert validate_host_request(("sync", 7))
        assert validate_host_reply(("lease", 3, "ok"))
        assert validate_host_reply(("sync", 7, 10, 2.5))
        assert validate_host_reply(("stop", 9, b"state"))
        assert validate_host_reply(("error", None, "trace"))

    @pytest.mark.parametrize(
        "message",
        [
            None,
            "lease",
            (),
            ("unknown-op", 1),
            ("lease", -1, b"state", None),  # negative shard
            ("lease", 1 << 40, b"state", None),  # absurd shard
            ("lease", 0, b"", None),  # empty state
            ("lease", 0, "not-bytes", None),
            ("lease", 0, b"state", ("x" * 500, {})),  # giant name
            ("lease", 0, b"state", ("w", {"fn": object()})),
            ("batch", [(True, 1, 2)]),  # removed: events ride BLOCK frames
            ("sync",),  # missing token
        ],
    )
    def test_malformed_host_requests_rejected(self, message):
        with pytest.raises(ProtocolError):
            validate_host_request(message)

    @pytest.mark.parametrize(
        "reply",
        [
            ("lease", 3, "nope"),
            ("sync", 7, -1, 2.5),  # negative time
            ("sync", 7, 10, True),  # bool estimate
            ("sync", 7, 10),  # missing estimate
            ("stop", 9, "not-bytes"),
            ("error", None, 42),
            ("no-such-op", 1, 2),
        ],
    )
    def test_malformed_host_replies_rejected(self, reply):
        with pytest.raises(ProtocolError):
            validate_host_reply(reply)

    def test_valid_service_messages_pass_through(self):
        create = ("create", 1, "s", {"budget": 10}, None)
        assert validate_service_request(create) is create
        assert validate_service_request(
            ("ingest", 2, EventBlock.from_events([EdgeEvent(INSERT, (1, 2))]))
        )
        assert validate_service_request(("query", 3, "estimate", {}))
        assert validate_service_request(("checkpoint", 4))
        assert validate_service_reply(("query", 3, 2.5))
        assert validate_service_reply(("error", None, "trace"))
        assert validate_service_reply(("overloaded", None, {"retry_after": 1}))

    @pytest.mark.parametrize(
        "message",
        [
            ("create", 1, "s", "not-a-dict", None),
            ("create", 1, 42, {}, None),  # non-string name
            ("ingest", 2, [("not", "an", "event")]),
            ("ingest", 2, "abc"),
            ("ingest", 2, [EdgeEvent(INSERT, (1, 2))]),  # lists: protocol 2
            ("query", 3, "x" * 300, {}),  # megabyte-name guard
            ("streams", 4, "extra"),
            ("nope", 1),
        ],
    )
    def test_malformed_service_requests_rejected(self, message):
        with pytest.raises(ProtocolError):
            validate_service_request(message)

    @pytest.mark.parametrize(
        "reply",
        [
            ("query", None, 2.5),  # token None only for error/overloaded
            ("error", 1, 42),
            ("overloaded", None, "not-a-dict"),
            ("created", 1, {}),
        ],
    )
    def test_malformed_service_replies_rejected(self, reply):
        with pytest.raises(ProtocolError):
            validate_service_reply(reply)

    def test_weight_spec_bounds(self):
        assert validate_weight_spec(None) is None
        spec = ("gps-heuristic", {"slope": 9.0, "offset": 1.0})
        assert validate_weight_spec(spec) is spec
        with pytest.raises(ProtocolError):
            validate_weight_spec(("name",))  # not a pair
        with pytest.raises(ProtocolError):
            validate_weight_spec(("w", {"fn": [1, 2]}))  # non-scalar param
        with pytest.raises(ProtocolError):
            validate_weight_spec(("w", {i: i for i in range(40)}))
