"""Wire-format tests: framing, versioning, and integrity checks.

The distributed tier's protocol promise is that malformed bytes fail
loudly (:class:`~repro.errors.ProtocolError`) instead of deserialising
garbage: every frame carries a magic, a protocol version, and a
declared length; checkpoint payloads additionally carry a CRC-32. These
tests drive the framing layer directly over socket pairs — no executor,
no host agent — so each validation rule is pinned down in isolation.
"""

import socket

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.graph.stream import EventBlock
from repro.samplers.checkpoint import state_from_wire, state_to_wire
from repro.streams.transport import (
    FRAME_BLOCK,
    FRAME_CONTROL,
    FRAME_HELLO,
    PROTOCOL_VERSION,
    _FRAME_HEADER,
    _FRAME_MAGIC,
    block_from_frame,
    expect_hello,
    hello_payload,
    parse_address,
    read_frame,
    write_frame,
)


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def make_block(n=5):
    rng = np.random.default_rng(7)
    u = rng.integers(0, 50, size=n)
    v = u + 1 + rng.integers(0, 10, size=n)
    return EventBlock(np.ones(n, dtype=bool), u, v)


class TestFraming:
    @pytest.mark.parametrize(
        "kind,payload",
        [
            (FRAME_HELLO, b'{"protocol": 1}'),
            (FRAME_CONTROL, b"\x80\x05pickled"),
            (FRAME_BLOCK, b"columns"),
            (FRAME_CONTROL, b""),  # zero-length payloads are legal
        ],
    )
    def test_round_trip(self, pair, kind, payload):
        left, right = pair
        write_frame(left, kind, payload)
        assert read_frame(right) == (kind, payload)

    def test_frames_preserve_order(self, pair):
        left, right = pair
        for i in range(5):
            write_frame(left, FRAME_CONTROL, bytes([i]))
        for i in range(5):
            assert read_frame(right) == (FRAME_CONTROL, bytes([i]))

    def test_clean_close_between_frames_is_none(self, pair):
        left, right = pair
        write_frame(left, FRAME_CONTROL, b"last")
        left.close()
        assert read_frame(right) == (FRAME_CONTROL, b"last")
        assert read_frame(right) is None

    def test_truncated_payload_raises(self, pair):
        left, right = pair
        header = _FRAME_HEADER.pack(
            _FRAME_MAGIC, PROTOCOL_VERSION, FRAME_CONTROL, 100
        )
        left.sendall(header + b"only a few bytes")
        left.close()
        with pytest.raises(ProtocolError, match="truncated"):
            read_frame(right)

    def test_truncated_header_raises(self, pair):
        left, right = pair
        left.sendall(b"RS")  # partial magic, then EOF
        left.close()
        with pytest.raises(ProtocolError, match="truncated"):
            read_frame(right)

    def test_bad_magic_raises(self, pair):
        left, right = pair
        left.sendall(
            _FRAME_HEADER.pack(b"NOPE", PROTOCOL_VERSION, FRAME_CONTROL, 0)
        )
        with pytest.raises(ProtocolError, match="magic"):
            read_frame(right)

    def test_cross_version_frame_raises(self, pair):
        left, right = pair
        left.sendall(
            _FRAME_HEADER.pack(
                _FRAME_MAGIC, PROTOCOL_VERSION + 1, FRAME_CONTROL, 0
            )
        )
        with pytest.raises(ProtocolError, match="version"):
            read_frame(right)

    def test_unknown_kind_raises(self, pair):
        left, right = pair
        left.sendall(
            _FRAME_HEADER.pack(_FRAME_MAGIC, PROTOCOL_VERSION, 99, 0)
        )
        with pytest.raises(ProtocolError, match="kind"):
            read_frame(right)

    def test_absurd_length_raises(self, pair):
        left, right = pair
        left.sendall(
            _FRAME_HEADER.pack(
                _FRAME_MAGIC, PROTOCOL_VERSION, FRAME_CONTROL, 1 << 40
            )
        )
        with pytest.raises(ProtocolError, match="frame cap"):
            read_frame(right)


class TestHandshake:
    def test_hello_round_trip(self, pair):
        left, right = pair
        write_frame(left, FRAME_HELLO, hello_payload("coordinator"))
        meta = expect_hello(right, peer="coordinator", role="coordinator")
        assert meta["protocol"] == PROTOCOL_VERSION
        assert meta["role"] == "coordinator"

    def test_version_mismatch_rejected_at_handshake(self, pair):
        left, right = pair
        payload = (
            '{"protocol": %d, "role": "x"}' % (PROTOCOL_VERSION + 5)
        ).encode()
        write_frame(left, FRAME_HELLO, payload)
        with pytest.raises(ProtocolError, match="protocol"):
            expect_hello(right, peer="peer", role="x")

    def test_wrong_role_rejected_at_handshake(self, pair):
        left, right = pair
        write_frame(left, FRAME_HELLO, hello_payload("client"))
        with pytest.raises(ProtocolError, match="role 'client'"):
            expect_hello(right, peer="peer", role="coordinator")

    def test_non_hello_first_frame_rejected(self, pair):
        left, right = pair
        write_frame(left, FRAME_CONTROL, b"not a hello")
        with pytest.raises(ProtocolError, match="HELLO"):
            expect_hello(right, peer="peer", role="x")

    def test_eof_before_hello_rejected(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(ProtocolError, match="before HELLO"):
            expect_hello(right, peer="peer", role="x")


class TestBlockFrames:
    def test_block_round_trip(self):
        block = make_block()
        restored = block_from_frame(block.to_bytes())
        assert np.array_equal(restored.u, block.u)
        assert np.array_equal(restored.v, block.v)
        assert np.array_equal(restored.is_insert, block.is_insert)

    def test_truncated_block_payload_raises(self):
        payload = make_block().to_bytes()
        with pytest.raises(ProtocolError):
            block_from_frame(payload[: len(payload) - 4])

    def test_padded_block_payload_raises(self):
        # A frame longer than the block header declares means the byte
        # stream desynchronised — reject rather than drop bytes.
        payload = make_block().to_bytes() + b"\x00" * 8
        with pytest.raises(ProtocolError, match="mismatch"):
            block_from_frame(payload)


class TestCheckpointWire:
    STATE = {"format": "x/v1", "budget": 60, "items": [1, 2.5, "a"]}

    def test_round_trip(self):
        assert state_from_wire(state_to_wire(self.STATE)) == self.STATE

    def test_truncation_raises(self):
        blob = state_to_wire(self.STATE)
        for cut in (0, 4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ProtocolError):
                state_from_wire(blob[:cut])

    def test_bad_magic_raises(self):
        blob = bytearray(state_to_wire(self.STATE))
        blob[0] ^= 0xFF
        with pytest.raises(ProtocolError, match="magic"):
            state_from_wire(bytes(blob))

    def test_cross_version_raises(self):
        blob = bytearray(state_to_wire(self.STATE))
        blob[4] += 1  # the version byte
        with pytest.raises(ProtocolError, match="version"):
            state_from_wire(bytes(blob))

    def test_payload_corruption_fails_crc(self):
        blob = bytearray(state_to_wire(self.STATE))
        # Flip one payload byte to another value that still decodes as
        # JSON-compatible bytes — the CRC must catch it regardless.
        blob[-2] ^= 0x01
        with pytest.raises(ProtocolError):
            state_from_wire(bytes(blob))

    def test_extra_bytes_fail_length_check(self):
        blob = state_to_wire(self.STATE) + b" "
        with pytest.raises(ProtocolError):
            state_from_wire(blob)

    def test_non_dict_payload_rejected(self):
        import json
        import struct as _struct
        import zlib

        payload = json.dumps([1, 2, 3]).encode()
        header = _struct.Struct("<4sBxxxIQ").pack(
            b"RPCK", 1, zlib.crc32(payload), len(payload)
        )
        with pytest.raises(ProtocolError):
            state_from_wire(header + payload)


class TestParseAddress:
    def test_valid(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address("node-3:0") == ("node-3", 0)

    @pytest.mark.parametrize(
        "bad", ["localhost", "9000", ":9000", "host:", "host:notaport",
                "host:70000"]
    )
    def test_invalid(self, bad):
        with pytest.raises(ConfigurationError):
            parse_address(bad)
