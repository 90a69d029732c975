"""The service front's frame reader, fed bytes through a bare StreamReader.

The server splits each connection's bytes into frames itself, so that a
BLOCK frame can take every further BLOCK frame already whole in the
buffer as one session batch (a *run*). These tests pin the run rules
(where a run stops, what stays behind for the next read) and the four
behaviours every frame keeps: the frame cap on header bytes, the idle
deadline before a frame starts, truncation as a ProtocolError, and
HMAC plus block-length verification.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import PeerLostError, ProtocolError
from repro.graph.stream import EventBlock
from repro.streams.ingest import _RUN_MAX_EVENTS, _FrameReader
from repro.streams.transport import (
    _FRAME_HEADER,
    FRAME_BLOCK,
    FRAME_CONTROL,
    FRAME_HEARTBEAT,
    FRAME_HEADER_SIZE,
    PROTOCOL_VERSION,
    FrameAuth,
    block_from_frame,
    frame_bytes,
)


def make_block(size: int, offset: int = 0) -> EventBlock:
    """``size`` insertions of distinct edges, labelled from ``offset``."""
    u = np.arange(offset, offset + size, dtype=np.int64)
    return EventBlock(np.ones(size, dtype=bool), u, u + 1_000_000)


def block_frame(block: EventBlock, auth: FrameAuth | None = None) -> bytes:
    return frame_bytes(FRAME_BLOCK, block.to_bytes(), auth)


def run_reader(chunks, scenario, *, eof=True, **reader_kwargs):
    """Feed ``chunks`` to a fresh StreamReader, then await ``scenario``."""

    async def main():
        reader = asyncio.StreamReader()
        for chunk in chunks:
            reader.feed_data(chunk)
        if eof:
            reader.feed_eof()
        return await scenario(_FrameReader(reader, **reader_kwargs), reader)

    return asyncio.run(main())


async def next_run(frames: _FrameReader, auth: FrameAuth | None = None):
    """One run as the server takes it: a BLOCK frame plus what is buffered."""
    kind, payload = await frames.read_frame()
    assert kind == FRAME_BLOCK
    if auth is not None:
        payload = auth.verify(kind, payload)
    return frames.buffered_blocks(block_from_frame(payload), auth)


class TestRuns:
    def test_run_is_the_complete_frames_before_a_partial_one(self):
        blocks = [make_block(128, 1000 * i) for i in range(6)]
        tail = block_frame(blocks[5])
        cut = len(tail) // 2

        async def scenario(frames, reader):
            run = await next_run(frames)
            reader.feed_data(tail[cut:])
            reader.feed_eof()
            rest = await next_run(frames)
            return run, rest, await frames.read_frame()

        run, rest, end = run_reader(
            [b"".join(block_frame(b) for b in blocks[:5]) + tail[:cut]],
            scenario,
            eof=False,
        )
        assert run == blocks[:5]
        assert rest == [blocks[5]]
        assert end is None

    @pytest.mark.parametrize("kind", [FRAME_CONTROL, FRAME_HEARTBEAT])
    def test_run_stops_at_a_control_or_heartbeat_frame(self, kind):
        blocks = [make_block(128, 1000 * i) for i in range(3)]
        other = frame_bytes(kind, b"" if kind == FRAME_HEARTBEAT else b"x")

        async def scenario(frames, _reader):
            first = await next_run(frames)
            between = await frames.read_frame()
            return first, between, await next_run(frames)

        first, between, last = run_reader(
            [block_frame(blocks[0]) + block_frame(blocks[1]) + other
             + block_frame(blocks[2])],
            scenario,
        )
        assert first == blocks[:2]
        assert between[0] == kind
        assert last == blocks[2:]

    def test_run_stops_at_the_event_cap(self):
        per_frame = 128
        count = _RUN_MAX_EVENTS // per_frame + 10
        blocks = [make_block(per_frame, 1000 * i) for i in range(count)]

        async def scenario(frames, _reader):
            return await next_run(frames), await next_run(frames)

        first, second = run_reader(
            [b"".join(block_frame(b) for b in blocks)], scenario
        )
        assert sum(len(b) for b in first) == _RUN_MAX_EVENTS
        assert first + second == blocks

    def test_a_frame_larger_than_the_cap_goes_alone(self):
        small = make_block(128)
        big = make_block(_RUN_MAX_EVENTS + 1, 10_000)
        after = make_block(128, 50_000)

        async def scenario(frames, _reader):
            return [await next_run(frames) for _ in range(3)]

        runs = run_reader(
            [block_frame(small) + block_frame(big) + block_frame(after)],
            scenario,
        )
        assert runs == [[small], [big], [after]]

    def test_keyed_frames_are_verified_into_the_run(self):
        auth = FrameAuth("run-key").derived("a", "b")
        blocks = [make_block(64, 1000 * i) for i in range(4)]

        async def scenario(frames, _reader):
            return await next_run(frames, auth)

        run = run_reader(
            [b"".join(block_frame(b, auth) for b in blocks)], scenario
        )
        assert run == blocks


def bad_magic(frame: bytes) -> bytes:
    return b"EVIL" + frame[4:]


def length_mismatch(frame: bytes) -> bytes:
    # Two stray bytes behind a well-formed block, declared in the header.
    magic, version, kind, length = _FRAME_HEADER.unpack(
        frame[:FRAME_HEADER_SIZE]
    )
    header = _FRAME_HEADER.pack(magic, version, kind, length + 2)
    return header + frame[FRAME_HEADER_SIZE:] + b"\x00\x00"


class TestBadFrameMidRun:
    @pytest.mark.parametrize(
        "corrupt, match",
        [(bad_magic, "bad frame magic"), (length_mismatch, "length mismatch")],
    )
    def test_bad_frame_ends_the_run_and_fails_on_its_own_read(
        self, corrupt, match
    ):
        blocks = [make_block(128, 1000 * i) for i in range(4)]
        wire = [block_frame(b) for b in blocks]
        wire[2] = corrupt(wire[2])

        async def scenario(frames, _reader):
            run = await next_run(frames)
            with pytest.raises(ProtocolError, match=match):
                kind, payload = await frames.read_frame()
                block_from_frame(payload)
            return run

        assert run_reader([b"".join(wire)], scenario) == blocks[:2]

    def test_wrong_tag_ends_the_run_and_fails_verification(self):
        auth = FrameAuth("run-key").derived("a", "b")
        impostor = FrameAuth("other-key").derived("a", "b")
        blocks = [make_block(128, 1000 * i) for i in range(4)]
        wire = [block_frame(b, auth) for b in blocks]
        wire[2] = block_frame(blocks[2], impostor)

        async def scenario(frames, _reader):
            run = await next_run(frames, auth)
            kind, payload = await frames.read_frame()
            with pytest.raises(ProtocolError, match="HMAC verification"):
                auth.verify(kind, payload)
            return run

        assert run_reader([b"".join(wire)], scenario) == blocks[:2]


class TestFrameReading:
    def test_clean_close_between_frames_is_none(self):
        async def scenario(frames, _reader):
            return await frames.read_frame()

        assert run_reader([], scenario) is None

    def test_close_mid_header_is_a_protocol_error(self):
        async def scenario(frames, _reader):
            with pytest.raises(ProtocolError, match="mid-header"):
                await frames.read_frame()

        run_reader([block_frame(make_block(4))[:5]], scenario)

    def test_close_mid_frame_is_a_protocol_error(self):
        async def scenario(frames, _reader):
            with pytest.raises(ProtocolError, match="mid-frame"):
                await frames.read_frame()

        run_reader([block_frame(make_block(4))[:-3]], scenario)

    def test_frame_cap_is_checked_on_the_header_alone(self):
        header = _FRAME_HEADER.pack(
            b"RSX1", PROTOCOL_VERSION, FRAME_BLOCK, 1 << 20
        )

        async def scenario(frames, _reader):
            with pytest.raises(ProtocolError, match="frame cap"):
                await frames.read_frame()

        # No payload byte ever arrives and no EOF: the cap alone refuses.
        run_reader([header], scenario, eof=False, max_frame_bytes=4096)

    def test_idle_deadline_applies_before_a_frame_starts(self):
        async def scenario(frames, _reader):
            with pytest.raises(PeerLostError, match="no frame"):
                await frames.read_frame()

        run_reader([], scenario, eof=False, idle_timeout=0.05)

    def test_a_started_frame_is_read_past_the_idle_deadline(self):
        frame = block_frame(make_block(4))

        async def scenario(frames, reader):
            async def late_tail():
                await asyncio.sleep(0.2)
                reader.feed_data(frame[3:])

            feeder = asyncio.ensure_future(late_tail())
            got = await frames.read_frame()
            await feeder
            return got

        kind, payload = run_reader(
            [frame[:3]], scenario, eof=False, idle_timeout=0.05
        )
        assert kind == FRAME_BLOCK
        assert block_from_frame(payload) == make_block(4)
