"""EventBlock: the columnar event representation (graph/stream.py)."""

import numpy as np
import pytest

from repro.errors import SelfLoopError, StreamFormatError
from repro.graph.stream import DELETE, INSERT, EdgeEvent, EdgeStream, EventBlock


def sample_events():
    return [
        EdgeEvent.insertion(3, 1),
        EdgeEvent.insertion(1, 2),
        EdgeEvent.deletion(1, 3),
        EdgeEvent.insertion(7, 5),
        EdgeEvent.deletion(2, 1),
    ]


class TestConstruction:
    def test_from_events_round_trip(self):
        events = sample_events()
        block = EventBlock.from_events(events)
        assert len(block) == len(events)
        assert list(block) == events
        assert block.to_stream() == EdgeStream(events)

    def test_canonicalises_vectorised(self):
        block = EventBlock([True, True], [5, 2], [3, 9])
        assert block.edges() == [(3, 5), (2, 9)]

    def test_canonical_flag_skips_reordering(self):
        # Callers asserting canonical input keep their columns verbatim.
        block = EventBlock([True], [1], [2], canonical=True)
        assert block.edges() == [(1, 2)]

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            EventBlock([True, True], [1, 4], [2, 4])

    def test_non_int_labels_rejected(self):
        with pytest.raises(TypeError):
            EventBlock.from_events([EdgeEvent.insertion("alice", "bob")])
        with pytest.raises(TypeError):
            EventBlock([True], [1.5], [2.5])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EventBlock([True, False], [1], [2])

    def test_from_triples(self):
        block = EventBlock.from_triples([(True, 4, 2), (False, 2, 4)])
        assert list(block) == [
            EdgeEvent.insertion(2, 4), EdgeEvent.deletion(2, 4),
        ]

    def test_edge_stream_to_block(self):
        stream = EdgeStream(sample_events())
        assert stream.to_block().to_stream() == stream

    def test_dtypes(self):
        block = EventBlock.from_events(sample_events())
        assert block.is_insert.dtype == np.bool_
        assert block.u.dtype == np.int64
        assert block.v.dtype == np.int64


class TestContainer:
    def test_statistics(self):
        block = EventBlock.from_events(sample_events())
        assert block.num_insertions == 3
        assert block.num_deletions == 2

    def test_indexing_and_slicing(self):
        events = sample_events()
        block = EventBlock.from_events(events)
        assert block[0] == events[0]
        assert block[-1] == events[-1]
        window = block[1:4]
        assert isinstance(window, EventBlock)
        assert list(window) == events[1:4]

    def test_equality(self):
        a = EventBlock.from_events(sample_events())
        b = EventBlock.from_events(sample_events())
        assert a == b
        assert a != a[:-1]

    def test_concat(self):
        events = sample_events()
        block = EventBlock.from_events(events)
        joined = block[:2].concat(block[2:])
        assert joined == block

    def test_concat_is_variadic(self):
        block = EventBlock.from_events(sample_events())
        assert block[:1].concat(block[1:2], block[2:4], block[4:]) == block
        assert block[:0].concat(block[:0]) == block[:0]

    def test_columns_are_plain_lists(self):
        block = EventBlock.from_events(sample_events())
        ops, us, vs = block.columns()
        assert ops == [True, True, False, True, False]
        assert all(type(u) is int for u in us)
        assert list(zip(us, vs)) == block.edges()

    def test_empty_block(self):
        block = EventBlock([], [], [])
        assert len(block) == 0
        assert block.num_insertions == 0
        assert list(block) == []


class TestWireFormat:
    def test_bytes_round_trip(self):
        block = EventBlock.from_events(sample_events())
        assert EventBlock.from_buffer(block.to_bytes()) == block

    def test_byte_size_accounting(self):
        block = EventBlock.from_events(sample_events())
        assert block.nbytes == EventBlock.byte_size(len(block))
        assert len(block.to_bytes()) == block.nbytes

    def test_write_into_at_offset(self):
        block = EventBlock.from_events(sample_events())
        buf = bytearray(7 + block.nbytes)
        written = block.write_into(memoryview(buf)[7:])
        assert written == block.nbytes
        assert EventBlock.from_buffer(buf, offset=7) == block

    def test_decoded_arrays_own_their_memory(self):
        block = EventBlock.from_events(sample_events())
        buf = bytearray(block.to_bytes())
        decoded = EventBlock.from_buffer(buf)
        buf[:] = bytes(len(buf))  # clobber the source buffer
        assert decoded == block

    def test_bad_magic_rejected(self):
        payload = bytearray(EventBlock.from_events(sample_events()).to_bytes())
        payload[0] ^= 0xFF
        with pytest.raises(StreamFormatError):
            EventBlock.from_buffer(payload)

    def test_empty_round_trip(self):
        block = EventBlock([], [], [])
        assert EventBlock.from_buffer(block.to_bytes()) == block


class TestIterationCompat:
    def test_iter_yields_edge_events(self):
        block = EventBlock.from_events(sample_events())
        ops = [e.op for e in block]
        assert ops == [INSERT, INSERT, DELETE, INSERT, DELETE]

    def test_consumable_by_event_iterables(self):
        # Anything accepting an EdgeEvent iterable accepts a block.
        stream = EdgeStream(iter(EventBlock.from_events(sample_events())))
        assert len(stream) == 5
