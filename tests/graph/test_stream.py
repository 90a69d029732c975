"""Tests for edge events and stream (de)serialisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, StreamFormatError
from repro.graph.stream import (
    DELETE,
    INSERT,
    EdgeEvent,
    EdgeStream,
    checkpoint_positions,
    checkpoint_segments,
)


class TestEdgeEvent:
    def test_insertion_constructor(self):
        event = EdgeEvent.insertion(3, 1)
        assert event.op == INSERT
        assert event.edge == (1, 3)
        assert event.is_insertion
        assert not event.is_deletion

    def test_deletion_constructor(self):
        event = EdgeEvent.deletion(1, 3)
        assert event.op == DELETE
        assert event.is_deletion

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            EdgeEvent("x", (1, 2))

    def test_edge_canonicalised(self):
        assert EdgeEvent("+", (9, 2)).edge == (2, 9)

    def test_frozen(self):
        event = EdgeEvent.insertion(1, 2)
        with pytest.raises(AttributeError):
            event.op = "-"

    def test_equality(self):
        assert EdgeEvent.insertion(1, 2) == EdgeEvent("+", (2, 1))


class TestEdgeStream:
    def test_from_edges(self):
        stream = EdgeStream.from_edges([(1, 2), (2, 3)])
        assert len(stream) == 2
        assert all(e.is_insertion for e in stream)

    def test_counts(self):
        stream = EdgeStream(
            [
                EdgeEvent.insertion(1, 2),
                EdgeEvent.insertion(2, 3),
                EdgeEvent.deletion(1, 2),
            ]
        )
        assert stream.num_insertions == 2
        assert stream.num_deletions == 1
        assert stream.final_edge_count() == 1

    def test_distinct_edges(self):
        stream = EdgeStream(
            [
                EdgeEvent.insertion(1, 2),
                EdgeEvent.deletion(1, 2),
                EdgeEvent.insertion(1, 2),
            ]
        )
        assert stream.distinct_edges() == {(1, 2)}

    def test_indexing_and_slicing(self):
        stream = EdgeStream.from_edges([(1, 2), (2, 3), (3, 4)])
        assert stream[0].edge == (1, 2)
        sliced = stream[1:]
        assert isinstance(sliced, EdgeStream)
        assert len(sliced) == 2

    def test_concat(self):
        a = EdgeStream.from_edges([(1, 2)])
        b = EdgeStream.from_edges([(2, 3)])
        assert len(a.concat(b)) == 2

    def test_equality_and_hash(self):
        a = EdgeStream.from_edges([(1, 2)])
        b = EdgeStream.from_edges([(1, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_dumps_format(self):
        stream = EdgeStream(
            [EdgeEvent.insertion(1, 2), EdgeEvent.deletion(1, 2)]
        )
        assert stream.dumps() == "+ 1 2\n- 1 2\n"

    def test_loads_skips_comments_and_blanks(self):
        text = "# header\n\n+ 1 2\n- 1 2\n"
        stream = EdgeStream.loads(text)
        assert len(stream) == 2

    def test_loads_rejects_malformed(self):
        with pytest.raises(StreamFormatError):
            EdgeStream.loads("+ 1\n")

    def test_loads_rejects_bad_op(self):
        with pytest.raises(StreamFormatError):
            EdgeStream.loads("* 1 2\n")

    def test_loads_rejects_bad_vertex(self):
        with pytest.raises(StreamFormatError):
            EdgeStream.loads("+ one 2\n")

    def test_file_round_trip(self, tmp_path):
        stream = EdgeStream(
            [EdgeEvent.insertion(5, 2), EdgeEvent.deletion(5, 2)]
        )
        path = tmp_path / "stream.txt"
        stream.dump(path)
        assert EdgeStream.load(path) == stream

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("+-"),
                st.integers(0, 50),
                st.integers(51, 100),
            ),
            max_size=100,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_text_round_trip(self, raw_events):
        stream = EdgeStream(
            EdgeEvent(op, (u, v)) for op, u, v in raw_events
        )
        assert EdgeStream.loads(stream.dumps()) == stream


class TestCheckpointSegments:
    def test_positions_step_and_close_on_the_last_event(self):
        assert checkpoint_positions(10, 3) == (3, 6, 9, 10)
        assert checkpoint_positions(9, 3) == (3, 6, 9)
        assert checkpoint_positions(2, 5) == (1, 2)
        assert checkpoint_positions(0, 5) == ()
        with pytest.raises(ConfigurationError):
            checkpoint_positions(10, 0)

    def test_segments_end_at_the_checkpoints(self):
        stream = EdgeStream.from_edges((i, i + 1) for i in range(10))
        segments = list(checkpoint_segments(stream, (3, 6, 9, 10)))
        assert [len(segment) for segment in segments] == [3, 3, 3, 1]
        assert [e for segment in segments for e in segment] == list(stream)

    def test_iterates_once_and_to_the_end(self):
        asked = []

        def events():
            for i in range(4):
                asked.append(i)
                yield EdgeEvent.insertion(i, i + 1)
            asked.append("end")

        assert len(list(checkpoint_segments(events(), (2, 4)))) == 2
        assert asked == [0, 1, 2, 3, "end"]

    def test_short_events_rejected(self):
        stream = EdgeStream.from_edges((i, i + 1) for i in range(5))
        with pytest.raises(ConfigurationError, match="ran out after 5 of 6"):
            list(checkpoint_segments(stream, (3, 6)))

    def test_events_past_the_last_checkpoint_rejected(self):
        stream = EdgeStream.from_edges((i, i + 1) for i in range(5))
        with pytest.raises(ConfigurationError, match="continue past"):
            list(checkpoint_segments(stream, (2, 4)))
