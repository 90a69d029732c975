"""Integration tests for the bounded write-ahead log.

The two observable contracts of WAL backpressure: (1) *spill* — under a
durable session that never checkpoints, in-memory WAL growth is bounded
by ``wal_spill_events`` while every spilled segment remains replayable
in order, so recovery from the segments is bit-identical to a serial
run; (2) *hard limit* — past ``wal_hard_limit_events`` total events an
ingest batch is rejected atomically with a typed, retry-hinted
overload error, the stream stays queryable, and a checkpoint unblocks
ingestion.
"""

import pytest

import repro
from repro import build_stream
from repro.errors import ServiceOverloadedError
from repro.graph.generators import powerlaw_cluster
from repro.streams.codec import wal_to_wire
from repro.streams.service import StreamConfig, StreamSession


@pytest.fixture(scope="module")
def events():
    edges = powerlaw_cluster(300, m=4, triangle_probability=0.6, rng=0)
    stream = build_stream(edges, "light", beta=0.2, rng=1)
    return list(stream)


def serial_reference(events, config, name):
    session = repro.open_stream(config, name=name)
    session.ingest(events)
    estimate = session.queries.estimate()
    session.close()
    return estimate


CONFIG = StreamConfig(algorithm="WSD-H", pattern="triangle", budget=400, seed=3)


class TestSpill:
    def test_memory_stays_bounded_without_checkpoints(self, events, tmp_path):
        session = StreamSession(
            "spill",
            CONFIG,
            state_dir=tmp_path,
            wal_spill_events=64,
            wal_limit_events=10**9,  # the limit snapshot never fires
        )
        for start in range(0, len(events), 50):
            session.ingest(events[start:start + 50])
            assert session.wal_stats()["memory_events"] < 64
        stats = session.wal_stats()
        assert stats["segments"] > 0
        assert stats["spilled_events"] > 0
        assert stats["spilled_events"] + stats["memory_events"] == stats["events"]
        assert stats["events"] == len(events)
        assert stats["aligned"]
        # Spilling is pure bookkeeping: the estimate is untouched.
        assert session.queries.estimate() == serial_reference(
            events, CONFIG, "spill"
        )
        # The segments really are on disk, named by base generation.
        segment_files = sorted((session.state_path / "wal").iterdir())
        assert len(segment_files) == stats["segments"]
        assert all(f.name.startswith("wal-g000000-") for f in segment_files)
        session.close()

    def test_recovery_from_spilled_segments_is_bit_identical(
        self, events, tmp_path
    ):
        reference = serial_reference(events, CONFIG, "spill-recover")
        half = len(events) // 2
        session = StreamSession(
            "spill-recover",
            CONFIG,
            state_dir=tmp_path,
            wal_spill_events=1,  # every batch spills: nothing only-in-memory
            wal_limit_events=10**9,
        )
        session.ingest(events[:half])
        session.checkpoint()
        for start in range(half, len(events), 97):
            session.ingest(events[start:start + 97])
        stats = session.wal_stats()
        assert stats["memory_events"] == 0  # the crash can lose nothing
        assert stats["segments"] > 0
        session.close()  # crash: no final checkpoint — only segments remain

        restored = StreamSession.restore("spill-recover", tmp_path)
        assert restored.clock == len(events)
        assert restored.queries.estimate() == reference
        # Restore replays then checkpoints, so the segments are swept.
        assert restored.wal_stats()["segments"] == 0
        restored.close()

        # Restoring again from the rolled-up checkpoint changes nothing.
        again = StreamSession.restore("spill-recover", tmp_path)
        assert again.queries.estimate() == reference
        again.close()

    def test_non_durable_session_falls_back_to_snapshot(self, events):
        session = StreamSession(
            "no-disk",
            CONFIG,
            wal_spill_events=32,
            wal_limit_events=10**9,
        )
        for start in range(0, len(events), 40):
            session.ingest(events[start:start + 40])
        stats = session.wal_stats()
        assert stats["segments"] == 0
        assert stats["spilled_events"] == 0
        assert stats["memory_events"] < 32  # snapshot barrier trimmed instead
        assert session.queries.estimate() == serial_reference(
            events, CONFIG, "no-disk"
        )
        session.close()

    def test_snapshot_misalignment_heals_via_checkpoint(self, events, tmp_path):
        session = StreamSession(
            "realign",
            CONFIG,
            state_dir=tmp_path,
            wal_spill_events=64,
            wal_limit_events=10**9,
        )
        session.ingest(events[:50])
        assert session.wal_stats()["aligned"]
        session.snapshot()  # in-memory cut: segments would not be replayable
        assert not session.wal_stats()["aligned"]
        session.ingest(events[50:150])  # crosses the spill threshold
        stats = session.wal_stats()
        assert stats["aligned"]  # healed by a full checkpoint, not a spill
        assert stats["segments"] == 0
        session.close()


class TestLegacySegments:
    def test_event_list_segments_restore_bit_identically(
        self, events, tmp_path
    ):
        """Protocol-2 builds spilled list ingests as EdgeEvent lists;
        restore replays them through ``ingest``, which converts each to
        a block, and lands on the same estimate."""
        reference = serial_reference(events, CONFIG, "legacy")
        half = len(events) // 2
        session = StreamSession("legacy", CONFIG, state_dir=tmp_path)
        session.ingest(events[:half])
        session.checkpoint()
        session.close()
        wal_dir = tmp_path / "legacy" / "wal"
        wal_dir.mkdir()
        rest = events[half:]
        for seq, start in enumerate(range(0, len(rest), 97)):
            segment = wal_dir / f"wal-g000001-{seq:06d}.seg"
            segment.write_bytes(wal_to_wire([rest[start:start + 97]]))

        restored = StreamSession.restore("legacy", tmp_path)
        assert restored.clock == len(events)
        assert restored.queries.estimate() == reference
        assert restored.wal_stats()["segments"] == 0
        restored.close()


class TestHardLimit:
    def test_overload_is_atomic_and_recoverable(self, events):
        session = StreamSession(
            "overload",
            CONFIG,
            wal_hard_limit_events=100,
            wal_limit_events=10**9,
        )
        session.ingest(events[:80])
        with pytest.raises(ServiceOverloadedError) as excinfo:
            session.ingest(events[80:120])
        assert excinfo.value.retry_after == session.retry_after_hint
        assert "hard limit" in str(excinfo.value)
        # Atomic reject: nothing appended, nothing dispatched.
        assert session.clock == 80
        assert session.wal_stats()["events"] == 80
        # The stream stays live for readers while shedding writers.
        assert session.queries.estimate() is not None
        # A checkpoint trims the log and ingestion resumes.
        session.checkpoint()
        session.ingest(events[80:120])
        assert session.clock == 120
        session.close()

    def test_small_batches_still_fill_the_limit(self, events):
        session = StreamSession(
            "drip", CONFIG, wal_hard_limit_events=30, wal_limit_events=10**9
        )
        session.ingest(events[:30])  # exactly at the limit is accepted
        with pytest.raises(ServiceOverloadedError):
            session.ingest(events[30:31])
        session.close()

    def test_limits_validated_against_each_other(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="exceed"):
            StreamSession(
                "bad",
                CONFIG,
                state_dir=tmp_path,
                wal_spill_events=100,
                wal_hard_limit_events=100,
            )

    def test_service_config_applies_the_session_rules(self):
        from repro.errors import ConfigurationError
        from repro.streams.service import ServiceConfig

        # The service refuses what every session would refuse; else it
        # boots, then fails every create_stream (or a state dir's boot).
        config = ServiceConfig(wal_spill_events=100, wal_hard_limit_events=50)
        with pytest.raises(ConfigurationError, match="exceed"):
            config.validate()
