"""Integration tests for the counting-service tier.

The load-bearing claim: hosting a stream behind the service — TCP
ingestion, concurrent queries, worker crashes, whole-service restarts —
never changes a single bit of the estimate relative to the same events
fed to a serial in-process session. Every test here is some corruption
of the happy path (kill a worker, kill the service, interleave readers)
followed by that bit-identity assertion.
"""

import json
import threading

import numpy as np
import pytest

import repro
from repro import build_stream
from repro.errors import ConfigurationError, ServiceError
from repro.graph.generators import powerlaw_cluster
from repro.streams.executor import ExecutorOptions
from repro.streams.ingest import ServiceClient
from repro.streams.service import (
    CountingService,
    ServiceConfig,
    StreamConfig,
    StreamSession,
)


@pytest.fixture(scope="module")
def events():
    edges = powerlaw_cluster(300, m=4, triangle_probability=0.6, rng=0)
    stream = build_stream(edges, "light", beta=0.2, rng=1)
    return list(stream)


def serial_reference(events, config, name):
    with repro.open_stream(config, name=name) as session:
        session.ingest(events)
        return session.queries.estimate()


class TestOpenStream:
    def test_kwargs_build_a_config(self, events):
        session = repro.open_stream(
            algorithm="WSD-H", pattern="triangle", budget=300, seed=7
        )
        session.ingest(events)
        estimate = session.queries.estimate()
        assert np.isfinite(estimate)
        assert session.clock == len(events)
        session.close()

    def test_config_and_kwargs_both_rejected(self):
        with pytest.raises(ConfigurationError, match="not both"):
            repro.open_stream(StreamConfig(), budget=10)

    def test_name_is_part_of_stream_identity(self, events):
        config = StreamConfig(budget=300, seed=7)
        a = serial_reference(events, config, "alpha")
        b = serial_reference(events, config, "beta")
        a_again = serial_reference(events, config, "alpha")
        assert a == a_again
        assert a != b  # different names spawn different shard rngs

    def test_chunking_never_changes_the_estimate(self, events):
        config = StreamConfig(budget=300, seed=7)
        whole = serial_reference(events, config, "chunks")
        session = repro.open_stream(config, name="chunks")
        for start in range(0, len(events), 83):
            session.ingest(events[start:start + 83])
        assert session.queries.estimate() == whole
        session.close()

    def test_wsd_l_is_rejected_with_guidance(self):
        with pytest.raises(ConfigurationError, match="WSD-L"):
            StreamConfig(algorithm="WSD-L").validate()

    def test_track_local_requires_one_shard(self):
        with pytest.raises(ConfigurationError, match="track_local"):
            StreamConfig(track_local=True, shards=2).validate()

    def test_track_local_requires_serial_backend(self):
        with pytest.raises(ConfigurationError, match="serial"):
            StreamSession(
                "local-proc",
                StreamConfig(track_local=True),
                options=ExecutorOptions(backend="process"),
            )


class TestServiceSocket:
    def test_roundtrip_queries_and_errors(self, events, tmp_path):
        config = StreamConfig(budget=300, seed=11, track_local=True)
        reference = serial_reference(events, config, "feed")
        with CountingService(
            ServiceConfig(state_dir=tmp_path, checkpoint_interval=None)
        ) as service:
            with ServiceClient(service.address) as client:
                info = client.create_stream("feed", config)
                assert info == {"name": "feed", "clock": 0}
                assert client.streams() == ["feed"]
                for start in range(0, len(events), 256):
                    client.send_events(events[start:start + 256])
                assert client.estimate() == reference
                assert client.time() == len(events)
                stats = client.stats()
                assert stats["clock"] == len(events)
                assert stats["estimate"] == reference
                assert sum(stats["shard_times"]) == len(events)
                top = client.top_vertices(k=5)
                assert len(top) == 5
                counts = client.local_counts([top[0][0]])
                assert counts[top[0][0]] == top[0][1]
                # a control failure reports the remote traceback and
                # keeps the connection serving
                with pytest.raises(ServiceError, match="unknown query"):
                    client.query("no-such-kind")
                assert client.estimate() == reference
                ck = client.checkpoint()
                assert ck == {"clock": len(events), "durable": True}
            # a second connection attaches to the same tenant
            with ServiceClient(service.address) as other:
                info = other.attach("feed")
                assert info["clock"] == len(events)
                assert info["config"] == config.to_dict()
                assert other.estimate() == reference
                with pytest.raises(ServiceError, match="no stream named"):
                    other.attach("nope")

    def test_duplicate_create_rejected(self, tmp_path):
        with CountingService(ServiceConfig()) as service:
            with ServiceClient(service.address) as client:
                client.create_stream("dup", StreamConfig(budget=64))
                with pytest.raises(ServiceError, match="already exists"):
                    client.create_stream("dup", StreamConfig(budget=64))

    def test_block_before_attach_drops_connection(self, events):
        from repro.graph.stream import EventBlock

        with CountingService(ServiceConfig()) as service:
            client = ServiceClient(service.address)
            client.send_block(EventBlock.from_events(events[:16]))
            with pytest.raises(ServiceError, match="before create/attach"):
                client.estimate()
            client.close()


class TestDurability:
    def test_restore_is_a_bit_identical_continuation(self, events, tmp_path):
        config = StreamConfig(budget=300, seed=13, track_local=True)
        reference = serial_reference(events, config, "durable")
        half = len(events) // 2

        first = StreamSession(
            "durable", config, state_dir=tmp_path
        )
        first.ingest(events[:half])
        top_before = first.queries.top_vertices(5)
        first.checkpoint()
        first.close()

        second = StreamSession.restore("durable", tmp_path)
        assert second.clock == half
        assert second.queries.top_vertices(5) == top_before
        second.ingest(events[half:])
        assert second.queries.estimate() == reference
        second.close()

    def test_generations_are_committed_atomically(self, events, tmp_path):
        config = StreamConfig(budget=300, seed=13)
        session = StreamSession("gen", config, state_dir=tmp_path)
        session.ingest(events[:200])
        session.checkpoint()
        session.ingest(events[200:400])
        session.checkpoint()
        session.close()

        directory = tmp_path / "gen"
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["generation"] == 2
        on_disk = {p.name for p in directory.iterdir()}
        # the committed generation AND its predecessor are retained
        # (the fallback target if generation 2 turns out corrupt);
        # anything older is pruned
        assert on_disk == {
            "manifest.json",
            "manifest-g000001.json",
            "manifest-g000002.json",
            "shard-0000-g000001.ckpt",
            *manifest["shard_files"],
        }
        # stray files from a hypothetical torn write do not break restore
        (directory / "shard-0000-g000099.ckpt").write_bytes(b"garbage")
        restored = StreamSession.restore("gen", tmp_path)
        assert restored.clock == 400
        restored.ingest(events[400:600])
        restored.checkpoint()  # generation 3: generation 1 is pruned
        restored.close()
        on_disk = {p.name for p in directory.iterdir()}
        assert "shard-0000-g000001.ckpt" not in on_disk
        assert "manifest-g000001.json" not in on_disk
        assert "shard-0000-g000002.ckpt" in on_disk
        assert "shard-0000-g000099.ckpt" not in on_disk  # unrecognised gen swept

    def test_service_restores_every_tenant_at_boot(self, events, tmp_path):
        config_a = StreamConfig(budget=200, seed=1)
        config_b = StreamConfig(budget=300, seed=2)
        with CountingService(
            ServiceConfig(state_dir=tmp_path, checkpoint_interval=None)
        ) as service:
            with ServiceClient(service.address) as client:
                client.create_stream("a", config_a)
                client.send_events(events[:300])
                # block pushes are fire-and-forget: a barrier query
                # before disconnecting guarantees they were applied
                assert client.time() == 300
            with ServiceClient(service.address) as client:
                client.create_stream("b", config_b)
                client.send_events(events[:500])
                assert client.time() == 500
        # stop() checkpointed both; a fresh service restores both
        reborn = CountingService(
            ServiceConfig(state_dir=tmp_path, checkpoint_interval=None)
        )
        assert reborn.streams() == ("a", "b")
        assert reborn.get_stream("a").clock == 300
        assert reborn.get_stream("b").clock == 500
        reborn.stop()



class TestServiceCli:
    def test_sigint_before_serving_still_stops(self, monkeypatch, tmp_path):
        """A Ctrl-C that lands between the service's start and its
        serve loop (here: while the banner lists restored streams)
        exits 0 through stop() and its stop-time checkpoint."""
        from repro.streams import service as service_module

        stopped = []
        real_stop = CountingService.stop
        real_streams = CountingService.streams

        def stop(service):
            stopped.append(service)
            real_stop(service)

        def interrupted_streams(service):
            # One-shot, so a traceback that reprs the service still works.
            monkeypatch.setattr(CountingService, "streams", real_streams)
            raise KeyboardInterrupt

        monkeypatch.setattr(CountingService, "stop", stop)
        monkeypatch.setattr(CountingService, "streams", interrupted_streams)
        try:
            code = service_module.main([
                "--listen", "127.0.0.1:0",
                "--state-dir", str(tmp_path),
                "--checkpoint-interval", "0",
            ])
        except KeyboardInterrupt:
            pytest.fail("the Ctrl-C escaped main() instead of stopping it")
        assert code == 0
        assert len(stopped) == 1

class TestSoak:
    """The headline scenario: socket ingest + concurrent queries +
    a worker kill + a whole-service restart, ending bit-identical."""

    def test_kill_worker_then_restart_service(self, events, tmp_path):
        config = StreamConfig(
            budget=400, seed=5, shards=2, mode="partition"
        )
        reference = serial_reference(events, config, "soak")
        step = 113
        sent = 0

        service = CountingService(
            ServiceConfig(
                state_dir=tmp_path,
                checkpoint_interval=None,
                executor=ExecutorOptions(backend="process", chunk_size=256),
            )
        )
        address = service.start()
        client = ServiceClient(address)
        client.create_stream("soak", config)

        # concurrent reader on its own connection, querying throughout
        stop_reading = threading.Event()
        reader_failures: list[BaseException] = []

        def read_loop() -> None:
            try:
                with ServiceClient(address) as reader:
                    reader.attach("soak")
                    while not stop_reading.is_set():
                        assert np.isfinite(reader.estimate())
            except BaseException as exc:  # surfaced by the main thread
                reader_failures.append(exc)

        reader_thread = threading.Thread(target=read_loop, daemon=True)
        reader_thread.start()

        third = len(events) // 3
        while sent < third:
            client.send_events(events[sent:sent + step])
            sent += step
        assert client.checkpoint()["clock"] == sent

        # kill one worker process mid-stream; ingestion must recover
        # via restart_shard + WAL replay without losing an event
        session = service.get_stream("soak")
        session.executor._workers[1].transport.process.kill()

        while sent < 2 * third:
            client.send_events(events[sent:sent + step])
            sent += step
        assert client.time() == sent  # recovery was invisible

        stop_reading.set()
        reader_thread.join(timeout=30)
        assert not reader_failures
        client.checkpoint()
        client.close()
        service.stop()  # kills the remaining workers with the service

        # a new service process restores the tenant from disk and the
        # stream finishes exactly where a serial run would
        reborn = CountingService(
            ServiceConfig(state_dir=tmp_path, checkpoint_interval=None)
        )
        address = reborn.start()
        with ServiceClient(address) as client:
            info = client.attach("soak")
            assert info["clock"] == sent
            while sent < len(events):
                client.send_events(events[sent:sent + step])
                sent += step
            assert client.time() == len(events)
            assert client.estimate() == reference
        reborn.stop()
