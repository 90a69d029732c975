"""Integration tests for the counting-service tier.

The load-bearing claim: hosting a stream behind the service — TCP
ingestion, concurrent queries, worker crashes, whole-service restarts —
never changes a single bit of the estimate relative to the same events
fed to a serial in-process session. Every test here is some corruption
of the happy path (kill a worker, kill the service, interleave readers)
followed by that bit-identity assertion.
"""

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import build_stream
from repro.errors import (
    ConfigurationError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.graph.generators import powerlaw_cluster
from repro.graph.stream import EdgeEvent, EventBlock
from repro.streams.codec import decode, encode
from repro.streams.executor import ExecutorOptions
from repro.streams.ingest import ServiceClient
from repro.streams.service import (
    CountingService,
    ServiceConfig,
    StreamConfig,
    StreamSession,
)
from repro.streams.transport import (
    FRAME_BLOCK,
    FRAME_CONTROL,
    FRAME_HEADER_SIZE,
    frame_bytes,
    initiate_hello,
    parse_address,
    read_frame,
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


class TestOneEventForm:
    """Events leave a process, cross a socket and reach the WAL as int64
    EventBlocks only: a label that does not fit is refused at the
    boundary, before anything is sent, logged or applied."""

    LABELLED = (
        [EdgeEvent.insertion("a", "b"), EdgeEvent.insertion("b", "c")],
        # Equal-length tuples coerce to a 2-D int64 column; ragged ones
        # do not coerce at all.
        [EdgeEvent.insertion((1, 2), (3, 4)), EdgeEvent.insertion((5, 6), (7, 8))],
        [EdgeEvent.insertion((1, 2), (3,)), EdgeEvent.insertion((5,), (7, 8))],
    )

    def test_session_refuses_non_int_labels_before_logging(self):
        with repro.open_stream(StreamConfig(budget=64), name="labels") as session:
            for labelled in self.LABELLED:
                with pytest.raises(ConfigurationError, match="VertexInterner"):
                    session.ingest(labelled)
            assert session.clock == 0
            assert session.wal_stats()["events"] == 0

    def test_client_refuses_non_int_labels_before_sending(self):
        with CountingService(ServiceConfig(checkpoint_interval=None)) as service:
            with ServiceClient(service.address) as client:
                client.create_stream("labels", StreamConfig(budget=64))
                for push in (client.send_events, client.ingest):
                    for labelled in self.LABELLED:
                        with pytest.raises(
                            ConfigurationError, match="VertexInterner"
                        ):
                            push(labelled)
                assert client.time() == 0  # the connection still serves
            assert service.get_stream("labels").wal_stats()["events"] == 0

    def test_wal_entries_are_blocks_after_list_ingests(self, events):
        config = StreamConfig(budget=300, seed=3)
        with repro.open_stream(config, name="wal-form") as session:
            session.ingest(events[:100])
            session.ingest(iter(events[100:200]))
            session.ingest(EventBlock.from_events(events[200:300]))
            assert len(session._wal) == 3
            assert all(isinstance(entry, EventBlock) for entry in session._wal)

    def test_acknowledged_ingest_matches_open_stream(self, events):
        config = StreamConfig(budget=300, seed=12)
        reference = serial_reference(events, config, "acked")
        with CountingService(ServiceConfig(checkpoint_interval=None)) as service:
            with ServiceClient(service.address) as client:
                client.create_stream("acked", config)
                for start in range(0, len(events), 300):
                    batch = events[start:start + 300]
                    assert client.ingest(batch) == len(batch)
                assert client.time() == len(events)
                assert client.estimate() == reference

    def test_acknowledged_ingest_surfaces_overload_on_the_call(self, events):
        with CountingService(
            ServiceConfig(checkpoint_interval=None, wal_hard_limit_events=150)
        ) as service:
            with ServiceClient(service.address) as client:
                client.create_stream("acked-limit", StreamConfig(budget=64))
                client.ingest(events[:100])
                with pytest.raises(ServiceOverloadedError, match="hard limit"):
                    client.ingest(events[100:200])
                assert client.time() == 100

    def test_ingest_of_an_event_list_is_a_typed_error(self, events):
        with CountingService(ServiceConfig(checkpoint_interval=None)) as service:
            conn = RawConnection(service.address)
            conn.request("create", "lists", StreamConfig(budget=64).to_dict(), None)
            conn.sock.sendall(conn.control("ingest", events[:10]))
            replies = conn.replies_until_close()
            assert replies[-1][0] == "error"
            assert "not an EventBlock" in replies[-1][2]
            conn.close()
            assert service.get_stream("lists").clock == 0


@pytest.fixture(scope="module")
def block_stream():
    edges = powerlaw_cluster(5000, m=5, triangle_probability=0.6, rng=0)
    return build_stream(edges, "light", beta=0.2, rng=1, columnar=True)


def frames_of(block, size, count):
    return [block[i * size:(i + 1) * size] for i in range(count)]


class RawConnection:
    """A hand-driven service connection: bytes go out exactly as
    written, and every reply frame is read back, out-of-band included."""

    def __init__(self, address, auth_key=None):
        host, port = parse_address(address)
        self.sock = socket.create_connection((host, port), timeout=5)
        self.auth = initiate_hello(
            self.sock, "client", peer="service", auth_key=auth_key
        )
        self.token = 0

    def block(self, block):
        return frame_bytes(FRAME_BLOCK, block.to_bytes(), self.auth)

    def control(self, op, *rest):
        self.token += 1
        message = encode((op, self.token, *rest))
        return frame_bytes(FRAME_CONTROL, message, self.auth)

    def replies(self):
        """Every reply up to and including the last request's own."""
        replies = []
        while not replies or replies[-1][1] != self.token:
            _kind, payload = self._read()
            replies.append(decode(payload))
        return replies

    def request(self, op, *rest):
        self.sock.sendall(self.control(op, *rest))
        return self.replies()

    def replies_until_close(self):
        replies = []
        while (frame := self._read()) is not None:
            replies.append(decode(frame[1]))
        return replies

    def _read(self):
        # A deadline, so a server that never answers fails the test.
        return read_frame(
            self.sock, auth=self.auth, deadline=time.monotonic() + 30
        )

    def close(self):
        self.sock.close()


class IngestRecorder:
    """Sizes of every ``StreamSession.ingest`` call; :meth:`held`
    stalls them so the frames written meanwhile pile up server-side."""

    def __init__(self):
        self.sizes = []
        self.open = threading.Event()
        self.open.set()

    @contextlib.contextmanager
    def held(self):
        self.open.clear()
        try:
            yield
            time.sleep(0.2)  # the written bytes reach the server's buffer
        finally:
            self.open.set()


@pytest.fixture()
def recorder(monkeypatch):
    recorder = IngestRecorder()
    real_ingest = StreamSession.ingest

    def ingest(session, events):
        recorder.open.wait(10)
        recorder.sizes.append(len(events))
        return real_ingest(session, events)

    monkeypatch.setattr(StreamSession, "ingest", ingest)
    return recorder


class TestCoalescedIngest:
    """BLOCK frames already buffered behind one another land as one
    session batch, and nothing a client can observe changes: estimates,
    the order against queries, per-frame overload, per-frame errors."""

    def test_buffered_frames_land_in_fewer_batches(
        self, block_stream, recorder
    ):
        config = StreamConfig(budget=600, seed=21)
        blocks = frames_of(block_stream, 128, 200)
        with repro.open_stream(config, name="runs") as session:
            for block in blocks:
                session.ingest(block)
            reference = session.queries.estimate()
        recorder.sizes.clear()
        with CountingService(ServiceConfig(checkpoint_interval=None)) as service:
            conn = RawConnection(service.address)
            conn.request("create", "runs", config.to_dict(), None)
            conn.sock.sendall(b"".join(conn.block(b) for b in blocks))
            assert conn.request("query", "time", {})[-1][2] == 200 * 128
            assert conn.request("query", "estimate", {})[-1][2] == reference
            conn.close()
        assert sum(recorder.sizes) == 200 * 128
        assert len(recorder.sizes) < len(blocks)

    def test_a_query_ends_the_run(self, block_stream, recorder):
        config = StreamConfig(budget=300, seed=22)
        blocks = frames_of(block_stream, 128, 3)
        reference = serial_reference(blocks[0].concat(blocks[1]), config, "q")
        with CountingService(ServiceConfig(checkpoint_interval=None)) as service:
            conn = RawConnection(service.address)
            conn.request("create", "q", config.to_dict(), None)
            with recorder.held():
                conn.sock.sendall(
                    conn.block(blocks[0])
                    + conn.block(blocks[1])
                    + conn.control("query", "stats", {})
                    + conn.block(blocks[2])
                )
            (reply,) = conn.replies()
            assert reply[2]["clock"] == 256
            assert reply[2]["estimate"] == reference
            assert conn.request("query", "time", {})[-1][2] == 384
            conn.close()

    def test_hard_limit_inside_a_run_sheds_per_frame(
        self, block_stream, recorder
    ):
        config = StreamConfig(budget=300, seed=23)
        blocks = frames_of(block_stream, 128, 10)
        # Six frames fit under the limit; the last four are shed.
        limit = 6 * 128 + 50
        reference = serial_reference(
            blocks[0].concat(*blocks[1:6]), config, "shed"
        )
        with CountingService(
            ServiceConfig(checkpoint_interval=None, wal_hard_limit_events=limit)
        ) as service:
            conn = RawConnection(service.address)
            conn.request("create", "shed", config.to_dict(), None)
            with recorder.held():
                conn.sock.sendall(b"".join(conn.block(b) for b in blocks))
            replies = conn.request("query", "time", {})
            shed = [r for r in replies if r[0] == "overloaded"]
            assert len(shed) == 4
            assert all(r[1] is None and "hard limit" in r[2]["message"]
                       for r in shed)
            assert replies[-1] == ("query", conn.token, 6 * 128)
            assert conn.request("query", "estimate", {})[-1][2] == reference
            conn.close()
        # The run was tried whole, then frame by frame.
        assert max(recorder.sizes) > 128

    def test_client_raises_after_a_shed_run(self, block_stream, recorder):
        config = StreamConfig(budget=300, seed=24)
        blocks = frames_of(block_stream, 128, 10)
        with CountingService(
            ServiceConfig(
                checkpoint_interval=None, wal_hard_limit_events=6 * 128 + 50
            )
        ) as service:
            with ServiceClient(service.address) as client:
                client.create_stream("retry", config)
                with recorder.held():
                    for block in blocks:
                        client.send_block(block)
                with pytest.raises(ServiceOverloadedError, match="hard limit"):
                    client.time()
                assert client.time() == 6 * 128

    @pytest.mark.parametrize("fault", ["bad_magic", "length", "hmac"])
    def test_bad_frame_mid_run_applies_the_frames_before_it(
        self, block_stream, recorder, fault
    ):
        key = "mid-run-key" if fault == "hmac" else None
        config = StreamConfig(budget=300, seed=25)
        blocks = frames_of(block_stream, 128, 6)
        reference = serial_reference(
            blocks[0].concat(*blocks[1:3]), config, "bad"
        )
        with CountingService(
            ServiceConfig(checkpoint_interval=None, auth_key=key)
        ) as service:
            conn = RawConnection(service.address, key)
            conn.request("create", "bad", config.to_dict(), None)
            wire = [conn.block(b) for b in blocks]
            if fault == "bad_magic":
                wire[3] = b"EVIL" + wire[3][4:]
                expected = "bad frame magic"
            elif fault == "length":
                # Two stray bytes, declared by the header, behind the block.
                header = bytearray(wire[3][:FRAME_HEADER_SIZE])
                header[8:16] = (len(wire[3]) - FRAME_HEADER_SIZE + 2).to_bytes(
                    8, "little"
                )
                wire[3] = bytes(header) + wire[3][FRAME_HEADER_SIZE:] + b"\0\0"
                expected = "length mismatch"
            else:
                wire[3] = wire[3][:-1] + bytes([wire[3][-1] ^ 1])
                expected = "HMAC verification failed"
            with recorder.held():
                conn.sock.sendall(b"".join(wire))
            replies = conn.replies_until_close()
            conn.close()
            assert [r[:2] for r in replies] == [("error", None)]
            assert expected in replies[0][2]
            with ServiceClient(service.address, auth_key=key) as other:
                other.attach("bad")
                assert other.time() == 3 * 128
                assert other.estimate() == reference

    def test_send_events_passes_a_block_through(
        self, block_stream, monkeypatch
    ):
        config = StreamConfig(budget=300, seed=26)
        block = block_stream[:1000]
        reference = serial_reference(block, config, "as-is")

        def refuse(events):
            raise AssertionError("send_events re-encoded an EventBlock")

        with CountingService(ServiceConfig(checkpoint_interval=None)) as service:
            with ServiceClient(service.address) as client:
                client.create_stream("as-is", config)
                monkeypatch.setattr(EventBlock, "from_events", refuse)
                client.send_events(block)
                assert client.time() == len(block)
                assert client.estimate() == reference


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

    def test_manifest_from_an_older_build_restores(self, events, tmp_path):
        """Manifests written before the option set shrank carry five
        execution knobs this build no longer has; restore ignores them
        and continues bit-identically."""
        config = StreamConfig(budget=300, seed=13, shards=2)
        options = ExecutorOptions(chunk_size=256)
        reference = serial_reference(events, config, "older")
        half = len(events) // 2

        first = StreamSession(
            "older", config, options=options, state_dir=tmp_path
        )
        first.ingest(events[:half])
        first.checkpoint()
        first.close()
        for path in (tmp_path / "older").glob("manifest*.json"):
            manifest = json.loads(path.read_text())
            manifest["options"].update(
                transport="shm",
                poll_seconds=0.05,
                slot_poll_seconds=0.001,
                stop_timeout=5.0,
                heartbeat_timeout=30.0,
            )
            path.write_text(json.dumps(manifest))

        second = StreamSession.restore("older", tmp_path)
        assert second.options == options
        assert second.clock == half
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



PROCESS = ExecutorOptions(backend="process", chunk_size=64)


def _process_state_dir(events, tmp_path, name, config, cut, **kwargs):
    """A process-backend stream checkpointed at ``cut`` events, stopped."""
    with StreamSession(
        name, config, options=PROCESS, state_dir=tmp_path, **kwargs
    ) as session:
        session.ingest(events[:cut])
        session.checkpoint()
        return session.queries.stats()


class TestProcessBackendRestore:
    """A restored process-backend stream: the service decodes each shard
    file once and its workers restore the bytes as read."""

    config = StreamConfig(budget=300, seed=13, shards=2)

    def test_restore_then_continue_matches_serial(self, events, tmp_path):
        reference = serial_reference(events, self.config, "proc")
        half = len(events) // 2
        _process_state_dir(events, tmp_path, "proc", self.config, half)
        restored = StreamSession.restore("proc", tmp_path)
        try:
            assert restored.options.backend == "process"
            assert restored.clock == half
            restored.ingest(events[half:])
            assert restored.queries.estimate() == reference
        finally:
            restored.close()

    def test_killed_worker_restarts_from_the_bytes_on_disk(
        self, events, tmp_path
    ):
        reference = serial_reference(events, self.config, "kill")
        half = len(events) // 2
        _process_state_dir(events, tmp_path, "kill", self.config, half)
        directory = tmp_path / "kill"
        manifest = json.loads((directory / "manifest.json").read_text())
        on_disk = [
            (directory / fname).read_bytes()
            for fname in manifest["shard_files"]
        ]
        restored = StreamSession.restore("kill", tmp_path)
        try:
            restored.ingest(events[half:half + 100])
            assert restored.executor._snapshots == on_disk
            victim = restored.executor._workers[0].transport.process
            victim.kill()
            victim.join(5.0)
            restored.ingest(events[half + 100:])
            assert restored.queries.estimate() == reference
            assert restored.supervisor.stats()["recoveries"] >= 1
        finally:
            restored.close()

    def test_spilled_segments_replay_after_a_restore(self, events, tmp_path):
        reference = serial_reference(events, self.config, "spill")
        session = StreamSession(
            "spill", self.config, options=PROCESS, state_dir=tmp_path,
            wal_spill_events=40,
        )
        session.ingest(events[:200])
        session.checkpoint()
        for start in range(200, 500, 50):
            session.ingest(events[start:start + 50])
        assert session.wal_stats()["segments"] >= 2
        session.close()  # no checkpoint: the segments hold events 200-500
        restored = StreamSession.restore(
            "spill", tmp_path, wal_spill_events=40
        )
        try:
            assert restored.clock == 500
            restored.ingest(events[500:])
            assert restored.queries.estimate() == reference
        finally:
            restored.close()

    @pytest.mark.parametrize("algorithm", ["WSD-H", "Triest"])
    def test_first_stats_reads_the_checkpoint_headers(
        self, events, tmp_path, algorithm
    ):
        """WSD-H headers carry each shard's clock and estimate, so the
        first read needs no worker; Triest headers carry τ, so its
        first estimate read launches the workers and barriers."""
        config = self.config.with_changes(algorithm=algorithm)
        expected = _process_state_dir(events, tmp_path, "first", config, 400)
        restored = StreamSession.restore("first", tmp_path)
        try:
            assert restored.executor._workers is None
            assert restored.queries.stats() == expected
            launched = restored.executor._workers is not None
            assert launched == (algorithm == "Triest")
        finally:
            restored.close()

    def test_parent_neither_restores_nor_reencodes(
        self, events, tmp_path, monkeypatch
    ):
        """Restore builds no replica in this process, and the first
        ingest ships the bytes read from disk without encoding any."""
        import repro.samplers.checkpoint as checkpoint

        _process_state_dir(events, tmp_path, "count", self.config, 300)
        calls = dict.fromkeys(
            ("restore_sampler", "sampler_state_dict", "state_to_wire"), 0
        )

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for name in calls:
            original = getattr(checkpoint, name)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and (
                    getattr(module, name, None) is original
                ):
                    monkeypatch.setattr(module, name, counted(name, original))
        restored = StreamSession.restore("count", tmp_path)
        try:
            assert calls["restore_sampler"] == 0
            restored.ingest(events[300:400])
            assert restored.queries.time() == 400
            assert calls == dict.fromkeys(calls, 0)
        finally:
            restored.close()


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

    def test_sigint_stops_a_service_started_with_sigint_ignored(
        self, events, tmp_path
    ):
        """A shell's ``cmd &`` starts the service with SIGINT ignored;
        ``main`` restores the default handler, so SIGINT still exits 0
        through the stop-time checkpoint (the generation advances)."""
        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.streams.service",
                "--listen", "127.0.0.1:0",
                "--state-dir", str(tmp_path),
                "--checkpoint-interval", "0",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        manifest = tmp_path / "cli" / "manifest.json"
        try:
            line = proc.stdout.readline()
            assert "listening on" in line
            address = line.strip().rsplit(" ", 1)[-1]
            with ServiceClient(address) as client:
                client.create_stream("cli", StreamConfig(budget=100, seed=2))
                client.send_events(events[:300])
                client.checkpoint()
            generation = json.loads(manifest.read_text())["generation"]
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            proc.stdout.close()
        assert json.loads(manifest.read_text())["generation"] == generation + 1


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
