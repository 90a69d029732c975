"""Hostile bytes at rest and on the wire: quarantine + typed rejection.

The robustness contract under test: persisted state that fails
validation (truncated, bit-flipped, zero-length, malformed) is
quarantined — renamed into the stream's ``quarantine/`` directory with
a :class:`CorruptStateWarning` — and the service restores from the
newest state that validates, instead of crashing or silently reading
garbage. On the wire, cross-version peers and unknown weight specs are
rejected with typed errors at handshake/lease time.
"""

import json
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro import build_stream
from repro.errors import CorruptStateWarning, ProtocolError, ServiceError
from repro.graph.generators import powerlaw_cluster
from repro.streams.codec import decode, encode, wal_from_wire
from repro.streams.executor import ExecutorOptions
from repro.streams.host import HostAgent
from repro.streams.ingest import ServiceClient
from repro.streams.service import (
    CountingService,
    ServiceConfig,
    StreamConfig,
    StreamSession,
)
from repro.streams.transport import (
    _FRAME_HEADER,
    _FRAME_MAGIC,
    FRAME_CONTROL,
    FRAME_HELLO,
    PROTOCOL_VERSION,
    frame_bytes,
    hello_payload,
    parse_address,
    read_frame,
)


@pytest.fixture(scope="module")
def events():
    edges = powerlaw_cluster(260, m=4, triangle_probability=0.6, rng=3)
    stream = build_stream(edges, "light", beta=0.2, rng=4)
    return list(stream)


def _spilled_state_dir(events, tmp_path):
    """A stream directory with a committed checkpoint at clock 200
    plus spilled WAL segments on top (the crashed-process shape)."""
    session = StreamSession(
        "victim",
        StreamConfig(budget=200, seed=11),
        state_dir=tmp_path,
        wal_spill_events=40,
    )
    session.ingest(events[:200])
    session.checkpoint()
    for start in range(200, 500, 50):
        session.ingest(events[start : start + 50])
    stats = session.wal_stats()
    assert stats["segments"] >= 2, "setup must spill several segments"
    # Crash: tear the executor down without checkpointing, so the
    # spilled segments are the only trace of the post-checkpoint events.
    session.close()
    return stats


class TestWalQuarantine:
    def _restore(self):
        return StreamSession.restore("victim", self._dir)

    def _segments(self, tmp_path):
        return sorted((tmp_path / "victim" / "wal").iterdir())

    def test_clean_restore_replays_all_segments(self, events, tmp_path):
        stats = _spilled_state_dir(events, tmp_path)
        restored = StreamSession.restore("victim", tmp_path)
        assert restored.clock == 200 + stats["spilled_events"]
        assert restored.wal_stats()["quarantined_segments"] == 0
        restored.close()

    @pytest.mark.parametrize(
        "corruption",
        ["truncate", "bit_flip", "zero_length"],
    )
    def test_corrupt_first_segment_quarantines_all(
        self, events, tmp_path, corruption
    ):
        _spilled_state_dir(events, tmp_path)
        segments = self._segments(tmp_path)
        first = segments[0]
        blob = first.read_bytes()
        if corruption == "truncate":
            first.write_bytes(blob[: len(blob) // 2])
        elif corruption == "bit_flip":
            mangled = bytearray(blob)
            mangled[len(mangled) // 2] ^= 0x10
            first.write_bytes(bytes(mangled))
        else:
            first.write_bytes(b"")
        with pytest.warns(CorruptStateWarning, match="quarantined"):
            restored = StreamSession.restore("victim", tmp_path)
        # Nothing replayable survived the gap: back to the checkpoint.
        assert restored.clock == 200
        quarantine = tmp_path / "victim" / "quarantine"
        assert len(list(quarantine.iterdir())) == len(segments)
        restored.close()

    def test_corrupt_middle_segment_keeps_the_prefix(
        self, events, tmp_path
    ):
        _spilled_state_dir(events, tmp_path)
        segments = self._segments(tmp_path)
        prefix_events = sum(
            sum(len(entry) for entry in wal_from_wire(path.read_bytes()))
            for path in segments[:1]
        )
        target = segments[1]
        mangled = bytearray(target.read_bytes())
        mangled[-1] ^= 0xFF
        target.write_bytes(bytes(mangled))
        with pytest.warns(CorruptStateWarning):
            restored = StreamSession.restore("victim", tmp_path)
        assert restored.clock == 200 + prefix_events
        assert restored.wal_stats()["quarantined_segments"] == (
            len(segments) - 1
        )
        restored.close()

    def test_restore_after_quarantine_is_rerunnable(self, events, tmp_path):
        """The quarantined files stay out of the way of later restores."""
        _spilled_state_dir(events, tmp_path)
        self._segments(tmp_path)[0].write_bytes(b"")
        with pytest.warns(CorruptStateWarning):
            first = StreamSession.restore("victim", tmp_path)
        clock = first.clock
        first.ingest(events[500:550])
        first.checkpoint()
        first.close()
        second = StreamSession.restore("victim", tmp_path)
        assert second.clock == clock + 50
        assert second.wal_stats()["quarantined_segments"] == 0
        second.close()


def _checkpointed_state_dir(events, tmp_path, algorithm="WSD-H"):
    """Two committed generations: clock 100 at g1, clock 200 at g2."""
    session = StreamSession(
        "gen",
        StreamConfig(algorithm=algorithm, budget=200, seed=23),
        state_dir=tmp_path,
    )
    session.ingest(events[:100])
    session.checkpoint()
    session.ingest(events[100:200])
    session.checkpoint()
    session.close()
    return tmp_path / "gen"


class TestCheckpointFallback:
    def test_corrupt_latest_shard_falls_back_one_generation(
        self, events, tmp_path
    ):
        directory = _checkpointed_state_dir(events, tmp_path)
        shard = directory / "shard-0000-g000002.ckpt"
        mangled = bytearray(shard.read_bytes())
        mangled[len(mangled) // 2] ^= 0x04
        shard.write_bytes(bytes(mangled))
        with pytest.warns(CorruptStateWarning, match="quarantined"):
            restored = StreamSession.restore("gen", tmp_path)
        assert restored.clock == 100  # generation 1 survives
        names = {p.name for p in (directory / "quarantine").iterdir()}
        assert "shard-0000-g000002.ckpt" in names
        restored.close()

    def test_zero_length_shard_falls_back(self, events, tmp_path):
        directory = _checkpointed_state_dir(events, tmp_path)
        (directory / "shard-0000-g000002.ckpt").write_bytes(b"")
        with pytest.warns(CorruptStateWarning):
            restored = StreamSession.restore("gen", tmp_path)
        assert restored.clock == 100
        restored.close()

    def test_corrupt_manifest_pointer_falls_back_to_generation_copy(
        self, events, tmp_path
    ):
        directory = _checkpointed_state_dir(events, tmp_path)
        (directory / "manifest.json").write_text("{ not json", "utf-8")
        with pytest.warns(CorruptStateWarning):
            restored = StreamSession.restore("gen", tmp_path)
        # manifest-g000002.json carries the same commit: nothing lost.
        assert restored.clock == 200
        restored.close()

    def test_every_generation_corrupt_raises(self, events, tmp_path):
        directory = _checkpointed_state_dir(events, tmp_path)
        (directory / "shard-0000-g000002.ckpt").write_bytes(b"junk")
        (directory / "shard-0000-g000001.ckpt").write_bytes(b"junk")
        with pytest.warns(CorruptStateWarning):
            with pytest.raises(ServiceError, match="validates"):
                StreamSession.restore("gen", tmp_path)

    def test_recovery_continues_after_fallback(self, events, tmp_path):
        directory = _checkpointed_state_dir(events, tmp_path)
        (directory / "shard-0000-g000002.ckpt").write_bytes(b"")
        with pytest.warns(CorruptStateWarning):
            restored = StreamSession.restore("gen", tmp_path)
        restored.ingest(events[100:260])
        restored.checkpoint()
        restored.close()
        reborn = StreamSession.restore("gen", tmp_path)
        assert reborn.clock == 260
        reborn.close()

    def test_shard_of_another_algorithm_falls_back(self, events, tmp_path):
        """A shard file that decodes but holds another algorithm's
        sampler than the manifest names never reaches a worker."""
        directory = _checkpointed_state_dir(events, tmp_path)
        shard = directory / "shard-0000-g000002.ckpt"
        shard.write_bytes(_sampler_blob("Triest"))
        with pytest.warns(CorruptStateWarning, match="quarantined"):
            restored = StreamSession.restore(
                "gen", tmp_path, options=ExecutorOptions(backend="process")
            )
        try:
            assert restored.clock == 100
        finally:
            restored.close()

    def test_service_boot_survives_a_corrupt_tenant_checkpoint(
        self, events, tmp_path
    ):
        _checkpointed_state_dir(events, tmp_path)
        shard = tmp_path / "gen" / "shard-0000-g000002.ckpt"
        shard.write_bytes(b"\x00" * 10)
        with pytest.warns(CorruptStateWarning):
            service = CountingService(
                ServiceConfig(state_dir=tmp_path, checkpoint_interval=None)
            )
        assert service.streams() == ("gen",)
        assert service.get_stream("gen").clock == 100
        service.stop()


# -- hostile format-5 checkpoints -------------------------------------------

_CKPT_HEADER = struct.Struct("<4sBxxxIQ")


def _reframe(doc) -> bytes:
    """A CRC-valid frame-2 checkpoint around an arbitrary RSX2 document."""
    payload = encode(doc)
    return (
        _CKPT_HEADER.pack(b"RPCK", 2, zlib.crc32(payload), len(payload))
        + payload
    )


def _duplicate_first_edge(doc) -> None:
    table = doc["reservoir"]
    for column in ("u", "v"):
        raw = table[column]
        table[column] = raw[:8] + raw[:8] + raw[16:]


def _first_edge(doc, table: str, u: int, v: int) -> None:
    """Overwrite the first edge of ``table``'s int64 columns."""
    columns = doc[table]
    for column, label in (("u", u), ("v", v)):
        columns[column] = struct.pack("<q", label) + columns[column][8:]


def _edge_labels(doc, table: str) -> tuple[int, int]:
    columns = doc[table]
    return (
        struct.unpack_from("<q", columns["u"])[0],
        struct.unpack_from("<q", columns["v"])[0],
    )


def _self_loop(doc) -> None:
    u, _ = _edge_labels(doc, "reservoir")
    _first_edge(doc, "reservoir", u, u)


def _reversed_edge(doc) -> None:
    u, v = _edge_labels(doc, "reservoir")
    _first_edge(doc, "reservoir", v, u)


def _unknown_vertex(doc) -> None:
    u, _ = _edge_labels(doc, "reservoir")
    _first_edge(doc, "reservoir", u, 1 << 40)


#: CRC-valid payloads that each break one format-5 rule. The first
#: seven break the framing and table rules; the rest are states the
#: restore path would refuse or rebuild into a replica no writer makes.
HOSTILE_CHECKPOINTS = {
    "unequal_column_lengths": lambda doc: doc["reservoir"].update(
        rank=doc["reservoir"]["rank"][:-8]
    ),
    "ragged_column_bytes": lambda doc: doc["reservoir"].update(
        time=doc["reservoir"]["time"] + b"\x00\x00\x00"
    ),
    "duplicate_reservoir_edge": _duplicate_first_edge,
    "missing_header_field": lambda doc: doc.pop("threshold"),
    "unknown_algorithm": lambda doc: doc.update(algorithm="wsd-x"),
    "mistyped_header_field": lambda doc: doc.update(budget="many"),
    "ranks_out_of_heap_order": lambda doc: doc["reservoir"].update(
        rank=np.frombuffer(doc["reservoir"]["rank"], "<f8")[::-1].tobytes()
    ),
    "unknown_pattern": lambda doc: doc.update(pattern="pentagon"),
    "unknown_rank_fn": lambda doc: doc.update(rank_fn="gaussian"),
    "unusable_rng_state": lambda doc: doc["rng_state"].update(
        bit_generator="MT19937"
    ),
    "arena_cutoff_zero": lambda doc: doc.update(arena_cutoff=0),
    "self_loop": _self_loop,
    "edge_not_canonical": _reversed_edge,
    "vertex_never_interned": _unknown_vertex,
    "nan_threshold": lambda doc: doc.update(threshold=float("nan")),
    "zero_weight": lambda doc: doc["reservoir"].update(
        weight=bytes(8) + doc["reservoir"]["weight"][8:]
    ),
    "negative_time": lambda doc: doc.update(time=-1),
    "negative_threshold_generation": lambda doc: doc.update(
        threshold_generation=-1
    ),
    "pairing_sample_over_budget": lambda doc: doc.update(budget=3),
    "negative_rp_counter": lambda doc: doc["rp"].update(d_o=-1),
    "negative_triest_tau": lambda doc: doc.update(tau=-1),
    "negative_waiting_room": lambda doc: doc.update(
        waiting_room_capacity=-1
    ),
    "waiting_room_over_budget": lambda doc: doc.update(
        waiting_room_capacity=doc["budget"] + 1
    ),
}

#: The algorithm whose checkpoint each fault edits (WSD-H otherwise).
_FAULT_ALGORITHM = {
    "pairing_sample_over_budget": "ThinkD",
    "negative_rp_counter": "ThinkD",
    "negative_triest_tau": "Triest",
    "negative_waiting_room": "WRS",
    "waiting_room_over_budget": "WRS",
}


def _algorithm(fault: str) -> str:
    return _FAULT_ALGORITHM.get(fault, "WSD-H")


def _hostile(blob: bytes, fault: str) -> bytes:
    doc = decode(blob[_CKPT_HEADER.size:])
    HOSTILE_CHECKPOINTS[fault](doc)
    return _reframe(doc)


def _sampler_blob(algorithm: str = "WSD-H") -> bytes:
    from repro.experiments.algorithms import make_sampler
    from repro.samplers.checkpoint import sampler_state_dict, state_to_wire

    sampler = make_sampler(algorithm, "triangle", 30, rng=3)
    edges = powerlaw_cluster(40, m=3, triangle_probability=0.6, rng=1)
    sampler.process_batch(build_stream(edges, "light", beta=0.2, rng=2))
    return state_to_wire(sampler_state_dict(sampler))


@pytest.mark.parametrize("fault", sorted(HOSTILE_CHECKPOINTS))
class TestHostileCheckpoints:
    def test_decode_raises_protocol_error(self, fault):
        from repro.samplers.checkpoint import state_from_wire

        with pytest.raises(ProtocolError):
            state_from_wire(_hostile(_sampler_blob(_algorithm(fault)), fault))

    def test_service_quarantines_and_falls_back(
        self, events, tmp_path, fault
    ):
        """On the process backend nothing restores in the service, so
        decode alone must refuse the file; the worker then launches
        from generation 1's bytes."""
        directory = _checkpointed_state_dir(
            events, tmp_path, _algorithm(fault)
        )
        shard = directory / "shard-0000-g000002.ckpt"
        shard.write_bytes(_hostile(shard.read_bytes(), fault))
        with pytest.warns(CorruptStateWarning, match="quarantined"):
            restored = StreamSession.restore(
                "gen", tmp_path, options=ExecutorOptions(backend="process")
            )
        try:
            assert restored.clock == 100  # generation 1 survives
            names = {p.name for p in (directory / "quarantine").iterdir()}
            assert "shard-0000-g000002.ckpt" in names
            restored.ingest(events[100:140])
            assert restored.queries.time() == 140
        finally:
            restored.close()

    def test_host_answers_the_lease_with_an_error(self, fault):
        agent = HostAgent()
        thread = threading.Thread(target=agent.serve_forever, daemon=True)
        thread.start()
        try:
            blob = _hostile(_sampler_blob(_algorithm(fault)), fault)
            lease = ("lease", 0, blob, ("uniform", {}))
            blob = frame_bytes(
                FRAME_HELLO, hello_payload("coordinator")
            ) + frame_bytes(FRAME_CONTROL, encode(lease))
            text = _error_text(_exchange(agent.address, blob))
            assert "ProtocolError" in text
        finally:
            agent.shutdown()
            thread.join(timeout=5)


class TestCorruptRepliesAreRefused:
    def test_checkpoint_with_a_corrupt_shard_blob_commits_nothing(
        self, events, tmp_path, monkeypatch
    ):
        session = StreamSession(
            "refuse", StreamConfig(budget=200, seed=23, shards=2),
            state_dir=tmp_path,
        )
        session.ingest(events[:100])
        session.checkpoint()
        session.ingest(events[100:200])
        real_snapshot = session.executor.snapshot

        def corrupt_snapshot():
            blobs = real_snapshot()
            mangled = bytearray(blobs[1])
            mangled[-1] ^= 0x01
            return [blobs[0], bytes(mangled)]

        monkeypatch.setattr(session.executor, "snapshot", corrupt_snapshot)
        with pytest.raises(ProtocolError, match="CRC"):
            session.checkpoint()
        directory = tmp_path / "refuse"
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["generation"] == 1
        assert not list(directory.glob("*-g000002.*"))
        session.close()

    def test_remote_reply_with_a_bad_crc_closes_the_transport(self):
        """A host whose snapshot reply fails its frame CRC is treated as
        a crashed replica: the reply never reaches the protocol layer."""
        from repro.errors import WorkerCrashError
        from repro.streams.transport import accept_hello, write_frame
        from repro.streams.workers import ShardWorker

        blob = _sampler_blob()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        host, port = listener.getsockname()[:2]

        def corrupt_host():
            conn, _ = listener.accept()
            with conn:
                reply, _auth = accept_hello(read_frame(conn), "host", auth=None)
                conn.sendall(reply)
                read_frame(conn)  # the lease
                write_frame(conn, FRAME_CONTROL, encode(("lease", 0, "ok")))
                _, payload = read_frame(conn)
                token = decode(payload)[1]
                mangled = bytearray(blob)
                mangled[-1] ^= 0x01
                write_frame(
                    conn, FRAME_CONTROL,
                    encode(("snapshot", token, bytes(mangled))),
                )
                read_frame(conn)  # until the coordinator hangs up

        server = threading.Thread(target=corrupt_host, daemon=True)
        server.start()
        try:
            worker = ShardWorker(
                0, blob, weight_fn=None, host=f"{host}:{port}",
                options=None,
            )
            with pytest.raises(WorkerCrashError, match="corrupt checkpoint"):
                worker.request("snapshot")
            assert not worker.is_alive()
        finally:
            listener.close()
            server.join(timeout=5.0)


def _raw_hello(version: int, role: str = "client") -> bytes:
    payload = hello_payload(role)
    return _FRAME_HEADER.pack(
        _FRAME_MAGIC, version, FRAME_HELLO, len(payload)
    ) + payload


def _exchange(address: str, blob: bytes) -> list[tuple[int, bytes]]:
    """Send raw bytes, half-close, drain every reply frame."""
    host, port = parse_address(address)
    deadline = time.monotonic() + 10.0
    replies = []
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(blob)
        sock.shutdown(socket.SHUT_WR)
        while True:
            try:
                frame = read_frame(sock, deadline=deadline)
            except Exception:
                break
            if frame is None:
                break
            replies.append(frame)
    return replies


def _error_text(replies) -> str:
    for kind, payload in replies:
        if kind != FRAME_CONTROL:
            continue
        reply = decode(payload)
        if reply[0] == "error":
            return reply[2]
    raise AssertionError(f"no error reply in {replies!r}")


class TestWireRejection:
    @pytest.fixture()
    def service(self):
        service = CountingService(ServiceConfig(checkpoint_interval=None))
        service.start()
        yield service
        service.stop()

    @pytest.fixture()
    def host_agent(self):
        agent = HostAgent()
        thread = threading.Thread(target=agent.serve_forever, daemon=True)
        thread.start()
        yield agent
        agent.shutdown()
        thread.join(timeout=5)

    def test_service_rejects_cross_version_hello(self, service):
        replies = _exchange(service.address, _raw_hello(PROTOCOL_VERSION - 1))
        text = _error_text(replies)
        assert "protocol version" in text
        assert str(PROTOCOL_VERSION) in text
        # and the front still serves current-version peers afterwards
        replies = _exchange(
            service.address,
            frame_bytes(FRAME_HELLO, hello_payload("client")),
        )
        assert replies and replies[0][0] == FRAME_HELLO
        meta = json.loads(replies[0][1].decode("utf-8"))
        assert meta["protocol"] == PROTOCOL_VERSION

    def test_host_rejects_cross_version_hello(self, host_agent):
        replies = _exchange(
            host_agent.address, _raw_hello(99, "coordinator")
        )
        assert "protocol version" in _error_text(replies)

    def test_host_rejection_ends_in_eof_not_reset(self, host_agent):
        # The HELLO is rejected on its header, so its payload is still
        # unread when the agent is done: the agent must drain it before
        # closing, or the kernel's reset overtakes the error reply.
        host, port = parse_address(host_agent.address)
        for _ in range(3):
            with socket.create_connection((host, port), timeout=10.0) as sock:
                sock.sendall(_raw_hello(99, "coordinator"))
                sock.shutdown(socket.SHUT_WR)
                deadline = time.monotonic() + 10.0
                kind, payload = read_frame(sock, deadline=deadline)
                assert kind == FRAME_CONTROL
                assert decode(payload)[0] == "error"
                assert read_frame(sock, deadline=deadline) is None

    def test_fronts_reject_a_hello_from_the_wrong_side(
        self, service, host_agent
    ):
        # A client dialling a host agent, a coordinator dialling the
        # service: each fails at the handshake, not at its first request.
        for address, role in (
            (host_agent.address, "client"),
            (service.address, "coordinator"),
        ):
            replies = _exchange(address, _raw_hello(PROTOCOL_VERSION, role))
            assert f"role {role!r}" in _error_text(replies)
        with pytest.raises(ProtocolError, match="announced role 'client'"):
            ServiceClient(host_agent.address)

    def test_host_batch_op_is_a_typed_error(self, host_agent):
        from repro.samplers.checkpoint import state_to_wire
        from repro.streams.fuzz import _fresh_state

        lease = ("lease", 0, state_to_wire(_fresh_state(5)), ("uniform", {}))
        blob = (
            frame_bytes(FRAME_HELLO, hello_payload("coordinator"))
            + frame_bytes(FRAME_CONTROL, encode(lease))
            + frame_bytes(FRAME_CONTROL, encode(("batch", [(True, 1, 2)])))
        )
        text = _error_text(_exchange(host_agent.address, blob))
        assert "unknown op 'batch'" in text

    def test_host_rejects_unknown_weight_spec(self, host_agent):
        from repro.samplers.checkpoint import state_to_wire
        from repro.streams.fuzz import _fresh_state

        blob = frame_bytes(
            FRAME_HELLO, hello_payload("coordinator")
        ) + frame_bytes(
            FRAME_CONTROL,
            encode(
                (
                    "lease",
                    0,
                    state_to_wire(_fresh_state(5)),
                    ("no-such-weights", {}),
                )
            ),
        )
        text = _error_text(_exchange(host_agent.address, blob))
        assert "no-such-weights" in text
        assert "registers" in text

    def test_unregistered_weight_fn_has_no_wire_spec(self):
        from repro.errors import ConfigurationError
        from repro.weights.registry import weight_spec_for

        with pytest.raises(ConfigurationError, match="register"):
            weight_spec_for(lambda u, v: 1.0)

    def test_service_caps_error_traceback_size(self, service):
        # A control op that fails server-side ships a traceback capped
        # at the clip limit, no matter what blew up.
        from repro.utils.text import TRACEBACK_LIMIT

        blob = frame_bytes(
            FRAME_HELLO, hello_payload("client")
        ) + frame_bytes(
            FRAME_CONTROL, encode(("attach", 1, "x" * 200))
        )
        text = _error_text(_exchange(service.address, blob))
        assert len(text) <= TRACEBACK_LIMIT + 100


class TestFrameCapOption:
    def test_service_config_rejects_tiny_caps(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="max_frame_bytes"):
            ServiceConfig(max_frame_bytes=100).validate()
        ServiceConfig(max_frame_bytes=1 << 20).validate()

    def test_lowered_cap_refuses_oversized_frames_with_typed_error(self):
        service = CountingService(
            ServiceConfig(
                checkpoint_interval=None, max_frame_bytes=1 << 20
            )
        )
        service.start()
        try:
            big = encode(("attach", 1, "x"))
            header = _FRAME_HEADER.pack(
                _FRAME_MAGIC, PROTOCOL_VERSION, FRAME_CONTROL, 1 << 21
            )
            blob = (
                frame_bytes(FRAME_HELLO, hello_payload("client"))
                + header
                + big
            )
            text = _error_text(_exchange(service.address, blob))
            assert "frame cap" in text
        finally:
            service.stop()
