"""Liveness and authentication tests for the service and host tiers.

Three failure modes a long-lived deployment meets that the happy path
never shows: a peer that is *hung* rather than dead (nothing arrives,
nothing errors), an idle-but-healthy peer that must not be reaped, and
an impostor peer that speaks the protocol without holding the shared
key. The contracts: every reply wait is bounded by ``op_timeout`` and
surfaces the typed retryable :class:`OperationTimeoutError`; heartbeats
keep idle connections alive past the server's idle deadline while
silent ones are dropped; HMAC signing rejects unkeyed and wrong-keyed
peers at the handshake.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro import build_stream
from repro.errors import (
    ConfigurationError,
    OperationTimeoutError,
    ProtocolError,
    RetryableError,
    ServiceError,
)
from repro.graph.generators import powerlaw_cluster
from repro.samplers import WSD
from repro.streams import ShardedStreamExecutor
from repro.streams.executor import ExecutorOptions
from repro.streams.host import HostAgent, spawn_local_host
from repro.streams.ingest import ServiceClient
from repro.streams.service import CountingService, ServiceConfig, StreamConfig
from repro.streams.transport import (
    FRAME_HELLO,
    hello_payload,
    parse_address,
    read_frame,
    write_frame,
)
from repro.utils.rng import spawn_generators
from repro.weights.heuristic import GPSHeuristicWeight


@pytest.fixture(scope="module")
def events():
    edges = powerlaw_cluster(200, m=4, triangle_probability=0.6, rng=0)
    return list(build_stream(edges, "light", beta=0.2, rng=1))


class SilentServer:
    """Completes the HELLO handshake, then swallows every frame."""

    def __init__(self):
        self._srv = socket.create_server(("127.0.0.1", 0))
        self._srv.settimeout(5.0)
        self._stop = threading.Event()
        port = self._srv.getsockname()[1]
        self.address = f"127.0.0.1:{port}"
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        try:
            conn, _ = self._srv.accept()
        except OSError:
            return
        with conn:
            try:
                read_frame(conn)  # the client's HELLO
                write_frame(conn, FRAME_HELLO, hello_payload("service"))
                conn.settimeout(0.2)
                while not self._stop.is_set():
                    try:
                        if read_frame(conn) is None:
                            return
                    except TimeoutError:
                        continue
            except OSError:
                return

    def close(self):
        self._stop.set()
        self._srv.close()
        self._thread.join(timeout=2.0)


class TestOpTimeout:
    def test_hung_peer_bounds_every_reply_wait(self):
        server = SilentServer()
        try:
            client = ServiceClient(server.address, op_timeout=0.5)
            try:
                start = time.monotonic()
                with pytest.raises(OperationTimeoutError) as excinfo:
                    client.streams()
                elapsed = time.monotonic() - start
                assert 0.3 < elapsed < 5.0
                assert isinstance(excinfo.value, RetryableError)
                assert "0.5" in str(excinfo.value)
            finally:
                client.close()
        finally:
            server.close()

    @pytest.mark.parametrize("bad", [0, -1.0])
    def test_non_positive_op_timeout_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ServiceClient("127.0.0.1:1", op_timeout=bad)

    @pytest.mark.parametrize("bad", [0, -0.5])
    def test_non_positive_heartbeat_interval_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ServiceClient("127.0.0.1:1", heartbeat_interval=bad)


class TestHeartbeats:
    def test_heartbeats_keep_an_idle_client_alive(self, events):
        config = StreamConfig(budget=200, seed=5)
        with CountingService(ServiceConfig(heartbeat_timeout=1.0)) as service:
            with ServiceClient(
                service.address, heartbeat_interval=0.25
            ) as client:
                client.create_stream("hb", config)
                client.ingest(events[:200])
                before = client.estimate()
                time.sleep(1.6)  # idle well past the server's deadline
                assert client.estimate() == before

    def test_a_silent_idle_client_is_reaped(self, events):
        with CountingService(ServiceConfig(heartbeat_timeout=0.5)) as service:
            client = ServiceClient(service.address)  # no heartbeat thread
            try:
                client.create_stream("mute", StreamConfig(budget=64))
                time.sleep(1.3)
                with pytest.raises(ServiceError):
                    client.streams()
            finally:
                client.close()

    def test_reaping_one_client_spares_the_stream(self, events):
        config = StreamConfig(budget=200, seed=6)
        with CountingService(ServiceConfig(heartbeat_timeout=0.5)) as service:
            silent = ServiceClient(service.address)
            silent.create_stream("shared", config)
            silent.ingest(events[:100])
            time.sleep(1.3)  # the silent writer gets dropped...
            with ServiceClient(
                service.address, heartbeat_interval=0.2
            ) as reader:
                reader.attach("shared")  # ...but its stream lives on
                assert np.isfinite(reader.estimate())
            silent.close()


class TestServiceAuth:
    def test_shared_key_round_trip(self, events):
        config = StreamConfig(budget=200, seed=7)
        with CountingService(ServiceConfig(auth_key="sekrit")) as service:
            with ServiceClient(service.address, auth_key="sekrit") as client:
                client.create_stream("signed", config)
                client.ingest(events[:200])
                assert np.isfinite(client.estimate())

    def test_wrong_key_rejected_at_handshake(self):
        with CountingService(ServiceConfig(auth_key="sekrit")) as service:
            with pytest.raises((ProtocolError, ServiceError)):
                ServiceClient(service.address, auth_key="wrong")

    def test_unkeyed_client_rejected(self):
        with CountingService(ServiceConfig(auth_key="sekrit")) as service:
            with pytest.raises((ProtocolError, ServiceError)):
                ServiceClient(service.address)


def make_remote(host, *, seed=17, shards=2, **kwargs):
    rngs = spawn_generators(seed, shards)

    def factory(i):
        return WSD("triangle", 60, GPSHeuristicWeight(), rng=rngs[i])

    return ShardedStreamExecutor(
        factory,
        shards,
        mode="partition",
        options=ExecutorOptions(
            backend="remote", hosts=(host.address,), **kwargs
        ),
    )


def serial_estimate(events, *, seed=17, shards=2):
    rngs = spawn_generators(seed, shards)
    serial = ShardedStreamExecutor(
        lambda i: WSD("triangle", 60, GPSHeuristicWeight(), rng=rngs[i]),
        shards,
        mode="partition",
    )
    serial.ingest(events)
    return serial.estimate


class TestHostLeases:
    def test_heartbeats_keep_a_quiet_lease_alive(self, events):
        reference = serial_estimate(events)
        host = spawn_local_host(heartbeat_timeout=0.6)
        try:
            remote = make_remote(host, heartbeat_interval=0.15)
            try:
                remote.ingest(events[:300])
                time.sleep(1.2)  # no frames but heartbeats cross the lease
                remote.ingest(events[300:])
                assert remote.estimate == reference
            finally:
                remote.close()
        finally:
            host.stop()

    @pytest.mark.parametrize("auth_key", [None, "lease-key"])
    def test_a_peer_silent_before_hello_is_reaped(self, auth_key):
        agent = HostAgent(heartbeat_timeout=0.5, auth_key=auth_key)
        thread = threading.Thread(target=agent.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = parse_address(agent.address)
            with socket.create_connection((host, port), timeout=5.0) as sock:
                start = time.monotonic()
                while sock.recv(4096):  # the expiry report, then EOF
                    pass
                assert time.monotonic() - start < 2.5
        finally:
            agent.shutdown()
            thread.join(timeout=5.0)

    def test_keyed_lease_round_trip(self, events):
        reference = serial_estimate(events)
        host = spawn_local_host(auth_key="lease-key")
        try:
            remote = make_remote(host, auth_key="lease-key")
            try:
                remote.ingest(events)
                assert remote.estimate == reference
            finally:
                remote.close()
        finally:
            host.stop()

    def test_unkeyed_coordinator_rejected(self, events):
        import contextlib

        from repro.errors import ReproError

        host = spawn_local_host(auth_key="lease-key")
        try:
            with pytest.raises((ReproError, OSError)):
                remote = make_remote(host)
                try:
                    remote.ingest(events[:100])
                    remote.estimate  # the read barrier forces the failure
                finally:
                    with contextlib.suppress(Exception):
                        remote.close()
        finally:
            host.stop()
