"""Remote-backend executor tests: the distributed bit-identity contract.

``ExecutorOptions(backend="remote")`` must be a pure *placement*
choice, just as the process backend is a pure deployment choice: under
fixed seeds a fleet of shard replicas leased across TCP host agents
produces estimates identical to the serial backend — through crashes,
frame corruption, restarts onto surviving hosts, and elastic membership
changes. Host agents here are local processes standing in for separate
machines; nothing in the coordinator path knows the difference.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError, ProtocolError, WorkerCrashError
from repro.experiments.config import ExperimentConfig
from repro.graph.generators import powerlaw_cluster
from repro.graph.stream import EdgeEvent, EventBlock
from repro.samplers import GPS, GPSA, WRS, WSD, ThinkD, Triest
from repro.samplers.checkpoint import sampler_state_dict, state_to_wire
from repro.streams import ShardedStreamExecutor, ShardWorker, build_stream
from repro.streams.executor import ExecutorOptions
from repro.streams.host import HostAgent, spawn_local_host
from repro.streams.transport import (
    FRAME_HELLO,
    PROTOCOL_VERSION,
    _FRAME_HEADER,
    _FRAME_MAGIC,
    TcpShardTransport,
    read_frame,
)
from repro.utils.rng import spawn_generators
from repro.weights.heuristic import GPSHeuristicWeight, UniformWeight


@pytest.fixture(scope="module")
def streams():
    edges = powerlaw_cluster(130, m=4, triangle_probability=0.6, rng=0)
    return {
        "light": list(build_stream(edges, "light", rng=3)),
        "insertion-only": list(build_stream(edges, "insertion-only")),
    }


@pytest.fixture(scope="module")
def agents():
    """Two long-lived local host agents, shared across parity tests.

    An agent serves any number of leases over its lifetime, so the
    cheap thing is one pair for the whole module; fault-injection tests
    that kill agents spawn their own.
    """
    hosts = [spawn_local_host(), spawn_local_host()]
    yield hosts
    for host in hosts:
        host.stop()


#: Every checkpointable sampler family; GPS is insertion-only by design.
SAMPLER_CASES = [
    ("wsd-h", "light",
     lambda rng: WSD("triangle", 60, GPSHeuristicWeight(), rng=rng)),
    ("wsd-u", "light",
     lambda rng: WSD("triangle", 60, UniformWeight(), rng=rng)),
    ("gps", "insertion-only",
     lambda rng: GPS("triangle", 60, GPSHeuristicWeight(), rng=rng)),
    ("gps-a", "light",
     lambda rng: GPSA("triangle", 60, GPSHeuristicWeight(), rng=rng)),
    ("thinkd", "light", lambda rng: ThinkD("triangle", 60, rng=rng)),
    ("triest", "light", lambda rng: Triest("triangle", 60, rng=rng)),
    ("wrs", "light", lambda rng: WRS("triangle", 60, rng=rng)),
]


def build_executor(make, backend, mode, seed=17, shards=2, **kwargs):
    rngs = spawn_generators(seed, shards)
    return ShardedStreamExecutor(
        lambda i: make(rngs[i]),
        shards,
        mode=mode,
        options=ExecutorOptions(backend=backend, **kwargs),
    )


def run_serial(make, mode, stream, **kwargs):
    executor = build_executor(make, "serial", mode, **kwargs)
    executor.process_stream(stream)
    return executor


def addresses(agents):
    return tuple(agent.address for agent in agents)


class TestSerialRemoteParity:
    @pytest.mark.parametrize(
        "name,scenario,make",
        SAMPLER_CASES,
        ids=[case[0] for case in SAMPLER_CASES],
    )
    @pytest.mark.parametrize("mode", ["partition", "broadcast"])
    def test_estimates_identical(
        self, streams, agents, name, scenario, make, mode
    ):
        stream = streams[scenario]
        serial = run_serial(make, mode, stream)
        with build_executor(
            make, "remote", mode, chunk_size=128, hosts=addresses(agents)
        ) as remote:
            remote.process_stream(stream)
            assert remote.estimate == serial.estimate
            assert remote.shard_estimates() == serial.shard_estimates()
            assert remote.time == serial.time
        # close() harvested the final worker checkpoints back into the
        # parent replicas; the answers must survive the harvest.
        assert remote.estimate == serial.estimate

    def test_shards_place_round_robin(self, streams, agents):
        make = SAMPLER_CASES[0][2]
        with build_executor(
            make, "remote", "partition", shards=3,
            hosts=addresses(agents), chunk_size=64,
        ) as remote:
            remote.process_batch(streams["light"][:100])
            a, b = addresses(agents)
            assert remote.shard_hosts() == [a, b, a]
            assert remote.hosts == (a, b)

    def test_non_int_labels_are_rejected_before_any_lease(self, agents):
        events = [EdgeEvent.insertion("a", "b"), EdgeEvent.insertion("b", "c")]
        make = SAMPLER_CASES[4][2]
        assert run_serial(make, "partition", events).time == len(events)
        with build_executor(
            make, "remote", "partition", hosts=addresses(agents)
        ) as remote:
            with pytest.raises(ConfigurationError, match="VertexInterner"):
                remote.process_stream(events)
            assert remote.shard_hosts() is None  # nothing was leased
            remote.process(EdgeEvent.insertion(1, 2))
            with pytest.raises(ConfigurationError, match="VertexInterner"):
                remote.process(events[0])
            assert remote.time == 1

    def test_chunking_does_not_change_results(self, streams, agents):
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        serial = run_serial(make, "partition", stream)
        for chunk_size in (32, 4096):
            with build_executor(
                make, "remote", "partition", chunk_size=chunk_size,
                hosts=addresses(agents),
            ) as remote:
                remote.process_stream(stream)
                assert remote.estimate == serial.estimate


class TestRemoteConfiguration:
    def test_remote_requires_hosts(self):
        make = SAMPLER_CASES[0][2]
        with pytest.raises(ConfigurationError, match="hosts"):
            build_executor(make, "remote", "partition")

    def test_hosts_only_valid_for_remote(self):
        make = SAMPLER_CASES[0][2]
        with pytest.raises(ConfigurationError, match="remote"):
            build_executor(
                make, "process", "partition", hosts=("127.0.0.1:1",)
            )

    def test_duplicate_hosts_rejected(self):
        make = SAMPLER_CASES[0][2]
        with pytest.raises(ConfigurationError, match="duplicate"):
            build_executor(
                make, "remote", "partition",
                hosts=("127.0.0.1:1", "127.0.0.1:1"),
            )

    def test_membership_ops_require_remote_backend(self):
        make = SAMPLER_CASES[0][2]
        executor = build_executor(make, "serial", "partition")
        with pytest.raises(ConfigurationError, match="remote"):
            executor.add_host("127.0.0.1:1")
        with pytest.raises(ConfigurationError, match="remote"):
            executor.drain_host("127.0.0.1:1")

    def test_experiment_config_validation(self):
        base = ExperimentConfig(shards=2)
        base.with_changes(
            executor=ExecutorOptions(
                backend="remote", hosts=("127.0.0.1:9000",)
            ),
        ).validate()
        with pytest.raises(ConfigurationError, match="hosts"):
            base.with_changes(
                executor=ExecutorOptions(backend="remote")
            ).validate()
        with pytest.raises(ConfigurationError, match="remote"):
            base.with_changes(
                executor=ExecutorOptions(hosts=("127.0.0.1:9000",))
            ).validate()
        with pytest.raises(ConfigurationError, match="heartbeat"):
            base.with_changes(
                executor=ExecutorOptions(heartbeat_interval=0.0)
            ).validate()

    def test_executor_knobs_accepted_with_parity(self, streams, agents):
        """The liveness knobs are plumbing, not semantics: tightening
        them must not change any estimate."""
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        serial = run_serial(make, "partition", stream)
        with build_executor(
            make, "remote", "partition", hosts=addresses(agents),
            chunk_size=128, queue_depth=2, heartbeat_interval=0.05,
        ) as remote:
            remote.process_stream(stream)
            assert remote.estimate == serial.estimate


class TestFaultInjection:
    def test_host_death_mid_stream_names_shard_and_recovers(self, streams):
        """Kill a host agent between batches; the crash names the dead
        shard, restart onto the surviving host continues bit-identically,
        and the survivor is never replayed."""
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        serial = run_serial(make, "partition", stream)
        half = len(stream) // 2
        victim, survivor = spawn_local_host(), spawn_local_host()
        try:
            remote = build_executor(
                make, "remote", "partition", chunk_size=64,
                hosts=(victim.address, survivor.address),
            )
            remote.process_batch(stream[:half])
            remote.snapshot()  # barrier: checkpoint covers exactly [:half]
            survivor_time_before = remote.shard_times()[1]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            with pytest.raises(WorkerCrashError) as crash:
                remote.process_batch(stream[half:])
            assert crash.value.shard_index == 0
            assert "shard 0" in str(crash.value)
            remote.restart_shard(0, host=survivor.address)
            assert remote.shard_hosts() == [
                survivor.address, survivor.address
            ]
            # The survivor kept its live state across the recovery —
            # same clock, no replay.
            assert remote.shard_times()[1] == survivor_time_before
            remote.process_batch(stream[half:])
            assert remote.estimate == serial.estimate
            assert remote.shard_times() == [
                shard.time for shard in serial.shards
            ]
            remote.close()
            assert remote.estimate == serial.estimate
        finally:
            victim.stop()
            survivor.stop()

    def test_connection_drop_during_snapshot_recovers(self, streams):
        """Drop one shard's connection; the next snapshot attempt names
        it, and restarting from the retained checkpoint (taken at the
        same event horizon) continues bit-identically."""
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        serial = run_serial(make, "partition", stream)
        half = len(stream) // 2
        hosts = [spawn_local_host(), spawn_local_host()]
        try:
            remote = build_executor(
                make, "remote", "partition", chunk_size=64,
                hosts=addresses(hosts),
            )
            remote.process_batch(stream[:half])
            remote.snapshot()
            # Sever shard 0's lease underneath the executor — the
            # "connection lost during a later snapshot" scenario. No
            # events were dispatched since the snapshot, so the retained
            # checkpoint is exactly the replica's lost state.
            remote._workers[0].transport.kill()
            with pytest.raises(WorkerCrashError) as crash:
                remote.snapshot()
            assert crash.value.shard_index == 0
            remote.restart_shard(0)
            remote.process_batch(stream[half:])
            assert remote.estimate == serial.estimate
            assert remote.shard_times() == [
                shard.time for shard in serial.shards
            ]
            remote.close()
        finally:
            for host in hosts:
                host.stop()

    def test_truncated_frame_reported_as_error(self, streams):
        """A frame that dies mid-payload surfaces the host's
        ProtocolError as an ordinary error reply, not garbage."""
        agent = HostAgent()
        server = threading.Thread(target=agent.serve_forever, daemon=True)
        server.start()
        try:
            make = SAMPLER_CASES[4][2]  # thinkd: no weight_fn needed
            state = state_to_wire(
                sampler_state_dict(make(spawn_generators(1, 1)[0]))
            )
            transport = TcpShardTransport(0, state, None, agent.address)
            header = _FRAME_HEADER.pack(
                _FRAME_MAGIC, PROTOCOL_VERSION, 1, 50
            )
            transport._sock.sendall(header + b"ten bytes!")
            transport._sock.shutdown(socket.SHUT_WR)  # EOF mid-frame
            reply = transport.recv()
            assert reply[0] == "error"
            assert "truncated" in reply[2]
            transport.release()
        finally:
            agent.shutdown()

    def test_garbage_magic_reported_as_error(self, streams):
        agent = HostAgent()
        server = threading.Thread(target=agent.serve_forever, daemon=True)
        server.start()
        try:
            make = SAMPLER_CASES[4][2]
            state = state_to_wire(
                sampler_state_dict(make(spawn_generators(1, 1)[0]))
            )
            transport = TcpShardTransport(0, state, None, agent.address)
            transport._sock.sendall(
                _FRAME_HEADER.pack(b"EVIL", PROTOCOL_VERSION, 1, 0)
            )
            reply = transport.recv()
            assert reply[0] == "error"
            assert "magic" in reply[2]
            transport.release()
        finally:
            agent.shutdown()

    def test_cross_version_peer_rejected_at_handshake(self, streams):
        """A host speaking a different protocol version is rejected
        before any lease payload is exchanged."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        host, port = listener.getsockname()[:2]

        def impostor():
            conn, _ = listener.accept()
            read_frame(conn)  # swallow the client's HELLO
            conn.sendall(
                _FRAME_HEADER.pack(
                    _FRAME_MAGIC, PROTOCOL_VERSION + 1, FRAME_HELLO, 0
                )
            )
            conn.close()

        server = threading.Thread(target=impostor, daemon=True)
        server.start()
        try:
            make = SAMPLER_CASES[4][2]
            state = state_to_wire(
                sampler_state_dict(make(spawn_generators(1, 1)[0]))
            )
            with pytest.raises(ProtocolError, match="version"):
                TcpShardTransport(0, state, None, f"{host}:{port}")
        finally:
            listener.close()
            server.join(timeout=5.0)

    def test_replica_failure_ships_traceback(self, agents):
        """A replica that raises reports the cause over the wire, just
        like a local worker process does through its outbox."""
        make = SAMPLER_CASES[2][2]  # gps: deletions are a SamplerError
        sampler = make(spawn_generators(1, 1)[0])
        worker = ShardWorker(
            3,
            state_to_wire(sampler_state_dict(sampler)),
            weight_fn=sampler.weight_fn,
            host=agents[0].address,
        )
        events = [EdgeEvent.insertion(i, i + 1) for i in range(20)]
        events.append(EdgeEvent.deletion(0, 1))
        worker.send_block(EventBlock.from_events(events))
        with pytest.raises(WorkerCrashError, match="shard 3") as excinfo:
            worker.request("sync")
        assert "SamplerError" in str(excinfo.value)


class TestElasticMembership:
    def test_add_then_drain_streams_bit_identically(self, streams):
        """Start on 2 hosts, add a third mid-stream, drain the first
        mid-stream, keep streaming — final estimates bit-identical to
        serial and no shard ever replayed (per-shard clocks exact)."""
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        serial = run_serial(make, "partition", stream, shards=3)
        hosts = [spawn_local_host() for _ in range(3)]
        a, b, c = addresses(hosts)
        third = len(stream) // 3
        try:
            remote = build_executor(
                make, "remote", "partition", shards=3, chunk_size=64,
                hosts=(a, b),
            )
            remote.process_batch(stream[:third])
            clocks_before = remote.shard_times()

            moved_in = remote.add_host(c)
            assert remote.hosts == (a, b, c)
            assert c in remote.shard_hosts()
            assert moved_in  # 3 shards over 3 hosts: one must move
            # The handoff is a checkpoint move, not a replay: clocks
            # are exactly where the first third left them.
            assert remote.shard_times() == clocks_before

            remote.process_batch(stream[third:2 * third])
            clocks_mid = remote.shard_times()

            moved_out = remote.drain_host(a)
            assert remote.hosts == (b, c)
            assert a not in remote.shard_hosts()
            assert moved_out
            assert remote.shard_times() == clocks_mid

            remote.process_batch(stream[2 * third:])
            assert remote.estimate == serial.estimate
            assert remote.shard_estimates() == serial.shard_estimates()
            assert remote.shard_times() == [
                shard.time for shard in serial.shards
            ]
            remote.close()
            assert remote.estimate == serial.estimate
        finally:
            for host in hosts:
                host.stop()

    def test_add_host_before_launch_joins_initial_placement(self, agents):
        make = SAMPLER_CASES[0][2]
        remote = build_executor(
            make, "remote", "partition", shards=2,
            hosts=(agents[0].address,),
        )
        assert remote.add_host(agents[1].address) == []
        remote.process_batch([])  # launch the fleet
        assert remote.shard_hosts() == [
            agents[0].address, agents[1].address
        ]
        remote.close()

    def test_drain_guards(self, agents):
        make = SAMPLER_CASES[0][2]
        remote = build_executor(
            make, "remote", "partition", hosts=(agents[0].address,),
        )
        with pytest.raises(ConfigurationError, match="only host"):
            remote.drain_host(agents[0].address)
        with pytest.raises(ConfigurationError, match="not a member"):
            remote.drain_host("127.0.0.1:1")
        with pytest.raises(ConfigurationError, match="already a member"):
            remote.add_host(agents[0].address)
        remote.close()

    def test_restart_shard_rejects_non_member_host(self, streams, agents):
        make = SAMPLER_CASES[0][2]
        remote = build_executor(
            make, "remote", "partition", hosts=addresses(agents),
        )
        remote.process_batch(streams["light"][:50])
        remote.snapshot()
        with pytest.raises(ConfigurationError, match="not a member"):
            remote.restart_shard(0, host="127.0.0.1:1")
        remote.close()


class TestHostAgentCli:
    def test_module_entry_point_serves_leases(self, streams):
        """``python -m repro.streams.host --listen`` is the real
        deployment surface; drive one worker through it end to end."""
        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.streams.host",
                "--listen", "127.0.0.1:0",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line
            address = line.strip().rsplit(" ", 1)[-1]
            make = SAMPLER_CASES[4][2]
            sampler = make(spawn_generators(1, 1)[0])
            reference = make(spawn_generators(1, 1)[0])
            worker = ShardWorker(
                0, state_to_wire(sampler_state_dict(sampler)), host=address
            )
            events = streams["light"][:200]
            worker.send_block(EventBlock.from_events(events))
            reference.process_batch(events)
            _, _, shard_time, estimate = worker.request("sync")
            assert shard_time == reference.time
            assert estimate == reference.estimate
            state = worker.stop()
            # Byte equality: the replica's framed checkpoint is exactly
            # what the reference state encodes to.
            assert state == state_to_wire(sampler_state_dict(reference))
        finally:
            proc.terminate()
            proc.wait(timeout=10.0)
            proc.stdout.close()

    def test_sigint_stops_an_agent_started_with_sigint_ignored(self):
        """A shell's ``cmd &`` starts the agent with SIGINT ignored;
        ``main`` restores the default handler, so SIGINT still ends it
        cleanly (exit 0) instead of being dropped."""
        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.streams.host",
                "--listen", "127.0.0.1:0",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            assert "listening on" in proc.stdout.readline()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            proc.stdout.close()

    @pytest.mark.parametrize("exit_with", [KeyboardInterrupt, RuntimeError])
    def test_agent_shut_down_however_serving_ends(self, monkeypatch, exit_with):
        """The agent is shut down on every way out of ``main``: a
        Ctrl-C returns 0, any other exception propagates after the
        shutdown."""
        from repro.streams import host as host_module

        shut = []
        real_shutdown = HostAgent.shutdown

        def shutdown(agent):
            shut.append(agent)
            real_shutdown(agent)

        def serve_forever(agent):
            raise exit_with

        monkeypatch.setattr(HostAgent, "shutdown", shutdown)
        monkeypatch.setattr(HostAgent, "serve_forever", serve_forever)
        argv = ["--listen", "127.0.0.1:0"]
        if exit_with is KeyboardInterrupt:
            try:
                assert host_module.main(argv) == 0
            except KeyboardInterrupt:
                pytest.fail("the Ctrl-C escaped main() instead of stopping it")
        else:
            with pytest.raises(exit_with):
                host_module.main(argv)
        assert len(shut) == 1
