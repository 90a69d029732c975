"""Process-backend executor tests: the serial-parity contract.

The load-bearing guarantee of ``ExecutorOptions(backend="process")`` is
that it is a pure deployment choice: under fixed seeds it produces
estimates *identical* to the serial backend, for every checkpointable
sampler, in both partition and broadcast modes, regardless of chunking,
start method, or a mid-run crash-restart of a single shard.
"""

import time

import pytest

from repro.errors import ConfigurationError, WorkerCrashError
from repro.graph.generators import powerlaw_cluster
from repro.graph.stream import EdgeEvent
from repro.samplers import GPS, GPSA, WRS, WSD, ThinkD, Triest
from repro.samplers.checkpoint import state_from_wire
from repro.streams import ShardedStreamExecutor, build_stream
from repro.streams.executor import ExecutorOptions
from repro.utils.rng import spawn_generators
from repro.weights.heuristic import GPSHeuristicWeight, UniformWeight


@pytest.fixture(scope="module")
def streams():
    edges = powerlaw_cluster(150, m=4, triangle_probability=0.6, rng=0)
    return {
        "light": list(build_stream(edges, "light", rng=3)),
        "insertion-only": list(build_stream(edges, "insertion-only")),
    }


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


class TestSerialProcessParity:
    @pytest.mark.parametrize(
        "name,scenario,make",
        SAMPLER_CASES,
        ids=[case[0] for case in SAMPLER_CASES],
    )
    @pytest.mark.parametrize("mode", ["partition", "broadcast"])
    def test_estimates_identical(self, streams, name, scenario, make, mode):
        stream = streams[scenario]
        serial = run_serial(make, mode, stream)
        with build_executor(make, "process", mode, chunk_size=128) as proc:
            proc.process_stream(stream)
            assert proc.estimate == serial.estimate
            assert proc.shard_estimates() == serial.shard_estimates()
            assert proc.time == serial.time

    def test_chunking_does_not_change_results(self, streams):
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        serial = run_serial(make, "partition", stream)
        for chunk_size in (1, 7, 4096):
            with build_executor(
                make, "process", "partition", chunk_size=chunk_size
            ) as proc:
                proc.process_stream(stream)
                assert proc.estimate == serial.estimate

    def test_per_event_ingestion_buffers_and_matches(self, streams):
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        serial = run_serial(make, "partition", stream)
        with build_executor(
            make, "process", "partition", chunk_size=64
        ) as proc:
            for event in stream:
                proc.process(event)
            assert proc.estimate == serial.estimate

    def test_mid_stream_estimate_queries_keep_parity(self, streams):
        """Reading the estimate mid-run is a barrier, not a divergence:
        the buffered tail flushes first and the final answer still
        matches serial."""
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        serial = run_serial(make, "partition", stream)
        with build_executor(
            make, "process", "partition", chunk_size=32
        ) as proc:
            third = len(stream) // 3
            proc.process_batch(stream[:third])
            mid = proc.estimate
            assert isinstance(mid, float)
            proc.process_batch(stream[third:])
            assert proc.estimate == serial.estimate

    def test_spawn_start_method_parity(self, streams):
        """State ships as checkpoints, so even the no-inherited-memory
        start method reproduces the serial run exactly."""
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        serial = run_serial(make, "partition", stream)
        with build_executor(
            make, "process", "partition", mp_context="spawn"
        ) as proc:
            proc.process_stream(stream)
            assert proc.estimate == serial.estimate


class TestCrashRestart:
    def test_single_shard_crash_restart_is_bit_identical(self, streams):
        """Kill one worker mid-stream, restore it from its checkpoint,
        finish the stream: the merged estimate matches the
        uninterrupted run bit-for-bit, without replaying the surviving
        shards."""
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        half = len(stream) // 2
        serial = run_serial(make, "partition", stream)

        proc = build_executor(make, "process", "partition", chunk_size=64)
        try:
            proc.process_batch(stream[:half])
            states = proc.snapshot()
            assert len(states) == 2

            victim = proc._workers[0]
            victim.transport.process.kill()
            victim.transport.process.join(5.0)
            assert not victim.is_alive()
            survivor = proc._workers[1]

            proc.restart_shard(0)
            # Only shard 0 was rebuilt; the survivor kept its process.
            assert proc._workers[1] is survivor
            assert survivor.is_alive()

            proc.process_batch(stream[half:])
            assert proc.estimate == serial.estimate
            assert proc.time == serial.time
        finally:
            proc.close()

    def test_failed_snapshot_leaves_no_reply_behind(self, streams):
        """The snapshot asks every worker at once; when one is dead, the
        replies already owed by the others are collected before the
        crash is raised, so their next request pairs with its reply."""
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        half = len(stream) // 2
        serial = run_serial(make, "partition", stream)
        proc = build_executor(make, "process", "partition", chunk_size=64)
        try:
            proc.process_batch(stream[:half])
            proc.snapshot()
            proc._workers[1].kill()  # its queues close: the post fails
            with pytest.raises(WorkerCrashError, match="shard 1"):
                proc.snapshot()
            proc.restart_shard(1)
            proc.process_batch(stream[half:])
            assert proc.estimate == serial.estimate
        finally:
            proc.close()

    def test_restart_requires_a_checkpoint(self, streams):
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        proc = build_executor(make, "process", "partition")
        try:
            proc.process_batch(stream[:50])
            with pytest.raises(ConfigurationError):
                proc.restart_shard(0)  # no snapshot() taken yet
            with pytest.raises(ConfigurationError):
                proc.restart_shard(9)
        finally:
            proc.close()

    def test_restart_on_serial_backend_rejected(self, streams):
        executor = build_executor(SAMPLER_CASES[0][2], "serial", "partition")
        with pytest.raises(ConfigurationError):
            executor.restart_shard(0)

    def test_worker_error_names_shard_and_cause(self):
        """A GPS deletion explodes inside the worker; the parent gets a
        WorkerCrashError carrying the SamplerError text."""
        proc = build_executor(
            lambda rng: GPS("triangle", 20, GPSHeuristicWeight(), rng=rng),
            "process", "broadcast", chunk_size=8,
        )
        events = [EdgeEvent.insertion(i, i + 1) for i in range(20)]
        events.append(EdgeEvent.deletion(0, 1))
        with pytest.raises(WorkerCrashError) as excinfo:
            proc.process_batch(events)
        assert "SamplerError" in str(excinfo.value)
        with pytest.raises(WorkerCrashError):
            proc.close()


class TestLifecycle:
    def test_close_harvests_final_state(self, streams):
        """After close() the executor answers queries serially with
        exactly the workers' final state — the mid-run state harvest
        path, exercised end to end."""
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        serial = run_serial(make, "partition", stream)
        proc = build_executor(make, "process", "partition", chunk_size=64)
        proc.process_stream(stream)
        workers = proc._workers
        proc.close()
        assert proc._workers is None
        assert all(not w.is_alive() for w in workers)
        # Serial-path queries against the harvested replicas.
        assert proc.estimate == serial.estimate
        assert proc.shard_estimates() == serial.shard_estimates()
        assert proc.time == serial.time
        # And the harvested replicas keep consuming correctly.
        proc.close()  # idempotent

    def test_close_flushes_buffered_tail(self, streams):
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        serial = run_serial(make, "partition", stream)
        proc = build_executor(
            make, "process", "partition", chunk_size=10 ** 6
        )
        for event in stream:
            proc.process(event)  # everything stays buffered
        proc.close()
        assert proc.estimate == serial.estimate

    def test_workers_die_with_close_even_after_crash_kill(self, streams):
        stream = streams["light"]
        make = SAMPLER_CASES[0][2]
        proc = build_executor(make, "process", "partition")
        proc.process_batch(stream[:40])
        proc.snapshot()
        proc._workers[1].transport.process.kill()
        proc._workers[1].transport.process.join(5.0)
        with pytest.raises(WorkerCrashError):
            proc.close()
        # The dead shard was restored from its snapshot; queries work.
        assert proc._workers is None
        assert proc.time == 40

    def test_serial_backend_close_is_noop(self, streams):
        executor = run_serial(
            SAMPLER_CASES[0][2], "partition", streams["light"]
        )
        estimate = executor.estimate
        executor.close()
        assert executor.estimate == estimate

    def test_snapshot_works_on_serial_backend(self, streams):
        executor = run_serial(
            SAMPLER_CASES[0][2], "partition", streams["light"]
        )
        blobs = executor.snapshot()
        assert len(blobs) == executor.num_shards
        assert all(
            state_from_wire(blob)["algorithm"] == "wsd" for blob in blobs
        )


class TestFromCheckpoints:
    @pytest.mark.parametrize(
        "name,scenario,make",
        SAMPLER_CASES,
        ids=[case[0] for case in SAMPLER_CASES],
    )
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_resumes_bit_identically(
        self, streams, name, scenario, make, backend
    ):
        """An executor resumed from a snapshot's bytes continues exactly
        like the run they were cut from. The process backend builds no
        replica here: it reads the cut's clocks from the checkpoint
        headers and launches its workers at the first event."""
        stream = streams[scenario]
        half = len(stream) // 2
        serial = run_serial(make, "partition", stream)
        cut = build_executor(make, "serial", "partition")
        cut.process_batch(stream[:half])
        resumed = ShardedStreamExecutor.from_checkpoints(
            cut.snapshot(),
            options=ExecutorOptions(backend=backend, chunk_size=64),
            weight_fn=getattr(cut.shards[0], "weight_fn", None),
        )
        try:
            assert resumed.shard_times() == cut.shard_times()
            if backend == "process":
                assert resumed.shards is None
                assert resumed._workers is None
            resumed.process_batch(stream[half:])
            assert resumed.estimate == serial.estimate
            assert resumed.shard_estimates() == serial.shard_estimates()
        finally:
            resumed.close()


class TestValidation:
    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            build_executor(
                SAMPLER_CASES[0][2], "threads", "partition"
            )

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            build_executor(
                SAMPLER_CASES[0][2], "process", "partition", chunk_size=0
            )

    def test_uncheckpointable_sampler_fails_clearly(self, streams):
        from repro.samplers.thinkd_fast import ThinkDFast

        proc = build_executor(
            lambda rng: ThinkDFast("triangle", 0.5, rng=rng),
            "process", "partition",
        )
        with pytest.raises(ConfigurationError):
            proc.process_batch(streams["light"][:10])


def test_worker_processes_reaped_promptly(streams):
    """No zombie fleet: after close every worker process is joined."""
    make = SAMPLER_CASES[0][2]
    proc = build_executor(make, "process", "broadcast")
    proc.process_batch(streams["light"][:60])
    workers = list(proc._workers)
    proc.close()
    deadline = time.time() + 5.0
    while time.time() < deadline:
        if all(w.transport.process.exitcode is not None for w in workers):
            break
        time.sleep(0.05)
    assert all(w.transport.process.exitcode == 0 for w in workers)


class TestArenaParity:
    """Serial==process bit-identity with the sampled-graph arena live.

    Workers restore replicas from v3 checkpoints, which carry the slab
    cutoff and the slabbed-vertex set — so a low cutoff set in the
    parent must reproduce the parent's adaptive triangle routing inside
    every worker, or the estimates drift apart.
    """

    def test_wsd_triangle_with_slabs(self, streams):
        from repro.samplers import kernel as kernel_mod

        previous = kernel_mod.set_arena_cutoff(4)
        try:
            make = SAMPLER_CASES[0][2]  # wsd-h / triangle
            stream = streams["light"]
            serial = run_serial(make, "partition", stream)
            # The low cutoff must actually produce slabs in a replica.
            assert any(
                len(r._sampled_graph.arena) > 0 for r in serial.shards
            )
            with build_executor(
                make, "process", "partition", chunk_size=64
            ) as proc:
                proc.process_stream(stream)
                assert proc.estimate == serial.estimate
                assert proc.shard_estimates() == serial.shard_estimates()
        finally:
            kernel_mod.set_arena_cutoff(previous)
