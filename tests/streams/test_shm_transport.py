"""Shared-memory worker transport: zero-pickle event chunks.

The process backend's chunks travel as encoded ``EventBlock`` payloads
through a per-worker shared-memory slot ring. The contracts:

* bit-identical results against the serial backend and across input
  representations (event lists vs blocks);
* on a platform with shared memory, every process worker gets a slot
  ring with the default options (no silent fall back to the queue);
* chunk/slot boundaries never change results (a block larger than a
  slot is split transparently);
* the crash-restart path (checkpoint snapshot → kill → respawn) works
  unchanged over the shm transport;
* blocks are the only event form a worker receives: labels that cannot
  ride an int64 block are rejected before any chunk is dispatched.
"""

import pytest

from repro.errors import ConfigurationError
from repro.graph.generators import powerlaw_cluster
from repro.graph.stream import EdgeEvent, EventBlock
from repro.samplers import WSD, ThinkD
from repro.streams import ShardedStreamExecutor, build_stream
from repro.streams.executor import ExecutorOptions
from repro.streams.workers import ShardWorker
from repro.samplers.checkpoint import sampler_state_dict
from repro.utils.rng import spawn_generators
from repro.weights.heuristic import GPSHeuristicWeight


@pytest.fixture(scope="module")
def stream():
    edges = powerlaw_cluster(150, m=4, triangle_probability=0.6, rng=0)
    return list(build_stream(edges, "light", rng=3))


@pytest.fixture(scope="module")
def block(stream):
    return EventBlock.from_events(stream)


def build_executor(backend, seed=17, shards=2, **kwargs):
    rngs = spawn_generators(seed, shards)
    return ShardedStreamExecutor(
        lambda i: WSD("triangle", 60, GPSHeuristicWeight(), rng=rngs[i]),
        shards,
        mode="partition",
        options=ExecutorOptions(backend=backend, **kwargs),
    )


class TestTransportParity:
    def test_shm_matches_serial(self, stream, block):
        serial = build_executor("serial")
        serial.process_stream(block)
        estimates = {"serial": serial.estimate}
        for payload in (stream, block):
            with build_executor("process", chunk_size=64) as executor:
                executor.process_stream(payload)
                estimates[type(payload).__name__] = executor.estimate
        assert len(set(estimates.values())) == 1, estimates

    def test_slot_boundaries_do_not_change_results(self, block):
        reference = None
        # chunk_size 16 with the default slot sizing, and a whole-block
        # dispatch that must be split across slots internally.
        for chunk_size in (16, 4096):
            with build_executor(
                "process", chunk_size=chunk_size
            ) as executor:
                executor.process_stream(block)
                estimate = executor.estimate
            if reference is None:
                reference = estimate
            assert estimate == reference

    def test_oversize_block_is_split_across_slots(self, stream, block):
        # A worker whose slots hold only 8 events must transparently
        # slice a whole-stream block — same result as per-event local
        # processing.
        reference = WSD("triangle", 60, GPSHeuristicWeight(), rng=3)
        worker = ShardWorker(
            0, sampler_state_dict(reference), GPSHeuristicWeight(),
            options=ExecutorOptions(chunk_size=8),
        )
        try:
            local = WSD("triangle", 60, GPSHeuristicWeight(), rng=3)
            local.process_batch(stream)
            worker.send_block(block)  # hundreds of events, 8 per slot
            _, _, shard_time, shard_estimate = worker.request("sync")
            assert shard_time == local.time
            assert shard_estimate == local.estimate
        finally:
            worker.kill()

    def test_non_int_labels_are_rejected_before_dispatch(self):
        events = [EdgeEvent.insertion("a", "b"), EdgeEvent.insertion("b", "c"),
                  EdgeEvent.insertion("a", "c"), EdgeEvent.deletion("a", "b")]
        rngs = spawn_generators(5, 2)

        def factory(i):
            return ThinkD("triangle", 30, rng=rngs[i])

        serial = ShardedStreamExecutor(factory, 2, mode="partition")
        serial.process_stream(events)  # in-process: any hashable label
        assert serial.time == len(events)
        with ShardedStreamExecutor(
            factory, 2, mode="partition",
            options=ExecutorOptions(backend="process"),
        ) as proc:
            with pytest.raises(ConfigurationError, match="VertexInterner"):
                proc.process_stream(events)
            assert proc._workers is None  # no worker was even launched
            assert proc.time == 0

    def test_process_refuses_a_non_int_label_at_that_call(self):
        rngs = spawn_generators(5, 2)
        with ShardedStreamExecutor(
            lambda i: ThinkD("triangle", 30, rng=rngs[i]), 2, mode="partition",
            options=ExecutorOptions(backend="process", chunk_size=64),
        ) as proc:
            with pytest.raises(ConfigurationError, match="VertexInterner"):
                proc.process(EdgeEvent.insertion("a", "b"))
            assert proc._workers is None  # refused before any launch
            for u in range(5):
                proc.process(EdgeEvent.insertion(u, u + 1))
            for bad in (EdgeEvent.insertion("a", "b"),
                        EdgeEvent.insertion((1, 2), (3, 4)),
                        EdgeEvent.insertion(0, 1 << 63)):
                with pytest.raises(ConfigurationError, match="VertexInterner"):
                    proc.process(bad)
            # The buffered int events were neither dropped nor poisoned.
            assert proc.time == 5
            assert proc.time == 5

    def test_shm_transport_allocates_ring(self, stream):
        with build_executor("process") as executor:
            executor.process_stream(stream)
            for worker in executor._workers:
                assert worker.transport._shm is not None
                assert worker.transport._num_slots > 0


class TestCrashRestartOverShm:
    def test_snapshot_kill_restart_is_bit_identical(self, stream, block):
        serial = build_executor("serial")
        serial.process_stream(block)
        with build_executor("process", chunk_size=64) as executor:
            executor.process_batch(block[:len(block) // 2])
            executor.snapshot()
            # Kill one worker mid-run and restart it from the snapshot.
            executor._workers[0].transport.process.kill()
            executor._workers[0].transport.process.join(5.0)
            executor.restart_shard(0)
            executor.process_batch(block[len(block) // 2:])
            assert executor.estimate == serial.estimate

    def test_close_harvests_over_shm(self, stream):
        executor = build_executor("process", chunk_size=64)
        executor.process_stream(stream)
        expected = executor.estimate
        executor.close()
        # Post-close queries answer serially from harvested state, and
        # every slot ring has been released.
        assert executor.estimate == expected
        assert all(
            w.transport._shm is None for w in executor._workers or []
        )


class TestWorkerShmUnit:
    def test_send_block_round_trip(self, stream):
        reference = WSD("triangle", 60, GPSHeuristicWeight(), rng=3)
        worker = ShardWorker(
            0, sampler_state_dict(reference), GPSHeuristicWeight(),
            options=ExecutorOptions(chunk_size=32),
        )
        try:
            local = WSD("triangle", 60, GPSHeuristicWeight(), rng=3)
            local.process_batch(stream)
            block = EventBlock.from_events(stream)
            for start in range(0, len(block), 32):
                worker.send_block(block[start:start + 32])
            _, _, shard_time, shard_estimate = worker.request("sync")
            assert shard_time == local.time
            assert shard_estimate == local.estimate
        finally:
            worker.kill()

    def test_slot_ring_released_on_kill(self):
        reference = WSD("triangle", 20, GPSHeuristicWeight(), rng=1)
        worker = ShardWorker(
            0, sampler_state_dict(reference), GPSHeuristicWeight()
        )
        name = worker.transport._shm.name
        worker.kill()
        assert worker.transport._shm is None
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
