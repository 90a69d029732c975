"""Tests for the shard-worker protocol layer (streams/workers.py)."""

import time

import pytest

from repro.errors import ConfigurationError, WorkerCrashError
from repro.graph.stream import EdgeEvent, EventBlock
from repro.samplers import GPS, WSD, restore_sampler, sampler_state_dict
from repro.streams.executor import ExecutorOptions
from repro.streams.workers import ShardWorker
from repro.weights.base import WeightFunction
from repro.weights.heuristic import GPSHeuristicWeight


def fresh_wsd(seed=3, budget=40):
    return WSD("triangle", budget, GPSHeuristicWeight(), rng=seed)


def simple_events(n=30):
    events = [EdgeEvent.insertion(i, i + 1) for i in range(n)]
    events.append(EdgeEvent.deletion(0, 1))
    return events


class TestShardWorker:
    def test_batch_sync_reflects_all_events(self):
        reference = fresh_wsd()
        worker = ShardWorker(0, sampler_state_dict(reference), GPSHeuristicWeight())
        try:
            events = simple_events()
            local = fresh_wsd()
            local.process_batch(events)
            worker.send_block(EventBlock.from_events(events))
            _, _, shard_time, shard_estimate = worker.request("sync")
            assert shard_time == local.time == len(events)
            assert shard_estimate == local.estimate
        finally:
            worker.kill()

    def test_snapshot_is_restorable_continuation(self):
        reference = fresh_wsd(seed=9)
        events = simple_events(40)
        worker = ShardWorker(0, sampler_state_dict(reference), GPSHeuristicWeight())
        try:
            worker.send_block(EventBlock.from_events(events[:20]))
            worker.request("sync")
            state = worker.request("snapshot")[2]
        finally:
            worker.kill()
        resumed = restore_sampler(state, GPSHeuristicWeight())
        resumed.process_batch(events[20:])
        uninterrupted = fresh_wsd(seed=9)
        uninterrupted.process_batch(events)
        assert resumed.estimate == uninterrupted.estimate

    def test_stop_returns_final_state(self):
        worker = ShardWorker(0, sampler_state_dict(fresh_wsd()), GPSHeuristicWeight())
        events = simple_events()
        worker.send_block(EventBlock.from_events(events))
        state = worker.stop()
        local = fresh_wsd()
        local.process_batch(events)
        assert restore_sampler(state, GPSHeuristicWeight()).estimate == local.estimate
        # The process exits cleanly after a stop.
        deadline = time.time() + 5.0
        while worker.is_alive() and time.time() < deadline:
            time.sleep(0.05)
        assert not worker.is_alive()

    def test_worker_failure_surfaces_with_shard_index(self):
        """A sampler exception inside the worker reaches the parent as
        WorkerCrashError naming the shard and the original error."""
        gps = GPS("triangle", 20, GPSHeuristicWeight(), rng=0)
        worker = ShardWorker(3, sampler_state_dict(gps), GPSHeuristicWeight())
        try:
            worker.send_block(
                EventBlock.from_events(simple_events())  # ends with a deletion
            )
            with pytest.raises(WorkerCrashError) as excinfo:
                worker.request("sync")
            assert excinfo.value.shard_index == 3
            assert "SamplerError" in str(excinfo.value)
            # The handle stays failed: later traffic raises immediately.
            with pytest.raises(WorkerCrashError):
                worker.send_block(
                    EventBlock.from_events([EdgeEvent.insertion(1, 2)])
                )
        finally:
            worker.kill()

    def test_killed_worker_detected(self):
        worker = ShardWorker(1, sampler_state_dict(fresh_wsd()), GPSHeuristicWeight())
        worker.transport.process.kill()
        worker.transport.process.join(5.0)
        with pytest.raises(WorkerCrashError):
            worker.request("sync")

    def test_unpicklable_weight_fn_rejected_up_front(self):
        """Spawn-safety is enforced in the parent for every start
        method: an unpicklable weight function fails fast with a clear
        error instead of failing only under spawn."""

        class LocalWeight(WeightFunction):  # local class: not picklable
            needs_context = False

            def __call__(self, context):
                return 1.0

            def light_weight(self, num_instances, graph, u, v):
                return 1.0

        sampler = WSD("triangle", 20, LocalWeight(), rng=0)
        with pytest.raises(ConfigurationError):
            ShardWorker(0, sampler_state_dict(sampler), sampler.weight_fn)

    def test_bad_queue_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardWorker(
                0, sampler_state_dict(fresh_wsd()), GPSHeuristicWeight(),
                options=ExecutorOptions(queue_depth=0),
            )
