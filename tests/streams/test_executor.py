"""Tests for the sharded stream executor and hash partitioning."""

import json
from dataclasses import fields, replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.graph.generators import powerlaw_cluster
from repro.graph.stream import EdgeEvent
from repro.patterns.exact import ExactCounter
from repro.samplers import GPS, WSD, ThinkD
from repro.streams import (
    ShardedStreamExecutor,
    build_stream,
    default_shard_key,
    partition_events,
    partition_stream,
)
from repro.streams.executor import ExecutorOptions
from repro.streams.service import ServiceConfig
from repro.streams.supervisor import RecoveryPolicy
from repro.streams.validate import validate_stream
from repro.utils.rng import RngFactory
from repro.weights.heuristic import GPSHeuristicWeight


@pytest.fixture(scope="module")
def scenario_streams():
    """The deletion-scenario suite on a powerlaw graph, with truths."""
    edges = powerlaw_cluster(300, m=5, triangle_probability=0.6, rng=0)
    streams = {}
    for name in ("insertion-only", "massive", "light"):
        stream = build_stream(edges, name, rng=3)
        exact = ExactCounter("triangle")
        for event in stream:
            exact.process(event)
        streams[name] = (stream, exact.count)
    return streams


def wsd_factory(seed_tag, budget):
    factory = RngFactory(11)

    def make(i):
        return WSD(
            "triangle",
            budget,
            GPSHeuristicWeight(),
            rng=factory.generator(f"{seed_tag}-{i}"),
        )

    return make


class TestRouting:
    def test_default_key_deterministic(self):
        edge = (12, 57)
        assert default_shard_key(edge) == default_shard_key((12, 57))

    def test_string_vertices_supported(self):
        key = default_shard_key(("alice", "bob"))
        assert isinstance(key, int)
        assert key == default_shard_key(("alice", "bob"))

    def test_unstable_vertex_types_rejected(self):
        """Vertices whose repr embeds object identity would route
        differently per process; the default key refuses them."""
        class Opaque:
            __hash__ = object.__hash__

        with pytest.raises(ConfigurationError):
            default_shard_key((Opaque(), Opaque()))

    def test_partition_covers_all_events(self, scenario_streams):
        stream, _ = scenario_streams["light"]
        buckets = partition_events(stream, 4)
        assert sum(len(b) for b in buckets) == len(stream)

    def test_deletion_routes_with_insertion(self, scenario_streams):
        stream, _ = scenario_streams["massive"]
        buckets = partition_events(stream, 4)
        for bucket in buckets:
            edges = {event.edge for event in bucket}
            for event in stream:
                if event.edge in edges:
                    assert (
                        default_shard_key(event.edge) % 4
                        == buckets.index(bucket)
                    )
                    break

    def test_substreams_are_feasible(self, scenario_streams):
        for name, (stream, _) in scenario_streams.items():
            for sub in partition_stream(stream, 4):
                validate_stream(sub)  # raises on infeasibility

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            partition_events([], 0)


class TestExecutorConstruction:
    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedStreamExecutor(wsd_factory("m", 60), 2, mode="scatter")

    def test_bad_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedStreamExecutor(wsd_factory("m", 60), 0)

    def test_mixed_patterns_rejected(self):
        factory = RngFactory(0)

        def make(i):
            pattern = "triangle" if i == 0 else "wedge"
            return WSD(
                pattern, 60, GPSHeuristicWeight(),
                rng=factory.generator(str(i)),
            )

        with pytest.raises(ConfigurationError):
            ShardedStreamExecutor(make, 2)


class TestExecutorOptions:
    def test_duplicate_hosts_rejected_by_every_carrier(self):
        options = ExecutorOptions(backend="remote", hosts=("h:1", "h:1"))
        for validate in (
            options.validate,
            ServiceConfig(executor=options).validate,
            ExperimentConfig(shards=2, executor=options).validate,
        ):
            with pytest.raises(ConfigurationError, match="duplicate"):
                validate()

    def test_round_trip_drops_context_and_key(self):
        assert [field.name for field in fields(ExecutorOptions)] == [
            "backend", "hosts", "chunk_size", "queue_depth", "mp_context",
            "recovery_policy", "heartbeat_interval", "auth_key",
            "max_frame_bytes",
        ]
        options = ExecutorOptions(
            backend="remote",
            hosts=("h:1", "h:2"),
            chunk_size=64,
            queue_depth=3,
            mp_context="spawn",
            recovery_policy=RecoveryPolicy(max_attempts=2, seed=9),
            heartbeat_interval=0.5,
            auth_key="sekrit",
            max_frame_bytes=1 << 20,
        )
        payload = json.loads(json.dumps(options.to_dict()))
        assert "mp_context" not in payload
        assert "auth_key" not in payload
        assert ExecutorOptions.from_dict(payload) == replace(
            options, mp_context=None, auth_key=None
        )

    def test_from_dict_ignores_dropped_keys(self):
        payload = ExecutorOptions(backend="process", chunk_size=256).to_dict()
        # The knobs an older build wrote into manifests and ``create``
        # payloads; this build no longer has them.
        older = dict(
            payload,
            transport="shm",
            poll_seconds=0.05,
            slot_poll_seconds=0.001,
            stop_timeout=5.0,
            heartbeat_timeout=30.0,
        )
        assert ExecutorOptions.from_dict(older) == ExecutorOptions(
            backend="process", chunk_size=256
        )


class TestExecutorSemantics:
    def test_process_matches_process_batch(self, scenario_streams):
        stream, _ = scenario_streams["light"]
        one = ShardedStreamExecutor(wsd_factory("eq", 50), 4)
        two = ShardedStreamExecutor(wsd_factory("eq", 50), 4)
        for event in stream:
            one.process(event)
        two.process_batch(list(stream))
        assert one.estimate == two.estimate
        assert one.time == two.time == len(stream)

    def test_batch_boundaries_do_not_matter(self, scenario_streams):
        stream, _ = scenario_streams["light"]
        events = list(stream)
        one = ShardedStreamExecutor(wsd_factory("chunk", 50), 4)
        two = ShardedStreamExecutor(wsd_factory("chunk", 50), 4)
        one.process_batch(events)
        for start in range(0, len(events), 113):
            two.process_batch(events[start:start + 113])
        assert one.estimate == two.estimate

    def test_process_stream_lazy_iterable(self, scenario_streams):
        stream, _ = scenario_streams["light"]
        one = ShardedStreamExecutor(wsd_factory("lazy", 50), 4)
        two = ShardedStreamExecutor(wsd_factory("lazy", 50), 4)
        one.process_batch(list(stream))
        two.process_stream(iter(list(stream)))
        assert one.estimate == two.estimate

    def test_broadcast_identical_seeds_equal_single(self, scenario_streams):
        """Broadcast replicas with the *same* seed collapse to one
        sampler: the mean of identical estimates is the estimate."""
        stream, _ = scenario_streams["light"]
        single = WSD(
            "triangle", 60, GPSHeuristicWeight(), rng=RngFactory(5).generator("x")
        )
        single.process_stream(stream)

        def same_seed(i):
            return WSD(
                "triangle", 60, GPSHeuristicWeight(),
                rng=RngFactory(5).generator("x"),
            )

        executor = ShardedStreamExecutor(same_seed, 4, mode="broadcast")
        executor.process_stream(stream)
        assert executor.estimate == single.estimate

    def test_merged_estimate_broadcast_is_mean(self, scenario_streams):
        stream, _ = scenario_streams["light"]
        executor = ShardedStreamExecutor(
            wsd_factory("mean", 60), 4, mode="broadcast"
        )
        executor.process_stream(stream)
        partials = executor.shard_estimates()
        assert executor.estimate == pytest.approx(sum(partials) / 4.0)

    def test_merged_estimate_partition_is_scaled_sum(self, scenario_streams):
        stream, _ = scenario_streams["light"]
        executor = ShardedStreamExecutor(wsd_factory("sum", 50), 4)
        executor.process_stream(stream)
        partials = executor.shard_estimates()
        assert executor.estimate == pytest.approx(16.0 * sum(partials))

    def test_variance_weighted_merge_available_in_broadcast(
        self, scenario_streams
    ):
        stream, _ = scenario_streams["light"]
        executor = ShardedStreamExecutor(
            wsd_factory("vw", 60), 4, mode="broadcast"
        )
        executor.process_stream(stream)
        merged = executor.merged_estimate(variances=[1.0, 1.0, 1.0, 1.0])
        assert merged == pytest.approx(executor.estimate)

    def test_time_tracks_shard_clocks_after_mid_batch_failure(self):
        """executor.time derives from the shard clocks, so it never
        overcounts when a shard raises part-way through a batch."""
        from repro.errors import SamplerError

        factory = RngFactory(1)
        executor = ShardedStreamExecutor(
            lambda i: GPS(
                "triangle", 20, GPSHeuristicWeight(),
                rng=factory.generator(f"g{i}"),
            ),
            4,
        )
        events = [EdgeEvent.insertion(i, i + 1) for i in range(20)]
        events.append(EdgeEvent.deletion(0, 1))  # GPS rejects deletions
        with pytest.raises(SamplerError):
            executor.process_batch(events)
        assert executor.time == sum(s.time for s in executor.shards)
        assert executor.time <= len(events)

    def test_broadcast_time_is_per_replica_clock(self, scenario_streams):
        stream, _ = scenario_streams["light"]
        executor = ShardedStreamExecutor(
            wsd_factory("clock", 50), 4, mode="broadcast"
        )
        executor.process_batch(list(stream))
        assert executor.time == len(stream)

    def test_gps_partition_insertion_only(self, scenario_streams):
        stream, truth = scenario_streams["insertion-only"]
        factory = RngFactory(2)
        executor = ShardedStreamExecutor(
            lambda i: GPS(
                "triangle", 80, GPSHeuristicWeight(),
                rng=factory.generator(f"gps-{i}"),
            ),
            4,
        )
        executor.process_stream(stream)
        assert executor.estimate > 0.0


class TestShardedVsSingleConsistency:
    """Acceptance: merged estimates within estimator tolerance of
    single-sampler runs across the scenario suite (fixed seeds)."""

    @pytest.mark.parametrize("scenario", ["insertion-only", "massive", "light"])
    def test_partition_tracks_ground_truth(self, scenario_streams, scenario):
        stream, truth = scenario_streams[scenario]
        executor = ShardedStreamExecutor(
            wsd_factory(f"part-{scenario}", 150), 4
        )
        executor.process_stream(stream)
        assert truth > 0
        assert abs(executor.estimate - truth) / truth < 0.6

    @pytest.mark.parametrize("scenario", ["insertion-only", "massive", "light"])
    def test_broadcast_tracks_ground_truth(self, scenario_streams, scenario):
        stream, truth = scenario_streams[scenario]
        executor = ShardedStreamExecutor(
            wsd_factory(f"bc-{scenario}", 150), 4, mode="broadcast"
        )
        executor.process_stream(stream)
        assert abs(executor.estimate - truth) / truth < 0.35

    @pytest.mark.parametrize("scenario", ["massive", "light"])
    def test_thinkd_sharded_consistency(self, scenario_streams, scenario):
        stream, truth = scenario_streams[scenario]
        factory = RngFactory(23)
        executor = ShardedStreamExecutor(
            lambda i: ThinkD(
                "triangle", 300, rng=factory.generator(f"td-{scenario}-{i}")
            ),
            4,
            mode="broadcast",
        )
        executor.process_stream(stream)
        single = ThinkD("triangle", 300, rng=RngFactory(23).generator(f"td-{scenario}-0"))
        single.process_stream(stream)
        # Merged N=4 broadcast tracks truth within estimator tolerance
        # and no worse than a generous multiple of the single run.
        assert abs(executor.estimate - truth) / truth < 0.35
        assert abs(executor.estimate - truth) <= 2.0 * abs(
            single.estimate - truth
        ) + 0.1 * truth

    def test_wedge_partition_scale(self, scenario_streams):
        stream, _ = scenario_streams["light"]
        exact = ExactCounter("wedge")
        for event in stream:
            exact.process(event)
        factory = RngFactory(31)
        executor = ShardedStreamExecutor(
            lambda i: WSD(
                "wedge", 150, GPSHeuristicWeight(),
                rng=factory.generator(f"wedge-{i}"),
            ),
            4,
        )
        executor.process_stream(stream)
        assert abs(executor.estimate - exact.count) / exact.count < 0.6
