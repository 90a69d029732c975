"""Tests for the experiment runner and the algorithm factory."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.algorithms import (
    ALGORITHMS,
    DYNAMIC_ALGORITHMS,
    PolicyStore,
    make_sampler,
    training_dataset_for,
)
from repro.experiments.config import LIGHT, ExperimentConfig
from repro.experiments.runner import (
    compute_ground_truth,
    make_trial_sampler,
    run_algorithm,
    run_cell,
    run_sampler_trial,
)
from repro.graph.generators import powerlaw_cluster
from repro.graph.stream import EdgeStream
from repro.patterns.exact import ExactCounter
from repro.rl.policy import FrozenPolicy, Policy
from repro.samplers.gps import GPS
from repro.samplers.gps_a import GPSA
from repro.samplers.thinkd import ThinkD
from repro.samplers.triest import Triest
from repro.samplers.wrs import WRS
from repro.samplers.wsd import WSD
from repro.streams.scenarios import light_deletion_stream
from repro.utils.rng import RngFactory
from repro.weights.learned import LearnedWeight


@pytest.fixture(scope="module")
def workload():
    edges = powerlaw_cluster(100, m=4, triangle_probability=0.7, rng=0)
    stream = light_deletion_stream(edges, beta_l=0.2, rng=1)
    truth = compute_ground_truth(stream, "triangle", 10)
    return stream, truth


def dummy_policy():
    return Policy(weights=np.zeros(6), bias=0.0)


def varied_policy(pattern):
    """A policy whose weights vary from edge to edge (|H| + 3 inputs)."""
    rng = np.random.default_rng(11)
    dim = 3 + (3 if pattern == "triangle" else 2)
    return Policy(weights=rng.normal(size=dim), bias=0.5)


@pytest.fixture(scope="module")
def cells():
    """(stream, truth) per (pattern, insertion-only); GPS needs the latter."""
    edges = powerlaw_cluster(100, m=4, triangle_probability=0.7, rng=0)
    streams = {
        False: light_deletion_stream(edges, beta_l=0.2, rng=1),
        True: EdgeStream.from_edges(edges),
    }
    return {
        (pattern, insertion_only): (
            stream, compute_ground_truth(stream, pattern, 10)
        )
        for pattern in ("triangle", "wedge")
        for insertion_only, stream in streams.items()
    }


def per_event_estimates(consumer, stream, checkpoints):
    """The reference loop: one ``process()`` per event, a read per checkpoint."""
    targets = set(checkpoints)
    estimates = []
    for i, event in enumerate(stream, start=1):
        consumer.process(event)
        if i in targets:
            estimates.append(consumer.estimate)
    return estimates


class OnePassStream:
    """A sized stream that can only be iterated; it counts what it yields."""

    def __init__(self, events, length=None):
        self.events = list(events)
        self.length = len(self.events) if length is None else length
        self.passes = 0
        self.yielded = 0
        self.exhausted = False

    def __len__(self):
        return self.length

    def __iter__(self):
        self.passes += 1
        for event in self.events:
            self.yielded += 1
            yield event
        self.exhausted = True


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("WSD-H", WSD),
            ("WSD-U", WSD),
            ("GPS-A", GPSA),
            ("GPS", GPS),
            ("Triest", Triest),
            ("ThinkD", ThinkD),
            ("WRS", WRS),
        ],
    )
    def test_known_names(self, name, cls):
        sampler = make_sampler(name, "triangle", 20, rng=0)
        assert isinstance(sampler, cls)

    def test_wsd_l_needs_policy(self):
        with pytest.raises(ConfigurationError):
            make_sampler("WSD-L", "triangle", 20)

    def test_wsd_l_with_policy(self):
        sampler = make_sampler(
            "WSD-L", "triangle", 20, policy=dummy_policy(), rng=0
        )
        assert isinstance(sampler, WSD)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_sampler("MAGIC", "triangle", 20)

    def test_case_insensitive(self):
        assert isinstance(make_sampler("wsd-h", "triangle", 20), WSD)

    def test_algorithm_lists(self):
        assert set(DYNAMIC_ALGORITHMS) <= set(ALGORITHMS)
        assert "GPS" in ALGORITHMS and "GPS" not in DYNAMIC_ALGORITHMS

    def test_training_dataset_lookup(self):
        assert training_dataset_for("cit-PT") == "cit-HE"
        assert training_dataset_for("synthetic") == "synthetic-train"
        with pytest.raises(ConfigurationError):
            training_dataset_for("unknown")


class TestGroundTruth:
    def test_final_matches_exact(self, workload):
        stream, truth = workload
        assert truth.final_truth == ExactCounter(
            "triangle"
        ).process_stream(stream)

    def test_checkpoint_count(self, workload):
        stream, truth = workload
        assert 10 <= len(truth.checkpoints) <= 12

    def test_invalid_checkpoints(self, workload):
        stream, _ = workload
        with pytest.raises(ConfigurationError):
            compute_ground_truth(stream, "triangle", 0)


class TestRunSamplerTrial:
    def test_estimates_align_with_checkpoints(self, workload):
        stream, truth = workload
        sampler = make_sampler("ThinkD", "triangle", 40, rng=1)
        result = run_sampler_trial(sampler, stream, truth)
        assert len(result.estimates) == len(truth.checkpoints)
        assert result.seconds > 0.0
        assert result.final_truth == truth.final_truth


class TestSegmentRunner:
    """The runner feeds each checkpoint segment to ``process_batch``; the
    estimates must be the per-event ones at every checkpoint."""

    @pytest.mark.parametrize("pattern", ["triangle", "wedge"])
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_matches_per_event_reference(self, cells, name, pattern):
        stream, truth = cells[pattern, name == "GPS"]
        policy = varied_policy(pattern) if name == "WSD-L" else None

        def build():
            return make_trial_sampler(
                name, pattern, 40, RngFactory(3), 0, policy=policy
            )

        result = run_sampler_trial(build(), stream, truth)
        assert list(result.estimates) == per_event_estimates(
            build(), stream, truth.checkpoints
        )

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_partition_executor_matches_per_event_reference(
        self, cells, backend
    ):
        stream, truth = cells["triangle", False]

        def build(executor_backend):
            return make_trial_sampler(
                "WSD-H", "triangle", 40, RngFactory(3), 0, shards=2,
                executor_backend=executor_backend,
            )

        result = run_sampler_trial(build(backend), stream, truth)
        assert list(result.estimates) == per_event_estimates(
            build("serial"), stream, truth.checkpoints
        )

    def test_iterate_only_stream_consumed_once_to_the_end(self, workload):
        stream, truth = workload
        once = OnePassStream(stream)
        result = run_sampler_trial(
            make_sampler("WSD-H", "triangle", 40, rng=1), once, truth
        )
        assert once.passes == 1
        assert once.exhausted and once.yielded == len(stream)
        reference = run_sampler_trial(
            make_sampler("WSD-H", "triangle", 40, rng=1), stream, truth
        )
        assert result.estimates == reference.estimates

    def test_stream_shorter_than_its_length_rejected(self, workload):
        stream, truth = workload
        short = OnePassStream(list(stream)[:-5], length=len(stream))
        with pytest.raises(ConfigurationError, match="checkpoint mismatch"):
            run_sampler_trial(
                make_sampler("ThinkD", "triangle", 40, rng=1), short, truth
            )

    def test_wsd_l_served_frozen_from_the_block_path(self, cells):
        stream, truth = cells["triangle", False]
        policy = varied_policy("triangle")
        served = make_sampler("WSD-L", "triangle", 40, rng=5, policy=policy)
        assert isinstance(served.weight_fn.policy, FrozenPolicy)
        assert served.weight_fn.block_serving
        assert not served.weight_fn.needs_context
        context = WSD(
            "triangle", 40, LearnedWeight(policy, block_serving=False),
            rng=5,
        )
        assert run_sampler_trial(served, stream, truth).estimates == (
            run_sampler_trial(context, stream, truth).estimates
        )


class TestRunAlgorithm:
    def test_aggregates_trials(self, workload):
        stream, truth = workload
        result = run_algorithm(
            "ThinkD", stream, truth, "triangle", 40, trials=4, seed=0
        )
        assert len(result.ares) == 4
        assert len(result.mares) == 4
        assert result.mean_are >= 0.0
        assert result.std_are >= 0.0

    def test_trials_differ(self, workload):
        stream, truth = workload
        result = run_algorithm(
            "Triest", stream, truth, "triangle", 30, trials=4, seed=0
        )
        assert len(set(result.ares)) > 1

    def test_deterministic_given_seed(self, workload):
        stream, truth = workload
        a = run_algorithm(
            "ThinkD", stream, truth, "triangle", 40, trials=2, seed=5
        )
        b = run_algorithm(
            "ThinkD", stream, truth, "triangle", 40, trials=2, seed=5
        )
        assert a.ares == b.ares

    def test_zero_truth_rejected(self):
        from repro.experiments.runner import GroundTruthTrace

        trace = GroundTruthTrace((1,), (0,))
        with pytest.raises(ConfigurationError):
            run_algorithm(
                "ThinkD",
                light_deletion_stream([(0, 1)], beta_l=0.0, rng=0),
                trace,
                "triangle",
                8,
                trials=1,
            )


class TestShardedRuns:
    def test_partition_run_matches_handbuilt_executor(self, workload):
        """The runner's sharded path must reproduce, seed for seed, a
        hand-built executor: same per-shard budget split (M // N), same
        SeedSequence-spawned shard generators, same merge. Catches any
        wiring regression (dropped rescale, identical shard seeds,
        wrong budget) exactly rather than through a statistical
        bound."""
        from repro.experiments.runner import make_sampler
        from repro.streams.executor import ShardedStreamExecutor
        from repro.utils.rng import derive_seed, spawn_generators

        stream, truth = workload
        result = run_algorithm(
            "WSD-H", stream, truth, "triangle", 40, trials=1, seed=0,
            shards=4, shard_mode="partition",
        )
        shard_rngs = spawn_generators(derive_seed(0, "WSD-H-trial-0"), 4)
        executor = ShardedStreamExecutor(
            lambda i: make_sampler(
                "WSD-H", "triangle", 10, rng=shard_rngs[i],
            ),
            4,
        )
        for event in stream:
            executor.process(event)
        from repro.estimators.metrics import absolute_relative_error

        expected_are = absolute_relative_error(
            executor.estimate, truth.final_truth
        )
        assert result.ares == [pytest.approx(expected_are)]

    def test_broadcast_mode_runs(self, workload):
        stream, truth = workload
        result = run_algorithm(
            "ThinkD", stream, truth, "triangle", 40, trials=2, seed=0,
            shards=4, shard_mode="broadcast",
        )
        assert len(result.ares) == 2
        # Trials with distinct seeds must not collapse to one value.
        assert len(set(result.ares)) > 1

    def test_shard_replicas_seeded_independently(self, workload):
        from repro.experiments.runner import make_trial_sampler
        from repro.utils.rng import RngFactory

        stream, _ = workload
        executor = make_trial_sampler(
            "WSD-H", "triangle", 160, RngFactory(0), 0,
            shards=4, shard_mode="broadcast",
        )
        executor.process_stream(stream)
        partials = executor.shard_estimates()
        # Identically-seeded replicas would all report the same number,
        # silently losing the variance reduction broadcast exists for.
        assert len(set(partials)) > 1

    def test_make_trial_sampler_splits_partition_budget(self):
        from repro.experiments.runner import make_trial_sampler
        from repro.utils.rng import RngFactory

        executor = make_trial_sampler(
            "WSD-H", "triangle", 40, RngFactory(0), 0,
            shards=4, shard_mode="partition",
        )
        assert executor.num_shards == 4
        assert all(shard.budget == 10 for shard in executor.shards)
        # Broadcast replicas each keep the full budget.
        executor = make_trial_sampler(
            "WSD-H", "triangle", 40, RngFactory(0), 0,
            shards=4, shard_mode="broadcast",
        )
        assert all(shard.budget == 40 for shard in executor.shards)

    def test_partition_budget_floor_is_pattern_size(self):
        from repro.experiments.runner import make_trial_sampler
        from repro.utils.rng import RngFactory

        executor = make_trial_sampler(
            "WSD-H", "4-clique", 8, RngFactory(0), 0,
            shards=4, shard_mode="partition",
        )
        # 8 // 4 = 2 < |H| = 6 → floored at 6 so estimators stay defined.
        assert all(shard.budget == 6 for shard in executor.shards)

    def test_sharded_config_validates(self):
        config = ExperimentConfig(shards=0)
        with pytest.raises(ConfigurationError):
            config.validate()
        config = ExperimentConfig(shards=2, shard_mode="scatter")
        with pytest.raises(ConfigurationError):
            config.validate()
        config = ExperimentConfig(shards=2, executor_backend="threads")
        with pytest.raises(ConfigurationError):
            config.validate()

    @pytest.mark.parametrize("shard_mode", ["partition", "broadcast"])
    def test_process_backend_matches_serial_exactly(self, workload, shard_mode):
        """executor_backend='process' is a deployment choice, not a
        statistical one: the runner's aggregated metrics must equal the
        serial backend's bit for bit under the same seed."""
        stream, truth = workload
        serial = run_algorithm(
            "WSD-H", stream, truth, "triangle", 40, trials=2, seed=3,
            shards=2, shard_mode=shard_mode, executor_backend="serial",
        )
        process = run_algorithm(
            "WSD-H", stream, truth, "triangle", 40, trials=2, seed=3,
            shards=2, shard_mode=shard_mode, executor_backend="process",
        )
        assert process.ares == serial.ares
        assert process.mares == serial.mares

    def test_process_backend_trial_closes_executor(self, workload):
        from repro.experiments.runner import make_trial_sampler, run_sampler_trial
        from repro.utils.rng import RngFactory

        stream, truth = workload
        executor = make_trial_sampler(
            "WSD-H", "triangle", 40, RngFactory(0), 0,
            shards=2, shard_mode="partition", executor_backend="process",
        )
        run_sampler_trial(executor, stream, truth)
        # Workers are gone; the harvested replicas answer serially.
        assert executor._workers is None
        assert executor.time == len(stream)


class TestRunCell:
    def test_runs_multiple_algorithms(self):
        config = ExperimentConfig(
            dataset="cit-HE", scenario=LIGHT, dataset_scale=0.4,
            trials=2, checkpoints=5, seed=0,
        )
        results = run_cell(config, ("WSD-H", "ThinkD"))
        assert set(results) == {"WSD-H", "ThinkD"}

    def test_sharded_cell_runs(self):
        config = ExperimentConfig(
            dataset="cit-HE", scenario=LIGHT, dataset_scale=0.4,
            trials=2, checkpoints=5, seed=0, shards=4,
        )
        results = run_cell(config, ("WSD-H",))
        assert results["WSD-H"].mean_are >= 0.0

    def test_wsd_l_with_policy(self):
        config = ExperimentConfig(
            dataset="cit-HE", scenario=LIGHT, dataset_scale=0.4,
            trials=2, checkpoints=5, seed=0,
        )
        results = run_cell(config, ("WSD-L",), policy=dummy_policy())
        assert results["WSD-L"].mean_are >= 0.0


class TestPolicyStore:
    def test_trains_and_caches(self):
        store = PolicyStore(iterations=20, num_streams=1, dataset_scale=0.4)
        first = store.get("cit-HE", "triangle", LIGHT)
        second = store.get("cit-HE", "triangle", LIGHT)
        assert first is second
        assert store.training_seconds  # recorded

    def test_disk_cache_round_trip(self, tmp_path):
        store = PolicyStore(
            iterations=15, num_streams=1, dataset_scale=0.4,
            cache_dir=tmp_path,
        )
        policy = store.get("cit-HE", "triangle", LIGHT)
        fresh_store = PolicyStore(
            iterations=15, num_streams=1, dataset_scale=0.4,
            cache_dir=tmp_path,
        )
        loaded = fresh_store.get("cit-HE", "triangle", LIGHT)
        assert np.array_equal(loaded.weights, policy.weights)

    def test_aggregation_keys_distinct(self):
        store = PolicyStore(iterations=10, num_streams=1, dataset_scale=0.4)
        max_policy = store.get(
            "cit-HE", "triangle", LIGHT, temporal_aggregation="max"
        )
        avg_policy = store.get(
            "cit-HE", "triangle", LIGHT, temporal_aggregation="avg"
        )
        assert max_policy is not avg_policy
