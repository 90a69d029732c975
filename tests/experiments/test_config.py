"""Tests for experiment configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import (
    INSERTION_ONLY,
    LIGHT,
    MASSIVE,
    ExperimentConfig,
    ScenarioConfig,
)
from repro.streams.executor import ExecutorOptions
from repro.streams.validate import validate_stream


class TestScenarioConfig:
    def test_defaults(self):
        assert MASSIVE.effective_beta == 0.8
        assert LIGHT.effective_beta == 0.2

    def test_explicit_beta(self):
        assert ScenarioConfig("light", beta=0.4).effective_beta == 0.4

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig("weird").validate()

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig("massive", alpha=-1.0).validate()

    def test_build_insertion_only(self):
        import numpy as np

        stream = INSERTION_ONLY.build(
            [(0, 1), (1, 2)], np.random.default_rng(0)
        )
        assert stream.num_deletions == 0

    def test_build_massive_feasible(self):
        import numpy as np
        from repro.graph.generators import forest_fire

        edges = forest_fire(100, p=0.4, rng=0)
        stream = MASSIVE.build(edges, np.random.default_rng(1))
        validate_stream(stream)

    def test_build_light_feasible(self):
        import numpy as np
        from repro.graph.generators import forest_fire

        edges = forest_fire(100, p=0.4, rng=0)
        stream = LIGHT.build(edges, np.random.default_rng(1))
        validate_stream(stream)


class TestExperimentConfig:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    def test_invalid_budget_fraction(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(budget_fraction=0.0).validate()

    def test_invalid_trials(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(trials=0).validate()

    def test_executor_backend_validated(self):
        process = ExecutorOptions(backend="process")
        ExperimentConfig(shards=2, executor=process).validate()
        ExperimentConfig(executor=ExecutorOptions()).validate()
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                executor=ExecutorOptions(backend="threads")
            ).validate()

    def test_process_backend_requires_sharding(self):
        """shards=1 runs a bare sampler, so a requested process backend
        would be silently ignored — refused instead."""
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                shards=1, executor=ExecutorOptions(backend="process")
            ).validate()

    def test_with_changes(self):
        config = ExperimentConfig(dataset="cit-PT")
        changed = config.with_changes(dataset="com-YT", trials=3)
        assert changed.dataset == "com-YT"
        assert changed.trials == 3
        assert config.dataset == "cit-PT"  # original untouched

    def test_build_stream_deterministic(self):
        config = ExperimentConfig(
            dataset="cit-HE", scenario=LIGHT, dataset_scale=0.4, seed=3
        )
        assert config.build_stream() == config.build_stream()

    def test_seed_changes_stream(self):
        a = ExperimentConfig(dataset="cit-HE", dataset_scale=0.4, seed=0)
        b = ExperimentConfig(dataset="cit-HE", dataset_scale=0.4, seed=1)
        assert a.build_stream() != b.build_stream()

    def test_ordering_changes_stream(self):
        natural = ExperimentConfig(
            dataset="cit-HE", dataset_scale=0.4, ordering="natural"
        )
        uar = ExperimentConfig(
            dataset="cit-HE", dataset_scale=0.4, ordering="uar"
        )
        assert natural.build_stream() != uar.build_stream()

    def test_effective_budget_fraction(self):
        config = ExperimentConfig(
            dataset="cit-HE", dataset_scale=0.4, budget_fraction=0.1
        )
        stream = config.build_stream()
        assert config.effective_budget(stream) == max(
            8, int(stream.num_insertions * 0.1)
        )

    def test_effective_budget_explicit(self):
        config = ExperimentConfig(dataset="cit-HE", budget=123)
        stream = config.build_stream()
        assert config.effective_budget(stream) == 123
