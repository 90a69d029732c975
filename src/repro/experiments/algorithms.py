"""Algorithm factory and the WSD-L policy store.

Maps the paper's algorithm names (Table II columns) to sampler
instances. WSD-L needs a trained policy per (training dataset, pattern,
scenario); :class:`PolicyStore` trains them lazily (mirroring the
paper's offline-training / online-deployment split) and caches them in
memory and optionally on disk.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.graph.datasets import DATASETS, TRAIN_TEST_PAIRS, load_dataset
from repro.rl.policy import FrozenPolicy, Policy
from repro.rl.training import (
    TrainingConfig,
    make_training_streams,
    train_weight_policy,
)
from repro.samplers.base import SubgraphCountingSampler
from repro.samplers.gps import GPS
from repro.samplers.gps_a import GPSA
from repro.samplers.thinkd import ThinkD
from repro.samplers.triest import Triest
from repro.samplers.wrs import WRS
from repro.samplers.wsd import WSD
from repro.utils.timer import Timer
from repro.weights.heuristic import GPSHeuristicWeight, UniformWeight
from repro.weights.learned import LearnedWeight

__all__ = [
    "ALGORITHMS",
    "DYNAMIC_ALGORITHMS",
    "make_sampler",
    "PolicyStore",
    "training_dataset_for",
]

#: Algorithm names in the paper's table column order.
DYNAMIC_ALGORITHMS = ("WSD-L", "WSD-H", "GPS-A", "Triest", "ThinkD", "WRS")
ALGORITHMS = DYNAMIC_ALGORITHMS + ("GPS", "WSD-U")


def training_dataset_for(test_dataset: str) -> str:
    """Return the same-category training graph for a test graph (Table I)."""
    info = DATASETS.get(test_dataset)
    if info is None:
        raise ConfigurationError(f"unknown dataset {test_dataset!r}")
    train, _ = TRAIN_TEST_PAIRS[info.category]
    return train


def make_sampler(
    name: str,
    pattern: str,
    budget: int,
    rng: np.random.Generator | int | None = None,
    policy: Policy | None = None,
    temporal_aggregation: str = "max",
) -> SubgraphCountingSampler:
    """Instantiate an algorithm by its paper name.

    ``policy`` is required for WSD-L, and is served frozen
    (:meth:`~repro.rl.policy.Policy.freeze`) from the kernels' block
    path; ``temporal_aggregation`` threads through to its state features
    (Table XIII ablation).
    """
    key = name.upper().replace("_", "-")
    if key == "WSD-L":
        if policy is None:
            raise ConfigurationError("WSD-L requires a trained policy")
        # The frozen actor gives the same weights from the kernels'
        # block path, without a WeightContext per insertion.
        if not isinstance(policy, FrozenPolicy):
            policy = policy.freeze()
        weight_fn = LearnedWeight(
            policy, temporal_aggregation=temporal_aggregation
        )
        return WSD(pattern, budget, weight_fn, rng=rng)
    if key == "WSD-H":
        return WSD(pattern, budget, GPSHeuristicWeight(), rng=rng)
    if key == "WSD-U":
        return WSD(pattern, budget, UniformWeight(), rng=rng)
    if key == "GPS-A":
        return GPSA(pattern, budget, GPSHeuristicWeight(), rng=rng)
    if key == "GPS":
        return GPS(pattern, budget, GPSHeuristicWeight(), rng=rng)
    if key == "TRIEST":
        return Triest(pattern, budget, rng=rng)
    if key == "THINKD":
        return ThinkD(pattern, budget, rng=rng)
    if key == "WRS":
        return WRS(pattern, budget, rng=rng)
    raise ConfigurationError(
        f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}"
    )


class PolicyStore:
    """Lazy, cached WSD-L policy trainer.

    Policies are keyed by (training dataset, pattern, scenario name,
    temporal aggregation). Training follows the paper: streams are
    generated from the *training* graph with the same scenario
    parameters as the evaluation, and the learned actor is frozen into a
    :class:`~repro.rl.policy.Policy`.
    """

    def __init__(
        self,
        iterations: int = 300,
        num_streams: int = 4,
        dataset_scale: float = 1.0,
        cache_dir: str | Path | None = None,
        seed: int = 7,
    ) -> None:
        self.iterations = iterations
        self.num_streams = num_streams
        self.dataset_scale = dataset_scale
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.seed = seed
        self._cache: dict[tuple, Policy] = {}
        #: Wall-clock training seconds per key (Tables IV/XI).
        self.training_seconds: dict[tuple, float] = {}

    def _key(
        self,
        train_dataset: str,
        pattern: str,
        scenario: ScenarioConfig,
        temporal_aggregation: str,
    ) -> tuple:
        return (
            train_dataset,
            pattern,
            scenario.name,
            round(scenario.effective_beta, 4),
            temporal_aggregation,
        )

    def _cache_path(self, key: tuple) -> Path | None:
        if self.cache_dir is None:
            return None
        fname = "policy-" + "-".join(str(part) for part in key) + ".npz"
        return self.cache_dir / fname.replace("/", "_")

    def get(
        self,
        train_dataset: str,
        pattern: str,
        scenario: ScenarioConfig,
        temporal_aggregation: str = "max",
        budget: int | None = None,
    ) -> Policy:
        """Return (training if necessary) the policy for this key."""
        key = self._key(train_dataset, pattern, scenario, temporal_aggregation)
        if key in self._cache:
            return self._cache[key]
        path = self._cache_path(key)
        if path is not None and path.exists():
            policy = Policy.load(path)
            self._cache[key] = policy
            self.training_seconds.setdefault(
                key, float(policy.metadata.get("training_seconds", 0.0))
            )
            return policy

        edges = load_dataset(
            train_dataset, scale=self.dataset_scale, seed=self.seed
        )
        streams = make_training_streams(
            edges,
            scenario.name if scenario.name != "insertion-only" else "insertion-only",
            num_streams=self.num_streams,
            alpha=(
                min(1.0, scenario.alpha / max(len(edges), 1))
                if scenario.name == "massive"
                else None
            ),
            beta=scenario.effective_beta
            if scenario.name != "insertion-only"
            else None,
            seed=self.seed,
        )
        if budget is None:
            budget = max(8, int(len(edges) * 0.04))
        config = TrainingConfig(
            iterations=self.iterations,
            num_streams=self.num_streams,
            temporal_aggregation=temporal_aggregation,
        )
        with Timer() as timer:
            result = train_weight_policy(
                streams, pattern, budget, config=config, seed=self.seed
            )
        policy = result.policy
        policy.metadata["training_seconds"] = timer.seconds
        policy.metadata["train_dataset"] = train_dataset
        self.training_seconds[key] = timer.seconds
        self._cache[key] = policy
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            policy.save(path)
        return policy
