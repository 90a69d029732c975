"""Experiment configuration dataclasses.

The paper's evaluation (Section V) fixes a handful of knobs per
experiment: dataset, pattern, deletion scenario, reservoir budget M,
and the number of repetitions. :class:`ExperimentConfig` bundles them
with the scaling conventions of this reproduction:

* ``alpha`` for the massive scenario is expressed as the *expected
  number of massive-deletion events per stream* (the paper's
  α = 1/3,000,000 on ~15M-event streams ≈ 5 events); it is divided by
  the stream's insertion count at build time.
* ``budget_fraction`` expresses M as a fraction of the stream's
  insertion count (the paper's M = 200,000 on 2.9M–16.5M-edge graphs is
  roughly 1–7%; we default to 4%).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.datasets import load_dataset
from repro.graph.edges import Edge
from repro.graph.orderings import order_edges
from repro.graph.stream import EdgeStream
from repro.streams.executor import ExecutorOptions
from repro.streams.scenarios import build_stream
from repro.utils.rng import RngFactory

__all__ = ["ScenarioConfig", "ExperimentConfig", "MASSIVE", "LIGHT", "INSERTION_ONLY"]


@dataclass(frozen=True)
class ScenarioConfig:
    """A deletion scenario with its parameters.

    ``alpha`` is the expected number of massive-deletion events per
    stream (massive scenario only); ``beta`` is β_m (massive) or β_l
    (light).
    """

    name: str = "massive"
    alpha: float = 4.0
    beta: float | None = None

    def validate(self) -> None:
        if self.name not in {"massive", "light", "insertion-only"}:
            raise ConfigurationError(f"unknown scenario {self.name!r}")
        if self.alpha < 0:
            raise ConfigurationError("alpha must be >= 0")

    @property
    def effective_beta(self) -> float:
        if self.beta is not None:
            return self.beta
        return 0.8 if self.name == "massive" else 0.2

    def build(
        self, edges: list[Edge], rng: np.random.Generator
    ) -> EdgeStream:
        """Materialise the stream for an ordered edge list."""
        self.validate()
        if self.name == "insertion-only":
            return build_stream(edges, "insertion-only")
        if self.name == "massive":
            per_insertion = min(1.0, self.alpha / max(len(edges), 1))
            return build_stream(
                edges, "massive", alpha=per_insertion,
                beta=self.effective_beta, rng=rng,
            )
        return build_stream(
            edges, "light", beta=self.effective_beta, rng=rng
        )


#: The paper's default scenarios (Section V-A).
MASSIVE = ScenarioConfig("massive", alpha=4.0, beta=0.8)
LIGHT = ScenarioConfig("light", beta=0.2)
INSERTION_ONLY = ScenarioConfig("insertion-only")


@dataclass(frozen=True)
class ExperimentConfig:
    """One measurement cell: dataset × pattern × scenario × budget."""

    dataset: str = "cit-PT"
    pattern: str = "triangle"
    scenario: ScenarioConfig = field(default_factory=lambda: MASSIVE)
    budget_fraction: float = 0.04
    budget: int | None = None
    trials: int = 10
    checkpoints: int = 40
    ordering: str = "natural"
    dataset_scale: float = 1.0
    seed: int = 0
    #: Number of sampler replicas per trial. 1 runs the classic
    #: single-sampler path; > 1 drives a
    #: :class:`~repro.streams.executor.ShardedStreamExecutor`.
    shards: int = 1
    #: Executor mode when ``shards > 1``: ``"partition"`` hash-routes
    #: each event to one replica (throughput scale-out), ``"broadcast"``
    #: replicates the stream (variance scale-out).
    shard_mode: str = "partition"
    #: How the replicas run when ``shards > 1``
    #: (:class:`~repro.streams.executor.ExecutorOptions`): backend,
    #: hosts, chunk sizing, recovery policy, ... — all result-identical
    #: under fixed seeds.
    executor: ExecutorOptions = field(default_factory=ExecutorOptions)

    def validate(self) -> None:
        self.scenario.validate()
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ConfigurationError("budget_fraction must be in (0, 1]")
        if self.budget is not None and self.budget < 1:
            raise ConfigurationError("budget must be >= 1")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.checkpoints < 1:
            raise ConfigurationError("checkpoints must be >= 1")
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.shard_mode not in {"partition", "broadcast"}:
            raise ConfigurationError(
                "shard_mode must be 'partition' or 'broadcast', got "
                f"{self.shard_mode!r}"
            )
        self.executor.validate()
        if self.executor.backend != "serial" and self.shards == 1:
            # The unsharded trial path runs a bare in-process sampler;
            # silently ignoring the requested backend would be worse
            # than refusing.
            raise ConfigurationError(
                f"executor backend {self.executor.backend!r} requires "
                "shards > 1 (an unsharded cell runs a single in-process "
                "sampler)"
            )

    def with_changes(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # -- materialisation -------------------------------------------------------

    def load_edges(self) -> list[Edge]:
        """Load the (ordered) edge list for this cell."""
        factory = RngFactory(self.seed)
        edges = load_dataset(
            self.dataset, scale=self.dataset_scale, seed=self.seed
        )
        return order_edges(edges, self.ordering, factory.generator("ordering"))

    def build_stream(self, edges: list[Edge] | None = None) -> EdgeStream:
        """Build the deterministic stream for this cell."""
        self.validate()
        if edges is None:
            edges = self.load_edges()
        factory = RngFactory(self.seed)
        return self.scenario.build(edges, factory.generator("scenario"))

    def effective_budget(self, stream: EdgeStream) -> int:
        """Resolve M: explicit budget, or fraction of insertions."""
        if self.budget is not None:
            return self.budget
        return max(8, int(stream.num_insertions * self.budget_fraction))
