"""Experiment runner: repeated trials, shared ground truth, aggregation.

Running one table cell means: build the stream once (deterministic given
the config seed), compute the exact checkpoint trace once, then run N
independent sampler trials against the cached truth — timing only the
sampler — and aggregate ARE/MARE/time. The paper averages 100 sampling
repetitions per cell; the default here is smaller but configurable.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.estimators.metrics import (
    absolute_relative_error,
    mean_absolute_relative_error,
)
from repro.experiments.algorithms import make_sampler
from repro.experiments.config import ExperimentConfig
from repro.graph.stream import (
    EdgeEvent,
    EdgeStream,
    checkpoint_positions,
    checkpoint_segments,
)
from repro.patterns.exact import ExactCounter
from repro.patterns.matching import get_pattern
from repro.rl.policy import Policy
from repro.streams.executor import ExecutorOptions, ShardedStreamExecutor
from repro.utils.rng import RngFactory, derive_seed, spawn_generators
from repro.utils.timer import Stopwatch

__all__ = [
    "GroundTruthTrace",
    "TrialResult",
    "AlgorithmResult",
    "compute_ground_truth",
    "run_sampler_trial",
    "make_trial_sampler",
    "run_algorithm",
    "run_cell",
]


@dataclass(frozen=True)
class GroundTruthTrace:
    """Exact counts at checkpoint event indices (shared across trials)."""

    checkpoints: tuple[int, ...]
    truths: tuple[int, ...]

    @property
    def final_truth(self) -> int:
        return self.truths[-1]


@dataclass(frozen=True)
class TrialResult:
    """One sampler run against a cached ground-truth trace."""

    estimates: tuple[float, ...]
    seconds: float
    final_truth: int

    @property
    def final_estimate(self) -> float:
        return self.estimates[-1]


@dataclass
class AlgorithmResult:
    """Aggregated trials of one algorithm on one cell."""

    name: str
    ares: list[float] = field(default_factory=list)
    mares: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    @property
    def mean_are(self) -> float:
        return float(np.mean(self.ares))

    @property
    def mean_mare(self) -> float:
        return float(np.mean(self.mares))

    @property
    def mean_seconds(self) -> float:
        return float(np.mean(self.seconds))

    @property
    def std_are(self) -> float:
        return float(np.std(self.ares))


def compute_ground_truth(
    stream: EdgeStream, pattern: str, num_checkpoints: int
) -> GroundTruthTrace:
    """Exact counts of ``pattern`` at ``num_checkpoints`` even checkpoints."""
    checkpoints = checkpoint_positions(len(stream), num_checkpoints)
    counter = ExactCounter(pattern)
    truths = tuple(
        counter.process_stream(segment)
        for segment in checkpoint_segments(stream, checkpoints)
    )
    return GroundTruthTrace(checkpoints, truths)


def run_sampler_trial(
    sampler, stream: Iterable[EdgeEvent], truth: GroundTruthTrace
) -> TrialResult:
    """Run one sampler over the stream, sampling estimates at checkpoints.

    The stream is iterated once, to the end, and cut at the truth's
    checkpoints (:func:`~repro.graph.stream.checkpoint_segments`); each
    segment goes to the consumer's ``process_batch`` whole, which is
    bit-identical to feeding its events one by one. Only that call and
    the checkpoint estimate read are timed. On the process backend
    ``process_batch`` ends in the barrier where the pipelined ingestion
    completes, so the reported seconds stay comparable with serial
    rows. A stream that yields fewer or more events than the truth's
    last checkpoint raises :class:`ConfigurationError`.

    Consumers exposing ``close()`` (the process-backend executor) are
    closed when the trial ends, successfully or not, so worker
    processes never outlive their trial.
    """
    estimates: list[float] = []
    watch = Stopwatch()
    close = getattr(sampler, "close", None)
    try:
        for segment in checkpoint_segments(stream, truth.checkpoints):
            with watch:
                sampler.process_batch(segment)
                estimates.append(sampler.estimate)
    except BaseException:
        # The trial failure is the interesting exception; a teardown
        # failure on top of it is suppressed so it cannot mask it.
        if close is not None:
            try:
                close()
            except Exception:
                pass
        raise
    if close is not None:
        close()  # clean trial: a teardown failure is a real failure
    return TrialResult(tuple(estimates), watch.elapsed, truth.final_truth)


def make_trial_sampler(
    name: str,
    pattern: str,
    budget: int,
    factory: RngFactory,
    trial: int,
    policy: Policy | None = None,
    temporal_aggregation: str = "max",
    shards: int = 1,
    shard_mode: str = "partition",
    executor: ExecutorOptions | None = None,
):
    """Build one trial's consumer: a sampler, or a sharded executor.

    With ``shards > 1`` the trial runs a
    :class:`~repro.streams.executor.ShardedStreamExecutor` over
    ``shards`` replicas. Per-shard generators are spawned from one
    trial-level root via :func:`~repro.utils.rng.spawn_generators`
    (``numpy.random.SeedSequence.spawn``), so the replica randomness is
    a pure function of ``(seed, algorithm, trial, shard index)`` — the
    same for the serial and process backends, which is what makes the
    two result-identical. Partition mode splits the budget M across the
    replicas (total memory parity with the single-sampler run, floored
    at |H| per replica so the estimators stay defined); broadcast
    replicas each keep the full budget, as each one samples the whole
    stream.

    ``executor`` (:class:`~repro.streams.executor.ExecutorOptions`)
    says how the replicas run; ``None`` runs them serially.
    """
    if shards == 1:
        return make_sampler(
            name,
            pattern,
            budget,
            rng=factory.generator(f"{name}-trial-{trial}"),
            policy=policy,
            temporal_aggregation=temporal_aggregation,
        )
    if shard_mode == "partition":
        shard_budget = max(get_pattern(pattern).num_edges, budget // shards)
    else:
        shard_budget = budget

    shard_rngs = spawn_generators(
        derive_seed(factory.seed, f"{name}-trial-{trial}"), shards
    )

    def shard_factory(index: int):
        return make_sampler(
            name,
            pattern,
            shard_budget,
            rng=shard_rngs[index],
            policy=policy,
            temporal_aggregation=temporal_aggregation,
        )

    return ShardedStreamExecutor(
        shard_factory,
        shards,
        mode=shard_mode,
        options=executor,
    )


def run_algorithm(
    name: str,
    stream: EdgeStream,
    truth: GroundTruthTrace,
    pattern: str,
    budget: int,
    trials: int,
    seed: int = 0,
    policy: Policy | None = None,
    temporal_aggregation: str = "max",
    shards: int = 1,
    shard_mode: str = "partition",
    executor: ExecutorOptions | None = None,
) -> AlgorithmResult:
    """Run ``trials`` independent repetitions of one algorithm."""
    if truth.final_truth == 0:
        raise ConfigurationError(
            "final ground truth is zero; ARE undefined — re-seed the "
            "scenario or enlarge the dataset"
        )
    factory = RngFactory(seed)
    result = AlgorithmResult(name=name)
    for trial in range(trials):
        sampler = make_trial_sampler(
            name,
            pattern,
            budget,
            factory,
            trial,
            policy=policy,
            temporal_aggregation=temporal_aggregation,
            shards=shards,
            shard_mode=shard_mode,
            executor=executor,
        )
        trial_result = run_sampler_trial(sampler, stream, truth)
        result.ares.append(
            absolute_relative_error(
                trial_result.final_estimate, truth.final_truth
            )
        )
        result.mares.append(
            mean_absolute_relative_error(trial_result.estimates, truth.truths)
        )
        result.seconds.append(trial_result.seconds)
    return result


def run_cell(
    config: ExperimentConfig,
    algorithms: tuple[str, ...],
    policy: Policy | None = None,
    temporal_aggregation: str = "max",
) -> dict[str, AlgorithmResult]:
    """Run one table cell (one dataset) for several algorithms.

    The stream and ground truth are computed once and shared. With
    ``config.shards > 1`` every trial runs sharded (see
    :func:`make_trial_sampler`).
    """
    config.validate()
    stream = config.build_stream()
    truth = compute_ground_truth(stream, config.pattern, config.checkpoints)
    budget = config.effective_budget(stream)
    results: dict[str, AlgorithmResult] = {}
    for name in algorithms:
        results[name] = run_algorithm(
            name,
            stream,
            truth,
            config.pattern,
            budget,
            trials=config.trials,
            seed=config.seed,
            policy=policy,
            temporal_aggregation=temporal_aggregation,
            shards=config.shards,
            shard_mode=config.shard_mode,
            executor=config.executor,
        )
    return results
