"""Checkpointed estimate-vs-truth traces.

:class:`EstimateTrace` drives a sampler and an exact counter over the
same stream, recording both values at evenly spaced checkpoints. It is
the measurement core behind every ARE/MARE cell in the paper tables and
the per-time-step series of the figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.estimators.metrics import (
    absolute_relative_error,
    mean_absolute_relative_error,
)
from repro.graph.stream import (
    EdgeStream,
    checkpoint_positions,
    checkpoint_segments,
)
from repro.patterns.exact import ExactCounter
from repro.samplers.base import SubgraphCountingSampler
from repro.utils.timer import Stopwatch

__all__ = ["EstimateTrace", "run_with_trace"]


@dataclass
class EstimateTrace:
    """Paired (estimate, truth) samples along one stream run."""

    checkpoints: list[int] = field(default_factory=list)
    estimates: list[float] = field(default_factory=list)
    truths: list[int] = field(default_factory=list)
    #: Wall-clock seconds spent inside the sampler (truth excluded).
    sampler_seconds: float = 0.0

    @property
    def final_estimate(self) -> float:
        if not self.estimates:
            raise ConfigurationError("empty trace")
        return self.estimates[-1]

    @property
    def final_truth(self) -> int:
        if not self.truths:
            raise ConfigurationError("empty trace")
        return self.truths[-1]

    def are(self) -> float:
        """ARE (%) at the last checkpoint."""
        return absolute_relative_error(self.final_estimate, self.final_truth)

    def mare(self) -> float:
        """MARE (%) across all checkpoints."""
        return mean_absolute_relative_error(self.estimates, self.truths)


def run_with_trace(
    sampler: SubgraphCountingSampler,
    stream: EdgeStream,
    num_checkpoints: int = 50,
    exact: ExactCounter | None = None,
) -> EstimateTrace:
    """Run ``sampler`` over ``stream`` recording a checkpoint trace.

    The exact counter may be shared across trials via ``exact`` — pass a
    *fresh* counter (or None to build one); it is consumed by the run.
    Only sampler time is accumulated into ``sampler_seconds`` so timing
    comparisons are not polluted by ground-truth bookkeeping. The
    sampler ingests each checkpoint segment through ``process_batch``
    (:func:`~repro.graph.stream.checkpoint_segments`, the experiment
    runner's loop), which is bit-identical to per-event processing.
    """
    n = len(stream)
    checkpoints = checkpoint_positions(n, num_checkpoints)
    if n == 0:
        raise ConfigurationError("cannot trace an empty stream")
    if exact is None:
        exact = ExactCounter(sampler.pattern)
    trace = EstimateTrace(checkpoints=list(checkpoints))
    watch = Stopwatch()
    for segment in checkpoint_segments(stream, checkpoints):
        with watch:
            sampler.process_batch(segment)
        trace.estimates.append(sampler.estimate)
        trace.truths.append(exact.process_stream(segment))
    trace.sampler_seconds = watch.elapsed
    return trace
