"""Seeded inputs and accuracy helpers shared by the served workloads."""

from __future__ import annotations

import numpy as np

from repro.graph.generators import powerlaw_cluster
from repro.graph.stream import EventBlock
from repro.patterns.exact import ExactCounter
from repro.streams.scenarios import build_stream
from repro.utils.rng import derive_seed


def light_stream(seed: int, label: str, vertices: int, m: int, triangle_probability: float,
                 beta: float) -> EventBlock:
    """A Holme-Kim power-law graph as a light-deletion columnar stream."""
    edges = powerlaw_cluster(
        vertices, m=m, triangle_probability=triangle_probability,
        rng=derive_seed(seed, f"{label}-graph"),
    )
    return build_stream(
        edges, "light", beta=beta, rng=derive_seed(seed, f"{label}-stream"), columnar=True
    )


def tile(base: EventBlock, events: int) -> EventBlock:
    """The first ``events`` events of ``base`` repeated on fresh vertices.

    Copy *k* shifts every label by *k* times the base's label span, so
    the copies are vertex-disjoint and the concatenation stays a
    feasible stream (and a prefix of it too).
    """
    span = int(max(base.u.max(), base.v.max())) + 1
    copies = -(-events // len(base))
    shift = np.repeat(np.arange(copies, dtype=np.int64) * span, len(base))[:events]
    return EventBlock(
        np.tile(base.is_insert, copies)[:events],
        np.tile(base.u, copies)[:events] + shift,
        np.tile(base.v, copies)[:events] + shift,
        canonical=True,
    )


def frames(block: EventBlock, size: int) -> list[EventBlock]:
    return [block[start:start + size] for start in range(0, len(block), size)]


def exact_counts(block: EventBlock, pattern: str = "triangle") -> np.ndarray:
    """``counts[i]`` is the exact pattern count after the first ``i`` events."""
    counter = ExactCounter(pattern)
    counts = np.zeros(len(block) + 1, dtype=np.int64)
    for index, event in enumerate(block, start=1):
        counter.process(event)
        counts[index] = counter.count
    return counts


def tiled_truth(base_counts: np.ndarray, clock: int) -> int:
    """Exact count after ``clock`` events of :func:`tile` of that base."""
    length = len(base_counts) - 1
    return int(clock // length * base_counts[-1] + base_counts[clock % length])


def windowed_are_pct(estimates: list[float], truths: list[int]) -> float:
    """Error of the per-window counts, relative to them, in percent.

    Both lists are read at the same window boundaries (clock 0 first).
    Each window's estimated count is the estimate's increment over it;
    the result is sum |estimated - exact increment| / sum |exact
    increment|. Windows are many and short, so this is steady from seed
    to seed where one final-count error is not.
    """
    est = np.diff(np.asarray(estimates, dtype=np.float64))
    exact = np.diff(np.asarray(truths, dtype=np.float64))
    return float(np.abs(est - exact).sum() / np.abs(exact).sum() * 100.0)
