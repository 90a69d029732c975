"""Rank functions r = f(w) for priority-based weighted sampling.

GPS and WSD assign each edge a random *rank* that grows with its weight;
the reservoir keeps the highest-ranked edges, and the estimators need
the closed-form inclusion probability P[r(e) > threshold]. A rank
family must therefore expose both the sampling rule and that
probability. Two classic families are provided:

* :class:`InverseUniformRank` — ``r = w / u`` with ``u ~ U(0, 1]``; the
  paper's (and GPS's) default, with
  ``P[r > τ] = min(1, w/τ)``.
* :class:`ExponentialRank` — ``r = u^{1/w}`` (Efraimidis–Spirakis),
  with ``P[r > τ] = 1 - τ^w``; provided as an extension/ablation.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["RankFunction", "InverseUniformRank", "ExponentialRank", "get_rank_function"]


class RankFunction(abc.ABC):
    """A monotone random rank family with known inclusion probability."""

    name: str

    @abc.abstractmethod
    def rank(self, weight: float, rng: np.random.Generator) -> float:
        """Draw a random rank for an edge of ``weight`` (> 0)."""

    def rank_from_uniform(self, weight: float, u: float) -> float:
        """Return the rank for ``weight`` from one raw uniform draw.

        ``u`` is a value from ``rng.random()`` (i.e. in [0, 1)). Rank
        families that implement this admit the threshold samplers'
        ingestion loop, which pre-draws a batch's randomness in one
        numpy block (``rng.random(n)`` yields the exact doubles of n
        scalar draws) and a single event's with one scalar draw;
        :meth:`rank` must then equal
        ``rank_from_uniform(weight, rng.random())`` bit for bit.
        Families without a closed form may leave this unimplemented —
        the samplers then take the per-event reference path, which
        draws through :meth:`rank`.
        """
        raise NotImplementedError

    @abc.abstractmethod
    def inclusion_probability(self, weight: float, threshold: float) -> float:
        """Return P[rank(weight) > threshold].

        A ``threshold`` of 0 (the initial τ value) always yields 1.
        """


class InverseUniformRank(RankFunction):
    """r = w / u, u ~ Uniform(0, 1] — the paper's rank function."""

    name = "inverse-uniform"

    def rank(self, weight: float, rng: np.random.Generator) -> float:
        return self.rank_from_uniform(weight, rng.random())

    def rank_from_uniform(self, weight: float, u: float) -> float:
        if weight <= 0.0:
            raise ConfigurationError(f"weight must be positive, got {weight}")
        # u is in [0, 1); map to (0, 1] to avoid division by 0.
        return weight / (1.0 - u)

    def inclusion_probability(self, weight: float, threshold: float) -> float:
        if threshold <= 0.0:
            return 1.0
        return min(1.0, weight / threshold)


class ExponentialRank(RankFunction):
    """r = u^{1/w}, u ~ Uniform(0, 1] — Efraimidis–Spirakis ranks.

    Ranks live in (0, 1]; P[r > τ] = 1 - τ^w for τ in [0, 1).
    """

    name = "exponential"

    def rank(self, weight: float, rng: np.random.Generator) -> float:
        return self.rank_from_uniform(weight, rng.random())

    def rank_from_uniform(self, weight: float, u: float) -> float:
        if weight <= 0.0:
            raise ConfigurationError(f"weight must be positive, got {weight}")
        return float((1.0 - u) ** (1.0 / weight))

    def inclusion_probability(self, weight: float, threshold: float) -> float:
        if threshold <= 0.0:
            return 1.0
        if threshold >= 1.0:
            return 0.0
        return 1.0 - float(threshold**weight)


_RANKS: dict[str, RankFunction] = {
    InverseUniformRank.name: InverseUniformRank(),
    ExponentialRank.name: ExponentialRank(),
}


def get_rank_function(name: str | RankFunction) -> RankFunction:
    """Resolve a rank function by name (or pass an instance through)."""
    if isinstance(name, RankFunction):
        return name
    key = name.lower()
    if key not in _RANKS:
        raise ConfigurationError(
            f"unknown rank function {name!r}; known: {sorted(_RANKS)}"
        )
    return _RANKS[key]
