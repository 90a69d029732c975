"""Random pairing: uniform reservoir sampling under deletions.

Gemulla, Lehner and Haas's *random pairing* (RP) extends classic
reservoir sampling to fully dynamic streams: every deletion is
conceptually "paired with" a later insertion that re-fills the freed
slot. RP maintains two counters of uncompensated deletions —

* ``d_i`` ("bad"): deletions of items that *were* in the sample;
* ``d_o`` ("good"): deletions of items that were not —

and guarantees that at all times the sample is a uniformly random
subset (of random size) of the alive population. All three uniform
baselines (Triest, ThinkD, WRS) are built on this class.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator

import numpy as np

from repro.errors import ConfigurationError, EdgeExistsError
from repro.utils.rng import ensure_rng

__all__ = ["RandomPairingReservoir"]


class RandomPairingReservoir:
    """A uniform sample of at most ``capacity`` alive items under RP.

    :meth:`insert` / :meth:`delete` must be called for every population
    insertion/deletion. Both report how the *sample* changed so callers
    can keep auxiliary structures (e.g. a sampled-graph adjacency) in
    sync.
    """

    def __init__(
        self,
        capacity: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.rng = ensure_rng(rng)
        self._items: list[Hashable] = []
        self._index: dict[Hashable, int] = {}
        self.d_i = 0
        self.d_o = 0
        self.population = 0

    # -- sample container ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._index

    def __iter__(self) -> Iterator[Hashable]:
        return iter(list(self._items))

    def _add(self, item: Hashable) -> None:
        self._index[item] = len(self._items)
        self._items.append(item)

    def _remove(self, item: Hashable) -> None:
        i = self._index.pop(item)
        last = self._items.pop()
        if i < len(self._items):
            self._items[i] = last
            self._index[last] = i

    def _evict_random(self) -> Hashable:
        victim = self._items[int(self.rng.integers(0, len(self._items)))]
        self._remove(victim)
        return victim

    # -- RP operations ------------------------------------------------------------

    def insert(self, item: Hashable) -> tuple[bool, Hashable | None]:
        """Process a population insertion.

        Returns ``(added, evicted)``: whether ``item`` entered the
        sample and, if a standard reservoir replacement occurred, the
        evicted item (otherwise ``None``).
        """
        if item in self._index:
            raise EdgeExistsError(f"item {item!r} is already sampled")
        self.population += 1
        uncompensated = self.d_i + self.d_o
        if uncompensated == 0:
            if len(self._items) < self.capacity:
                self._add(item)
                return True, None
            if self.rng.random() < self.capacity / self.population:
                evicted = self._evict_random()
                self._add(item)
                return True, evicted
            return False, None
        # Pair this insertion with one earlier uncompensated deletion.
        if self.rng.random() < self.d_i / uncompensated:
            self.d_i -= 1
            self._add(item)
            return True, None
        self.d_o -= 1
        return False, None

    def delete(self, item: Hashable) -> bool:
        """Process a population deletion.

        Returns whether ``item`` was in the sample (and got removed).
        """
        self.population -= 1
        if item in self._index:
            self._remove(item)
            self.d_i += 1
            return True
        self.d_o += 1
        return False

    # -- estimation helpers ----------------------------------------------------------

    def joint_inclusion_probability(self, k: int) -> float:
        """P[k specific alive items are all in the sample].

        Conditioned on the realised sample size s (the RP uniformity
        guarantee), this is ∏_{j<k} (s - j) / (n - j) with n the alive
        population. Returns 0.0 when the sample is too small.
        """
        s = len(self._items)
        n = self.population
        if k <= 0:
            return 1.0
        if s < k or n < k:
            return 0.0
        p = 1.0
        for j in range(k):
            p *= (s - j) / (n - j)
        return p

    def triest_inclusion_probability(self, k: int) -> float:
        """Triest-FD's closed-form P[k specific alive items sampled].

        Uses ω = min(M, n + d_i + d_o) over the *augmented* population
        W = n + d_i + d_o, as in the Triest-FD estimator:
        ∏_{j<k} (ω - j) / (W - j). Returns 0.0 when ω < k.
        """
        w = self.population + self.d_i + self.d_o
        omega = min(self.capacity, w)
        if k <= 0:
            return 1.0
        if omega < k or w < k:
            return 0.0
        p = 1.0
        for j in range(k):
            p *= (omega - j) / (w - j)
        return p
