"""GPS-A: GPS with lazy deletion tags (Section III-B).

GPS-A adapts GPS to fully dynamic streams by the simplest possible
device: a deletion does not remove the edge from the reservoir — it only
attaches a "DEL" tag. Tagged edges keep occupying reservoir slots (and
keep participating in the rank competition), so inclusion probabilities
stay exactly those of GPS (Eq. (2) still holds), but the *useful*
sample R \\ R_tag shrinks over time — the accuracy drawback WSD removes.

The estimator (Theorem 2) adds X_J on formations and subtracts Y_J on
destructions, both products of 1 / P[r(e) > r_{M+1}] over the instance's
other edges restricted to untagged sampled edges.

The shared estimator/weight/reservoir plumbing — including the batched
ingestion fast loop — lives in
:class:`~repro.samplers.kernel.ThresholdSamplerKernel`; this class
contributes the lazy-tag bookkeeping on top of the GPS priority
competition.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import EdgeExistsError
from repro.graph.edges import Edge
from repro.patterns.base import Pattern
from repro.samplers.kernel import KERNEL_GPSA, ThresholdSamplerKernel
from repro.samplers.ranks import RankFunction
from repro.weights.base import WeightFunction

__all__ = ["GPSA"]


class GPSA(ThresholdSamplerKernel):
    """GPS-A: fully dynamic GPS with lazy "DEL" tags.

    The sampled graph (used for pattern enumeration) contains only the
    *untagged* reservoir edges — tagged edges are dead for estimation
    but still consume budget, which is exactly the inefficiency the
    paper's Table II/III columns expose.
    """

    _policy = KERNEL_GPSA
    _memoize_light = False

    def __init__(
        self,
        pattern: str | Pattern,
        budget: int,
        weight_fn: WeightFunction,
        rank_fn: str | RankFunction = "inverse-uniform",
        rng: np.random.Generator | int | None = None,
        capture_context: bool | None = None,
    ) -> None:
        super().__init__(
            pattern, budget, weight_fn, rank_fn, rng, capture_context
        )
        self._tagged: set[Edge] = set()

    @property
    def num_tagged(self) -> int:
        """|R_tag|: reservoir slots wasted on deleted edges."""
        return len(self._tagged)

    def _insert(self, edge: Edge, weight: float, rank: float) -> None:
        if edge in self._reservoir:
            # Re-insertion of an edge whose tagged ghost still occupies a
            # slot: the ghost carries no information, so replace it with
            # the fresh arrival (the one departure from pure laziness
            # needed to keep edge keys unique).
            if edge not in self._tagged:
                raise EdgeExistsError(f"edge {edge!r} is already sampled")
            self._reservoir.remove(edge)
            self._drop_state(edge)

        if len(self._reservoir) < self.budget:
            self._admit(edge, weight, rank)
            return
        min_rank = self._reservoir.min_priority()
        if rank > min_rank:
            evicted, evicted_rank = self._reservoir.replace_min(edge, rank)
            self._drop_state(evicted)
            self._raise_threshold(evicted_rank)
            self._record_admission(edge, weight)
        else:
            self._raise_threshold(rank)

    def _process_deletion(self, edge: Edge) -> None:
        # Tag first (removing e_t from the useful sample), then count the
        # destroyed instances whose *other* edges are untagged & sampled.
        if edge in self._reservoir and edge not in self._tagged:
            self._tagged.add(edge)
            self._sample_remove(edge)
        self._subtract_destroyed(edge)

    def _drop_state(self, edge: Edge) -> None:
        del self._edge_weights[edge]
        del self._edge_times[edge]
        self._prob_cache.pop(edge, None)
        if edge in self._tagged:
            self._tagged.discard(edge)
        else:
            self._sample_remove(edge)

    @property
    def sample_size(self) -> int:
        """Total occupied slots, tagged ghosts included."""
        return len(self._reservoir)

    @property
    def useful_sample_size(self) -> int:
        """|R \\ R_tag|: untagged (estimation-relevant) edges."""
        return len(self._reservoir) - len(self._tagged)

    def sampled_edges(self) -> Iterator[Edge]:
        """Iterate the *untagged* sampled edges."""
        return (e for e in self._reservoir if e not in self._tagged)
