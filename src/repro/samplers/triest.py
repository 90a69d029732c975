"""Triest-FD: uniform reservoir counting on fully dynamic streams.

Triest [De Stefani et al., TKDD'17] was the first fixed-memory subgraph
counter for fully dynamic streams. Its FD variant samples uniformly via
random pairing and maintains a counter τ of pattern instances whose
edges are *all* inside the sample; τ is updated only when the sample
changes (an edge enters or leaves it). The estimate rescales τ by the
closed-form probability that all |H| edges of an alive instance are
sampled:

    estimate = τ · ∏_{j<|H|} (W - j) / (ω - j),
    W = n + d_i + d_o,  ω = min(M, W).

The paper generalises Triest from triangles to arbitrary patterns the
same way we do here (the probability argument only uses |H|).

Reservoir state and introspection come from
:class:`~repro.samplers.kernel.PairingSamplerKernel`; the batched
ingestion override inlines the triangle/wedge counting and the
random-pairing arithmetic (bit-identical to per-event processing under
a fixed seed).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import EdgeExistsError
from repro.graph.edges import Edge
from repro.graph.stream import EdgeEvent, EventBlock
from repro.samplers.kernel import PairingSamplerKernel, batch_columns

__all__ = ["Triest"]


class Triest(PairingSamplerKernel):
    """Triest-FD with uniform sampling via random pairing."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # τ: number of alive instances entirely within the sample.
        self._tau = 0

    @property
    def estimate(self) -> float:  # type: ignore[override]
        """Rescale τ by the inverse inclusion probability at query time."""
        p = self._rp.triest_inclusion_probability(self.pattern.num_edges)
        if p <= 0.0:
            return 0.0
        return self._tau / p

    @property
    def tau(self) -> int:
        """The raw in-sample instance counter τ."""
        return self._tau

    def _count_with_sample(self, edge: Edge) -> int:
        """Instances ``edge`` completes against the sampled graph."""
        u, v = edge
        return self.pattern.count_completed(self._sampled_graph, u, v)

    def _process_insertion(self, edge: Edge) -> None:
        added, evicted = self._rp.insert(edge)
        if evicted is not None:
            self._sample_remove(evicted)
            self._tau -= self._count_with_sample(evicted)
        if added:
            self._tau += self._count_with_sample(edge)
            self._sample_add(edge)

    def _process_deletion(self, edge: Edge) -> None:
        removed = self._rp.delete(edge)
        if removed:
            self._sample_remove(edge)
            self._tau -= self._count_with_sample(edge)

    # -- batched ingestion -------------------------------------------------------

    def process_batch(
        self, events: EventBlock | Iterable[EdgeEvent]
    ) -> float:
        """Consume a batch with the RP arithmetic and counting inlined.

        Accepts an :class:`~repro.graph.stream.EventBlock` or any
        :class:`EdgeEvent` iterable. Bit-identical to event-at-a-time
        :meth:`process` under a fixed seed (τ is integral; the
        random-pairing randomness is consumed in exactly the same
        order).
        """
        if not isinstance(events, (list, tuple, EventBlock)):
            events = list(events)
        ops, us, vs = batch_columns(events)
        count = self._batch_counter()
        graph = self._sampled_graph
        add_edge = graph.add_edge_canonical
        remove_edge = graph.remove_edge_canonical
        rp = self._rp
        items = rp._items
        index = rp._index
        rp_add = rp._add
        rp_remove = rp._remove
        evict_random = rp._evict_random
        rng_random = self.rng.random
        capacity = rp.capacity
        tau = self._tau
        time_now = self._time
        d_i = rp.d_i
        d_o = rp.d_o
        population = rp.population

        try:
            for is_ins, u, v in zip(ops, us, vs):
                time_now += 1
                edge = (u, v)
                if is_ins:
                    # -- random pairing insert (same rng consumption
                    # order — and the same duplicate guard, raised
                    # before any reservoir mutation — as
                    # RandomPairingReservoir.insert), with the τ
                    # updates spliced in at the sample transitions.
                    if edge in index:
                        raise EdgeExistsError(
                            f"edge {edge!r} is already sampled"
                        )
                    population += 1
                    uncompensated = d_i + d_o
                    if uncompensated == 0:
                        if len(items) < capacity:
                            rp_add(edge)
                            tau += count(*edge)
                            add_edge(edge)
                        elif rng_random() < capacity / population:
                            evicted = evict_random()
                            rp_add(edge)
                            remove_edge(evicted)
                            tau -= count(*evicted)
                            tau += count(*edge)
                            add_edge(edge)
                        # else: not sampled.
                    elif rng_random() < d_i / uncompensated:
                        d_i -= 1
                        rp_add(edge)
                        tau += count(*edge)
                        add_edge(edge)
                    else:
                        d_o -= 1
                else:
                    population -= 1
                    if edge in index:
                        rp_remove(edge)
                        d_i += 1
                        remove_edge(edge)
                        tau -= count(*edge)
                    else:
                        d_o += 1
        finally:
            self._tau = tau
            self._time = time_now
            rp.d_i = d_i
            rp.d_o = d_o
            rp.population = population
        return self.estimate
