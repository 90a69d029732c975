"""ThinkD: "think before you discard" counting on fully dynamic streams.

ThinkD [Shin et al., ECML-PKDD'18] improves on Triest-FD with one idea:
*every* arriving event updates the estimate — using the sampled graph —
before the sampling decision is made, so no discovered instance is
wasted. The sample itself is still a uniform random-pairing reservoir.
This is the accurate variant (ThinkD-ACC): each instance found when
edge e arrives contributes the inverse of the joint probability that
its |H| - 1 other edges are sampled, computed from the realised sample
size s and alive population n (the RP uniformity guarantee):

    1 / ∏_{j<|H|-1} (s - j)/(n - j).

Reservoir state and introspection come from
:class:`~repro.samplers.kernel.PairingSamplerKernel`; the batched
ingestion override inlines the triangle/wedge counting and the
random-pairing arithmetic (bit-identical to per-event processing under
a fixed seed — the RP randomness is consumed in exactly the same
order).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import EdgeExistsError
from repro.graph.edges import Edge
from repro.graph.stream import EdgeEvent, EventBlock
from repro.samplers.kernel import PairingSamplerKernel, batch_columns

__all__ = ["ThinkD"]


class ThinkD(PairingSamplerKernel):
    """ThinkD-ACC: update the estimate before the sampling decision."""

    def _delta_from_edge(self, edge: Edge, sign: float = 1.0) -> float:
        """Weighted count of instances ``edge`` completes in the sample.

        Called with the sample *not* containing ``edge``; the joint
        inclusion probability of the |H| - 1 other edges uses the
        current sample size and alive population (``edge`` excluded from
        both, matching the RP conditioning). ``sign`` only affects what
        instance observers see; the returned magnitude is unsigned.
        """
        u, v = edge
        if not self.instance_observers:
            count = self.pattern.count_completed(self._sampled_graph, u, v)
            if count == 0:
                return 0.0
            p = self._rp.joint_inclusion_probability(
                self.pattern.num_edges - 1
            )
            if p <= 0.0:
                # Instances were found, so the other edges *are* sampled;
                # p can only be 0 through population undercount, which
                # the feasibility invariants rule out. Defensive no-op.
                return 0.0
            return count / p
        delta = 0.0
        p = self._rp.joint_inclusion_probability(self.pattern.num_edges - 1)
        for instance in self.pattern.instances_completed(
            self._sampled_graph, u, v
        ):
            if p <= 0.0:
                continue
            delta += 1.0 / p
            self._emit_instance(edge, instance, sign / p)
        return delta

    def _process_insertion(self, edge: Edge) -> None:
        # Think (update the estimate) before the sampling decision.
        self._estimate += self._delta_from_edge(edge)
        added, evicted = self._rp.insert(edge)
        if evicted is not None:
            self._sample_remove(evicted)
        if added:
            self._sample_add(edge)

    def _process_deletion(self, edge: Edge) -> None:
        # Remove the edge from sample/population first so that the
        # destroyed instances are weighted by the post-deletion sampling
        # state (and the edge cannot appear as its own "other" edge).
        removed = self._rp.delete(edge)
        if removed:
            self._sample_remove(edge)
        self._estimate -= self._delta_from_edge(edge, sign=-1.0)

    # -- batched ingestion -------------------------------------------------------

    def process_batch(
        self, events: EventBlock | Iterable[EdgeEvent]
    ) -> float:
        """Consume a batch with the RP arithmetic and counting inlined.

        Accepts an :class:`~repro.graph.stream.EventBlock` or any
        :class:`EdgeEvent` iterable. Bit-identical to event-at-a-time
        :meth:`process` under a fixed seed: the random-pairing
        reservoir consumes its randomness in exactly the same order
        (its decisions are data-dependent, so the uniforms cannot be
        pre-drawn as a block the way the rank samplers do) and the
        estimator performs the same floating-point operations. Falls
        back to the per-event path when observers are registered.
        """
        if not isinstance(events, (list, tuple, EventBlock)):
            events = list(events)
        if self.instance_observers:
            return PairingSamplerKernel.process_batch(self, events)
        ops, us, vs = batch_columns(events)

        count = self._batch_counter()
        k = self.pattern.num_edges - 1
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
        estimate = self._estimate
        time_now = self._time
        d_i = rp.d_i
        d_o = rp.d_o
        population = rp.population

        try:
            for is_ins, u, v in zip(ops, us, vs):
                time_now += 1
                edge = (u, v)
                if is_ins:
                    # -- think: count completions against the sample.
                    c = count(u, v)
                    if c:
                        s = len(items)
                        n = population
                        if s >= k and n >= k:
                            if k == 1:
                                p = 1.0 * (s / n)
                            elif k == 2:
                                p = 1.0 * (s / n)
                                p *= (s - 1) / (n - 1)
                            else:
                                p = 1.0
                                for j in range(k):
                                    p *= (s - j) / (n - j)
                            if p > 0.0:
                                estimate += c / p
                    # -- random pairing insert (same rng consumption
                    # order — and the same duplicate guard, raised
                    # before any reservoir mutation — as
                    # RandomPairingReservoir.insert).
                    if edge in index:
                        raise EdgeExistsError(
                            f"edge {edge!r} is already sampled"
                        )
                    population += 1
                    uncompensated = d_i + d_o
                    if uncompensated == 0:
                        if len(items) < capacity:
                            rp_add(edge)
                            add_edge(edge)
                        elif rng_random() < capacity / population:
                            evicted = evict_random()
                            rp_add(edge)
                            remove_edge(evicted)
                            add_edge(edge)
                        # else: not sampled.
                    elif rng_random() < d_i / uncompensated:
                        d_i -= 1
                        rp_add(edge)
                        add_edge(edge)
                    else:
                        d_o -= 1
                else:
                    # -- deletion: sample/population first, then count
                    # the destroyed instances post-deletion.
                    population -= 1
                    if edge in index:
                        rp_remove(edge)
                        d_i += 1
                        remove_edge(edge)
                    else:
                        d_o += 1
                    c = count(u, v)
                    if c:
                        s = len(items)
                        n = population
                        if s >= k and n >= k:
                            if k == 1:
                                p = 1.0 * (s / n)
                            elif k == 2:
                                p = 1.0 * (s / n)
                                p *= (s - 1) / (n - 1)
                            else:
                                p = 1.0
                                for j in range(k):
                                    p *= (s - j) / (n - j)
                            if p > 0.0:
                                estimate -= c / p
        finally:
            self._estimate = estimate
            self._time = time_now
            rp.d_i = d_i
            rp.d_o = d_o
            rp.population = population
        return estimate
