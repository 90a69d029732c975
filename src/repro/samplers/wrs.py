"""WRS: waiting-room sampling exploiting temporal locality.

WRS [Shin, ICDM'17; Lee/Shin/Faloutsos, VLDBJ'20] splits the M-edge
budget into a *waiting room* that unconditionally stores the most recent
edges (inclusion probability 1) and a reservoir sampling the older ones.
Because many pattern instances are completed by temporally close edges
("temporal locality"), keeping recent edges deterministically catches a
disproportionate share of instances.

The original WRS targets insertion streams; the paper uses it as a fully
dynamic baseline. We implement the natural fully dynamic variant
(documented in DESIGN.md): the reservoir half runs random pairing over
the population of alive edges that have *exited* the waiting room, and a
deletion removes the edge from whichever half holds it. The estimator is
ThinkD-style (update before sampling): an instance found when edge e
arrives contributes ∏ 1/p(e') over its other edges, where p(e') = 1 for
waiting-room edges and the joint RP probability for reservoir edges.

The reservoir half and the introspection plumbing come from
:class:`~repro.samplers.kernel.PairingSamplerKernel` (instantiated with
the post-waiting-room capacity); batched ingestion inlines the
waiting-room FIFO, the random-pairing arithmetic and the
triangle/wedge estimators the same way the other pairing samplers do
(bit-identical to per-event processing under a fixed seed). For the
wedge pattern the per-instance waiting-room classification collapses
to degree arithmetic: a wedge has one "other" edge, so the delta is
``#waiting-room incident edges + #reservoir incident edges / P[1]``,
maintained O(1) via per-vertex waiting-room degrees.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigurationError, EdgeExistsError
from repro.graph.edges import Edge, canonical_edge
from repro.graph.stream import EdgeEvent, EventBlock
from repro.patterns.base import Pattern
from repro.patterns.cliques import FourClique, KClique, Triangle
from repro.patterns.paths import Wedge
from repro.samplers import kernel as _kernel
from repro.samplers.kernel import PairingSamplerKernel, batch_columns

__all__ = ["WRS"]


def _arena_wr_delta(m1, m2, joint_prob) -> float:
    """Triangle delta over gathered waiting-room membership lanes.

    ``m1`` / ``m2`` hold 1.0 for waiting-room edges, 0.0 for reservoir
    edges; an instance with ``ir`` reservoir edges contributes
    ``1 / joint_prob(ir)``, so the vectorised form buckets the common
    neighbours by ``ir`` (two count_nonzero passes) and accumulates the
    classes in ascending-``ir`` order. Both the per-event and the
    batched path call *this* function, which is what keeps them
    bit-identical to each other (grouping by class regroups the float
    additions relative to the scalar loop, hence the construction-time
    arena switch).
    """
    s = m1 + m2
    n0 = int(np.count_nonzero(s == 2.0))  # both edges in the WR
    n2 = int(np.count_nonzero(s == 0.0))  # both in the reservoir
    n1 = len(s) - n0 - n2
    delta = 0.0
    if n0:
        p = joint_prob(0)
        if p > 0.0:
            delta += n0 / p
    if n1:
        p = joint_prob(1)
        if p > 0.0:
            delta += n1 / p
    if n2:
        p = joint_prob(2)
        if p > 0.0:
            delta += n2 / p
    return delta


class WRS(PairingSamplerKernel):
    """Waiting-room sampling (fully dynamic variant).

    Args:
        pattern: the target pattern H.
        budget: M, the total storage budget (waiting room + reservoir).
        waiting_room_fraction: share of the budget given to the waiting
            room (the paper's α; WRS reports α ≈ 0.1–0.2 works best).
        rng: seed or generator.
    """

    def __init__(
        self,
        pattern: str | Pattern,
        budget: int,
        waiting_room_fraction: float = 0.1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not 0.0 < waiting_room_fraction < 1.0:
            raise ConfigurationError(
                "waiting_room_fraction must be in (0, 1), got "
                f"{waiting_room_fraction}"
            )
        waiting_room_capacity = max(1, int(budget * waiting_room_fraction))
        reservoir_capacity = budget - waiting_room_capacity
        if reservoir_capacity < 1:
            raise ConfigurationError(
                f"budget M={budget} leaves no room for the reservoir"
            )
        super().__init__(
            pattern, budget, rng, reservoir_capacity=reservoir_capacity
        )
        self.waiting_room_capacity = waiting_room_capacity
        # FIFO of the most recent edges; dict preserves insertion order.
        self._waiting_room: OrderedDict[Edge, int] = OrderedDict()
        #: Per-vertex count of incident *waiting-room* edges — the O(1)
        #: wedge-delta state (reservoir degrees follow by subtraction
        #: from the sampled-graph degree). Only maintained for the
        #: wedge pattern.
        self._wr_degrees: dict | None = (
            {}
            if _kernel._WEDGE_VECTORIZATION and type(self.pattern) is Wedge
            else None
        )
        # Unlike ThinkD/Triest (pure C-level counts), WRS classifies
        # every instance edge by waiting-room membership in a Python
        # loop — exactly the shape the arena's payload lane vectorises.
        if _kernel._ARENA_ACCELERATION and isinstance(
            self.pattern, (Triangle, FourClique, KClique)
        ):
            self._sampled_graph.enable_arena(
                self._arena_payload, cutoff=_kernel._ARENA_CUTOFF
            )
        #: Vectorised triangle delta via the arena's membership lane.
        self._tri_membership = (
            self._sampled_graph.arena is not None
            and type(self.pattern) is Triangle
        )

    def _arena_payload(self, u, v) -> float:
        """Membership lane value of an existing edge (slab builds)."""
        edge = canonical_edge(u, v)
        return 1.0 if edge in self._waiting_room else 0.0

    def _sample_add(self, edge: Edge) -> None:
        # The membership lane must reflect which half holds the edge at
        # insertion time: live insertions and checkpointed WR entries
        # are already in the FIFO when this runs; restored reservoir
        # edges are not (and never will be), so they land as 0.0.
        self._sampled_graph.add_edge_canonical(
            edge, 1.0 if edge in self._waiting_room else 0.0
        )

    def _rebuild_wr_degrees(self) -> None:
        """Recompute the waiting-room degree aggregates from scratch.

        Needed after checkpoint restore, which repopulates the
        waiting-room FIFO directly.
        """
        if self._wr_degrees is None:
            return
        wrdeg: dict = {}
        for u, v in self._waiting_room:
            wrdeg[u] = wrdeg.get(u, 0) + 1
            wrdeg[v] = wrdeg.get(v, 0) + 1
        self._wr_degrees = wrdeg

    # -- estimation --------------------------------------------------------------

    def _wedge_delta(self, u, v) -> float:
        """O(1) wedge delta via waiting-room degree arithmetic.

        Every wedge completed by {u, v} has exactly one other edge,
        incident to its centre: waiting-room edges contribute 1 each,
        reservoir edges 1/P[one specific reservoir edge sampled]. The
        sampled graph never contains {u, v} at evaluation time, so the
        per-centre totals are plain degrees.
        """
        adj = self._sampled_graph._adj
        wrdeg = self._wr_degrees
        nc = adj.get(u)
        du = len(nc) if nc else 0
        nc = adj.get(v)
        dv = len(nc) if nc else 0
        wu = wrdeg.get(u, 0)
        wv = wrdeg.get(v, 0)
        in_reservoir = (du - wu) + (dv - wv)
        delta = float(wu + wv)
        if in_reservoir:
            rp = self._rp
            s = len(rp._items)
            n = rp.population
            if s >= 1 and n >= 1:
                p = s / n
                if p > 0.0:
                    delta += in_reservoir / p
        return delta

    def _delta_from_edge(self, edge: Edge, sign: float = 1.0) -> float:
        """Weighted count of instances ``edge`` completes in the sample.

        Waiting-room edges count with probability 1; for each instance
        the reservoir edges contribute jointly via the RP probability of
        its reservoir-edge count. ``sign`` only affects what instance
        observers see; the returned magnitude is unsigned.
        """
        u, v = edge
        if self._wr_degrees is not None and not self.instance_observers:
            return self._wedge_delta(u, v)
        if self._tri_membership and not self.instance_observers:
            pair = self._sampled_graph.common_payloads(u, v)
            if pair is not None:
                return _arena_wr_delta(
                    pair[0], pair[1], self._rp.joint_inclusion_probability
                )
        delta = 0.0
        # The RP probability depends only on the instance's count of
        # reservoir edges (sample size and population are fixed within
        # one event), so memoize it per count for this event.
        probs: dict[int, float] = {}
        joint_prob = self._rp.joint_inclusion_probability
        waiting_room = self._waiting_room
        observers = self.instance_observers
        for instance in self.pattern.instances_completed(
            self._sampled_graph, u, v
        ):
            in_reservoir = 0
            for other in instance:
                if other not in waiting_room:
                    in_reservoir += 1
            p = probs.get(in_reservoir)
            if p is None:
                p = joint_prob(in_reservoir)
                probs[in_reservoir] = p
            if p > 0.0:
                delta += 1.0 / p
                if observers:
                    self._emit_instance(edge, instance, sign / p)
        return delta

    # -- event handlers -------------------------------------------------------------

    def _wr_adjust(self, edge: Edge, delta: int) -> None:
        """Adjust the per-vertex waiting-room degrees for one edge."""
        wrdeg = self._wr_degrees
        for c in edge:
            left = wrdeg.get(c, 0) + delta
            if left:
                wrdeg[c] = left
            else:
                wrdeg.pop(c, None)

    def _process_insertion(self, edge: Edge) -> None:
        self._estimate += self._delta_from_edge(edge)
        # Admit to the waiting room unconditionally.
        self._waiting_room[edge] = self._time
        self._sample_add(edge)
        if self._wr_degrees is not None:
            self._wr_adjust(edge, 1)
        if len(self._waiting_room) <= self.waiting_room_capacity:
            return
        # Oldest edge exits the waiting room and joins the reservoir
        # population; random pairing decides whether it stays sampled.
        oldest, _ = self._waiting_room.popitem(last=False)
        if self._wr_degrees is not None:
            self._wr_adjust(oldest, -1)
        added, evicted = self._rp.insert(oldest)
        if evicted is not None:
            self._sample_remove(evicted)
        if not added:
            self._sample_remove(oldest)
        elif self._sampled_graph._arena is not None:
            # Still sampled, but now on the reservoir side: flip its
            # membership lane so the vectorised delta stays coherent.
            self._sampled_graph.set_edge_payload(oldest, 0.0)

    def _process_deletion(self, edge: Edge) -> None:
        # Remove the edge from whichever half holds it. Every alive edge
        # not in the waiting room has exited it, hence belongs to the
        # reservoir population and must go through random pairing.
        if edge in self._waiting_room:
            del self._waiting_room[edge]
            if self._wr_degrees is not None:
                self._wr_adjust(edge, -1)
            self._sample_remove(edge)
        else:
            removed = self._rp.delete(edge)
            if removed:
                self._sample_remove(edge)
        self._estimate -= self._delta_from_edge(edge, sign=-1.0)

    # -- batched ingestion -------------------------------------------------------

    def process_batch(
        self, events: EventBlock | Iterable[EdgeEvent]
    ) -> float:
        """Consume a batch with the WR/RP arithmetic and counting inlined.

        Bit-identical to event-at-a-time :meth:`process` under a fixed
        seed: the random-pairing reservoir consumes its randomness in
        exactly the same order and the estimator performs the same
        floating-point operations (the wedge pattern through the O(1)
        degree aggregates, the triangle through an inlined
        common-neighbour loop, other patterns through the generic
        enumeration — all with the same per-event probability memo).
        Falls back to the per-event driver when observers are
        registered.
        """
        is_block = isinstance(events, EventBlock)
        if not is_block and not isinstance(events, (list, tuple)):
            events = list(events)
        if self.instance_observers:
            return PairingSamplerKernel.process_batch(self, events)
        ops, us, vs = batch_columns(events)

        pattern = self.pattern
        mode = 1 if type(pattern) is Triangle else (
            2 if self._wr_degrees is not None else 0
        )
        instances_completed = pattern.instances_completed
        wedge_delta = self._wedge_delta
        graph = self._sampled_graph
        adj = graph._adj
        add_edge = graph.add_edge_canonical
        remove_edge = graph.remove_edge_canonical
        if self._tri_membership:
            cp = graph.common_payloads
            arena_slabs = graph._arena._slabs
        else:
            cp = None
            arena_slabs = None
        wr_delta = _arena_wr_delta
        set_payload = (
            graph.set_edge_payload if graph._arena is not None else None
        )
        canonical = canonical_edge
        waiting_room = self._waiting_room
        wr_capacity = self.waiting_room_capacity
        wrdeg = self._wr_degrees
        rp = self._rp
        rp_items = rp._items
        rp_index = rp._index
        rp_add = rp._add
        rp_remove = rp._remove
        evict_random = rp._evict_random
        joint_prob = rp.joint_inclusion_probability
        rng_random = self.rng.random
        capacity = rp.capacity
        estimate = self._estimate
        time_now = self._time

        try:
            for is_ins, u, v in zip(ops, us, vs):
                time_now += 1
                edge = (u, v)
                if is_ins:
                    # -- estimate before sampling (update-on-arrival).
                    if mode == 2:
                        estimate += wedge_delta(u, v)
                    elif mode == 1 and arena_slabs and (
                        (pair := cp(u, v)) is not None
                    ):
                        estimate += wr_delta(pair[0], pair[1], joint_prob)
                    elif mode == 1:
                        delta = 0.0
                        nu = adj.get(u)
                        nv = adj.get(v)
                        if nu and nv and not nu.isdisjoint(nv):
                            probs: dict = {}
                            probs_get = probs.get
                            for w in nu & nv:
                                try:
                                    e1 = (u, w) if u < w else (w, u)
                                    e2 = (v, w) if v < w else (w, v)
                                except TypeError:
                                    e1 = canonical(u, w)
                                    e2 = canonical(v, w)
                                ir = (e1 not in waiting_room) + (
                                    e2 not in waiting_room
                                )
                                p = probs_get(ir)
                                if p is None:
                                    p = joint_prob(ir)
                                    probs[ir] = p
                                if p > 0.0:
                                    delta += 1.0 / p
                        estimate += delta
                    else:
                        delta = 0.0
                        probs = {}
                        probs_get = probs.get
                        for instance in instances_completed(graph, u, v):
                            ir = 0
                            for other in instance:
                                if other not in waiting_room:
                                    ir += 1
                            p = probs_get(ir)
                            if p is None:
                                p = joint_prob(ir)
                                probs[ir] = p
                            if p > 0.0:
                                delta += 1.0 / p
                        estimate += delta
                    # -- waiting-room admission (unconditional).
                    waiting_room[edge] = time_now
                    add_edge(edge)
                    if wrdeg is not None:
                        wrdeg[u] = wrdeg.get(u, 0) + 1
                        wrdeg[v] = wrdeg.get(v, 0) + 1
                    if len(waiting_room) > wr_capacity:
                        # Oldest exits to the reservoir population;
                        # random pairing decides whether it stays
                        # sampled (same rng consumption order — and the
                        # same duplicate guard — as
                        # RandomPairingReservoir.insert).
                        oldest, _ = waiting_room.popitem(last=False)
                        if wrdeg is not None:
                            for c in oldest:
                                left = wrdeg[c] - 1
                                if left:
                                    wrdeg[c] = left
                                else:
                                    del wrdeg[c]
                        if oldest in rp_index:
                            raise EdgeExistsError(
                                f"edge {oldest!r} is already sampled"
                            )
                        rp.population += 1
                        uncompensated = rp.d_i + rp.d_o
                        if uncompensated == 0:
                            if len(rp_items) < capacity:
                                rp_add(oldest)
                                if set_payload is not None:
                                    set_payload(oldest, 0.0)
                            elif rng_random() < capacity / rp.population:
                                evicted = evict_random()
                                rp_add(oldest)
                                if set_payload is not None:
                                    set_payload(oldest, 0.0)
                                remove_edge(evicted)
                            else:
                                remove_edge(oldest)
                        elif rng_random() < rp.d_i / uncompensated:
                            rp.d_i -= 1
                            rp_add(oldest)
                            if set_payload is not None:
                                set_payload(oldest, 0.0)
                        else:
                            rp.d_o -= 1
                            remove_edge(oldest)
                else:
                    # -- deletion: remove from whichever half holds the
                    # edge, then weigh the destroyed instances against
                    # the post-deletion state.
                    if edge in waiting_room:
                        del waiting_room[edge]
                        if wrdeg is not None:
                            for c in edge:
                                left = wrdeg[c] - 1
                                if left:
                                    wrdeg[c] = left
                                else:
                                    del wrdeg[c]
                        remove_edge(edge)
                    else:
                        rp.population -= 1
                        if edge in rp_index:
                            rp_remove(edge)
                            rp.d_i += 1
                            remove_edge(edge)
                        else:
                            rp.d_o += 1
                    if mode == 2:
                        estimate -= wedge_delta(u, v)
                    elif mode == 1 and arena_slabs and (
                        (pair := cp(u, v)) is not None
                    ):
                        estimate -= wr_delta(pair[0], pair[1], joint_prob)
                    elif mode == 1:
                        delta = 0.0
                        nu = adj.get(u)
                        nv = adj.get(v)
                        if nu and nv and not nu.isdisjoint(nv):
                            probs = {}
                            probs_get = probs.get
                            for w in nu & nv:
                                try:
                                    e1 = (u, w) if u < w else (w, u)
                                    e2 = (v, w) if v < w else (w, v)
                                except TypeError:
                                    e1 = canonical(u, w)
                                    e2 = canonical(v, w)
                                ir = (e1 not in waiting_room) + (
                                    e2 not in waiting_room
                                )
                                p = probs_get(ir)
                                if p is None:
                                    p = joint_prob(ir)
                                    probs[ir] = p
                                if p > 0.0:
                                    delta += 1.0 / p
                        estimate -= delta
                    else:
                        delta = 0.0
                        probs = {}
                        probs_get = probs.get
                        for instance in instances_completed(graph, u, v):
                            ir = 0
                            for other in instance:
                                if other not in waiting_room:
                                    ir += 1
                            p = probs_get(ir)
                            if p is None:
                                p = joint_prob(ir)
                                probs[ir] = p
                            if p > 0.0:
                                delta += 1.0 / p
                        estimate -= delta
        finally:
            self._estimate = estimate
            self._time = time_now
        return estimate

    # -- introspection ------------------------------------------------------------------

    @property
    def sample_size(self) -> int:
        return len(self._waiting_room) + len(self._rp)

    def sampled_edges(self):
        yield from self._waiting_room
        yield from self._rp

    @property
    def waiting_room_size(self) -> int:
        """Edges currently held in the waiting room."""
        return len(self._waiting_room)
