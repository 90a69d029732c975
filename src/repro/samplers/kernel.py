"""Composable sampler kernel: the shared plumbing behind every sampler.

Every algorithm in this library is one of two sampling designs plus an
estimator rule:

* **Rank-threshold reservoirs** (WSD, GPS, GPS-A): a min-priority heap
  over random ranks r(e) = f(w(e)), an estimator threshold (τq for WSD,
  r_{M+1} for GPS/GPS-A), Horvitz-Thompson instance values
  ∏ 1 / P[r(e) > threshold], and a weight function deciding each edge's
  rank distribution. :class:`ThresholdSamplerKernel` owns all of that —
  the weight computation (context-heavy and context-free paths), the
  memoized inclusion probabilities keyed on a threshold generation
  counter, the reservoir bookkeeping, and the batched ingestion fast
  loop — while subclasses contribute only their *reservoir policy*: what
  happens when an edge's rank competes for a slot, and what a deletion
  event does.

* **Uniform reservoirs** (ThinkD, Triest, WRS): a random-pairing sample
  (or a waiting room composed with one) with closed-form joint inclusion
  probabilities. :class:`PairingSamplerKernel` owns the shared reservoir
  state and introspection; the estimator rules differ enough per
  algorithm (HT-before-sampling, τ-counter, waiting-room mixing) that
  each subclass keeps its own update but inherits the kernel's batched
  driver.

Every threshold sampler has one ingestion loop, run by both
:meth:`ThresholdSamplerKernel.process` and ``process_batch``: the
triangle/wedge estimators are inlined, the reservoir policy is
dispatched on hoisted booleans, and a batch's rank uniforms are
pre-drawn in one numpy block (``rng.random(n)`` yields the exact
doubles of n scalar draws). Context capture, context-needing weights,
observers and ranks without ``rank_from_uniform`` send both entry
points to the per-event reference path, so the two stay bit-identical.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import ConfigurationError, EdgeExistsError, SamplerError
from repro.graph.edges import Edge, canonical_edge
from repro.graph.stream import INSERT, EdgeEvent, EventBlock
from repro.patterns.base import Pattern
from repro.patterns.cliques import FourClique, KClique, Triangle
from repro.patterns.paths import Wedge, WedgeDeltaTracker
from repro.patterns.temporal import ArrivalTimeTracker
from repro.samplers.base import SampledGraphMixin, SubgraphCountingSampler
from repro.samplers.heap import DuplicateKeyError, IndexedMinHeap
from repro.samplers.random_pairing import RandomPairingReservoir
from repro.samplers.ranks import (
    InverseUniformRank,
    RankFunction,
    get_rank_function,
)
from repro.weights.base import WeightContext, WeightFunction
from repro.weights.heuristic import GPSHeuristicWeight, UniformWeight

__all__ = [
    "ThresholdSamplerKernel",
    "PairingSamplerKernel",
    "KERNEL_WSD",
    "KERNEL_GPS",
    "KERNEL_GPSA",
    "set_wedge_vectorization",
    "set_arena_acceleration",
    "set_arena_cutoff",
    "batch_columns",
]

#: Reservoir-policy dispatch codes for the batched fast loop. Subclasses
#: of :class:`ThresholdSamplerKernel` set ``_policy`` to one of these.
KERNEL_WSD = 1
KERNEL_GPS = 2
KERNEL_GPSA = 3

#: Whether new wedge samplers get the O(1) aggregated wedge-delta
#: estimator (see :class:`~repro.patterns.paths.WedgeDeltaTracker`).
#: Module-level so the A/B benchmark harness can run the scalar
#: per-neighbour path against the vectorised one in a single process.
_WEDGE_VECTORIZATION = True


def set_wedge_vectorization(enabled: bool) -> bool:
    """Toggle the aggregated wedge-delta fast path; return the old value.

    Read at *sampler construction* time: samplers built while disabled
    keep the scalar per-neighbour estimator for their whole lifetime
    (the two paths group float terms differently, so mixing them inside
    one sampler would break per-event/batched bit-identity).
    """
    global _WEDGE_VECTORIZATION
    previous = _WEDGE_VECTORIZATION
    _WEDGE_VECTORIZATION = bool(enabled)
    return previous


#: Whether new clique samplers mirror their sampled graph into an
#: :class:`~repro.graph.arena.AdjacencyArena` (sorted neighbour slabs +
#: payload lanes for the vectorised triangle delta). Module-level for
#: the same reason as the wedge switch: the A/B benchmark harness runs
#: the scalar set-intersection path against the arena path in one
#: process.
_ARENA_ACCELERATION = True

#: Degree at which a vertex earns an arena slab; ``None`` uses
#: :data:`repro.graph.adjacency.DEFAULT_SLAB_CUTOFF`. Tests lower it to
#: exercise the vectorised paths on small graphs.
_ARENA_CUTOFF: int | None = None


def set_arena_acceleration(enabled: bool) -> bool:
    """Toggle the sampled-graph arena fast paths; return the old value.

    Read at *sampler construction* time, like
    :func:`set_wedge_vectorization`: samplers built while disabled keep
    the scalar set-intersection estimators for their whole lifetime
    (the arena path regroups the per-instance float sums, so mixing the
    two inside one sampler would break per-event/batched bit-identity).
    """
    global _ARENA_ACCELERATION
    previous = _ARENA_ACCELERATION
    _ARENA_ACCELERATION = bool(enabled)
    return previous


def set_arena_cutoff(cutoff: int | None) -> int | None:
    """Set the slab-earning degree for new samplers; return the old value.

    ``None`` restores the library default. Construction-time, and part
    of a sampler's trajectory contract: two runs (or a checkpointed
    continuation — the v3 format records it) must use the same cutoff
    for their adaptive query routing, and therefore their float
    accumulation order, to agree.
    """
    global _ARENA_CUTOFF
    previous = _ARENA_CUTOFF
    _ARENA_CUTOFF = cutoff if cutoff is None else int(cutoff)
    return previous


def _arena_triangle_delta(wa, wb, threshold: float) -> float:
    """Triangle estimator delta over gathered weight lanes.

    The vectorised form of the scalar loop's
    ``estimate += 1 / min(1, w1/θ) / min(1, w2/θ)`` accumulation:
    element order is ascending dense id and the reduction is numpy's
    pairwise sum, so the value can differ from the scalar path in the
    last float bits (same contribution multiset, different grouping) —
    which is why arena routing is fixed at construction time and both
    the ingestion loop and the reference deletion call *this* function.
    """
    if threshold > 0.0:
        p = np.minimum(wa / threshold, 1.0)
        p *= np.minimum(wb / threshold, 1.0)
        np.divide(1.0, p, out=p)
        return float(p.sum())
    return float(len(wa))


def batch_columns(events) -> tuple[list, list, list]:
    """Normalise a batch to ``(is_insert, u, v)`` parallel lists.

    :class:`EventBlock` inputs convert with one C-level pass per
    column; :class:`EdgeEvent` sequences are unpacked once up front so
    the mega-loops iterate plain scalars either way.
    """
    if isinstance(events, EventBlock):
        return events.columns()
    ops: list[bool] = []
    us: list = []
    vs: list = []
    op_insert = INSERT
    for event in events:
        ops.append(event.op == op_insert)
        u, v = event.edge
        us.append(u)
        vs.append(v)
    return ops, us, vs


class ThresholdSamplerKernel(SampledGraphMixin, SubgraphCountingSampler):
    """Shared kernel of the rank-threshold samplers (WSD, GPS, GPS-A).

    Owns the reservoir heap, per-edge weight/arrival-time state, the
    estimator threshold with its generation-counted probability memo,
    the weight-function dispatch (context-heavy vs light paths), and the
    batched ingestion loop. Subclasses define:

    * ``_policy`` — the batched-loop dispatch code (``KERNEL_WSD`` /
      ``KERNEL_GPS`` / ``KERNEL_GPSA``);
    * ``_memoize_light`` — whether the reference light path uses the
      probability memo (WSD's τq is stable between Case 2 transitions,
      so memoization pays; GPS's r_{M+1} grows on almost every
      full-reservoir event, so entries rarely survive — values are
      identical either way);
    * :meth:`_insert` — the reservoir policy for an arriving edge whose
      weight and rank are already computed;
    * :meth:`_process_deletion` — the deletion rule.

    Args:
        pattern: the subgraph pattern H ("triangle", "wedge",
            "4-clique", or a :class:`~repro.patterns.base.Pattern`).
        budget: M, the maximum number of reservoir slots.
        weight_fn: the weight function W(e, R).
        rank_fn: the rank family r = f(w); defaults to the paper's
            ``w/u`` inverse-uniform ranks.
        rng: seed or generator driving the rank randomness.
        capture_context: force building (and exposing via
            :attr:`last_context`) the :class:`WeightContext` for every
            insertion even when the weight function does not need it —
            required by RL transition capture and the local-counting
            examples. Default ``None`` builds the context only when
            ``weight_fn.needs_context`` is true.
    """

    #: Batched-loop reservoir-policy dispatch; subclasses must override.
    _policy = 0
    #: Whether the reference light path uses the probability memo.
    _memoize_light = True

    def __init__(
        self,
        pattern: str | Pattern,
        budget: int,
        weight_fn: WeightFunction,
        rank_fn: str | RankFunction = "inverse-uniform",
        rng: np.random.Generator | int | None = None,
        capture_context: bool | None = None,
    ) -> None:
        SubgraphCountingSampler.__init__(self, pattern, budget, rng)
        SampledGraphMixin.__init__(self)
        self.weight_fn = weight_fn
        # One-time pattern announcement: weight functions validate
        # pattern-dependent invariants here (e.g. the learned policy's
        # state dimension against |H|+3) instead of per event.
        weight_fn.bind_pattern(self.pattern)
        self.rank_fn = get_rank_function(rank_fn)
        #: Block-serving learned weight (WSD-L fast path), or ``None``.
        #: When set, the ingestion loop bypasses both the WeightContext
        #: and light_weight: it assembles the raw state features
        #: (instance count, degrees, per-position temporal aggregates)
        #: inline from summaries the estimator walk already produces
        #: and calls ``state_weight`` per event.
        self._learned = (
            weight_fn if getattr(weight_fn, "block_serving", False)
            else None
        )
        self._reservoir = IndexedMinHeap()
        self._edge_weights: dict[Edge, float] = {}
        self._edge_times: dict[Edge, int] = {}
        #: The estimator threshold: τq for WSD, r_{M+1} for GPS/GPS-A.
        self._threshold = 0.0
        #: P[r(e) > threshold] per sampled edge, valid for the current
        #: threshold generation; cleared whenever the threshold changes.
        self._prob_cache: dict[Edge, float] = {}
        self._threshold_generation = 0
        self._capture_context = (
            weight_fn.needs_context if capture_context is None
            else capture_context
        )
        #: O(1) wedge-delta aggregates (per-vertex heavy counts + light
        #: inverse-weight sums); only built when the pattern is the
        #: wedge and the rank family is the paper's inverse-uniform one
        #: (whose inclusion probability the aggregation is derived for).
        self._wedge_tracker = (
            WedgeDeltaTracker()
            if (
                _WEDGE_VECTORIZATION
                and type(self.pattern) is Wedge
                and type(self.rank_fn) is InverseUniformRank
            )
            else None
        )
        #: Arena mirror of the sampled graph for the clique patterns:
        #: the weight lane feeds the vectorised triangle delta (only
        #: derived for the paper's inverse-uniform ranks, whose
        #: inclusion probability is min(1, w/θ)), and the sorted slabs
        #: accelerate the 4-/k-clique common-neighbour intersections
        #: for any rank family.
        self._tri_arena = (
            _ARENA_ACCELERATION
            and type(self.pattern) is Triangle
            and type(self.rank_fn) is InverseUniformRank
        )
        if self._tri_arena or (
            _ARENA_ACCELERATION
            and isinstance(self.pattern, (FourClique, KClique))
        ):
            # WSD-L's triangle state features need each common
            # neighbour's two edge *times* next to its two edge
            # weights, so learned triangle samplers activate the
            # arena's second payload lane (filled from the same
            # per-edge state at slab build, carried inline on insert).
            self._sampled_graph.enable_arena(
                self._arena_payload,
                cutoff=_ARENA_CUTOFF,
                payload2_fn=(
                    self._arena_time
                    if (self._tri_arena and self._learned is not None)
                    else None
                ),
            )
        #: Per-vertex arrival-time aggregates (sum + max over incident
        #: sampled edges) for the wedge learned path: the wedge's
        #: per-position temporal features reduce to per-vertex
        #: aggregates (the instance set of an arriving edge is exactly
        #: the incident sampled edges of its endpoints), so the state
        #: vector costs O(1) per event instead of a neighbour walk.
        #: Maintained at the same sampled-graph choke points as the
        #: wedge-delta tracker.
        self._att = (
            ArrivalTimeTracker()
            if (
                self._learned is not None
                and self._wedge_tracker is not None
            )
            else None
        )
        #: Most recent WeightContext (exposed for RL transition capture).
        #: Only maintained when the context path is active — pass
        #: ``capture_context=True`` to guarantee it; on the light path it
        #: stays ``None``.
        self.last_context: WeightContext | None = None
        #: Weight assigned to the most recent insertion (for diagnostics
        #: and the Figure 2(d)/4(d) weight-vs-count analysis).
        self.last_weight: float | None = None
        #: The ingestion loop's hoisted setup (see :meth:`_loop_plan`).
        self._plan: tuple | None = None

    # -- threshold bookkeeping ------------------------------------------------

    @property
    def threshold(self) -> float:
        """The current estimator threshold (τq / r_{M+1})."""
        return self._threshold

    @property
    def threshold_generation(self) -> int:
        """Number of estimator-threshold changes so far.

        The memoized inclusion probabilities are valid within one
        generation and invalidated exactly when this counter bumps.
        """
        return self._threshold_generation

    def _set_threshold(self, value: float) -> None:
        """Set the threshold, invalidating the memo iff it changed."""
        if value != self._threshold:
            self._threshold = value
            self._threshold_generation += 1
            self._prob_cache.clear()
            if self._wedge_tracker is not None:
                self._wedge_tracker.set_threshold(value)

    def _raise_threshold(self, rank: float) -> None:
        """threshold ← max(threshold, rank), invalidating the memo."""
        if rank > self._threshold:
            self._threshold = rank
            self._threshold_generation += 1
            self._prob_cache.clear()
            if self._wedge_tracker is not None:
                self._wedge_tracker.raise_threshold(rank)

    def inclusion_probability(self, edge: Edge) -> float:
        """P[e ∈ R(t)] = P[r(e) > threshold] for a sampled edge."""
        cache = self._prob_cache
        p = cache.get(edge)
        if p is None:
            p = self.rank_fn.inclusion_probability(
                self._edge_weights[edge], self._threshold
            )
            cache[edge] = p
        return p

    # -- estimator (Algorithm 2 / Theorems 1 & 2) ------------------------------

    def _instance_value(self, instance: tuple[Edge, ...]) -> float:
        """∏_{e ∈ J\\e_t} 1 / P[r(e) > threshold] for one instance."""
        cache = self._prob_cache
        weights = self._edge_weights
        inc_prob = self.rank_fn.inclusion_probability
        threshold = self._threshold
        value = 1.0
        for other in instance:
            p = cache.get(other)
            if p is None:
                p = inc_prob(weights[other], threshold)
                cache[other] = p
            value /= p
        return value

    # -- event handlers ---------------------------------------------------------

    def process(self, event: EdgeEvent) -> None:
        """Consume one stream event.

        Runs the loop of :meth:`process_batch` when :meth:`_loop_plan`
        admits the sampler (one scalar ``rng.random()`` per insertion,
        the double a one-element numpy block holds), else the reference
        path ``_process_insertion`` / ``_process_deletion``.
        """
        plan = self._loop_plan()
        if plan is None:
            SubgraphCountingSampler.process(self, event)
            return
        u, v = event.edge
        if event.op == INSERT:
            self._run_loop(plan, ((True, u, v),), self.rng.random())
        else:
            self._run_loop(plan, ((False, u, v),), None)

    def _process_insertion(self, edge: Edge) -> None:
        """Reference path of one insertion (see :meth:`process`).

        Learned weights take the context branch: ``__call__`` returns
        the weight ``state_weight`` serves in the loop.
        """
        u, v = edge
        wf = self.weight_fn
        if (
            self._capture_context
            or wf.needs_context
            or self._learned is not None
        ):
            edge_times = self._edge_times
            instances = list(
                self.pattern.instances_completed(self._sampled_graph, u, v)
            )
            # Context-needing weight functions walk the instances again
            # for the temporal features; collect each instance's sorted
            # arrival times during the estimator pass so the state
            # builder consumes them instead of re-enumerating.
            inst_times = [] if wf.needs_context else None
            for instance in instances:
                value = self._instance_value(instance)
                self._estimate += value
                if inst_times is not None:
                    inst_times.append(
                        sorted(edge_times[other] for other in instance)
                    )
                if self.instance_observers:
                    self._emit_instance(edge, instance, value)
            ctx = WeightContext(
                edge=edge,
                time=self._time,
                instances=instances,
                adjacency=self._sampled_graph,
                edge_times=edge_times,
                pattern=self.pattern,
                instance_times=inst_times,
            )
            self.last_context = ctx
            weight = float(wf(ctx))
        else:
            # Light path: stream the instances, never materialise the
            # context — heuristic weights only need cheap summaries.
            num_instances = 0
            observers = self.instance_observers
            inc_prob = self.rank_fn.inclusion_probability
            weights = self._edge_weights
            threshold = self._threshold
            estimate = self._estimate
            if self._memoize_light:
                cache = self._prob_cache
                cache_get = cache.get
                for instance in self.pattern.instances_completed(
                    self._sampled_graph, u, v
                ):
                    num_instances += 1
                    value = 1.0
                    for other in instance:
                        p = cache_get(other)
                        if p is None:
                            p = inc_prob(weights[other], threshold)
                            cache[other] = p
                        value /= p
                    estimate += value
                    if observers:
                        self._estimate = estimate
                        self._emit_instance(edge, instance, value)
            else:
                for instance in self.pattern.instances_completed(
                    self._sampled_graph, u, v
                ):
                    num_instances += 1
                    value = 1.0
                    for other in instance:
                        value /= inc_prob(weights[other], threshold)
                    estimate += value
                    if observers:
                        self._estimate = estimate
                        self._emit_instance(edge, instance, value)
            self._estimate = estimate
            weight = float(
                wf.light_weight(num_instances, self._sampled_graph, u, v)
            )
        self.last_weight = weight
        rank = self.rank_fn.rank(weight, self.rng)
        try:
            self._insert(edge, weight, rank)
        except DuplicateKeyError:
            raise EdgeExistsError(
                f"edge {edge!r} is already sampled"
            ) from None

    def _insert(self, edge: Edge, weight: float, rank: float) -> None:
        """Reservoir policy: place (or reject) an edge with known rank."""
        raise NotImplementedError

    def _subtract_destroyed(self, edge: Edge) -> None:
        """Subtract the values of the instances destroyed by ``edge``.

        Enumerates against the sampled graph (which must already reflect
        the deletion's effect on the sample) so ``edge`` never appears
        as an "other" edge.
        """
        u, v = edge
        observers = self.instance_observers
        if self._wedge_tracker is not None and not observers:
            self._estimate -= self._wedge_tracker.delta(u, v)
            return
        if self._tri_arena and not observers:
            pair = self._sampled_graph.common_payloads(u, v)
            if pair is not None:
                wa, wb = pair
                if len(wa):
                    self._estimate -= _arena_triangle_delta(
                        wa, wb, self._threshold
                    )
                return
        inc_prob = self.rank_fn.inclusion_probability
        weights = self._edge_weights
        threshold = self._threshold
        estimate = self._estimate
        if self._memoize_light:
            cache = self._prob_cache
            cache_get = cache.get
            for instance in self.pattern.instances_completed(
                self._sampled_graph, u, v
            ):
                value = 1.0
                for other in instance:
                    p = cache_get(other)
                    if p is None:
                        p = inc_prob(weights[other], threshold)
                        cache[other] = p
                    value /= p
                estimate -= value
                if observers:
                    self._estimate = estimate
                    self._emit_instance(edge, instance, -value)
        else:
            for instance in self.pattern.instances_completed(
                self._sampled_graph, u, v
            ):
                value = 1.0
                for other in instance:
                    value /= inc_prob(weights[other], threshold)
                estimate -= value
                if observers:
                    self._estimate = estimate
                    self._emit_instance(edge, instance, -value)
        self._estimate = estimate

    # -- reservoir bookkeeping ----------------------------------------------------

    def _admit(self, edge: Edge, weight: float, rank: float) -> None:
        self._reservoir.push(edge, rank)
        self._record_admission(edge, weight)

    def _record_admission(self, edge: Edge, weight: float) -> None:
        """Record sample state for an edge already placed in the heap."""
        self._edge_weights[edge] = weight
        self._edge_times[edge] = self._time
        self._sample_add(edge)

    def _evict(self, edge: Edge) -> None:
        del self._edge_weights[edge]
        del self._edge_times[edge]
        self._prob_cache.pop(edge, None)
        self._sample_remove(edge)

    # The wedge-delta aggregates mirror the sampled graph exactly, so
    # they are maintained at the same choke points pattern enumeration
    # depends on. ``_sample_add`` runs after ``_edge_weights`` is set
    # (both on admission and on checkpoint restore), which is where the
    # tracker reads the weight from.

    def _sample_add(self, edge: Edge) -> None:
        # The weight doubles as the arena payload-lane value (ignored
        # when no arena is enabled); it is invariant while the edge is
        # sampled, so the lane stays coherent across τq/r_{M+1}
        # generation bumps without any invalidation sweep — the
        # vectorised delta recomputes min(1, w/θ) against the *current*
        # threshold at query time, exactly like the scalar path. The
        # arrival time rides along as the second lane value (ignored
        # unless the learned triangle path activated that lane).
        self._sampled_graph.add_edge_canonical(
            edge, self._edge_weights[edge], self._edge_times[edge]
        )
        if self._wedge_tracker is not None:
            self._wedge_tracker.add(edge, self._edge_weights[edge])
        if self._att is not None:
            # Runs after ``_edge_times`` is set (admission and
            # checkpoint replay both guarantee it), so replay rebuilds
            # the aggregates exactly.
            self._att.add(edge, self._edge_times[edge])

    def _sample_remove(self, edge: Edge) -> None:
        self._sampled_graph.remove_edge_canonical(edge)
        if self._wedge_tracker is not None:
            self._wedge_tracker.remove(edge)
        if self._att is not None:
            self._att.remove(edge)

    def _arena_payload(self, u, v) -> float:
        """Lane value of an existing sampled edge (slab builds)."""
        return self._edge_weights[canonical_edge(u, v)]

    def _arena_time(self, u, v) -> float:
        """Second-lane value (arrival time) of a sampled edge."""
        return float(self._edge_times[canonical_edge(u, v)])

    # -- introspection ------------------------------------------------------------

    @property
    def sample_size(self) -> int:
        return len(self._reservoir)

    def sampled_edges(self) -> Iterator[Edge]:
        return iter(self._reservoir)

    def sampled_weight(self, edge: Edge) -> float:
        """Return the stored weight of a sampled edge."""
        return self._edge_weights[edge]

    # -- the ingestion loop ------------------------------------------------------

    def process_batch(
        self, events: EventBlock | Iterable[EdgeEvent]
    ) -> float:
        """Consume a batch of events with amortised per-event overhead.

        Accepts an :class:`~repro.graph.stream.EventBlock` (the
        columnar representation — insertion counting and column
        extraction are C-level passes) or any :class:`EdgeEvent`
        iterable; results are bit-identical across representations.

        Bit-identical to event-at-a-time :meth:`process` under a fixed
        seed: both route to the same loop or reference path, and the
        batch's uniforms are pre-drawn in one numpy block (the exact
        doubles of scalar draws). If an event raises mid-batch, the
        remaining insertions' pre-drawn randomness is still consumed.
        """
        is_block = isinstance(events, EventBlock)
        if not is_block and not isinstance(events, (list, tuple)):
            events = list(events)
        plan = self._loop_plan()
        if plan is None:
            return SubgraphCountingSampler.process_batch(self, events)
        if is_block:
            ops, us, vs = events.columns()
            num_insertions = events.num_insertions
        else:
            ops, us, vs = batch_columns(events)
            num_insertions = sum(ops)
        return self._run_loop(
            plan, zip(ops, us, vs),
            self.rng.random(num_insertions) if num_insertions else None,
        )

    def _loop_plan(self) -> tuple | None:
        """The loop's hoisted setup, or ``None`` for the reference path.

        Checked on every call: context capture is off, the weight
        function needs no context and no observers are registered.
        Settled when the plan is built, once: ``_policy`` is one of the
        three codes and the rank family has ``rank_from_uniform``. The
        plan holds dispatch codes, bound methods and containers.
        """
        if (
            self._capture_context
            or self.weight_fn.needs_context
            or self.instance_observers
        ):
            return None
        if self._plan is not None:
            return self._plan
        policy = self._policy
        if policy not in (KERNEL_WSD, KERNEL_GPS, KERNEL_GPSA):
            return None
        try:
            rfu = self.rank_fn.rank_from_uniform
            rfu(1.0, 0.0)
        except NotImplementedError:
            return None
        wf = self.weight_fn
        # Estimator dispatch: the loop inlines the triangle and wedge
        # enumerations (no generator machinery, no instance tuples);
        # other patterns go through ``instances_completed``. The inlined
        # loops visit the same instances in the same order with the same
        # floating-point operations, so estimates stay bit-identical.
        pattern_type = type(self.pattern)
        mode = (
            1 if pattern_type is Triangle else 2 if pattern_type is Wedge
            else 0
        )
        # Weight / rank dispatch: the stock heuristic weight and the
        # paper's inverse-uniform ranks are inlined the same way (their
        # light_weight / rank_from_uniform are pure arithmetic).
        wmode = 0
        w_slope = w_offset = 0.0
        if type(wf) is GPSHeuristicWeight:
            wmode = 1
            w_slope = wf.slope
            w_offset = wf.offset
        elif type(wf) is UniformWeight:
            wmode = 2
            w_offset = 1.0
        inline_iu = type(self.rank_fn) is InverseUniformRank
        graph = self._sampled_graph
        reservoir = self._reservoir
        # Policy dispatch hoisted to plain booleans (one truth test per
        # event instead of repeated integer comparisons).
        is_wsd = policy == KERNEL_WSD
        is_gps = policy == KERNEL_GPS
        # Wedge-delta aggregates: when present (wedge pattern +
        # inverse-uniform ranks) the mode-2 estimator is O(1) per event
        # and the tracker is maintained inline at every sampled-graph
        # mutation and threshold change.
        wt = self._wedge_tracker
        wt_hooks = (
            (None,) * 4 if wt is None
            else (wt.add, wt.remove, wt.raise_threshold, wt.delta)
        )
        # WSD-L block serving: ``lw_sw`` evaluates the frozen policy on
        # the state features the estimator pass assembles inline; the
        # arrival-time tracker (wedge) and the arena's time lane (``cp2``,
        # triangle) supply the temporal aggregates in O(1)/vectorised form.
        lw = self._learned
        att = self._att
        att_hooks = (
            (None,) * 4 if att is None
            else (att.add, att.remove, att.max_pair, att.sum_pair)
        )
        self._plan = (
            mode, wmode, w_slope, w_offset, inline_iu, rfu, is_wsd, is_gps,
            None if is_wsd or is_gps else self._tagged,
            self.pattern.instances_completed, wf.light_weight,
            self.rank_fn.inclusion_probability, canonical_edge,
            graph, graph._adj, graph._interner.intern,
            graph._note_add, graph._note_remove,
            graph.common_payloads if self._tri_arena else None,
            graph.common_payloads2 if self._tri_arena and lw else None,
            _arena_triangle_delta, reservoir._position, reservoir._heap,
            reservoir.push, reservoir.replace_min, reservoir.remove,
            self._prob_cache, self._prob_cache.get, self._edge_weights,
            self._edge_times, self.budget, wt, *wt_hooks,
            None if lw is None else lw.state_weight,
            lw is not None and lw.temporal_aggregation == "avg",
            self.pattern.num_edges - 1, *att_hooks,
        )
        return self._plan

    def __getstate__(self) -> dict:
        # A copy builds its own loop plan: the plan holds builtin bound
        # methods, which copy.deepcopy would share with the original.
        return {**self.__dict__, "_plan": None}

    def _run_loop(self, plan: tuple, rows, uniforms) -> float:
        """The ingestion loop over ``(is_insert, u, v)`` rows.

        ``uniforms``: a batch's numpy block, :meth:`process`'s scalar
        draw, or ``None`` when there are no insertions.
        """
        (
            mode, wmode, w_slope, w_offset, inline_iu, rfu, is_wsd, is_gps,
            tagged, instances_completed, light_weight, inc_prob, canonical,
            graph, adj, intern, note_add, note_remove, cp, cp2, tri_delta,
            res_positions, res_heap, res_push, res_replace_min, res_remove,
            cache, cache_get, weights, edge_times, budget, wt, wt_add,
            wt_remove, wt_raise, wt_delta, lw_sw, lw_avg, h_other,
            att_add, att_remove, att_max_pair, att_sum_pair,
        ) = plan
        # For the inverse-uniform family the 1-u mapping to (0, 1] is
        # done vectorised, as are the ranks of zero-instance insertions
        # (whose weight is the constant ``w_offset``) — all the same
        # IEEE operations the scalar path performs, element by element.
        denominators = base_ranks = next_uniform = None
        ui = 0
        if type(uniforms) is float:
            if inline_iu:
                denominators = (1.0 - uniforms,)
                base_ranks = (w_offset / denominators[0],)
            else:
                next_uniform = iter((uniforms,)).__next__
        elif uniforms is not None:
            if inline_iu:
                block = 1.0 - uniforms
                denominators = block.tolist()
                if wmode:
                    base_ranks = (w_offset / block).tolist()
            else:
                next_uniform = iter(uniforms.tolist()).__next__
        # Plain floats/ints are tracked locally and written back in
        # ``finally``.
        res_size = len(res_positions)
        estimate = self._estimate
        time_now = self._time
        threshold = self._threshold
        generation = self._threshold_generation
        weight = self.last_weight
        tau_p = self._tau_p if is_wsd else 0.0
        # Arena hooks: ``note_add`` / ``note_remove`` mirror the inlined
        # sampled-graph mutations into the sorted slabs (cheap dict
        # probes when no endpoint is slabbed), and ``cp`` gathers the
        # weight lanes over the common neighbourhood for the vectorised
        # mode-1 delta (None return → scalar fallback per event).
        # ``arena_slabs`` is the live slab dict (never reassigned): its
        # truthiness is the ~ns-scale gate that keeps sparse runs —
        # where no vertex ever earns a slab — off both the query helper
        # and the maintenance hooks. Additions must also fire on a
        # cutoff crossing (the *first* slab), hence the degree test at
        # the add sites; removals can only matter once a slab exists.
        # ``enable_arena`` may create the arena or move the cutoff after
        # the plan is built, so both are read on every call.
        arena = graph._arena
        arena_slabs = None if arena is None else arena._slabs
        slab_cut = graph._slab_cutoff
        if arena is None:
            note_add = note_remove = None
        try:
            for is_ins, u, v in rows:
                time_now += 1
                edge = (u, v)
                if is_ins:
                    # -- estimate before sampling (Algorithm 2 / Thm 1/2).
                    num_instances = 0
                    if lw_sw is not None:
                        # WSD-L: estimator pass + state features fused.
                        nu = adj.get(u)
                        deg_u = len(nu) if nu else 0
                        nv = adj.get(v)
                        deg_v = len(nv) if nv else 0
                        if wt is not None:  # wedge
                            num_instances = deg_u + deg_v
                            estimate += wt_delta(u, v)
                            if not num_instances:
                                positions = None
                            elif lw_avg:
                                positions = (
                                    float(att_sum_pair(u, v))
                                    / num_instances,
                                    float(time_now),
                                )
                            else:
                                positions = (
                                    float(att_max_pair(u, v)),
                                    float(time_now),
                                )
                        elif mode == 1:  # triangle
                            pair = cp2(u, v) if arena_slabs else None
                            if pair is not None:
                                wa, wb, ta, tb = pair
                                num_instances = len(wa)
                                if num_instances:
                                    estimate += tri_delta(
                                        wa, wb, threshold
                                    )
                                    mins = np.minimum(ta, tb)
                                    maxs = np.maximum(ta, tb)
                                    if lw_avg:
                                        positions = (
                                            float(mins.sum())
                                            / num_instances,
                                            float(maxs.sum())
                                            / num_instances,
                                            float(time_now),
                                        )
                                    else:
                                        positions = (
                                            float(mins.max()),
                                            float(maxs.max()),
                                            float(time_now),
                                        )
                                else:
                                    positions = None
                            else:
                                a1 = a2 = 0
                                if nu and nv and not nu.isdisjoint(nv):
                                    for w in nu & nv:
                                        num_instances += 1
                                        try:
                                            e1 = (
                                                (u, w) if u < w else (w, u)
                                            )
                                            e2 = (
                                                (v, w) if v < w else (w, v)
                                            )
                                        except TypeError:
                                            e1 = canonical(u, w)
                                            e2 = canonical(v, w)
                                        t1 = edge_times[e1]
                                        t2 = edge_times[e2]
                                        if t1 > t2:
                                            t1, t2 = t2, t1
                                        if lw_avg:
                                            a1 += t1
                                            a2 += t2
                                        else:
                                            if t1 > a1:
                                                a1 = t1
                                            if t2 > a2:
                                                a2 = t2
                                        if inline_iu:
                                            if threshold > 0.0:
                                                p1 = (
                                                    weights[e1] / threshold
                                                )
                                                if p1 > 1.0:
                                                    p1 = 1.0
                                                p2 = (
                                                    weights[e2] / threshold
                                                )
                                                if p2 > 1.0:
                                                    p2 = 1.0
                                                estimate += 1.0 / p1 / p2
                                            else:
                                                estimate += 1.0
                                        else:
                                            p1 = cache_get(e1)
                                            if p1 is None:
                                                p1 = inc_prob(
                                                    weights[e1], threshold
                                                )
                                                cache[e1] = p1
                                            p2 = cache_get(e2)
                                            if p2 is None:
                                                p2 = inc_prob(
                                                    weights[e2], threshold
                                                )
                                                cache[e2] = p2
                                            estimate += 1.0 / p1 / p2
                                if not num_instances:
                                    positions = None
                                elif lw_avg:
                                    positions = (
                                        float(a1) / num_instances,
                                        float(a2) / num_instances,
                                        float(time_now),
                                    )
                                else:
                                    positions = (
                                        float(a1),
                                        float(a2),
                                        float(time_now),
                                    )
                        else:  # generic pattern
                            acc = [0] * (h_other)
                            for instance in instances_completed(
                                graph, u, v
                            ):
                                num_instances += 1
                                value = 1.0
                                times = []
                                for other in instance:
                                    p = cache_get(other)
                                    if p is None:
                                        p = inc_prob(
                                            weights[other], threshold
                                        )
                                        cache[other] = p
                                    value /= p
                                    times.append(edge_times[other])
                                estimate += value
                                times.sort()
                                if lw_avg:
                                    for j, tv in enumerate(times):
                                        acc[j] += tv
                                else:
                                    for j, tv in enumerate(times):
                                        if tv > acc[j]:
                                            acc[j] = tv
                            if not num_instances:
                                positions = None
                            elif lw_avg:
                                positions = [
                                    float(a) / num_instances for a in acc
                                ]
                                positions.append(float(time_now))
                            else:
                                positions = [float(a) for a in acc]
                                positions.append(float(time_now))
                    elif mode == 1:  # triangle
                        pair = cp(u, v) if arena_slabs else None
                        if pair is not None:
                            # Vectorised: searchsorted intersection of
                            # the two sorted slabs + one gathered array
                            # expression over the weight lanes.
                            wa = pair[0]
                            num_instances = len(wa)
                            if num_instances:
                                estimate += tri_delta(
                                    wa, pair[1], threshold
                                )
                            nv = None  # scalar loop below stays off
                        else:
                            try:
                                nu = adj[u]
                                nv = adj[v]
                            except KeyError:
                                nv = None
                        # isdisjoint() skips the result-set allocation
                        # on the (common) zero-instance events.
                        if nv and not nu.isdisjoint(nv):
                            for w in nu & nv:
                                num_instances += 1
                                # Inline canonicalisation: w is a
                                # neighbour, so w != u and w != v; the
                                # fallback covers unorderable labels.
                                try:
                                    e1 = (u, w) if u < w else (w, u)
                                    e2 = (v, w) if v < w else (w, v)
                                except TypeError:
                                    e1 = canonical(u, w)
                                    e2 = canonical(v, w)
                                if inline_iu:
                                    # min(1, w/θ) computed directly —
                                    # cheaper than the memo dict when θ
                                    # churns, bit-identical either way.
                                    if threshold > 0.0:
                                        p1 = weights[e1] / threshold
                                        if p1 > 1.0:
                                            p1 = 1.0
                                        p2 = weights[e2] / threshold
                                        if p2 > 1.0:
                                            p2 = 1.0
                                        estimate += 1.0 / p1 / p2
                                    else:
                                        estimate += 1.0
                                else:
                                    p1 = cache_get(e1)
                                    if p1 is None:
                                        p1 = inc_prob(weights[e1], threshold)
                                        cache[e1] = p1
                                    p2 = cache_get(e2)
                                    if p2 is None:
                                        p2 = inc_prob(weights[e2], threshold)
                                        cache[e2] = p2
                                    estimate += 1.0 / p1 / p2
                    elif mode == 2:  # wedge
                        if wt is not None:
                            # O(1): degree sum + per-vertex aggregates
                            # (the arriving edge is never in the
                            # sampled graph, so no tip exclusion).
                            nc = adj.get(u)
                            if nc:
                                num_instances = len(nc)
                            nc = adj.get(v)
                            if nc:
                                num_instances += len(nc)
                            estimate += wt_delta(u, v)
                        else:
                            for centre, tip in ((u, v), (v, u)):
                                nc = adj.get(centre)
                                if nc:
                                    for w in nc:
                                        if w != tip:
                                            num_instances += 1
                                            try:
                                                e = (
                                                    (centre, w)
                                                    if centre < w
                                                    else (w, centre)
                                                )
                                            except TypeError:
                                                e = canonical(centre, w)
                                            if inline_iu:
                                                if threshold > 0.0:
                                                    p = (
                                                        weights[e]
                                                        / threshold
                                                    )
                                                    if p > 1.0:
                                                        p = 1.0
                                                    estimate += 1.0 / p
                                                else:
                                                    estimate += 1.0
                                            else:
                                                p = cache_get(e)
                                                if p is None:
                                                    p = inc_prob(
                                                        weights[e],
                                                        threshold,
                                                    )
                                                    cache[e] = p
                                                estimate += 1.0 / p
                    else:
                        for instance in instances_completed(graph, u, v):
                            num_instances += 1
                            value = 1.0
                            for other in instance:
                                p = cache_get(other)
                                if p is None:
                                    p = inc_prob(weights[other], threshold)
                                    cache[other] = p
                                value /= p
                            estimate += value
                    if lw_sw is not None:
                        # WSD-L weight from the fused state features;
                        # the rank consumes the same pre-drawn uniform
                        # the scalar path would (weights feed back into
                        # the trajectory, so serving is per event — the
                        # saving is skipping context materialisation
                        # and instance re-walks, not batching the
                        # policy itself).
                        weight = lw_sw(
                            num_instances, deg_u, deg_v, time_now,
                            positions,
                        )
                        if inline_iu:
                            rank = weight / denominators[ui]
                            ui += 1
                        else:
                            rank = rfu(weight, next_uniform())
                    elif inline_iu:
                        if wmode and not num_instances:
                            # Constant-weight insertion: the rank was
                            # already computed in the numpy block.
                            weight = w_offset
                            rank = base_ranks[ui]
                        else:
                            if wmode == 1:
                                weight = w_slope * num_instances + w_offset
                            elif wmode == 2:
                                weight = 1.0
                            else:
                                weight = float(
                                    light_weight(num_instances, graph, u, v)
                                )
                                if weight <= 0.0:
                                    raise ConfigurationError(
                                        "weight must be positive, got "
                                        f"{weight}"
                                    )
                            rank = weight / denominators[ui]
                        ui += 1
                    else:
                        if wmode == 1:
                            weight = w_slope * num_instances + w_offset
                        elif wmode == 2:
                            weight = 1.0
                        else:
                            weight = float(
                                light_weight(num_instances, graph, u, v)
                            )
                        rank = rfu(weight, next_uniform())
                    # -- reservoir policy. The sampled-graph updates are
                    # inlined (the canonical-edge dict operations of
                    # ``add/remove_edge_canonical``) so the hot loop
                    # keeps every name a plain local — a closure would
                    # demote ``adj`` to a cell variable for the whole
                    # loop, estimator included.
                    if is_wsd:
                        # Algorithm 1's insert cases.
                        if res_size < budget:
                            if rank > tau_p:  # Case 1.1
                                res_push(edge, rank)
                                res_size += 1
                                weights[edge] = weight
                                edge_times[edge] = time_now
                                s = adj.get(u)
                                if s is None:
                                    adj[u] = {v}
                                    intern(u)
                                else:
                                    s.add(v)
                                s = adj.get(v)
                                if s is None:
                                    adj[v] = {u}
                                    intern(v)
                                else:
                                    s.add(u)
                                # Written through eagerly so custom
                                # patterns and weight functions observing
                                # the live graph see a coherent count.
                                graph._num_edges += 1
                                if wt is not None:
                                    wt_add(edge, weight)
                                    if att_add is not None:
                                        att_add(edge, time_now)
                                if note_add is not None and (
                                    arena_slabs
                                    or len(adj[u]) >= slab_cut
                                    or len(adj[v]) >= slab_cut
                                ):
                                    note_add(u, v, weight, time_now)
                        else:
                            min_rank = res_heap[0][0]
                            tau_p = min_rank
                            if rank > min_rank:  # Case 2.1
                                evicted, _ = res_replace_min(edge, rank)
                                del weights[evicted]
                                del edge_times[evicted]
                                cache.pop(evicted, None)
                                a, b = evicted
                                s = adj[a]
                                s.remove(b)
                                if not s:
                                    del adj[a]
                                s = adj[b]
                                s.remove(a)
                                if not s:
                                    del adj[b]
                                if note_remove is not None and arena_slabs:
                                    note_remove(a, b)
                                weights[edge] = weight
                                edge_times[edge] = time_now
                                s = adj.get(u)
                                if s is None:
                                    adj[u] = {v}
                                    intern(u)
                                else:
                                    s.add(v)
                                s = adj.get(v)
                                if s is None:
                                    adj[v] = {u}
                                    intern(v)
                                else:
                                    s.add(u)
                                if wt is not None:
                                    wt_remove(evicted)
                                    wt_add(edge, weight)
                                    if att_add is not None:
                                        att_remove(evicted)
                                        att_add(edge, time_now)
                                if note_add is not None and (
                                    arena_slabs
                                    or len(adj[u]) >= slab_cut
                                    or len(adj[v]) >= slab_cut
                                ):
                                    note_add(u, v, weight, time_now)
                                if tau_p != threshold:
                                    threshold = tau_p
                                    generation += 1
                                    cache.clear()
                                    if wt is not None:
                                        wt_raise(threshold)
                            elif rank > threshold:  # Case 2.2
                                threshold = rank
                                generation += 1
                                cache.clear()
                                if wt is not None:
                                    wt_raise(threshold)
                            # Case 2.3: discard silently.
                    else:
                        # GPS / GPS-A priority competition.
                        if tagged is not None and edge in res_positions:
                            # Re-insertion over a tagged ghost: replace
                            # it with the fresh arrival (the one
                            # departure from pure laziness needed to
                            # keep edge keys unique).
                            if edge not in tagged:
                                raise EdgeExistsError(
                                    f"edge {edge!r} is already sampled"
                                )
                            res_remove(edge)
                            res_size -= 1
                            del weights[edge]
                            del edge_times[edge]
                            cache.pop(edge, None)
                            tagged.discard(edge)
                        if res_size < budget:
                            res_push(edge, rank)
                            res_size += 1
                            weights[edge] = weight
                            edge_times[edge] = time_now
                            s = adj.get(u)
                            if s is None:
                                adj[u] = {v}
                                intern(u)
                            else:
                                s.add(v)
                            s = adj.get(v)
                            if s is None:
                                adj[v] = {u}
                                intern(v)
                            else:
                                s.add(u)
                            graph._num_edges += 1
                            if wt is not None:
                                wt_add(edge, weight)
                                if att_add is not None:
                                    att_add(edge, time_now)
                            if note_add is not None and (
                                arena_slabs
                                or len(adj[u]) >= slab_cut
                                or len(adj[v]) >= slab_cut
                            ):
                                note_add(u, v, weight, time_now)
                        else:
                            min_rank = res_heap[0][0]
                            if rank > min_rank:
                                evicted, evicted_rank = res_replace_min(
                                    edge, rank
                                )
                                del weights[evicted]
                                del edge_times[evicted]
                                cache.pop(evicted, None)
                                if tagged is not None and evicted in tagged:
                                    tagged.discard(evicted)
                                    # A ghost freed a slot: the useful
                                    # sample grows by one edge.
                                    graph._num_edges += 1
                                else:
                                    a, b = evicted
                                    s = adj[a]
                                    s.remove(b)
                                    if not s:
                                        del adj[a]
                                    s = adj[b]
                                    s.remove(a)
                                    if not s:
                                        del adj[b]
                                    if wt is not None:
                                        wt_remove(evicted)
                                        if att_remove is not None:
                                            att_remove(evicted)
                                    if note_remove is not None and arena_slabs:
                                        note_remove(a, b)
                                if evicted_rank > threshold:
                                    threshold = evicted_rank
                                    generation += 1
                                    cache.clear()
                                    if wt is not None:
                                        wt_raise(threshold)
                                weights[edge] = weight
                                edge_times[edge] = time_now
                                s = adj.get(u)
                                if s is None:
                                    adj[u] = {v}
                                    intern(u)
                                else:
                                    s.add(v)
                                s = adj.get(v)
                                if s is None:
                                    adj[v] = {u}
                                    intern(v)
                                else:
                                    s.add(u)
                                if wt is not None:
                                    wt_add(edge, weight)
                                    if att_add is not None:
                                        att_add(edge, time_now)
                                if note_add is not None and (
                                    arena_slabs
                                    or len(adj[u]) >= slab_cut
                                    or len(adj[v]) >= slab_cut
                                ):
                                    note_add(u, v, weight, time_now)
                            elif rank > threshold:
                                threshold = rank
                                generation += 1
                                cache.clear()
                                if wt is not None:
                                    wt_raise(threshold)
                else:
                    # -- deletion.
                    if is_wsd:
                        # Case 3 first: removing e_t from the reservoir
                        # does not change any other edge's membership or
                        # τq, and it keeps e_t from appearing as an
                        # "other" edge during enumeration below.
                        if edge in res_positions:
                            res_remove(edge)
                            res_size -= 1
                            del weights[edge]
                            del edge_times[edge]
                            cache.pop(edge, None)
                            s = adj[u]
                            s.remove(v)
                            if not s:
                                del adj[u]
                            s = adj[v]
                            s.remove(u)
                            if not s:
                                del adj[v]
                            graph._num_edges -= 1
                            if wt is not None:
                                wt_remove(edge)
                                if att_remove is not None:
                                    att_remove(edge)
                            if note_remove is not None and arena_slabs:
                                note_remove(u, v)
                    elif is_gps:
                        raise SamplerError(
                            "GPS only supports insertion-only streams; use "
                            "GPSA or WSD for fully dynamic streams (paper "
                            "Section III-A, Example 1)"
                        )
                    else:  # GPS-A: tag first, keep the slot occupied.
                        if edge in res_positions and edge not in tagged:
                            tagged.add(edge)
                            s = adj[u]
                            s.remove(v)
                            if not s:
                                del adj[u]
                            s = adj[v]
                            s.remove(u)
                            if not s:
                                del adj[v]
                            graph._num_edges -= 1
                            if wt is not None:
                                wt_remove(edge)
                                if att_remove is not None:
                                    att_remove(edge)
                            if note_remove is not None and arena_slabs:
                                note_remove(u, v)
                    if mode == 1:  # triangle
                        pair = cp(u, v) if arena_slabs else None
                        if pair is not None:
                            wa = pair[0]
                            if len(wa):
                                estimate -= tri_delta(
                                    wa, pair[1], threshold
                                )
                            nv = None  # scalar loop below stays off
                        else:
                            try:
                                nu = adj[u]
                                nv = adj[v]
                            except KeyError:
                                nv = None
                        # isdisjoint() skips the result-set allocation
                        # on the (common) zero-instance events.
                        if nv and not nu.isdisjoint(nv):
                            for w in nu & nv:
                                try:
                                    e1 = (u, w) if u < w else (w, u)
                                    e2 = (v, w) if v < w else (w, v)
                                except TypeError:
                                    e1 = canonical(u, w)
                                    e2 = canonical(v, w)
                                if inline_iu:
                                    if threshold > 0.0:
                                        p1 = weights[e1] / threshold
                                        if p1 > 1.0:
                                            p1 = 1.0
                                        p2 = weights[e2] / threshold
                                        if p2 > 1.0:
                                            p2 = 1.0
                                        estimate -= 1.0 / p1 / p2
                                    else:
                                        estimate -= 1.0
                                else:
                                    p1 = cache_get(e1)
                                    if p1 is None:
                                        p1 = inc_prob(weights[e1], threshold)
                                        cache[e1] = p1
                                    p2 = cache_get(e2)
                                    if p2 is None:
                                        p2 = inc_prob(weights[e2], threshold)
                                        cache[e2] = p2
                                    estimate -= 1.0 / p1 / p2
                    elif mode == 2:  # wedge
                        if wt is not None:
                            estimate -= wt_delta(u, v)
                        else:
                            for centre, tip in ((u, v), (v, u)):
                                nc = adj.get(centre)
                                if nc:
                                    for w in nc:
                                        if w != tip:
                                            try:
                                                e = (
                                                    (centre, w)
                                                    if centre < w
                                                    else (w, centre)
                                                )
                                            except TypeError:
                                                e = canonical(centre, w)
                                            if inline_iu:
                                                if threshold > 0.0:
                                                    p = (
                                                        weights[e]
                                                        / threshold
                                                    )
                                                    if p > 1.0:
                                                        p = 1.0
                                                    estimate -= 1.0 / p
                                                else:
                                                    estimate -= 1.0
                                            else:
                                                p = cache_get(e)
                                                if p is None:
                                                    p = inc_prob(
                                                        weights[e],
                                                        threshold,
                                                    )
                                                    cache[e] = p
                                                estimate -= 1.0 / p
                    else:
                        for instance in instances_completed(graph, u, v):
                            value = 1.0
                            for other in instance:
                                p = cache_get(other)
                                if p is None:
                                    p = inc_prob(weights[other], threshold)
                                    cache[other] = p
                                value /= p
                            estimate -= value
        except DuplicateKeyError:  # a reservoir push of a sampled edge
            raise EdgeExistsError(
                f"edge {edge!r} is already sampled"
            ) from None
        finally:
            self._estimate = estimate
            self._time = time_now
            self._threshold = threshold
            self._threshold_generation = generation
            self.last_weight = weight
            if is_wsd:
                self._tau_p = tau_p
        return estimate


class PairingSamplerKernel(SampledGraphMixin, SubgraphCountingSampler):
    """Shared kernel of the uniform (random-pairing) samplers.

    Owns the :class:`RandomPairingReservoir` and the sampled-graph
    bookkeeping that ThinkD, Triest and (for its reservoir half) WRS all
    duplicate. Subclasses keep their estimator rules — the designs
    differ in *when* the estimate moves, not in how the sample is kept.

    Args:
        pattern: the target pattern H.
        budget: M, the reported storage budget.
        rng: seed or generator.
        reservoir_capacity: capacity of the RP reservoir; defaults to
            ``budget`` (WRS passes its post-waiting-room remainder).
    """

    def __init__(
        self,
        pattern: str | Pattern,
        budget: int,
        rng: np.random.Generator | int | None = None,
        reservoir_capacity: int | None = None,
    ) -> None:
        SubgraphCountingSampler.__init__(self, pattern, budget, rng)
        SampledGraphMixin.__init__(self)
        self._rp = RandomPairingReservoir(
            budget if reservoir_capacity is None else reservoir_capacity,
            self.rng,
        )
        # No arena here: the plain RP kernels (ThinkD, Triest) count
        # common neighbours with one C-level set intersection — there
        # is no per-element Python loop for the slabs to beat, and the
        # measured arena path is a net loss for them at every density
        # (the same reason thinkd/wedge sat out the PR-4 wedge
        # vectorisation). WRS — whose triangle delta *does* run a
        # per-instance Python membership loop — enables the arena in
        # its own constructor with the waiting-room membership lane.

    def _batch_counter(self):
        """A hoisted ``count(u, v)`` closure for the batched loops.

        Counts the pattern instances an edge ``{u, v}`` completes
        against the sampled graph, with the triangle/wedge cases
        inlined on the graph's raw adjacency dict (identical values to
        ``pattern.count_completed``). Shared by the ThinkD and Triest
        batched ingestion overrides; the random-pairing skeletons
        around it stay per-sampler because each interleaves its own
        estimator/τ updates between the rng-order-sensitive steps.
        """
        pattern_type = type(self.pattern)
        mode = (
            1 if pattern_type is Triangle else 2 if pattern_type is Wedge
            else 0
        )
        count_completed = self.pattern.count_completed
        graph = self._sampled_graph
        adj = graph._adj

        def count(u, v):
            if mode == 1:  # triangle
                nu = adj.get(u)
                if not nu:
                    return 0
                nv = adj.get(v)
                if not nv or nu.isdisjoint(nv):
                    return 0
                return len(nu & nv)
            if mode == 2:  # wedge
                nu = adj.get(u)
                nv = adj.get(v)
                return (len(nu) if nu else 0) + (len(nv) if nv else 0)
            return count_completed(graph, u, v)

        return count

    @property
    def sample_size(self) -> int:
        return len(self._rp)

    def sampled_edges(self) -> Iterator[Edge]:
        return iter(self._rp)
