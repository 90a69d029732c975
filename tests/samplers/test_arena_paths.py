"""Arena-backed estimator paths: identity contracts + lane coherence.

The sorted-slab arena reroutes the triangle/clique estimator work when
both endpoints are dense. These tests pin the contracts that make that
safe: per-event == batched == block bit-identity with slabs engaged,
arena-on vs arena-off agreement within float-regrouping tolerance,
checkpoint v3 round-trips as bit-identical continuations (including the
hysteresis-dependent slab set), v2 documents still loading, and the
payload lanes staying coherent with the sampler state they mirror
(weights across threshold generations, waiting-room membership across
WR exits).

The cutoff is lowered to 4 so a ~60-vertex graph exercises the slabs;
everything here must also pass verbatim at the production cutoff
(where the slabs simply never engage).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.edges import canonical_edge
from repro.graph.stream import DELETE, INSERT, EdgeEvent, EventBlock
from repro.samplers import GPS, GPSA, WRS, WSD, ThinkD, Triest
from repro.samplers import kernel as kernel_mod
from repro.samplers.checkpoint import (
    restore_sampler,
    sampler_state_dict,
    state_from_wire,
    state_to_wire,
)
from repro.weights.heuristic import GPSHeuristicWeight, UniformWeight

SEED = 20230


@pytest.fixture(autouse=True)
def low_cutoff():
    previous = kernel_mod.set_arena_cutoff(4)
    yield
    kernel_mod.set_arena_cutoff(previous)


def dense_stream(num_events, num_vertices=80, deletion_fraction=0.25,
                 seed=5):
    # NB: insertions need unused vertex pairs; keep num_events well
    # below num_vertices^2/2 or generation cannot terminate.
    rng = np.random.default_rng(seed)
    alive, pos, events = [], {}, []
    while len(events) < num_events:
        if alive and rng.random() < deletion_fraction:
            i = int(rng.integers(len(alive)))
            edge = alive[i]
            last = alive.pop()
            if i < len(alive):
                alive[i] = last
                pos[last] = i
            del pos[edge]
            events.append(EdgeEvent(DELETE, edge))
        else:
            u = int(rng.integers(num_vertices))
            v = int(rng.integers(num_vertices))
            if u == v:
                continue
            edge = (u, v) if u < v else (v, u)
            if edge in pos:
                continue
            pos[edge] = len(alive)
            alive.append(edge)
            events.append(EdgeEvent(INSERT, edge))
    return events


MAKERS = {
    "wsd": lambda p: WSD(p, 400, GPSHeuristicWeight(), rng=SEED),
    "gps": lambda p: GPS(p, 400, GPSHeuristicWeight(), rng=SEED),
    "gps-a": lambda p: GPSA(p, 400, GPSHeuristicWeight(), rng=SEED),
    "wsd-u": lambda p: WSD(p, 400, UniformWeight(), rng=SEED),
    "wrs": lambda p: WRS(p, 400, rng=SEED),
    "thinkd": lambda p: ThinkD(p, 400, rng=SEED),
    "triest": lambda p: Triest(p, 400, rng=SEED),
}


def stream_for(name, n=3000):
    if name == "gps":  # insertion-only: bounded by the pair count
        return dense_stream(2000, deletion_fraction=0.0)
    return dense_stream(n)


def build_and_run(name, pattern, events, how):
    sampler = MAKERS[name](pattern)
    if how == "per-event":
        for event in events:
            sampler.process(event)
    elif how == "batch":
        sampler.process_batch(events)
    else:
        sampler.process_batch(EventBlock.from_events(events))
    return sampler


class TestBitIdentityWithSlabs:
    @pytest.mark.parametrize("name", sorted(MAKERS))
    @pytest.mark.parametrize("pattern", ["triangle", "4-clique"])
    def test_per_event_batch_block_identical(self, name, pattern):
        events = stream_for(name)
        per_event = build_and_run(name, pattern, events, "per-event")
        batch = build_and_run(name, pattern, events, "batch")
        block = build_and_run(name, pattern, events, "block")
        assert per_event.estimate == batch.estimate == block.estimate
        # The whole point of the low cutoff: slabs must actually exist.
        arena = batch._sampled_graph.arena
        if name in ("thinkd", "triest"):
            assert arena is None  # C-level counts; arena is a net loss
        else:
            assert arena is not None and len(arena) > 0
            arena.check_invariants()

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_arena_off_matches_within_tolerance(self, name):
        events = stream_for(name)
        on = build_and_run(name, "triangle", events, "batch")
        previous = kernel_mod.set_arena_acceleration(False)
        try:
            off = build_and_run(name, "triangle", events, "batch")
        finally:
            kernel_mod.set_arena_acceleration(previous)
        assert off._sampled_graph.arena is None
        rel = abs(on.estimate - off.estimate) / max(
            abs(off.estimate), 1e-12
        )
        assert rel <= 1e-6
        # Integer-count estimators must agree exactly.
        if name in ("thinkd", "triest"):
            assert on.estimate == off.estimate

    def test_chunked_batches_identical(self):
        events = stream_for("wsd")
        whole = build_and_run("wsd", "triangle", events, "batch")
        chunked = MAKERS["wsd"]("triangle")
        for start in range(0, len(events), 257):
            chunked.process_batch(events[start:start + 257])
        assert chunked.estimate == whole.estimate


class TestLaneCoherence:
    def test_weight_lanes_match_edge_weights(self):
        """Threshold-generation churn must never stale the lanes.

        The lane stores the (generation-invariant) weight; probability
        is derived at query time, so after a run full of τq bumps every
        live lane slot must equal the kernel's weight table exactly.
        """
        sampler = build_and_run("wsd", "triangle", stream_for("wsd"),
                                "batch")
        graph = sampler._sampled_graph
        assert sampler.threshold_generation > 0
        label = graph.interner.label
        checked = 0
        for vid in graph.arena.slab_ids():
            ids, lane = graph.arena.live_items(vid)
            u = label(vid)
            for k in range(len(ids)):
                edge = canonical_edge(u, label(int(ids[k])))
                assert lane[k] == sampler._edge_weights[edge]
                checked += 1
        assert checked > 0

    def test_membership_lanes_match_waiting_room(self):
        sampler = build_and_run("wrs", "triangle", stream_for("wrs"),
                                "batch")
        graph = sampler._sampled_graph
        label = graph.interner.label
        saw_reservoir = saw_wr = False
        for vid in graph.arena.slab_ids():
            ids, lane = graph.arena.live_items(vid)
            u = label(vid)
            for k in range(len(ids)):
                edge = canonical_edge(u, label(int(ids[k])))
                want = 1.0 if edge in sampler._waiting_room else 0.0
                assert lane[k] == want
                saw_wr |= want == 1.0
                saw_reservoir |= want == 0.0
        assert saw_wr and saw_reservoir

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_slabs_mirror_adjacency(self, name):
        sampler = build_and_run(name, "triangle", stream_for(name),
                                "batch")
        graph = sampler._sampled_graph
        if graph.arena is None:
            pytest.skip("arena-less sampler")
        idmap = graph.interner._ids
        for vid in graph.arena.slab_ids():
            u = graph.interner.label(vid)
            ids, _ = graph.arena.live_items(vid)
            assert ids.tolist() == sorted(
                idmap[w] for w in graph.neighbors_view(u)
            )


class TestCheckpointV3:
    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_continuation_bit_identical(self, name):
        events = stream_for(name)
        half = len(events) // 2
        uninterrupted = build_and_run(name, "triangle", events, "batch")
        first = MAKERS[name]("triangle")
        first.process_batch(events[:half])
        state = state_from_wire(state_to_wire(sampler_state_dict(first)))
        assert state["format"] == 5  # current format still carries arena state
        weight_fn = (
            first.weight_fn if hasattr(first, "weight_fn") else None
        )
        restored = restore_sampler(state, weight_fn)
        if first._sampled_graph.arena is not None:
            assert state["arena_cutoff"] == 4
            assert sorted(
                restored._sampled_graph.slabbed_vertices()
            ) == sorted(first._sampled_graph.slabbed_vertices())
        restored.process_batch(events[half:])
        assert restored.estimate == uninterrupted.estimate

    def test_hysteresis_slab_set_round_trips(self):
        """A slab kept only by hysteresis must survive the checkpoint.

        Degree in [cutoff/2, cutoff) keeps an existing slab alive but
        would not rebuild one from scratch — replay alone under-slabs
        the graph, so the v3 slab list is what restores it.
        """
        sampler = WSD("triangle", 400, UniformWeight(), rng=1)
        graph = sampler._sampled_graph
        for w in range(1, 6):  # degree 5 >= cutoff 4 → slab builds
            sampler.process(EdgeEvent(INSERT, (0, w)))
        assert graph.slabbed_vertices().count(0) == 1
        for w in (5, 4):  # degree falls to 3: hysteresis (>= 2) keeps it
            sampler.process(EdgeEvent(DELETE, (0, w)))
        assert 0 in graph.slabbed_vertices()
        assert graph.degree(0) < graph.slab_cutoff
        state = sampler_state_dict(sampler)
        assert 0 in state["slabbed"]["vertex"]
        restored = restore_sampler(state, sampler.weight_fn)
        assert 0 in restored._sampled_graph.slabbed_vertices()
        # And the continuation stays bit-identical to never stopping.
        tail = [EdgeEvent(INSERT, (1, w)) for w in range(2, 5)]
        for event in tail:
            sampler.process(event)
            restored.process(event)
        assert restored.estimate == sampler.estimate


class TestAdjacencyArenaApi:
    def test_count_common_matches_set_path(self):
        sampler = build_and_run("wsd", "triangle", stream_for("wsd"),
                                "batch")
        graph = sampler._sampled_graph
        vertices = list(graph.vertices())[:12]
        for u in vertices:
            for v in vertices:
                if u == v:
                    continue
                assert graph.count_common(u, v) == len(
                    graph.common_neighbors(u, v)
                )

    def test_arena_common_neighbors_matches_set_path(self):
        sampler = build_and_run("wsd", "4-clique", stream_for("wsd"),
                                "batch")
        graph = sampler._sampled_graph
        vertices = list(graph.vertices())[:12]
        hits = 0
        for u in vertices:
            for v in vertices:
                if u == v:
                    continue
                via_arena = graph.arena_common_neighbors(u, v)
                if via_arena is not None:
                    hits += 1
                    assert via_arena == graph.common_neighbors(u, v)
        assert hits > 0

    def test_common_payloads_none_without_slabs(self):
        sampler = WSD("triangle", 50, UniformWeight(), rng=0)
        sampler.process(EdgeEvent(INSERT, (1, 2)))
        assert sampler._sampled_graph.common_payloads(1, 2) is None

    def test_neighbors_shares_empty_frozenset(self):
        graph = WSD("triangle", 50, UniformWeight(), rng=0)._sampled_graph
        assert graph.neighbors("missing") is graph.neighbors("other")
        assert graph.neighbors("missing") == frozenset()
