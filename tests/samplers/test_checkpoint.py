"""Tests for sampler checkpoint/restore (WSD and the kernel family)."""

import pytest

from repro.errors import ConfigurationError
from repro.graph.generators import powerlaw_cluster
from repro.samplers import GPS, GPSA, WRS, ThinkD, Triest
from repro.samplers.checkpoint import (
    load_sampler,
    restore_sampler,
    sampler_state_dict,
    save_sampler,
    state_from_wire,
    state_to_wire,
)
from repro.samplers.wsd import WSD
from repro.streams.scenarios import light_deletion_stream
from repro.weights.heuristic import GPSHeuristicWeight


@pytest.fixture(scope="module")
def stream():
    edges = powerlaw_cluster(100, m=4, triangle_probability=0.7, rng=0)
    return light_deletion_stream(edges, beta_l=0.3, rng=1)


def fresh_sampler(seed=7):
    return WSD("triangle", 40, GPSHeuristicWeight(), rng=seed)


class TestCheckpoint:
    def test_round_trip_preserves_state(self, stream):
        sampler = fresh_sampler()
        for event in stream[: len(stream) // 2]:
            sampler.process(event)
        state = sampler_state_dict(sampler)
        restored = restore_sampler(state, GPSHeuristicWeight())
        assert restored.estimate == sampler.estimate
        assert restored.tau_p == sampler.tau_p
        assert restored.tau_q == sampler.tau_q
        assert restored.time == sampler.time
        assert set(restored.sampled_edges()) == set(sampler.sampled_edges())

    def test_resume_equals_uninterrupted(self, stream):
        """Checkpoint mid-stream, restore, finish: *bit-identical* to a
        run that never stopped (same rng continuation, same floats)."""
        half = len(stream) // 2
        uninterrupted = fresh_sampler()
        for event in stream:
            uninterrupted.process(event)

        first = fresh_sampler()
        for event in stream[:half]:
            first.process(event)
        restored = restore_sampler(
            sampler_state_dict(first), GPSHeuristicWeight()
        )
        for event in stream[half:]:
            restored.process(event)
        assert restored.estimate == uninterrupted.estimate
        assert set(restored.sampled_edges()) == set(
            uninterrupted.sampled_edges()
        )
        assert restored.tau_p == uninterrupted.tau_p
        assert restored.tau_q == uninterrupted.tau_q

    def test_resume_batch_path_bit_identical(self, stream):
        """The restored sampler's batched fast path continues exactly
        like the uninterrupted batched run — the regression guard for
        stale memoized state after restore."""
        half = len(stream) // 2
        uninterrupted = fresh_sampler()
        uninterrupted.process_batch(list(stream))

        first = fresh_sampler()
        first.process_batch(list(stream[:half]))
        restored = restore_sampler(
            sampler_state_dict(first), GPSHeuristicWeight()
        )
        restored.process_batch(list(stream[half:]))
        assert restored.estimate == uninterrupted.estimate
        assert restored.tau_q == uninterrupted.tau_q

    def test_generation_counter_restored(self, stream):
        """The τq generation counter round-trips, so consumers keyed on
        it see a monotone counter across the checkpoint boundary, and
        the probability memo starts empty (no stale entries)."""
        sampler = fresh_sampler()
        for event in stream[: len(stream) // 2]:
            sampler.process(event)
        assert sampler.tau_q_generation > 0
        restored = restore_sampler(
            sampler_state_dict(sampler), GPSHeuristicWeight()
        )
        assert restored.tau_q_generation == sampler.tau_q_generation
        assert restored._prob_cache == {}
        # Probabilities recomputed after restore match the originals.
        for edge in sampler.sampled_edges():
            assert restored.inclusion_probability(
                edge
            ) == sampler.inclusion_probability(edge)

    def test_wire_round_trip_is_byte_stable(self, stream):
        """The framed state decodes to a state that re-encodes to the
        same bytes: equal sampler states give equal bytes."""
        sampler = fresh_sampler()
        for event in stream[:200]:
            sampler.process(event)
        blob = state_to_wire(sampler_state_dict(sampler))
        state = state_from_wire(blob)
        assert state["pattern"] == "triangle"
        assert state["format"] == 5
        assert state_to_wire(state) == blob

    def test_file_round_trip(self, stream, tmp_path):
        sampler = fresh_sampler()
        for event in stream[:300]:
            sampler.process(event)
        path = tmp_path / "wsd.ckpt"
        save_sampler(sampler, path)
        restored = load_sampler(path, GPSHeuristicWeight())
        assert restored.estimate == sampler.estimate

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_sampler(tmp_path / "missing.ckpt", GPSHeuristicWeight())

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_sampler(path, GPSHeuristicWeight())

    def test_unsupported_format_version(self, stream):
        sampler = fresh_sampler()
        state = sampler_state_dict(sampler)
        state["format"] = 999
        with pytest.raises(ConfigurationError):
            restore_sampler(state, GPSHeuristicWeight())

    def test_string_vertices_supported(self):
        sampler = WSD("triangle", 10, GPSHeuristicWeight(), rng=0)
        from repro.graph.stream import EdgeEvent

        sampler.process(EdgeEvent.insertion("alice", "bob"))
        restored = restore_sampler(
            state_from_wire(state_to_wire(sampler_state_dict(sampler))),
            GPSHeuristicWeight(),
        )
        assert ("alice", "bob") in set(restored.sampled_edges())

    def test_unsupported_vertex_type_rejected(self):
        sampler = WSD("triangle", 10, GPSHeuristicWeight(), rng=0)
        from repro.graph.stream import EdgeEvent

        sampler.process(EdgeEvent.insertion((1, 2), (3, 4)))
        with pytest.raises(ConfigurationError):
            sampler_state_dict(sampler)


def _insertion_only(stream):
    return [e for e in stream if e.is_insertion]


class TestKernelCheckpoints:
    """Generic save/restore for every kernel-based sampler."""

    @pytest.mark.parametrize(
        "factory,needs_weight_fn",
        [
            (lambda: WSD("triangle", 40, GPSHeuristicWeight(), rng=9), True),
            (lambda: GPSA("triangle", 40, GPSHeuristicWeight(), rng=9), True),
            (lambda: ThinkD("triangle", 40, rng=9), False),
            (lambda: Triest("triangle", 40, rng=9), False),
            (lambda: WRS("triangle", 40, rng=9), False),
        ],
        ids=["wsd", "gps-a", "thinkd", "triest", "wrs"],
    )
    def test_resume_equals_uninterrupted(
        self, stream, factory, needs_weight_fn
    ):
        """Checkpoint mid-stream, restore, finish: bit-identical."""
        half = len(stream) // 2
        uninterrupted = factory()
        for event in stream:
            uninterrupted.process(event)

        first = factory()
        for event in stream[:half]:
            first.process(event)
        weight_fn = GPSHeuristicWeight() if needs_weight_fn else None
        restored = restore_sampler(sampler_state_dict(first), weight_fn)
        for event in stream[half:]:
            restored.process(event)
        assert restored.estimate == uninterrupted.estimate
        assert set(restored.sampled_edges()) == set(
            uninterrupted.sampled_edges()
        )
        assert restored.sample_size == uninterrupted.sample_size
        assert restored.time == uninterrupted.time

    def test_4clique_resume_bit_identical(self):
        """Id-order-sensitive patterns (the clique enumerators sort by
        interned vertex id) stay bit-identical across restore: the
        checkpoint persists the interner's id order, so the restored
        sampler's enumeration — and float accumulation — order matches
        a run that never stopped."""
        from repro.graph.generators import powerlaw_cluster
        from repro.streams.scenarios import light_deletion_stream

        edges = powerlaw_cluster(80, m=10, triangle_probability=0.9, rng=4)
        clique_stream = light_deletion_stream(edges, beta_l=0.2, rng=2)
        half = len(clique_stream) // 2

        uninterrupted = WSD("4-clique", 200, GPSHeuristicWeight(), rng=4)
        for event in clique_stream:
            uninterrupted.process(event)

        first = WSD("4-clique", 200, GPSHeuristicWeight(), rng=4)
        for event in clique_stream[:half]:
            first.process(event)
        restored = restore_sampler(
            sampler_state_dict(first), GPSHeuristicWeight()
        )
        # The interner round-trips exactly (ids survive edge eviction,
        # so the reservoir alone could not reconstruct them).
        original = first._sampled_graph.interner
        cloned = restored._sampled_graph.interner
        assert cloned.labels() == original.labels()
        for event in clique_stream[half:]:
            restored.process(event)
        assert restored.estimate == uninterrupted.estimate

    def test_gps_resume_insertion_only(self, stream):
        events = _insertion_only(stream)
        half = len(events) // 2
        uninterrupted = GPS("triangle", 40, GPSHeuristicWeight(), rng=9)
        for event in events:
            uninterrupted.process(event)
        first = GPS("triangle", 40, GPSHeuristicWeight(), rng=9)
        for event in events[:half]:
            first.process(event)
        restored = restore_sampler(
            sampler_state_dict(first), GPSHeuristicWeight()
        )
        assert isinstance(restored, GPS)
        assert restored.threshold == first.threshold
        assert restored.threshold_generation == first.threshold_generation
        for event in events[half:]:
            restored.process(event)
        assert restored.estimate == uninterrupted.estimate
        assert restored.threshold == uninterrupted.threshold

    def test_gpsa_tags_round_trip(self, stream):
        sampler = GPSA("triangle", 40, GPSHeuristicWeight(), rng=4)
        for event in stream:
            sampler.process(event)
        assert sampler.num_tagged > 0, "fixture should tag some edges"
        restored = restore_sampler(
            sampler_state_dict(sampler), GPSHeuristicWeight()
        )
        assert restored.num_tagged == sampler.num_tagged
        assert restored.useful_sample_size == sampler.useful_sample_size
        assert restored._tagged == sampler._tagged
        assert set(restored.sampled_edges()) == set(sampler.sampled_edges())

    def test_thinkd_rp_counters_round_trip(self, stream):
        sampler = ThinkD("triangle", 40, rng=3)
        for event in stream:
            sampler.process(event)
        restored = restore_sampler(sampler_state_dict(sampler))
        assert restored._rp.d_i == sampler._rp.d_i
        assert restored._rp.d_o == sampler._rp.d_o
        assert restored._rp.population == sampler._rp.population
        assert restored.estimate == sampler.estimate

    def test_wrs_waiting_room_round_trips(self, stream):
        """WRS state splits across the waiting-room FIFO and the RP
        reservoir; both halves round-trip with their order (FIFO exit
        order and eviction-index order) intact."""
        sampler = WRS("triangle", 40, rng=3)
        for event in stream:
            sampler.process(event)
        assert sampler.waiting_room_size > 0
        restored = restore_sampler(sampler_state_dict(sampler))
        assert isinstance(restored, WRS)
        assert restored.waiting_room_capacity == sampler.waiting_room_capacity
        assert restored._rp.capacity == sampler._rp.capacity
        assert list(restored._waiting_room.items()) == list(
            sampler._waiting_room.items()
        )
        assert list(restored._rp) == list(sampler._rp)
        assert restored._rp.population == sampler._rp.population
        assert restored.estimate == sampler.estimate
        assert restored.sample_size == sampler.sample_size

    def test_wrs_custom_fraction_capacity_restored_exactly(self, stream):
        """A non-default waiting_room_fraction must survive restore:
        the capacity is stored, not re-derived from the default
        fraction."""
        sampler = WRS("triangle", 40, waiting_room_fraction=0.4, rng=5)
        for event in stream[:300]:
            sampler.process(event)
        restored = restore_sampler(sampler_state_dict(sampler))
        assert restored.waiting_room_capacity == 16
        assert restored._rp.capacity == 24
        for event in stream[300:500]:
            sampler.process(event)
            restored.process(event)
        assert restored.estimate == sampler.estimate

    def test_wrs_resume_batched_path_bit_identical(self, stream):
        """The restored WRS continues bit-identically through the
        batched ingestion driver too."""
        half = len(stream) // 2
        uninterrupted = WRS("triangle", 40, rng=11)
        uninterrupted.process_batch(list(stream))
        first = WRS("triangle", 40, rng=11)
        first.process_batch(list(stream[:half]))
        restored = restore_sampler(sampler_state_dict(first))
        restored.process_batch(list(stream[half:]))
        assert restored.estimate == uninterrupted.estimate
        assert set(restored.sampled_edges()) == set(
            uninterrupted.sampled_edges()
        )

    def test_triest_tau_round_trips(self, stream):
        sampler = Triest("triangle", 40, rng=3)
        for event in stream:
            sampler.process(event)
        restored = restore_sampler(sampler_state_dict(sampler))
        assert restored.tau == sampler.tau
        assert restored.estimate == sampler.estimate

    @pytest.mark.parametrize(
        "factory,needs_weight_fn",
        [
            (lambda: GPSA("triangle", 30, GPSHeuristicWeight(), rng=6), True),
            (lambda: ThinkD("triangle", 30, rng=6), False),
        ],
        ids=["gps-a", "thinkd"],
    )
    def test_file_round_trip(self, stream, tmp_path, factory, needs_weight_fn):
        sampler = factory()
        for event in stream[:400]:
            sampler.process(event)
        path = tmp_path / "sampler.ckpt"
        save_sampler(sampler, path)
        weight_fn = GPSHeuristicWeight() if needs_weight_fn else None
        restored = load_sampler(path, weight_fn)
        assert type(restored) is type(sampler)
        assert restored.estimate == sampler.estimate
        assert restored.time == sampler.time

    def test_threshold_restore_requires_weight_fn(self, stream):
        sampler = GPSA("triangle", 30, GPSHeuristicWeight(), rng=1)
        for event in stream[:100]:
            sampler.process(event)
        with pytest.raises(ConfigurationError):
            restore_sampler(sampler_state_dict(sampler))

    def test_unknown_algorithm_tag_rejected(self, stream):
        sampler = ThinkD("triangle", 30, rng=0)
        for event in stream[:50]:
            sampler.process(event)
        state = sampler_state_dict(sampler)
        # Relabelling a ThinkD state as WRS leaves the waiting-room
        # fields missing; the restore must reject it cleanly.
        state["algorithm"] = "wrs"
        with pytest.raises(ConfigurationError):
            restore_sampler(state)
        state["algorithm"] = "corrupted"
        with pytest.raises(ConfigurationError):
            restore_sampler(state)
        # A v2 state that lost its tag entirely is corrupt, not WSD.
        del state["algorithm"]
        with pytest.raises(ConfigurationError):
            restore_sampler(state)

    def test_unsupported_sampler_rejected(self):
        from repro.samplers import ThinkDFast

        sampler = ThinkDFast("triangle", 0.5, rng=0)
        with pytest.raises(ConfigurationError):
            sampler_state_dict(sampler)


_WIRE_CASES = {
    "wsd": lambda pattern: WSD(pattern, 40, GPSHeuristicWeight(), rng=9),
    "gps": lambda pattern: GPS(pattern, 40, GPSHeuristicWeight(), rng=9),
    "gps-a": lambda pattern: GPSA(pattern, 40, GPSHeuristicWeight(), rng=9),
    "thinkd": lambda pattern: ThinkD(pattern, 40, rng=9),
    "triest": lambda pattern: Triest(pattern, 40, rng=9),
    "wrs": lambda pattern: WRS(pattern, 40, rng=9),
}


class TestWireContinuations:
    """Every algorithm × pattern × arena setting continues bit-identically
    through the format-5 bytes, on the batched path (the arena switch is
    construction-time, so the restore runs under the recording's)."""

    @pytest.mark.parametrize("arena", ["on", "off"])
    @pytest.mark.parametrize("pattern", ["triangle", "wedge"])
    @pytest.mark.parametrize("name", sorted(_WIRE_CASES))
    def test_resume_through_the_wire(self, stream, name, pattern, arena):
        from repro.samplers import kernel as kernel_mod

        events = _insertion_only(stream) if name == "gps" else list(stream)
        half = len(events) // 2
        previous = (
            kernel_mod.set_arena_cutoff(4),
            kernel_mod.set_arena_acceleration(arena == "on"),
        )
        try:
            uninterrupted = _WIRE_CASES[name](pattern)
            uninterrupted.process_batch(events)
            first = _WIRE_CASES[name](pattern)
            first.process_batch(events[:half])
            blob = state_to_wire(sampler_state_dict(first))
            restored = restore_sampler(
                state_from_wire(blob), getattr(first, "weight_fn", None)
            )
        finally:
            kernel_mod.set_arena_cutoff(previous[0])
            kernel_mod.set_arena_acceleration(previous[1])
        assert (first.sampled_graph.arena is not None) == (
            arena == "on" and name not in ("thinkd", "triest")
            and pattern == "triangle"
        )
        assert state_to_wire(sampler_state_dict(restored)) == blob
        restored.process_batch(events[half:])
        assert restored.estimate == uninterrupted.estimate
        assert restored.sample_size == uninterrupted.sample_size
