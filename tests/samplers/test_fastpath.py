"""Fast-path semantics: probability memoization and batched ingestion.

The hot-path engineering of this library promises two invariants:

1. the memoized inclusion probabilities are invalidated *exactly* when
   their threshold changes (τq for WSD — Case 2.1/2.2 transitions;
   r_{M+1} for GPS/GPS-A);
2. ``process_batch`` is bit-identical to event-at-a-time ``process``
   under a fixed seed, for insertions and deletions, across weight
   functions and patterns.
"""

import numpy as np
import pytest

from repro.graph.stream import EdgeEvent
from repro.samplers.gps import GPS
from repro.samplers.gps_a import GPSA
from repro.samplers.ranks import RankFunction
from repro.samplers.thinkd import ThinkD
from repro.samplers.thinkd_fast import ThinkDFast
from repro.samplers.triest import Triest
from repro.samplers.wrs import WRS
from repro.samplers.wsd import WSD
from repro.weights.heuristic import (
    DegreeWeight,
    GPSHeuristicWeight,
    UniformWeight,
)


class ScriptedRank(RankFunction):
    """Deterministic rank function driving Algorithm 1 case by case."""

    name = "scripted"

    def __init__(self, ranks):
        self._ranks = iter(ranks)

    def rank(self, weight, rng):
        return next(self._ranks)

    def inclusion_probability(self, weight, threshold):
        if threshold <= 0.0:
            return 1.0
        return min(1.0, weight / threshold)


def dynamic_stream(num_events=600, num_vertices=40, deletion_fraction=0.3,
                   seed=0):
    """Small synthetic fully dynamic stream with valid deletions."""
    rng = np.random.default_rng(seed)
    alive = []
    events = []
    while len(events) < num_events:
        if alive and rng.random() < deletion_fraction:
            i = int(rng.integers(len(alive)))
            edge = alive.pop(i)
            events.append(EdgeEvent.deletion(*edge))
        else:
            u = int(rng.integers(num_vertices))
            v = int(rng.integers(num_vertices))
            if u == v:
                continue
            edge = (u, v) if u < v else (v, u)
            if edge in alive:
                continue
            alive.append(edge)
            events.append(EdgeEvent.insertion(*edge))
    return events


class TestProbabilityCacheInvalidation:
    """The cache generation bumps exactly on τq changes (Case 2.1/2.2)."""

    def test_case1_retains_tau_q_and_cache(self):
        # Reservoir never fills: τq stays 0 and the generation never
        # bumps, no matter how many insertions arrive.
        sampler = WSD(
            "triangle", 50, UniformWeight(), rank_fn=ScriptedRank(
                [float(i + 1) for i in range(10)]
            ), rng=0,
        )
        for i in range(10):
            sampler.process(EdgeEvent.insertion(i, i + 100))
        assert sampler.tau_q == 0.0
        assert sampler.tau_q_generation == 0

    def test_case21_and_22_bump_generation(self):
        # Budget 3; ranks: fill with 5, 6, 7 (gen 0). Then:
        #  - rank 10 > τp=5  → Case 2.1: τq ← τp = 5 (gen 1)
        #  - rank 4  < τp=6, > τq=5 → Case 2.2: τq ← 4? no — 4 < 5 is
        #    Case 2.3: no change (gen stays 1)
        #  - rank 5.5 < τp=6, > τq=5 → Case 2.2: τq ← 5.5 (gen 2)
        sampler = WSD(
            "triangle", 3, UniformWeight(),
            rank_fn=ScriptedRank([5.0, 6.0, 7.0, 10.0, 4.0, 5.5]), rng=0,
        )
        for i in range(3):
            sampler.process(EdgeEvent.insertion(i, i + 100))
        assert sampler.tau_q_generation == 0

        sampler.process(EdgeEvent.insertion(50, 51))  # Case 2.1
        assert sampler.tau_q == pytest.approx(5.0)
        assert sampler.tau_q_generation == 1

        sampler.process(EdgeEvent.insertion(60, 61))  # Case 2.3
        assert sampler.tau_q == pytest.approx(5.0)
        assert sampler.tau_q_generation == 1

        sampler.process(EdgeEvent.insertion(70, 71))  # Case 2.2
        assert sampler.tau_q == pytest.approx(5.5)
        assert sampler.tau_q_generation == 2

    def test_case3_deletion_keeps_generation(self):
        sampler = WSD(
            "triangle", 3, UniformWeight(),
            rank_fn=ScriptedRank([5.0, 6.0, 7.0, 10.0]), rng=0,
        )
        for i in range(3):
            sampler.process(EdgeEvent.insertion(i, i + 100))
        sampler.process(EdgeEvent.insertion(50, 51))
        generation = sampler.tau_q_generation
        sampler.process(EdgeEvent.deletion(1, 101))
        assert sampler.tau_q_generation == generation

    def test_cached_values_match_rank_function(self):
        sampler = WSD("triangle", 10, GPSHeuristicWeight(), rng=3)
        for event in dynamic_stream(200, num_vertices=15, seed=4):
            sampler.process(event)
        for edge in sampler.sampled_edges():
            expected = sampler.rank_fn.inclusion_probability(
                sampler.sampled_weight(edge), sampler.tau_q
            )
            assert sampler.inclusion_probability(edge) == expected

    def test_cache_cleared_on_tau_q_change(self):
        sampler = WSD("triangle", 5, UniformWeight(), rng=7)
        generation = 0
        for event in dynamic_stream(400, num_vertices=12, seed=8):
            before = dict(sampler._prob_cache)
            sampler.process(event)
            if sampler.tau_q_generation != generation:
                # Invalidation happened: nothing stale may survive.
                generation = sampler.tau_q_generation
                for edge, p in sampler._prob_cache.items():
                    assert p == sampler.rank_fn.inclusion_probability(
                        sampler._edge_weights[edge], sampler.tau_q
                    )
            else:
                # No τq change: surviving entries are unchanged.
                for edge, p in before.items():
                    if edge in sampler._prob_cache:
                        assert sampler._prob_cache[edge] == p


def _pairwise_state(sampler):
    return (
        sampler.estimate,
        sampler.time,
        sampler.sample_size,
        sorted(map(repr, sampler.sampled_edges())),
    )


class TestBatchEquivalence:
    """process_batch must be bit-identical to event-at-a-time process."""

    @pytest.mark.parametrize("pattern", ["wedge", "triangle", "4-clique"])
    @pytest.mark.parametrize(
        "weight_factory",
        [GPSHeuristicWeight, UniformWeight, DegreeWeight],
    )
    def test_wsd_bit_identical(self, pattern, weight_factory):
        events = dynamic_stream(600, seed=11)
        one = WSD(pattern, 60, weight_factory(), rng=42)
        two = WSD(pattern, 60, weight_factory(), rng=42)
        for event in events:
            one.process(event)
        two.process_batch(events)
        assert _pairwise_state(one) == _pairwise_state(two)
        assert one.tau_p == two.tau_p
        assert one.tau_q == two.tau_q
        assert one.tau_q_generation == two.tau_q_generation

    def test_wsd_exponential_rank_bit_identical(self):
        events = dynamic_stream(400, seed=12)
        one = WSD("triangle", 50, UniformWeight(), rank_fn="exponential",
                  rng=5)
        two = WSD("triangle", 50, UniformWeight(), rank_fn="exponential",
                  rng=5)
        for event in events:
            one.process(event)
        two.process_batch(events)
        assert _pairwise_state(one) == _pairwise_state(two)

    def test_wsd_batch_boundaries_do_not_matter(self):
        events = dynamic_stream(500, seed=13)
        one = WSD("triangle", 40, GPSHeuristicWeight(), rng=9)
        two = WSD("triangle", 40, GPSHeuristicWeight(), rng=9)
        one.process_batch(events)
        for chunk_start in range(0, len(events), 37):
            two.process_batch(events[chunk_start:chunk_start + 37])
        assert _pairwise_state(one) == _pairwise_state(two)

    def test_wsd_mixed_process_and_batch(self):
        events = dynamic_stream(300, seed=14)
        one = WSD("triangle", 30, GPSHeuristicWeight(), rng=2)
        two = WSD("triangle", 30, GPSHeuristicWeight(), rng=2)
        for event in events:
            one.process(event)
        two.process_batch(events[:100])
        for event in events[100:200]:
            two.process(event)
        two.process_batch(events[200:])
        assert _pairwise_state(one) == _pairwise_state(two)

    def test_wsd_capture_context_path_same_estimate(self):
        events = dynamic_stream(400, seed=15)
        light = WSD("triangle", 40, GPSHeuristicWeight(), rng=6)
        heavy = WSD("triangle", 40, GPSHeuristicWeight(), rng=6,
                    capture_context=True)
        light.process_batch(events)
        heavy.process_batch(events)
        assert light.estimate == heavy.estimate
        assert light.last_context is None
        assert heavy.last_context is not None

    def test_wsd_observers_see_batch_contributions(self):
        events = dynamic_stream(400, seed=16)
        direct = WSD("triangle", 40, GPSHeuristicWeight(), rng=8)
        batched = WSD("triangle", 40, GPSHeuristicWeight(), rng=8)
        direct_log, batched_log = [], []
        direct.instance_observers.append(
            lambda trigger, inst, value: direct_log.append((trigger, value))
        )
        batched.instance_observers.append(
            lambda trigger, inst, value: batched_log.append((trigger, value))
        )
        for event in events:
            direct.process(event)
        batched.process_batch(events)
        assert direct_log == batched_log
        assert direct.estimate == batched.estimate

    @pytest.mark.parametrize("pattern", ["wedge", "triangle", "4-clique"])
    def test_gps_insertion_only_bit_identical(self, pattern):
        events = [e for e in dynamic_stream(400, deletion_fraction=0.0,
                                            seed=17)]
        one = GPS(pattern, 50, GPSHeuristicWeight(), rng=3)
        two = GPS(pattern, 50, GPSHeuristicWeight(), rng=3)
        for event in events:
            one.process(event)
        two.process_batch(events)
        assert _pairwise_state(one) == _pairwise_state(two)
        assert one.threshold == two.threshold
        assert one.threshold_generation == two.threshold_generation

    def test_gps_exponential_rank_bit_identical(self):
        events = [e for e in dynamic_stream(400, deletion_fraction=0.0,
                                            seed=20)]
        one = GPS("triangle", 50, UniformWeight(), rank_fn="exponential",
                  rng=6)
        two = GPS("triangle", 50, UniformWeight(), rank_fn="exponential",
                  rng=6)
        for event in events:
            one.process(event)
        two.process_batch(events)
        assert _pairwise_state(one) == _pairwise_state(two)

    @pytest.mark.parametrize("pattern", ["wedge", "triangle", "4-clique"])
    def test_gpsa_bit_identical(self, pattern):
        events = dynamic_stream(500, seed=18)
        one = GPSA(pattern, 50, GPSHeuristicWeight(), rng=4)
        two = GPSA(pattern, 50, GPSHeuristicWeight(), rng=4)
        for event in events:
            one.process(event)
        two.process_batch(events)
        assert _pairwise_state(one) == _pairwise_state(two)
        assert one.threshold == two.threshold
        assert one.num_tagged == two.num_tagged
        assert one.useful_sample_size == two.useful_sample_size

    @pytest.mark.parametrize("pattern", ["wedge", "triangle", "4-clique"])
    @pytest.mark.parametrize("sampler_cls", [ThinkD, Triest])
    def test_pairing_samplers_bit_identical(self, sampler_cls, pattern):
        events = dynamic_stream(500, seed=18)
        one = sampler_cls(pattern, 50, rng=4)
        two = sampler_cls(pattern, 50, rng=4)
        for event in events:
            one.process(event)
        two.process_batch(events)
        assert _pairwise_state(one) == _pairwise_state(two)

    @pytest.mark.parametrize("sampler_factory", [
        lambda: GPSA("triangle", 50, GPSHeuristicWeight(), rng=4),
        lambda: WRS("triangle", 50, rng=4),
        lambda: ThinkD("triangle", 50, rng=4),
        lambda: Triest("triangle", 50, rng=4),
        lambda: ThinkDFast("triangle", 0.4, rng=4),
    ])
    def test_dynamic_baselines_bit_identical(self, sampler_factory):
        events = dynamic_stream(500, seed=18)
        one = sampler_factory()
        two = sampler_factory()
        for event in events:
            one.process(event)
        two.process_batch(events)
        assert _pairwise_state(one) == _pairwise_state(two)

    @pytest.mark.parametrize("sampler_factory", [
        lambda: GPSA("triangle", 40, GPSHeuristicWeight(), rng=9),
        lambda: ThinkD("triangle", 40, rng=9),
        lambda: Triest("triangle", 40, rng=9),
        lambda: ThinkDFast("triangle", 0.4, rng=9),
    ])
    def test_batch_boundaries_do_not_matter(self, sampler_factory):
        events = dynamic_stream(500, seed=13)
        one = sampler_factory()
        two = sampler_factory()
        one.process_batch(events)
        for chunk_start in range(0, len(events), 37):
            two.process_batch(events[chunk_start:chunk_start + 37])
        assert _pairwise_state(one) == _pairwise_state(two)

    def test_thinkd_observer_fallback_same_estimate(self):
        events = dynamic_stream(300, seed=21)
        plain = ThinkD("triangle", 40, rng=5)
        observed = ThinkD("triangle", 40, rng=5)
        log = []
        observed.instance_observers.append(
            lambda trigger, inst, value: log.append(value)
        )
        plain.process_batch(events)
        observed.process_batch(events)
        # The observer path sums 1/p per instance while the count path
        # computes count/p — same value up to float associativity.
        assert plain.estimate == pytest.approx(observed.estimate, rel=1e-12)
        assert log  # the fallback path still emits

    @pytest.mark.parametrize("sampler_cls", [ThinkD, Triest])
    def test_batched_duplicate_insert_guard(self, sampler_cls):
        """The batched RP loops enforce the same duplicate-insertion
        guard as RandomPairingReservoir.insert — raised before any
        reservoir mutation, like the per-event path."""
        from repro.errors import EdgeExistsError

        events = [
            EdgeEvent.insertion(1, 2),
            EdgeEvent.insertion(2, 3),
            EdgeEvent.insertion(1, 2),  # infeasible re-insertion
        ]
        sampler = sampler_cls("triangle", 10, rng=0)
        with pytest.raises(EdgeExistsError):
            sampler.process_batch(events)
        rp = sampler._rp
        assert len(rp._items) == len(set(rp._items)) == 2
        assert rp.population == 2

    def test_process_stream_routes_through_batch(self):
        events = dynamic_stream(300, seed=19)
        one = WSD("triangle", 30, GPSHeuristicWeight(), rng=1)
        two = WSD("triangle", 30, GPSHeuristicWeight(), rng=1)
        for event in events:
            one.process(event)
        assert two.process_stream(events) == one.estimate
