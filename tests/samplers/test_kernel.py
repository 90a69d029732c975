"""Tests for the composable sampler kernel layer.

The architecture contract: every sampler instantiates one of the two
kernels, routes its insertion/deletion/estimation through the shared
machinery, and inherits the kernel's batched fast paths — the
per-sampler modules contribute only reservoir policy.
"""

import copy
import pickle

import pytest

from repro.errors import EdgeExistsError, SamplerError
from repro.graph.stream import EdgeEvent
from repro.samplers import (
    GPS,
    GPSA,
    WRS,
    PairingSamplerKernel,
    ThinkD,
    ThinkDFast,
    ThresholdSamplerKernel,
    Triest,
    WSD,
)
from repro.samplers.base import SubgraphCountingSampler
from repro.weights.heuristic import GPSHeuristicWeight, UniformWeight

from tests.samplers.test_fastpath import dynamic_stream


def make_all(pattern="triangle", budget=40, rng=0):
    return {
        "wsd": WSD(pattern, budget, GPSHeuristicWeight(), rng=rng),
        "gps": GPS(pattern, budget, GPSHeuristicWeight(), rng=rng),
        "gps-a": GPSA(pattern, budget, GPSHeuristicWeight(), rng=rng),
        "thinkd": ThinkD(pattern, budget, rng=rng),
        "triest": Triest(pattern, budget, rng=rng),
        "wrs": WRS(pattern, budget, rng=rng),
        "thinkd-fast": ThinkDFast(pattern, 0.4, rng=rng),
    }


class TestArchitecture:
    def test_threshold_samplers_share_the_kernel(self):
        samplers = make_all()
        for name in ("wsd", "gps", "gps-a"):
            assert isinstance(samplers[name], ThresholdSamplerKernel)

    def test_pairing_samplers_share_the_kernel(self):
        samplers = make_all()
        for name in ("thinkd", "triest", "wrs"):
            assert isinstance(samplers[name], PairingSamplerKernel)
            assert samplers[name]._rp is not None

    def test_every_sampler_is_a_subgraph_counting_sampler(self):
        for sampler in make_all().values():
            assert isinstance(sampler, SubgraphCountingSampler)

    def test_kernel_insert_is_abstract(self):
        class HalfPolicy(ThresholdSamplerKernel):
            def _process_deletion(self, edge):  # pragma: no cover
                pass

        kernel = HalfPolicy("triangle", 10, UniformWeight(), rng=0)
        with pytest.raises(NotImplementedError):
            kernel.process(EdgeEvent.insertion(1, 2))

    def test_wsd_threshold_aliases(self):
        sampler = WSD("triangle", 10, UniformWeight(), rng=0)
        for event in dynamic_stream(200, num_vertices=15, seed=2):
            sampler.process(event)
        assert sampler.tau_q == sampler.threshold
        assert sampler.tau_q_generation == sampler.threshold_generation


class TestThresholdGenerations:
    """The generation counter bumps exactly on threshold changes — the
    memo-invalidation contract, now shared by all threshold kernels."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: GPS("triangle", 20, GPSHeuristicWeight(), rng=1),
            lambda: GPSA("triangle", 20, GPSHeuristicWeight(), rng=1),
        ],
        ids=["gps", "gps-a"],
    )
    def test_generation_tracks_threshold_changes(self, factory):
        sampler = factory()
        deletions = 0.0 if isinstance(sampler, GPS) else 0.3
        threshold = sampler.threshold
        generation = sampler.threshold_generation
        assert generation == 0
        for event in dynamic_stream(
            400, num_vertices=40, deletion_fraction=deletions, seed=3
        ):
            sampler.process(event)
            if sampler.threshold != threshold:
                assert sampler.threshold_generation == generation + 1
                threshold = sampler.threshold
                generation = sampler.threshold_generation
            else:
                assert sampler.threshold_generation == generation

    def test_memo_consistent_after_invalidation(self):
        sampler = GPS("triangle", 15, GPSHeuristicWeight(), rng=5)
        for event in dynamic_stream(
            300, num_vertices=40, deletion_fraction=0.0, seed=6
        ):
            sampler.process(event)
        for edge in sampler.sampled_edges():
            expected = sampler.rank_fn.inclusion_probability(
                sampler.sampled_weight(edge), sampler.threshold
            )
            assert sampler.inclusion_probability(edge) == expected


class TestSharedBehaviour:
    def test_gps_rejects_deletions_in_batch(self):
        sampler = GPS("triangle", 20, GPSHeuristicWeight(), rng=0)
        events = [
            EdgeEvent.insertion(1, 2),
            EdgeEvent.insertion(2, 3),
            EdgeEvent.deletion(1, 2),
        ]
        with pytest.raises(SamplerError):
            sampler.process_batch(events)
        # The failing event was still clocked, like per-event processing.
        assert sampler.time == 3

    def test_capture_context_now_available_on_gps_family(self):
        events = dynamic_stream(200, deletion_fraction=0.0, seed=7)
        sampler = GPSA(
            "triangle", 30, GPSHeuristicWeight(), rng=2, capture_context=True
        )
        for event in events:
            sampler.process(event)
        assert sampler.last_context is not None
        assert sampler.last_weight is not None

    def test_base_batch_default_matches_process(self):
        """The reworked base-class batched driver (used by WRS and any
        custom sampler) stays bit-identical to per-event processing."""
        events = dynamic_stream(400, seed=8)
        one = WRS("triangle", 50, rng=3)
        two = WRS("triangle", 50, rng=3)
        for event in events:
            one.process(event)
        two.process_batch(events)
        assert one.estimate == two.estimate
        assert one.time == two.time
        assert sorted(map(repr, one.sampled_edges())) == sorted(
            map(repr, two.sampled_edges())
        )


class TestRouting:
    """``process(e)`` runs the ingestion loop unless a reference-path
    condition holds; both entry points route the same way."""

    def test_unknown_policy_raises_on_both_entry_points(self):
        class UnknownPolicy(ThresholdSamplerKernel):
            _policy = 99

            def _process_deletion(self, edge):  # pragma: no cover
                pass

        for feed in ("process", "process_batch"):
            kernel = UnknownPolicy("triangle", 10, UniformWeight(), rng=0)
            event = EdgeEvent.insertion(1, 2)
            with pytest.raises(NotImplementedError):
                if feed == "process":
                    kernel.process(event)
                else:
                    kernel.process_batch([event])

    def test_loop_then_reference_then_batches(self):
        # 40 vertices: no vertex can reach the arena's slab degree, so
        # the reference path's scalar sums group like the loop's.
        events = dynamic_stream(900, num_vertices=40, seed=11)
        one = WSD("triangle", 60, GPSHeuristicWeight(), rng=5)
        twin = WSD("triangle", 60, GPSHeuristicWeight(), rng=5)

        def state(s):
            return (
                s.estimate, s.threshold, s.tau_p, s.time,
                sorted(s._reservoir.items()),
            )

        for event in events[:300]:
            one.process(event)
        assert one._loop_plan() is not None
        twin.process_batch(events[:300])
        assert state(one) == state(twin)

        seen = []
        one.instance_observers.append(
            lambda trigger, instance, value: seen.append(value)
        )
        assert one._loop_plan() is None
        start = one.estimate
        for event in events[300:600]:
            one.process(event)
        one.instance_observers.clear()
        assert seen
        assert sum(seen) == pytest.approx(one.estimate - start, rel=1e-12)
        twin.process_batch(events[300:600])
        assert state(one) == state(twin)

        for i in range(600, len(events), 128):
            one.process_batch(events[i:i + 128])
        twin.process_batch(events[600:])
        assert state(one) == state(twin)

    def test_copies_mid_stream_continue_bit_identically(self):
        # Exponential ranks keep the wedge loop on the probability memo,
        # which a copy must not share with the original.
        events = dynamic_stream(900, num_vertices=40, seed=11)
        one = WSD(
            "wedge", 60, GPSHeuristicWeight(), rank_fn="exponential", rng=5
        )
        for event in events[:450]:
            one.process(event)
        copies = [copy.deepcopy(one), pickle.loads(pickle.dumps(one))]
        for sampler in [one, *copies]:
            sampler.process_batch(events[450:])
        assert [c.estimate for c in copies] == [one.estimate] * 2


class TestSecondInsertionOfASampledEdge:
    """Re-inserting an edge that is still sampled is an
    :class:`EdgeExistsError` on every sampler and both entry points.

    With a full reservoir the threshold samplers (WSD, GPS) only notice
    when the edge's new rank wins a slot — otherwise it is discarded
    like any losing rank — so each case runs over a few seeds.
    """

    PREFIX = [EdgeEvent.insertion(u, v) for u, v in ((0, 1), (1, 2), (0, 2))]
    FACTORIES = {
        "wsd": lambda budget, rng: WSD(
            "triangle", budget, UniformWeight(), rng=rng
        ),
        "gps": lambda budget, rng: GPS(
            "triangle", budget, UniformWeight(), rng=rng
        ),
        "gps-a": lambda budget, rng: GPSA(
            "triangle", budget, UniformWeight(), rng=rng
        ),
        "thinkd": lambda budget, rng: ThinkD("triangle", budget, rng=rng),
        "triest": lambda budget, rng: Triest("triangle", budget, rng=rng),
        "wrs": lambda budget, rng: WRS("triangle", budget, rng=rng),
    }

    @pytest.mark.parametrize("batched", [False, True], ids=["event", "batch"])
    @pytest.mark.parametrize("full", [False, True], ids=["room", "full"])
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_raises_edge_exists(self, name, full, batched):
        outcomes = set()
        for seed in range(8):
            sampler = self.FACTORIES[name](3 if full else 40, seed)
            sampler.process_batch(self.PREFIX)
            edge = next(iter(sampler.sampled_edges()))
            again = EdgeEvent.insertion(*edge)
            try:
                if batched:
                    sampler.process_batch([again])
                else:
                    sampler.process(again)
            except EdgeExistsError:
                outcomes.add("raised")
            else:
                outcomes.add("discarded")
        assert "raised" in outcomes
        if not (full and name in ("wsd", "gps")):
            assert outcomes == {"raised"}
