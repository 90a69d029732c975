"""WSD-L serving parity: context path == block path == batched.

Three trajectory-level contracts for the learned weight on the fast
path:

1. the legacy context path (``block_serving=False``) and the block path
   draw the *same sampling trajectory* under a fixed seed — identical
   reservoirs, weights, and thresholds; the estimates agree up to the
   estimator's float regrouping (well under the 1e-6 tripwire);
2. per-event and batched ingestion of a block-served WSD-L sampler are
   bit-identical (same contract every other weight function has);
3. a v4 checkpoint embeds the frozen actor and the arrival-time
   aggregates, restores *without* the caller re-supplying the weight
   function, and continues bit-identically — including through the
   process-backend sharded executor.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.stream import EdgeEvent, EventBlock
from repro.rl.policy import FrozenPolicy, Policy
from repro.samplers.checkpoint import restore_sampler, sampler_state_dict
from repro.samplers.gps import GPS
from repro.samplers.gps_a import GPSA
from repro.samplers.wsd import WSD
from repro.streams.executor import ExecutorOptions, ShardedStreamExecutor
from repro.utils.rng import spawn_generators
from repro.weights.features import state_dimension
from repro.weights.learned import LearnedWeight

PATTERN_EDGES = {"wedge": 2, "triangle": 3, "4-clique": 6}


def dynamic_stream(num_events=800, num_vertices=40, deletion_fraction=0.3,
                   seed=0):
    rng = np.random.default_rng(seed)
    alive = []
    events = []
    while len(events) < num_events:
        if alive and rng.random() < deletion_fraction:
            i = int(rng.integers(len(alive)))
            events.append(EdgeEvent.deletion(*alive.pop(i)))
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


def learned_weight(pattern, agg="max", block_serving=None):
    dim = state_dimension(PATTERN_EDGES[pattern])
    policy = FrozenPolicy(np.linspace(0.05, 0.45, dim), 0.1)
    return LearnedWeight(
        policy, temporal_aggregation=agg, block_serving=block_serving
    )


def make_sampler(pattern, agg="max", block_serving=None, cls=WSD, seed=7,
                 arena_cutoff=None):
    sampler = cls(
        pattern, 40, learned_weight(pattern, agg, block_serving),
        rng=np.random.default_rng(seed),
    )
    if arena_cutoff is not None:
        graph = sampler._sampled_graph
        graph.enable_arena(
            graph._payload_fn, cutoff=arena_cutoff,
            payload2_fn=graph._payload2_fn,
        )
    return sampler


def trajectory_of(sampler):
    return (
        dict(sampler._reservoir.items()),
        dict(sampler._edge_weights),
        sampler.threshold,
        sampler.time,
    )


class TestServingParity:
    @pytest.mark.parametrize("agg", ["max", "avg"])
    @pytest.mark.parametrize("pattern", sorted(PATTERN_EDGES))
    def test_context_and_block_paths_draw_same_trajectory(
        self, pattern, agg
    ):
        events = dynamic_stream(seed=11)
        ctx = make_sampler(pattern, agg, block_serving=False)
        blk = make_sampler(pattern, agg, block_serving=True)
        for event in events:
            ctx.process(event)
            blk.process(event)
        assert trajectory_of(ctx) == trajectory_of(blk)
        # Identical trajectory, so the estimates differ only by the
        # float grouping of the estimator walks. The A/B tripwire
        # budget is 1e-6 relative; measured residue is ~1e-12.
        denom = max(abs(ctx.estimate), 1.0)
        assert abs(ctx.estimate - blk.estimate) / denom <= 1e-6

    @pytest.mark.parametrize("agg", ["max", "avg"])
    @pytest.mark.parametrize("pattern", sorted(PATTERN_EDGES))
    def test_per_event_equals_batched(self, pattern, agg):
        events = dynamic_stream(seed=13)
        per_event = make_sampler(pattern, agg)
        batched = make_sampler(pattern, agg)
        for event in events:
            per_event.process(event)
        batched.process_batch(EventBlock.from_events(events))
        assert trajectory_of(per_event) == trajectory_of(batched)
        assert per_event.estimate == batched.estimate

    @pytest.mark.parametrize("cls", [GPS, GPSA])
    def test_kernel_variants_per_event_equals_batched(self, cls):
        # GPS is insertion-only; widen the vertex pool so 800 distinct
        # insertions exist (40 vertices only have 780 pairs).
        frac = 0.0 if cls is GPS else 0.3
        events = dynamic_stream(
            deletion_fraction=frac, num_vertices=60, seed=17
        )
        per_event = make_sampler("wedge", cls=cls)
        batched = make_sampler("wedge", cls=cls)
        for event in events:
            per_event.process(event)
        batched.process_batch(EventBlock.from_events(events))
        assert trajectory_of(per_event) == trajectory_of(batched)
        assert per_event.estimate == batched.estimate

    def test_arena_slab_path_matches_scalar(self):
        """Forcing lane-2 slabs must not change the trajectory."""
        events = dynamic_stream(num_vertices=30, seed=19)
        scalar = make_sampler("triangle")
        slabbed = make_sampler("triangle", arena_cutoff=4)
        for event in events:
            scalar.process(event)
            slabbed.process(event)
        assert list(slabbed._sampled_graph.slabbed_vertices())
        assert trajectory_of(scalar)[:2] == trajectory_of(slabbed)[:2]


class TestLearnedCheckpoint:
    @pytest.mark.parametrize(
        "pattern,cls,cutoff",
        [
            ("triangle", WSD, None),
            ("triangle", WSD, 4),
            ("wedge", WSD, None),
            ("wedge", GPSA, None),
            ("4-clique", WSD, None),
        ],
    )
    def test_v4_restores_without_weight_fn(self, pattern, cls, cutoff):
        events = dynamic_stream(seed=23)
        half = len(events) // 2
        full = make_sampler(pattern, cls=cls, arena_cutoff=cutoff)
        for event in events:
            full.process(event)
        first = make_sampler(pattern, cls=cls, arena_cutoff=cutoff)
        for event in events[:half]:
            first.process(event)
        state = json.loads(json.dumps(sampler_state_dict(first)))
        assert state["format"] == 4
        assert "learned_weight" in state
        if pattern == "wedge":
            assert "arrival_tracker" in state
        restored = restore_sampler(state)
        assert isinstance(restored.weight_fn, LearnedWeight)
        assert restored.weight_fn.block_serving
        for event in events[half:]:
            restored.process(event)
        assert trajectory_of(full) == trajectory_of(restored)
        assert full.estimate == restored.estimate

    def test_batched_continuation_after_restore(self):
        events = dynamic_stream(seed=29)
        half = len(events) // 2
        full = make_sampler("wedge")
        full.process_batch(events)
        first = make_sampler("wedge")
        first.process_batch(events[:half])
        restored = restore_sampler(sampler_state_dict(first))
        restored.process_batch(events[half:])
        assert trajectory_of(full) == trajectory_of(restored)
        assert full.estimate == restored.estimate

    def test_explicit_weight_fn_wins(self):
        events = dynamic_stream(num_events=300, seed=31)
        sampler = make_sampler("wedge")
        for event in events:
            sampler.process(event)
        replacement = learned_weight("wedge", agg="avg")
        restored = restore_sampler(sampler_state_dict(sampler), replacement)
        assert restored.weight_fn is replacement

    def test_unfrozen_policy_round_trips_as_policy(self):
        dim = state_dimension(2)
        lw = LearnedWeight(Policy(np.linspace(0.05, 0.45, dim), 0.1))
        assert not lw.block_serving  # plain Policy → context path
        sampler = WSD("wedge", 40, lw, rng=np.random.default_rng(7))
        for event in dynamic_stream(num_events=300, seed=37):
            sampler.process(event)
        state = sampler_state_dict(sampler)
        assert state["learned_weight"]["frozen"] is False
        restored = restore_sampler(state)
        assert type(restored.weight_fn.policy) is Policy
        assert not restored.weight_fn.block_serving

    def test_foreign_policy_still_requires_weight_fn(self):
        class Constant:
            def action(self, state):
                return 2.0

        sampler = WSD(
            "wedge", 40, LearnedWeight(Constant()),
            rng=np.random.default_rng(7),
        )
        for event in dynamic_stream(num_events=200, seed=41):
            sampler.process(event)
        state = sampler_state_dict(sampler)
        assert "learned_weight" not in state
        with pytest.raises(ConfigurationError):
            restore_sampler(state)


class TestLearnedExecutor:
    @staticmethod
    def factory(pattern="wedge"):
        rngs = spawn_generators(123, 8)

        def make(i):
            return WSD(
                pattern, 40, learned_weight(pattern), rng=rngs[i]
            )

        return make

    def test_process_backend_matches_serial(self):
        """WSD-L shards survive the pickle → worker → checkpoint loop."""
        events = dynamic_stream(num_events=600, seed=43)
        serial = ShardedStreamExecutor(self.factory(), 2)
        process = ShardedStreamExecutor(
            self.factory(), 2, options=ExecutorOptions(backend="process")
        )
        serial.process_batch(events)
        with process:
            process.process_batch(events)
            estimate = process.estimate
            shard_estimates = process.shard_estimates()
        assert estimate == serial.estimate
        assert shard_estimates == serial.shard_estimates()

    def test_shard_restart_continues_bit_identically(self):
        """Crash-restart from the v4 snapshot: the restarted shard's
        replica is rebuilt from the checkpointed actor, not the pickled
        weight function."""
        events = dynamic_stream(num_events=600, seed=47)
        half = len(events) // 2
        reference = ShardedStreamExecutor(self.factory(), 2)
        reference.process_batch(events)
        executor = ShardedStreamExecutor(self.factory(), 2)
        executor.process_batch(events[:half])
        snapshot = executor.snapshot()
        for index, state in enumerate(snapshot):
            state = json.loads(json.dumps(state))
            executor.shards[index] = restore_sampler(state)
        executor.process_batch(events[half:])
        assert executor.estimate == reference.estimate
