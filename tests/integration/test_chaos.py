"""Chaos soak: seeded fault plans end bit-equal to a serial run.

The self-healing claim, tested systematically: install a deterministic
:class:`FaultPlan` (kills, drops, corrupted and truncated frames,
worker-process murders at event thresholds), feed the stream through a
supervised process-backend session with **zero caller-side recovery
code**, and the final estimate must be bit-equal to a serial run of
the same seeded stream. Past the recovery policy's failure budget the
session must fail *deterministically* with the typed
:class:`ShardUnrecoverableError` rather than hang or corrupt.
"""

import pytest

from repro.errors import ShardUnrecoverableError
from repro.graph.generators import powerlaw_cluster
from repro.streams import build_stream
from repro.streams.executor import ExecutorOptions
from repro.streams.faults import Fault, FaultPlan
from repro.streams.service import StreamConfig, StreamSession
from repro.streams.supervisor import RecoveryPolicy


@pytest.fixture(scope="module")
def events():
    edges = powerlaw_cluster(200, m=4, triangle_probability=0.6, rng=0)
    return list(build_stream(edges, "light", beta=0.2, rng=1))


CONFIG = StreamConfig(
    algorithm="WSD-H",
    pattern="triangle",
    budget=300,
    seed=11,
    shards=2,
    mode="partition",
)

#: Fast backoff so a soak of many incidents stays seconds-scale.
FAST_RECOVERY = RecoveryPolicy(
    backoff_base=0.01, backoff_max=0.05, failure_budget=64
)


def serial_reference(events, name):
    session = StreamSession(name, CONFIG)
    try:
        session.ingest(events)
        return session.queries.estimate()
    finally:
        session.close()


def run_under_plan(events, name, plan, *, policy=FAST_RECOVERY, step=128):
    """The whole caller-side story: open, drive, read. No recovery code."""
    with plan:
        session = StreamSession(
            name,
            CONFIG,
            options=ExecutorOptions(
                backend="process", recovery_policy=policy
            ),
        )
        try:
            plan.drive(session, events, step=step)
            estimate = session.queries.estimate()
            stats = session.supervisor.stats()
        finally:
            session.close()
    return estimate, stats


class TestChaosMatrix:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_transport_faults_end_bit_equal(self, events, seed):
        name = f"chaos-{seed}"
        reference = serial_reference(events, name)
        plan = FaultPlan.random(
            seed, num_shards=CONFIG.shards, max_send=6, count=2
        )
        estimate, stats = run_under_plan(events, name, plan)
        assert estimate == reference
        # Deaths were healed by the supervisor, not by luck. (One
        # incident can heal several faults — a cascade discovered
        # during replay stays a single recovery.)
        deaths = [f for f in plan.fired if f["kind"] in ("kill", "drop")]
        if deaths:
            assert stats["recoveries"] >= 1
            assert (
                sum(stats["failures"]) + stats["anonymous_failures"]
                >= len(deaths)
            )

    def test_worker_murder_at_event_thresholds(self, events):
        name = "chaos-murder"
        reference = serial_reference(events, name)
        plan = FaultPlan(
            [
                Fault("kill_worker", shard=0, at_event=128),
                Fault("kill_worker", shard=1, at_event=384),
            ]
        )
        estimate, stats = run_under_plan(events, name, plan)
        assert estimate == reference
        assert len(plan.fired) == 2
        assert stats["recoveries"] >= 1

    def test_mixed_plan_with_payload_mangling(self, events):
        name = "chaos-mixed"
        reference = serial_reference(events, name)
        plan = FaultPlan(
            [
                Fault("corrupt", shard=0, at_send=1),
                Fault("truncate", shard=1, at_send=2),
                Fault("kill_worker", shard=1, at_event=256),
            ]
        )
        estimate, _ = run_under_plan(events, name, plan)
        assert estimate == reference
        assert {f["kind"] for f in plan.fired} == {
            "corrupt",
            "truncate",
            "kill_worker",
        }

    def test_the_same_plan_replays_identically(self, events):
        name = "chaos-replay"
        reference = serial_reference(events, name)
        first, _ = run_under_plan(
            events, name, FaultPlan.random(9, num_shards=2, max_send=6)
        )
        second, _ = run_under_plan(
            events, name, FaultPlan.random(9, num_shards=2, max_send=6)
        )
        assert first == second == reference


class TestFailureBudget:
    def make_plan(self):
        return FaultPlan(
            [
                Fault("kill", shard=0, at_send=1),
                Fault("kill", shard=0, at_send=3),
                Fault("kill", shard=0, at_send=5),
            ]
        )

    def run_to_exhaustion(self, events):
        policy = RecoveryPolicy(
            backoff_base=0.01, backoff_max=0.05, failure_budget=2
        )
        with self.make_plan():
            session = StreamSession(
                "chaos-budget",
                CONFIG,
                options=ExecutorOptions(
                    backend="process", recovery_policy=policy
                ),
            )
            try:
                with pytest.raises(ShardUnrecoverableError) as excinfo:
                    for start in range(0, len(events), 64):
                        session.ingest(events[start:start + 64])
                    session.queries.estimate()
                return excinfo.value
            finally:
                session.close()

    def test_exhaustion_is_typed_and_deterministic(self, events):
        first = self.run_to_exhaustion(events)
        second = self.run_to_exhaustion(events)
        assert first.shard_index == second.shard_index == 0
        assert type(first) is type(second) is ShardUnrecoverableError
        assert first.failures == second.failures
