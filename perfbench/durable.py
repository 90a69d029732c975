"""durable-sharded-hubs: restart a durable two-shard stream and keep feeding it.

End to end (``run``): the service runs with ``--backend process
--state-dir D --wal-spill N`` and no checkpoint thread; the stream is
WSD-H/triangle in partition mode over two shards, with a budget large
enough that hub vertices hold arena slabs in every shard.

1. Untimed prep: fill the reservoir through the service, checkpoint,
   stop the service with SIGINT.
2. Restart on the same state dir; ``setup_s`` is restart until the
   first reply (the restore), taken over several restarts.
3. Continue the stream in 8192-event frames with a durable
   ``checkpoint()`` every fixed number of events. After the first frame
   of each cycle the generator sends a ``stats`` query on the same
   connection: a barrier, so its latency is the time until that frame
   is readable.

The layer ladder replays the same frames through routing, the shard
kernels, the serial and process executors, a durable session, the
checkpoint codec and restore, and the served top rung.
"""

from __future__ import annotations

import time
from statistics import median

import repro
from repro.estimators.combine import combine_partition
from repro.experiments.algorithms import make_sampler
from repro.patterns.matching import get_pattern
from repro.samplers.checkpoint import (
    restore_sampler,
    sampler_state_dict,
    state_from_wire,
    state_to_wire,
)
from repro.streams.executor import (
    ExecutorOptions,
    ShardedStreamExecutor,
    default_shard_key,
    partition_block,
)
from repro.streams.ingest import ServiceClient
from repro.streams.service import StreamConfig, StreamSession
from repro.utils.rng import derive_seed, spawn_generators

from inputs import exact_counts, frames, light_stream, windowed_are_pct

SHARDS = 2
STREAM = "hubs"
#: Nominal seconds one ingest-plus-checkpoint cycle takes; sizes the run.
CYCLE_SECONDS = 1.25
RESTARTS = 3
PROCESS = ExecutorOptions(backend="process")


class Inputs:
    """The hub-heavy stream, split into prep and timed frames."""

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        if smoke:
            self.frame, budget, self.spill, self.every, self.window = 1024, 4_000, 512, 2_048, 256
            prep_frames, cycles, m = 4, 2, 20
        else:
            self.frame, budget, self.spill, self.every, self.window = 8192, 60_000, 16_384, 65_536, 512
            prep_frames, cycles, m = 12, 2 * max(2, round(seconds / CYCLE_SECONDS / 2)), 40
        self.prep_events = prep_frames * self.frame
        total = self.prep_events + cycles * self.every
        vertices = total // (m - 1) + 200
        self.stream = light_stream(seed, "hubs", vertices, m, 0.3, 0.05)[:total]
        self.config = StreamConfig(
            algorithm="WSD-H", pattern="triangle", budget=budget,
            seed=derive_seed(seed, "hubs-config"), shards=SHARDS,
        )
        self.service_args = (
            "--backend", "process", "--wal-spill", str(self.spill), "--checkpoint-interval", "0",
        )

    @property
    def prep_frames(self):
        return frames(self.stream[:self.prep_events], self.frame)

    @property
    def cycles(self):
        timed = self.stream[self.prep_events:]
        return [frames(timed[start:start + self.every], self.frame)
                for start in range(0, len(timed), self.every)]


def reference(inputs: Inputs) -> dict:
    """Serial in-process session: estimates per window, exact counts, ARE."""
    counts = exact_counts(inputs.stream)
    trajectory = {0: 0.0}
    clock = 0
    with repro.open_stream(inputs.config, name=STREAM) as session:
        for chunk in frames(inputs.stream, inputs.window):
            session.ingest(chunk)
            clock += len(chunk)
            trajectory[clock] = session.queries.estimate()
    clocks = sorted(trajectory)
    return {
        "trajectory": trajectory,
        "are_pct": windowed_are_pct([trajectory[c] for c in clocks], [counts[c] for c in clocks]),
    }


def stop(checks, service) -> None:
    """SIGINT the service; anything but a clean exit is a failed operation."""
    code = service.stop()
    checks.check(code == 0, f"service exited {code} on SIGINT:\n{service.log_tail()}")


def serve(run, inputs: Inputs, restarts: int) -> dict:
    tracer = run.tracer
    checks = run.checks
    args = ("--state-dir", str(run.tmp / "state"), *inputs.service_args)

    service = run.service(*args)
    client = ServiceClient(service.address)
    client.create_stream(STREAM, inputs.config)
    prep = inputs.prep_frames
    for frame in prep:
        client.send_block(frame)
    reply = client.checkpoint()
    checks.ops(len(prep) + 2)
    checks.check(reply["clock"] == inputs.prep_events, f"prep checkpoint clock {reply['clock']}")
    prep_estimate = client.estimate()
    client.close()
    stop(checks, service)

    setup_s = []
    for attempt in range(restarts):
        service = run.service(*args)
        client = ServiceClient(service.address)
        client.attach(STREAM)
        with tracer.span("service.restore"):
            stats = client.stats()
        setup_s.append(time.perf_counter() - service.started)
        checks.check(stats["estimate"] == prep_estimate and stats["clock"] == inputs.prep_events,
                     f"restart {attempt}: first reply {stats['clock']}/{stats['estimate']!r}, "
                     f"last checkpoint {inputs.prep_events}/{prep_estimate!r}")
        if attempt < restarts - 1:
            client.close()
            stop(checks, service)

    cpu_before = service.cpu_seconds()
    window_began = time.perf_counter()
    checkpoint_ms, query_ms, seen = [], [], []
    sent = inputs.prep_events
    for cycle in inputs.cycles:
        for index, frame in enumerate(cycle, start=1):
            with tracer.span("ingest.send_block"):
                client.send_block(frame)
            sent += len(frame)
            # Only the first frame after a checkpoint: the pipeline is
            # empty and no WAL spill (an fsynced write) is due yet.
            # Queries behind pipelined frames and spills varied 2x
            # between runs.
            if index == 1:
                asked = time.perf_counter()
                with tracer.span("queries.stats"):
                    stats = client.stats()
                query_ms.append((time.perf_counter() - asked) * 1000.0)
                seen.append(stats)
                checks.check(stats["clock"] == sent, f"stats clock {stats['clock']} != {sent}")
        mark = time.perf_counter()
        with tracer.span("service.checkpoint"):
            reply = client.checkpoint()
        checkpoint_ms.append((time.perf_counter() - mark) * 1000.0)
        checks.ops(len(cycle))
        checks.check(reply["clock"] == sent, f"checkpoint clock {reply['clock']} != {sent}")
    clock = client.time()
    checks.check(clock == len(inputs.stream), f"final clock {clock} != {len(inputs.stream)}")
    result = {
        "setup_s": setup_s,
        "events_per_s": (sent - inputs.prep_events) / (time.perf_counter() - window_began),
        "checkpoint_ms": checkpoint_ms,
        "query_ms": query_ms,
        "stats": seen,
        "estimate": client.estimate(),
        "server_cpu_s": service.cpu_seconds() - cpu_before,
        "peak_rss_mb": service.peak_rss_mb(),
        "timed_events": sent - inputs.prep_events,
    }
    client.close()
    stop(checks, service)
    tracer.count("events", len(inputs.stream))
    tracer.count("checkpoints", len(checkpoint_ms) + 1)
    tracer.count("queries", len(query_ms))
    return result


def pair_median(values: list[float]) -> float:
    """Median over consecutive pairs of their means.

    The service's checkpoints alternate slow and fast (cause not
    established), so a plain median sits on the edge between the two
    and jumps; each pair holds one of each.
    """
    return median([(a + b) / 2 for a, b in zip(values[::2], values[1::2])])


def check_served(run, served: dict, ref: dict) -> None:
    trajectory = ref["trajectory"]
    run.checks.check(served["estimate"] == trajectory[max(trajectory)],
                     f"served estimate {served['estimate']!r} != serial {trajectory[max(trajectory)]!r}")
    for stats in served["stats"]:
        expected = trajectory.get(stats["clock"])
        run.checks.check(expected == stats["estimate"],
                         f"stats at clock {stats['clock']}: {stats['estimate']!r} != {expected!r}")


def run(run) -> None:
    inputs = Inputs(run.seed, run.seconds, run.smoke)
    served = serve(run, inputs, RESTARTS)
    ref = reference(inputs)
    check_served(run, served, ref)
    run.record["durable"] = {key: served[key] for key in ("setup_s", "checkpoint_ms", "query_ms")}
    run.metric("events_per_s", served["events_per_s"], "events/s")
    run.metric("query_p50_ms", median(served["query_ms"]), "ms")
    run.metric("checkpoint_p50_ms", pair_median(served["checkpoint_ms"]), "ms")
    run.metric("are_pct", ref["are_pct"], "%")
    run.metric("setup_s", median(served["setup_s"]), "s")
    run.metric("peak_rss_mb", served["peak_rss_mb"], "MB")


def _per_event(seconds: float, inputs: Inputs) -> float:
    return seconds / len(inputs.stream) * 1e6


def ladder(run, name: str) -> None:
    inputs = Inputs(run.seed, run.seconds, run.smoke)
    config = inputs.config
    checks = run.checks
    tracer = run.tracer
    ref = reference(inputs)
    expected = ref["trajectory"][len(inputs.stream)]

    def samplers():
        rngs = spawn_generators(derive_seed(config.seed, f"stream-{STREAM}"), SHARDS)
        return [make_sampler(config.algorithm, config.pattern, config.shard_budget(), rng=rng)
                for rng in rngs]

    # Rungs: routing, then the shard kernels on the routed buckets.
    all_frames = frames(inputs.stream, inputs.frame)
    with tracer.span("streams.executor.route"):
        began = time.perf_counter()
        routed = [partition_block(frame, SHARDS, default_shard_key) for frame in all_frames]
        route_s = time.perf_counter() - began
    shards = samplers()
    with tracer.span("samplers.kernel"):
        began = time.perf_counter()
        for buckets in routed:
            for shard, bucket in zip(shards, buckets):
                if len(bucket):
                    shard.process_batch(bucket)
        kernel_s = time.perf_counter() - began
    merged = combine_partition([s.estimate for s in shards], SHARDS, get_pattern(config.pattern).num_edges)
    checks.check(merged == expected, "kernel rung estimate differs from the served one")

    # Rungs: serial executor, then the process backend (ingest + barrier).
    def executor(options: ExecutorOptions) -> ShardedStreamExecutor:
        replicas = samplers()
        return ShardedStreamExecutor(lambda index: replicas[index], SHARDS, options=options)

    # Executor and session rungs take a barrier at every checkpoint cut,
    # timed, so worker pipelines drain alike; the checkpoint itself is not.
    def fed(ingest, barrier, at_cut=lambda: None) -> float:
        elapsed, clock = 0.0, 0
        for frame in all_frames:
            began = time.perf_counter()
            ingest(frame)
            clock += len(frame)
            if clock >= inputs.prep_events and (clock - inputs.prep_events) % inputs.every == 0:
                barrier()
                elapsed += time.perf_counter() - began
                at_cut()
            else:
                elapsed += time.perf_counter() - began
        return elapsed

    serial = executor(ExecutorOptions())
    with tracer.span("streams.executor"):
        serial_s = fed(serial.ingest, lambda: serial.time)
    checks.check(serial.estimate == expected, "serial executor rung estimate differs")
    workers = executor(PROCESS)
    try:
        with tracer.span("streams.workers"):
            workers_s = fed(workers.ingest, lambda: workers.time)
            estimate = workers.estimate
    finally:
        workers.close()
    checks.check(estimate == expected, "process executor rung estimate differs")

    # Rung: durable session (process backend, state dir, WAL spill).
    state_dir = run.tmp / "ladder-state"
    session = StreamSession(STREAM, config, options=PROCESS, state_dir=state_dir,
                            wal_spill_events=inputs.spill)
    spilled, checkpoint_ms = 0, []

    def checkpoint() -> None:
        nonlocal spilled
        spilled += session.wal_stats()["spilled_events"]
        began = time.perf_counter()
        session.checkpoint()
        checkpoint_ms.append((time.perf_counter() - began) * 1000.0)

    try:
        with tracer.span("streams.service"):
            session_s = fed(session.ingest, session.queries.time, checkpoint)
            estimate = session.queries.estimate()
    finally:
        session.close()
    checks.check(estimate == expected, "durable session rung estimate differs")
    began = time.perf_counter()
    restored = StreamSession.restore(STREAM, state_dir, options=PROCESS, wal_spill_events=inputs.spill)
    restore_s = time.perf_counter() - began
    try:
        checks.check(restored.queries.estimate() == expected, "restored session estimate differs")
    finally:
        restored.close()

    # The checkpoint codec, per shard.
    codec = {"state_dict": [], "encode": [], "decode": [], "restore": []}
    for shard in shards:
        with tracer.span("samplers.checkpoint"):
            t0 = time.perf_counter()
            state = sampler_state_dict(shard)
            t1 = time.perf_counter()
            blob = state_to_wire(state)
            t2 = time.perf_counter()
            decoded = state_from_wire(blob)
            t3 = time.perf_counter()
            copy = restore_sampler(decoded, shard.weight_fn)
            t4 = time.perf_counter()
        for key, start, end in (("state_dict", t0, t1), ("encode", t1, t2),
                                ("decode", t2, t3), ("restore", t3, t4)):
            codec[key].append((end - start) * 1000.0)
        checks.check(copy.estimate == shard.estimate, "checkpoint round trip changed a shard")

    # Top rung: the end-to-end shape (one restart), traced.
    top_began = time.perf_counter()
    with tracer.span("top"):
        served = serve(run, inputs, 1)
    top_wall = time.perf_counter() - top_began
    check_served(run, served, ref)

    p = name + "."
    route_us = _per_event(route_s, inputs)
    kernel_us = _per_event(kernel_s, inputs)
    run.metric(p + "executor.route_us_per_event", route_us, "us/event")
    run.metric(p + "kernel.us_per_event", kernel_us, "us/event")
    run.metric(p + "executor.us_per_event", _per_event(serial_s, inputs) - route_us - kernel_us,
               "us/event")
    run.metric(p + "workers.us_per_event", _per_event(workers_s - serial_s, inputs), "us/event")
    run.metric(p + "service.us_per_event", _per_event(session_s - workers_s, inputs), "us/event")
    run.metric(p + "wal.spilled_events", spilled, "count")
    run.metric(p + "checkpoint.state_dict_ms", median(codec["state_dict"]), "ms")
    run.metric(p + "checkpoint.encode_ms", median(codec["encode"]), "ms")
    run.metric(p + "checkpoint.decode_ms", median(codec["decode"]), "ms")
    run.metric(p + "checkpoint.restore_ms", median(codec["restore"]), "ms")
    run.metric(p + "service.checkpoint_ms", median(checkpoint_ms), "ms")
    run.metric(p + "service.restore_s", restore_s, "s")
    run.metric(p + "queries.max_ms", max(served["query_ms"]), "ms")
    run.metric(p + "server.cpu_us_per_event", served["server_cpu_s"] / served["timed_events"] * 1e6,
               "us/event")
    run.metric(p + "arena.slabbed_vertices",
               sum(len(s.sampled_graph.slabbed_vertices()) for s in shards), "count")
    run.metric(p + "trace.events_per_s", served["events_per_s"], "events/s")
    spans = tracer.spans_named("ingest.") + tracer.spans_named("queries.")
    run.metric(p + "trace.overhead_pct", spans * tracer.cost_per_span() / top_wall * 100, "%")
