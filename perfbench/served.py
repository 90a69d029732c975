"""served-small-frames: 128-event frames over the socket, then writes beside reads.

End to end (``run``): a serial-backend service with no state dir and
no checkpoint thread hosts WSD-H/triangle at 4% of insertions.

* Phase A, closed loop: one connection pushes the stream as 128-event
  BLOCK frames as fast as TCP backpressure allows, then a ``time()``
  barrier. It runs once on each of several freshly spawned services
  (the set-ups), on the same stream; the rate is over all passes.
* Phase B, open loop: a fresh stream on the same service is fed at a
  fixed offered rate while a second connection sends ``stats`` barrier
  queries on a fixed schedule, each timed from when it was due.

The layer ladder (``ladder``) replays Phase A's frames through the
kernel, the serial executor, the session and the transport codec in
this process, and through the socket at 128- and 8192-event frames.
"""

from __future__ import annotations

import threading
import time
from statistics import median

import numpy as np

import repro
from repro.experiments.algorithms import make_sampler
from repro.graph.stream import EventBlock
from repro.streams.executor import ExecutorOptions, ShardedStreamExecutor
from repro.streams.ingest import ServiceClient
from repro.streams.service import StreamConfig
from repro.streams.transport import FRAME_BLOCK, block_from_frame, frame_bytes
from repro.utils.rng import derive_seed, spawn_generators

from harness import pinned
from inputs import exact_counts, frames, light_stream, tile, tiled_truth, windowed_are_pct

FRAME = 128
BIG_FRAME = 8192
#: Each Phase A pass is sized from ``--seconds`` at this rate (events/s).
NOMINAL_RATE = 150_000
PHASE_A_SHARE = 0.1
#: Share of ``--seconds`` Phase B runs for.
PHASE_B_SHARE = 0.55
#: Phase B's offered write rate (events/s) and query rate (queries/s).
OFFERED_RATE = 8_000
QUERY_RATE = 40
#: ``checkpoint()`` calls after each Phase A pass. Their times alternate
#: slow and fast within a pass, so each pass reports their mean.
CHECKPOINTS = 3
#: Service spawns per run; each runs one Phase A pass. A pass on a
#: fresh process varies by up to half from the next, so many are taken.
SETUPS = 7
#: The service runs on one CPU, so its threads hand the interpreter lock
#: over on one core; the generator runs on the other (see phase_b).
SERVICE_CPUS = {1}
GENERATOR_CPUS = {0}
#: Events per accuracy window (see :func:`inputs.windowed_are_pct`).
WINDOW = 512
STREAM_A = "served-a"
STREAM_B = "served-b"
SERVICE_ARGS = ("--checkpoint-interval", "0")


class Inputs:
    """Phase A and Phase B streams, their configs, and exact counts."""

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        base = light_stream(seed, "served", 600 if smoke else 30_000, 5, 0.6, 0.05)
        a_events = 3 * len(base) if smoke else int(seconds * PHASE_A_SHARE * NOMINAL_RATE)
        self.b_seconds = 1.0 if smoke else seconds * PHASE_B_SHARE
        self.phase_a = tile(base, a_events)
        self.phase_b = tile(base, int(self.b_seconds * OFFERED_RATE))
        self.base_counts = exact_counts(base)
        self.config_a = self._config(seed, "a", self.phase_a)
        self.config_b = self._config(seed, "b", self.phase_b)

    @staticmethod
    def _config(seed: int, label: str, block: EventBlock) -> StreamConfig:
        return StreamConfig(
            algorithm="WSD-H", pattern="triangle",
            budget=max(8, int(block.num_insertions * 0.04)),
            seed=derive_seed(seed, f"served-config-{label}"),
        )


def sleep_until(deadline: float) -> None:
    remaining = deadline - time.perf_counter()
    if remaining > 0:
        time.sleep(remaining)


def spawn_with_stream(run, name: str, config: StreamConfig):
    """Spawn the service and create one stream: the set-up users wait for."""
    service = run.service(*SERVICE_ARGS, cpus=SERVICE_CPUS)
    client = ServiceClient(service.address)
    reply = client.create_stream(name, config)
    setup = time.perf_counter() - service.started
    run.checks.check(reply["clock"] == 0, f"new stream {name} starts at clock {reply['clock']}")
    return service, client, setup


def phase_a(run, client: ServiceClient, stream_frames: list[EventBlock]) -> float:
    """Closed loop: push every frame, then barrier; the seconds it took."""
    tracer = run.tracer
    events = sum(len(frame) for frame in stream_frames)
    began = time.perf_counter()
    for frame in stream_frames:
        with tracer.span("ingest.send_block"):
            client.send_block(frame)
    with tracer.span("ingest.barrier"):
        clock = client.time()
    elapsed = time.perf_counter() - began
    run.checks.ops(len(stream_frames))
    run.checks.check(clock == events, f"phase A clock {clock} != {events} events sent")
    tracer.count("frames", len(stream_frames))
    tracer.count("events", events)
    return elapsed


def phase_b(run, service, writer: ServiceClient, inputs: Inputs) -> dict:
    """Open loop: fixed-rate writes on one connection, timed stats on another.

    The generator moves onto the service's CPU for this phase: a request
    then wakes its handler on a running core, not on an idle virtual
    CPU the host may be slow to schedule, which made the latency track
    the host's steal.
    """
    with pinned(SERVICE_CPUS):
        return _phase_b(run, service, writer, inputs)


def _phase_b(run, service, writer: ServiceClient, inputs: Inputs) -> dict:
    tracer = run.tracer
    writer.create_stream(STREAM_B, inputs.config_b)
    reader = ServiceClient(service.address)
    reader.attach(STREAM_B)
    stream_frames = frames(inputs.phase_b, FRAME)
    queries = int(inputs.b_seconds * QUERY_RATE)
    replies: list[tuple[float, float, float, dict]] = []
    errors: list[BaseException] = []
    origin = time.perf_counter() + 0.05

    def query_loop() -> None:
        try:
            for index in range(queries):
                due = origin + index / QUERY_RATE
                sleep_until(due)
                sent = time.perf_counter()
                with tracer.span("queries.stats"):
                    stats = reader.stats()
                replies.append((due, sent, time.perf_counter(), stats))
        except BaseException as exc:  # surfaced on the main thread
            errors.append(exc)

    thread = threading.Thread(target=query_loop, name="perfbench-queries")
    thread.start()
    late = 0.0
    due_events = 0
    try:
        for frame in stream_frames:
            due = origin + due_events / OFFERED_RATE
            sleep_until(due)
            late = max(late, time.perf_counter() - due)
            with tracer.span("ingest.send_block"):
                writer.send_block(frame)
            due_events += len(frame)
    finally:
        thread.join()
    reader.close()
    if errors:
        raise errors[0]
    clock = writer.time()
    run.checks.ops(len(stream_frames) + len(replies))
    run.checks.check(clock == len(inputs.phase_b), f"phase B clock {clock} != {len(inputs.phase_b)}")
    tracer.count("queries", len(replies))
    latencies = [(done - due) * 1000.0 for due, _sent, done, _stats in replies]
    late = max([late] + [sent - due for due, sent, _done, _stats in replies])
    return {
        "latencies_ms": latencies,
        "stats": [stats for *_times, stats in replies],
        "late_ms": late * 1000.0,
        "query_late_ms": [(sent - due) * 1000.0 for due, sent, _done, _stats in replies],
        "estimate": writer.estimate(),
    }


def reference_a(run, inputs: Inputs, block_size: int = FRAME, name: str = STREAM_A):
    """In-process session over Phase A: final estimate, windowed estimates, µs/event."""
    estimates = [0.0]
    truths = [0]
    elapsed = 0.0
    clock = 0
    with repro.open_stream(inputs.config_a, name=name) as session:
        for frame in frames(inputs.phase_a, block_size):
            began = time.perf_counter()
            session.ingest(frame)
            elapsed += time.perf_counter() - began
            previous, clock = clock, clock + len(frame)
            if clock // WINDOW != previous // WINDOW or clock == len(inputs.phase_a):
                estimates.append(session.queries.estimate())
                truths.append(tiled_truth(inputs.base_counts, clock))
        snapshot_ms = []
        for _ in range(3):
            began = time.perf_counter()
            session.snapshot()
            snapshot_ms.append((time.perf_counter() - began) * 1000.0)
        stats_us = []
        for _ in range(200):
            began = time.perf_counter()
            session.queries.stats()
            stats_us.append((time.perf_counter() - began) * 1e6)
        final = session.queries.estimate()
    return {
        "estimate": final,
        "are_pct": windowed_are_pct(estimates, truths),
        "us_per_event": elapsed / len(inputs.phase_a) * 1e6,
        "snapshot_ms": median(snapshot_ms),
        "stats_us": median(stats_us),
    }


def reference_b(inputs: Inputs) -> dict[int, float]:
    """In-process session over Phase B: the estimate after every frame."""
    trajectory = {0: 0.0}
    clock = 0
    with repro.open_stream(inputs.config_b, name=STREAM_B) as session:
        for frame in frames(inputs.phase_b, FRAME):
            session.ingest(frame)
            clock += len(frame)
            trajectory[clock] = session.queries.estimate()
    return trajectory


def serve(run, inputs: Inputs, setups: int) -> dict:
    """The end-to-end shape: per set-up a spawn, a Phase A pass and
    checkpoints; then Phase B on the last service."""
    a_frames = frames(inputs.phase_a, FRAME)
    setup_s, pass_s, estimates, checkpoint_ms = [], [], [], []
    for attempt in range(setups):
        service, client, seconds = spawn_with_stream(run, STREAM_A, inputs.config_a)
        setup_s.append(seconds)
        cpu_before, wall_before = service.cpu_seconds(), time.perf_counter()
        pass_s.append(phase_a(run, client, a_frames))
        cpu = service.cpu_seconds() - cpu_before
        wall = time.perf_counter() - wall_before
        estimates.append(client.estimate())
        for _ in range(CHECKPOINTS):
            began = time.perf_counter()
            with run.tracer.span("service.checkpoint"):
                reply = client.checkpoint()
            checkpoint_ms.append((time.perf_counter() - began) * 1000.0)
            run.checks.check(reply["clock"] == len(inputs.phase_a),
                             f"checkpoint clock {reply['clock']} != {len(inputs.phase_a)}")
        if attempt < setups - 1:
            client.close()
            service.stop()
    b = phase_b(run, service, client, inputs)
    return {
        "service": service,
        "client": client,
        "setup_s": setup_s,
        "events_per_s": len(inputs.phase_a) * len(pass_s) / sum(pass_s),
        "pass_s": pass_s,
        "server_cpu_s": cpu,
        "phase_a_wall_s": wall,
        "estimates_a": estimates,
        "checkpoint_ms": checkpoint_ms,
        **{f"b_{key}": value for key, value in b.items()},
    }


def check_served(run, inputs: Inputs, served: dict, ref_a: dict) -> None:
    checks = run.checks
    for estimate in served["estimates_a"]:
        checks.check(estimate == ref_a["estimate"],
                     f"phase A served estimate {estimate!r} != in-process {ref_a['estimate']!r}")
    trajectory = reference_b(inputs)
    checks.check(served["b_estimate"] == trajectory[len(inputs.phase_b)],
                 "phase B served estimate differs from the in-process reference")
    for stats in served["b_stats"]:
        expected = trajectory.get(stats["clock"])
        checks.check(expected == stats["estimate"],
                     f"stats at clock {stats['clock']}: {stats['estimate']!r} != {expected!r}")


def run(run) -> None:
    with pinned(GENERATOR_CPUS):
        _run(run)


def _run(run) -> None:
    inputs = Inputs(run.seed, run.seconds, run.smoke)
    served = serve(run, inputs, SETUPS)
    peak = served["service"].peak_rss_mb()
    served["client"].close()
    served["service"].stop()
    ref_a = reference_a(run, inputs)
    check_served(run, inputs, served, ref_a)
    latencies = served["b_latencies_ms"]
    run.record["served"] = {
        "phase_a_s": served["pass_s"], "checkpoint_ms": served["checkpoint_ms"],
        "setup_s": served["setup_s"], "query_ms": latencies, "late_ms_max": served["b_late_ms"],
        "query_late_ms": served["b_query_late_ms"],
    }
    run.metric("events_per_s", served["events_per_s"], "events/s")
    run.metric("query_p50_ms", median(latencies), "ms")
    per_pass = [served["checkpoint_ms"][start:start + CHECKPOINTS]
                for start in range(0, len(served["checkpoint_ms"]), CHECKPOINTS)]
    run.metric("checkpoint_p50_ms", median([sum(ms) / len(ms) for ms in per_pass]), "ms")
    run.metric("are_pct", ref_a["are_pct"], "%")
    run.metric("setup_s", median(served["setup_s"]), "s")
    run.metric("peak_rss_mb", peak, "MB")


def _timed_per_event(block_frames, consume) -> float:
    began = time.perf_counter()
    for frame in block_frames:
        consume(frame)
    return (time.perf_counter() - began) / sum(len(frame) for frame in block_frames) * 1e6


def ladder(run, name: str) -> None:
    with pinned(GENERATOR_CPUS):
        _ladder(run, name)


def _ladder(run, name: str) -> None:
    inputs = Inputs(run.seed, run.seconds, run.smoke)
    checks = run.checks
    a_frames = frames(inputs.phase_a, FRAME)
    config = inputs.config_a

    # Rung: kernel, with the session's derived generator.
    rng = spawn_generators(derive_seed(config.seed, f"stream-{STREAM_A}"), 1)[0]
    sampler = make_sampler(config.algorithm, config.pattern, config.shard_budget(), rng=rng)
    with run.tracer.span("samplers.kernel"):
        kernel_us = _timed_per_event(a_frames, sampler.process_batch)
    slabbed = len(sampler.sampled_graph.slabbed_vertices())

    # Rung: serial executor, one shard.
    rngs = spawn_generators(derive_seed(config.seed, f"stream-{STREAM_A}"), 1)
    executor = ShardedStreamExecutor(
        lambda index: make_sampler(config.algorithm, config.pattern, config.shard_budget(),
                                   rng=rngs[index]),
        1, options=ExecutorOptions(),
    )
    with run.tracer.span("streams.executor"):
        executor_us = _timed_per_event(a_frames, executor.ingest)

    # Rung: session (lock + WAL), at both frame sizes; doubles as the reference.
    with run.tracer.span("streams.service"):
        ref_a = reference_a(run, inputs)
        ref_big = reference_a(run, inputs, BIG_FRAME, STREAM_A + "-big")

    # Transport codec, per frame.
    payloads = [frame.to_bytes() for frame in a_frames]
    with run.tracer.span("streams.transport"):
        began = time.perf_counter()
        for frame in a_frames:
            frame_bytes(FRAME_BLOCK, frame.to_bytes())
        encode_us = (time.perf_counter() - began) / len(a_frames) * 1e6
        began = time.perf_counter()
        decoded = [block_from_frame(payload) for payload in payloads]
        decode_us = (time.perf_counter() - began) / len(a_frames) * 1e6
    checks.check(all(x == y for x, y in zip(decoded, a_frames)), "transport round trip changed a frame")

    # Top rung: the end-to-end shape, traced.
    top_began = time.perf_counter()
    with run.tracer.span("top"):
        served = serve(run, inputs, 1)
    top_wall = time.perf_counter() - top_began
    service, client = served["service"], served["client"]
    check_served(run, inputs, served, ref_a)
    for label, estimate in (("kernel", sampler.estimate), ("executor", executor.estimate)):
        checks.check(estimate == ref_a["estimate"], f"{label} rung estimate differs from served")

    # Socket at 8192-event frames, against its own session rung.
    client.create_stream(STREAM_A + "-big", config)
    big_frames = frames(inputs.phase_a, BIG_FRAME)
    began = time.perf_counter()
    for frame in big_frames:
        client.send_block(frame)
    checks.check(client.time() == len(inputs.phase_a), "8192-frame clock differs")
    socket_big_us = (time.perf_counter() - began) / len(inputs.phase_a) * 1e6
    checks.check(client.estimate() == ref_big["estimate"], "8192-frame served estimate differs")
    rtt_us = []
    for _ in range(200):
        began = time.perf_counter()
        client.query("stats")
        rtt_us.append((time.perf_counter() - began) * 1e6)
    client.close()
    service.stop()

    socket_us = 1e6 / served["events_per_s"]
    small = socket_us - ref_a["us_per_event"]
    big = socket_big_us - ref_big["us_per_event"]
    per_frame = (small - big) / (1 / FRAME - 1 / BIG_FRAME)
    spans = run.tracer.spans_named("ingest.") + run.tracer.spans_named("queries.")
    p = name + "."
    run.metric(p + "kernel.us_per_event", kernel_us, "us/event")
    run.metric(p + "executor.us_per_event", executor_us - kernel_us, "us/event")
    run.metric(p + "service.us_per_event", ref_a["us_per_event"] - executor_us, "us/event")
    run.metric(p + "service.snapshot_ms", ref_a["snapshot_ms"], "ms")
    run.metric(p + "transport.encode_us_per_frame", encode_us, "us/frame")
    run.metric(p + "transport.decode_us_per_frame", decode_us, "us/frame")
    run.metric(p + "ingest.us_per_event", big - per_frame / BIG_FRAME, "us/event")
    run.metric(p + "ingest.us_per_frame", per_frame, "us/frame")
    cpu_us = served["server_cpu_s"] / len(inputs.phase_a) * 1e6
    run.metric(p + "server.cpu_us_per_event", cpu_us, "us/event")
    run.metric(p + "server.idle_frac", 1 - served["server_cpu_s"] / served["phase_a_wall_s"], "fraction")
    run.metric(p + "queries.stats_us", ref_a["stats_us"], "us")
    run.metric(p + "ingest.query_rtt_us", median(rtt_us), "us")
    run.metric(p + "generator.late_ms_max", served["b_late_ms"], "ms")
    run.metric(p + "queries.p95_ms", float(np.percentile(served["b_latencies_ms"], 95)), "ms")
    run.metric(p + "arena.slabbed_vertices", slabbed, "count")
    run.metric(p + "trace.events_per_s", served["events_per_s"], "events/s")
    run.metric(p + "trace.overhead_pct", spans * run.tracer.cost_per_span() / top_wall * 100, "%")
