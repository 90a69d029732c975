"""paper-trials: one Table IX cell (triangles, light deletions) on soc-TW.

Runs in the benchmark process, as the experiment tables do: build the
stream, compute the exact ground truth, train WSD-L on soc-TX through
a :class:`PolicyStore` with no cache dir, then ``run_algorithm`` for
all six dynamic algorithms. This is the only workload on the
per-event ``process()`` path and the one that measures the paper's ARE.

A "query" here is the runner's estimate read at a ground-truth
checkpoint: its latency is the time from one checkpoint answer to the
next, stamped by the stream object the runner iterates.
"""

from __future__ import annotations

import gc
import time
from statistics import median

import numpy as np

from repro.estimators.metrics import absolute_relative_error
from repro.experiments.algorithms import DYNAMIC_ALGORITHMS, PolicyStore, training_dataset_for
from repro.experiments.config import LIGHT, ExperimentConfig
from repro.experiments.runner import compute_ground_truth, make_trial_sampler, run_algorithm
from repro.samplers.checkpoint import (
    restore_sampler,
    sampler_state_dict,
    state_from_wire,
    state_to_wire,
)
from repro.utils.rng import RngFactory, derive_seed

from harness import peak_rss_mb

DATASET = "soc-TW"
PATTERN = "triangle"
SETUPS = 3
CHECKPOINT_ROUND_TRIPS = 15
#: Trials per algorithm at ``--seconds 10`` (scaled linearly). More go to
#: the algorithms whose ARE spreads most per second of trial time
#: (Triest's estimate takes a few discrete values), so the cell's mean
#: ARE holds from seed to seed.
TRIALS = {"WSD-L": 4, "WSD-H": 10, "GPS-A": 14, "Triest": 24, "ThinkD": 6, "WRS": 6}


class TimedStream:
    """The stream the runner iterates; stamps the clock every ``step`` events.

    Each pass (one trial) gets its own list of stamps, taken when the
    runner asks for the event after a checkpoint, i.e. after it has
    processed the segment and read the estimate.
    """

    def __init__(self, stream, step: int) -> None:
        self.events = list(stream)
        self.step = step
        self.passes: list[list[float]] = []

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        marks = [time.perf_counter()]
        self.passes.append(marks)
        events, step = self.events, self.step
        for start in range(0, len(events), step):
            yield from events[start:start + step]
            marks.append(time.perf_counter())


def setup(seed: int, smoke: bool) -> dict:
    """Dataset, stream, ground truth and WSD-L training, each timed."""
    config = ExperimentConfig(
        dataset=DATASET, pattern=PATTERN, scenario=LIGHT,
        dataset_scale=0.2 if smoke else 1.5, seed=derive_seed(seed, "trials-config"),
    )
    t0 = time.perf_counter()
    stream = config.build_stream()
    t1 = time.perf_counter()
    truth = compute_ground_truth(stream, PATTERN, config.checkpoints)
    t2 = time.perf_counter()
    store = PolicyStore(iterations=30 if smoke else 300, seed=derive_seed(seed, "trials-policy"))
    policy = store.get(training_dataset_for(DATASET), PATTERN, LIGHT)
    t3 = time.perf_counter()
    return {
        "config": config, "stream": stream, "truth": truth, "policy": policy,
        "dataset_s": t1 - t0, "ground_truth_s": t2 - t1, "train_s": t3 - t2, "setup_s": t3 - t0,
    }


def cell(run, setups: int) -> dict:
    """Set up ``setups`` times, then run every algorithm's trials."""
    prepared = []
    for _ in range(setups):
        chosen = setup(run.seed, run.smoke)
        if prepared:
            run.checks.check(chosen["truth"] == truth, "ground truth differs between identical set-ups")
        truth = chosen["truth"]
        prepared.append({key: value for key, value in chosen.items() if key.endswith("_s")})
    config, stream, truth, policy = (chosen[key] for key in ("config", "stream", "truth", "policy"))
    budget = config.effective_budget(stream)
    timed = TimedStream(stream, max(1, len(stream) // config.checkpoints))
    block = stream.to_block()
    per_alg, samplers = {}, []
    # The inputs live for the whole cell; keep full collections from
    # rescanning them at random points of the timed trials.
    gc.collect()
    gc.freeze()
    try:
        for name in DYNAMIC_ALGORITHMS:
            trials = 1 if run.smoke else max(2, round(TRIALS[name] * run.seconds / 10))
            per_alg[name], sampler = _algorithm(run, name, trials, timed, block, config, truth,
                                                budget, policy if name == "WSD-L" else None)
            samplers.append(sampler)
        checkpoint_ms = [_round_trips(run, samplers) for _ in range(CHECKPOINT_ROUND_TRIPS)]
    finally:
        gc.unfreeze()
    run.tracer.count("events", len(stream) * sum(len(alg["trial_s"]) for alg in per_alg.values()))
    return {"prepared": prepared, "events": len(stream), "per_alg": per_alg,
            "checkpoint_ms": checkpoint_ms}


def _round_trips(run, samplers) -> float:
    """Checkpoint every algorithm's sampler through the wire format and back (ms).

    Collects garbage first, so no sample pays for another's.
    """
    gc.collect()
    began = time.perf_counter()
    copies = [
        restore_sampler(state_from_wire(state_to_wire(sampler_state_dict(sampler))),
                        getattr(sampler, "weight_fn", None))
        for sampler in samplers
    ]
    elapsed = (time.perf_counter() - began) * 1000.0
    for sampler, copy in zip(samplers, copies):
        run.checks.check(copy.estimate == sampler.estimate,
                         f"{type(sampler).__name__}: checkpoint round trip changed the estimate")
    return elapsed


def _algorithm(run, name, trials, timed, block, config, truth, budget, alg_policy) -> tuple:
    """One algorithm's trials and its batched twin (returned for the round trips)."""
    with run.tracer.span(f"experiments.runner.{name}"):
        result = run_algorithm(name, timed, truth, PATTERN, budget, trials,
                               seed=config.seed, policy=alg_policy)
    passes = timed.passes[-trials:]
    run.checks.ops(trials)
    # The batched kernel with the trial-0 generator must land on the
    # per-event trial-0 estimate; run_algorithm reports that trial's
    # ARE, which pins the estimate's distance from the truth.
    sampler = make_trial_sampler(name, PATTERN, budget, RngFactory(config.seed), 0,
                                 policy=alg_policy)
    with run.tracer.span(f"samplers.kernel.{name}"):
        began = time.perf_counter()
        sampler.process_batch(block)
        batched_s = time.perf_counter() - began
    gap = abs(absolute_relative_error(sampler.estimate, truth.final_truth) - result.ares[0])
    run.checks.check(gap / 100 * abs(truth.final_truth) <= 1e-6 * max(abs(sampler.estimate), 1.0),
                     f"{name}: batched estimate {sampler.estimate!r} is off the per-event trial")
    return {
        "ares": result.ares,
        "trial_s": [marks[-1] - marks[0] for marks in passes],
        "segments_ms": [(b - a) * 1000.0 for marks in passes for a, b in zip(marks, marks[1:])],
        "batched_s": batched_s,
    }, sampler


def _events_per_s(result: dict) -> float:
    per_alg = result["per_alg"].values()
    return result["events"] * len(per_alg) / sum(median(alg["trial_s"]) for alg in per_alg)


def _segments_ms(result: dict) -> list[float]:
    """Checkpoint-to-checkpoint times, the same number of trials per algorithm."""
    per_alg = result["per_alg"].values()
    passes = min(len(alg["trial_s"]) for alg in per_alg)
    return [ms for alg in per_alg for ms in alg["segments_ms"][:passes * len(alg["segments_ms"]) // len(alg["trial_s"])]]


def run(run) -> None:
    result = cell(run, SETUPS)
    per_alg = result["per_alg"].values()
    segments = _segments_ms(result)
    mean_ares = [sum(alg["ares"]) / len(alg["ares"]) for alg in per_alg]
    run.record["trials"] = {
        "checkpoint_ms": result["checkpoint_ms"],
        "trial_s": {name: alg["trial_s"] for name, alg in result["per_alg"].items()},
        "ares": {name: alg["ares"] for name, alg in result["per_alg"].items()},
    }
    run.metric("events_per_s", _events_per_s(result), "events/s")
    run.metric("query_p50_ms", median(segments), "ms")
    run.metric("checkpoint_p50_ms", median(result["checkpoint_ms"]), "ms")
    run.metric("are_pct", sum(mean_ares) / len(mean_ares), "%")
    run.metric("setup_s", median([p["setup_s"] for p in result["prepared"]]), "s")
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")


def ladder(run, name: str) -> None:
    began = time.perf_counter()
    with run.tracer.span("top"):
        result = cell(run, 1)
    wall = time.perf_counter() - began
    prepared = result["prepared"][0]
    p = name + "."
    for key in ("dataset_s", "ground_truth_s", "train_s"):
        run.metric(p + "runner." + key, prepared[key], "s")
    for alg, values in result["per_alg"].items():
        key = alg.lower()
        run.metric(f"{p}trial.{key}.us_per_event", median(values["trial_s"]) / result["events"] * 1e6,
                   "us/event")
        run.metric(f"{p}trial.{key}.are_pct", sum(values["ares"]) / len(values["ares"]), "%")
        run.metric(f"{p}kernel.batched.{key}.us_per_event", values["batched_s"] / result["events"] * 1e6,
                   "us/event")
    run.metric(p + "runner.segment_p95_ms", float(np.percentile(_segments_ms(result), 95)), "ms")
    run.metric(p + "trace.events_per_s", _events_per_s(result), "events/s")
    spans = run.tracer.spans_named("experiments.") + run.tracer.spans_named("samplers.")
    run.metric(p + "trace.overhead_pct", spans * run.tracer.cost_per_span() / wall * 100, "%")
