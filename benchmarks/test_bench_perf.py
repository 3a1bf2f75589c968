"""PERF-1 — trial-runner throughput, engine speedup, hot-path trajectory.

Times a fixed, fully deterministic trial workload under both simulation
engines — the event-by-event **reference** path (serially and through the
process-pool runner) and the analytic **fast** path (quiet connection
events batched closed-form, see :mod:`repro.sim.fastforward`) — plus a
tight event-queue microbenchmark, and appends one record per engine to
``BENCH_runner.json`` at the repo root so future PRs can track throughput
regressions.

Asserted:
  * the parallel reference run returns **bit-identical** results to the
    serial reference run (field-for-field ``TrialResult`` equality);
  * the fast engine returns **bit-identical** results to the reference
    engine on the same workload, and actually fast-forwarded events;
  * the fast engine is >= 5x faster than the reference serially (the
    conservative CI floor; dedicated hardware shows >= 10x), timed on the
    same worlds each continued to ``TRIAL_DEADLINE_US``.  A trial ends a
    few seconds after its injection report, so the trials alone leave the
    engine little quiet time to skip; the continued worlds time the long
    quiet connection it is built for, and their results must equal the
    reference's too;
  * on a machine with >= 4 cores, 4 workers deliver >= 3x wall-clock
    speedup on the reference workload (on smaller boxes the speedup is
    recorded but not asserted).
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.experiments.common import (
    TRIAL_DEADLINE_US,
    InjectionTrial,
    run_trial_world,
)
from repro.runner import execute_trials
from repro.sim import fastforward
from repro.sim.events import EventQueue

#: Trajectory artefact, kept at the repo root across PRs.
BENCH_FILE = Path(__file__).parent.parent / "BENCH_runner.json"

#: The fixed workload: 8 independent worlds at the paper's E2 hop interval.
PERF_SEEDS = tuple(9_000 + i for i in range(8))

#: Workers used for the parallel measurement (the acceptance target).
PERF_JOBS = 4

#: Minimum serial fast/reference speedup enforced everywhere, CI included.
MIN_ENGINE_SPEEDUP = 5.0


def _workload() -> list[InjectionTrial]:
    return [InjectionTrial(seed=seed, hop_interval=75) for seed in PERF_SEEDS]


def _run_continued(trials: list[InjectionTrial], engine: str
                   ) -> tuple[list, float]:
    """``(results, seconds)`` of each trial's world run under ``engine``
    and then continued to ``TRIAL_DEADLINE_US``."""
    results = []
    start = time.perf_counter()
    for trial in trials:
        result, sim = run_trial_world(trial, engine=engine)
        sim.run(until_us=TRIAL_DEADLINE_US)
        results.append(result)
    return results, time.perf_counter() - start


def _bench_event_queue(n_events: int = 100_000) -> float:
    """Push/pop throughput of the event heap, in events per second."""
    queue = EventQueue()
    handler = lambda: None  # noqa: E731 - trivial callback
    start = time.perf_counter()
    for i in range(n_events):
        queue.push(float(i % 977), handler)
    while queue.pop() is not None:
        pass
    elapsed = time.perf_counter() - start
    return n_events / elapsed


def _append_trajectory(*records: dict) -> None:
    try:
        data = json.loads(BENCH_FILE.read_text())
        assert isinstance(data.get("runs"), list)
    except (OSError, ValueError, AssertionError):
        data = {"schema": 1, "benchmark": "trial-runner", "runs": []}
    data["runs"].extend(records)
    BENCH_FILE.write_text(json.dumps(data, indent=2) + "\n")


@pytest.mark.benchmark(group="perf")
def test_runner_throughput(benchmark, results_dir, monkeypatch):
    trials = _workload()

    monkeypatch.setenv(fastforward.ENGINE_ENV_VAR,
                       fastforward.ENGINE_REFERENCE)
    start = time.perf_counter()
    serial = execute_trials(trials, jobs=1, cache=None)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = execute_trials(trials, jobs=PERF_JOBS, cache=None)
    parallel_s = time.perf_counter() - start

    monkeypatch.setenv(fastforward.ENGINE_ENV_VAR, fastforward.ENGINE_FAST)
    fastforward.reset_fast_forward_count()
    start = time.perf_counter()
    fast = execute_trials(trials, jobs=1, cache=None)
    fast_s = time.perf_counter() - start
    fast_forwarded = fastforward.events_fast_forwarded()

    start = time.perf_counter()
    fast_parallel = execute_trials(trials, jobs=PERF_JOBS, cache=None)
    fast_parallel_s = time.perf_counter() - start

    continued_ref, continued_ref_s = _run_continued(
        trials, fastforward.ENGINE_REFERENCE)
    continued_fast, continued_fast_s = _run_continued(
        trials, fastforward.ENGINE_FAST)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    assert all(r.success for r in serial)
    # The contract the whole runner rests on: job count never changes
    # results, field for field (reports, records, verdicts included).
    assert parallel == serial
    # The contract the fast engine rests on: the engine never changes
    # results either — same fields, same bits, at any jobs count.
    assert fast == serial
    assert fast_parallel == serial
    assert fast_forwarded > 0, "fast engine never engaged on the workload"
    assert continued_ref == continued_fast == serial

    events_per_sec = _bench_event_queue()
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    engine_speedup = (continued_ref_s / continued_fast_s
                      if continued_fast_s > 0 else float("inf"))
    cpus = os.cpu_count() or 1
    utc = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    reference_record = {
        "utc": utc,
        "engine": "reference",
        "cpu_count": cpus,
        "n_trials": len(trials),
        "jobs": PERF_JOBS,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "trials_per_sec_serial": round(len(trials) / serial_s, 3),
        "trials_per_sec_parallel": round(len(trials) / parallel_s, 3),
        "queue_events_per_sec": round(events_per_sec),
        "events_fast_forwarded": 0,
    }
    fast_record = {
        "utc": utc,
        "engine": "fast",
        "cpu_count": cpus,
        "n_trials": len(trials),
        "jobs": PERF_JOBS,
        "serial_s": round(fast_s, 3),
        "parallel_s": round(fast_parallel_s, 3),
        "speedup": round(fast_s / fast_parallel_s, 3)
        if fast_parallel_s > 0 else float("inf"),
        "engine_speedup": round(engine_speedup, 3),
        "continued_reference_s": round(continued_ref_s, 3),
        "continued_fast_s": round(continued_fast_s, 3),
        "trials_per_sec_serial": round(len(trials) / fast_s, 3),
        "trials_per_sec_parallel": round(len(trials) / fast_parallel_s, 3),
        "queue_events_per_sec": round(events_per_sec),
        "events_fast_forwarded": fast_forwarded,
    }
    _append_trajectory(reference_record, fast_record)

    summary = "\n".join(
        ["PERF-1 — trial runner throughput (reference engine)"]
        + [f"  {key:>24}: {value}" for key, value in
           reference_record.items()]
        + ["PERF-1 — trial runner throughput (fast engine)"]
        + [f"  {key:>24}: {value}" for key, value in fast_record.items()]
    )
    print("\n" + summary)
    (results_dir / "perf_runner.txt").write_text(summary + "\n")

    assert engine_speedup >= MIN_ENGINE_SPEEDUP, (
        f"expected the fast engine >= {MIN_ENGINE_SPEEDUP}x over the "
        f"reference serially on the continued worlds, got "
        f"{engine_speedup:.2f}x"
    )
    if cpus >= PERF_JOBS:
        assert speedup >= 3.0, (
            f"expected >=3x speedup at {PERF_JOBS} workers on {cpus} cores, "
            f"got {speedup:.2f}x"
        )
