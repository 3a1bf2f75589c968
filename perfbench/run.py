"""The simulator's benchmark: three workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload panel3 --seed 1 --seconds 30 --trace 0

``--trace 0`` takes the workload's trials for ``--seconds`` seconds and
prints the end-to-end metrics.  ``--trace 1`` repeats the workload's first
round for ``--seconds`` seconds, untraced and then traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give each metric with its unit, the run's stamp and the digest
of its first round.  Each run also writes its stamped record, and a traced
run its spans, under ``.perfbench/``.  README.md in this directory
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: Set-up time counts from here: the standard library is already loaded.
_T0 = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"

#: The seed a run uses unless told otherwise.
DEFAULT_SEED = 1

#: Fresh-interpreter set-ups per run; ``setup_s`` is the median of these
#: and the run's own.
SETUP_PROBES = 3

#: Settings of the simulator the benchmark fixes itself.
_ENV_DROPPED = ("REPRO_ENGINE", "REPRO_JOBS")
_ENV_DROPPED_PREFIX = "REPRO_BENCH_"

#: Per-layer counts that must repeat exactly from one pass of a round to
#: the next, and from one traced run of a seed to the next.
EXACT_COUNTS = (
    "sim.events", "sim.fastforward.calls", "sim.fastforward.events",
    "sim.medium.frames", "sim.medium.deliveries", "ll.csa1.calls",
    "ll.csa2.calls", "phy.crc24.calls", "phy.whiten.calls",
    "crypto.aes.calls", "core.inject_attempts", "campaign.journal.appends",
)

#: Kernels reported as ``<name>.calls`` and ``<name>_s``.
KERNELS = ("ll.csa1", "ll.csa2", "phy.crc24", "phy.whiten", "crypto.aes")


def isolate_environment() -> str:
    """Drop the engine, jobs and bench settings a caller may have exported,
    pin the fast engine (worker processes inherit it) and return the
    engine the simulator resolves."""
    for key in list(os.environ):
        if key in _ENV_DROPPED or key.startswith(_ENV_DROPPED_PREFIX):
            del os.environ[key]
    os.environ["REPRO_ENGINE"] = "fast"
    from repro.sim.fastforward import resolve_engine

    return resolve_engine()


def set_up(workload: str) -> float:
    """Import the simulator and run the warm-up trials; seconds taken."""
    import workloads

    results, _ = workloads.run_trials(workloads.warmup_trials(workload))
    bad = [r.failure for r in results if r.failure is not None]
    if bad:
        raise RuntimeError(f"warm-up trial failed: {bad}")
    return time.perf_counter() - _T0


def probe_set_ups(workload: str) -> List[float]:
    """:func:`set_up` again in fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
            check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def stamp(workload: str, seed: int, trace: int, seconds: int,
          engine: str) -> Dict[str, Any]:
    """What a result was measured on: commit, host and inputs."""
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {
        "commit": commit,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "engine": engine,
        "campaign_jobs": campaign_jobs(),
    }


def campaign_jobs() -> int:
    """Worker processes of the campaign workload: up to two, leaving one
    CPU to the parent, which spawns, reaps and journals.  On two CPUs a
    second worker would make each unit's turnaround wait on the
    scheduler."""
    return max(1, min(2, nproc() - 1))


def pinned_digest(workload: str, seed: int) -> Any:
    """The digest pinned for this workload and seed, or ``None``."""
    pins = json.loads((BENCH_DIR / "digests.json").read_text())
    return pins.get(workload, {}).get(str(seed))


class Check:
    """Tallies units attempted and failed, and the first round's digest."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.attempted = 0
        self.failed = 0
        self.digest = ""
        self.problems: List[str] = []

    def units(self, canons: List[Dict[str, Any]]) -> None:
        """Count units; those with a failure result count as failed."""
        import workloads

        self.attempted += len(canons)
        bad = sum(1 for canon in canons if workloads.is_failure(canon))
        if bad:
            self.fail(bad, f"{bad} unit(s) failed")

    def first_round(self, canons: List[Dict[str, Any]]) -> None:
        """Digest the first round; all of it fails on a pinned mismatch."""
        import workloads

        self.digest = workloads.digest(canons)
        pinned = pinned_digest(self.workload, self.seed)
        if pinned is not None and pinned != self.digest:
            self.fail(len(canons), f"digest {self.digest} != pinned {pinned}")

    def same(self, got: List[Dict[str, Any]], want: List[Dict[str, Any]],
             what: str) -> None:
        """Unit-by-unit equality; each differing unit fails."""
        bad = sum(1 for a, b in zip(got, want) if a != b)
        bad += abs(len(got) - len(want))
        if bad:
            self.fail(bad, f"{bad} unit(s) differ: {what}")

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


def typical_time(workload: str) -> Callable[[List[float]], float]:
    """How a run sums up the seconds of one kind's samples.

    A shared host runs the same code up to twice as slowly in spells that
    last from a second to minutes.  ``panel3`` trials and ``campaign``
    units and rounds take at most about a second, so a run holds samples
    taken outside the spells, and their 10th percentile moves little with
    how much of the run the spells cover.  ``dense`` trials take seconds
    and average over the spells, so there a low percentile only picks the
    cheapest random outcomes; the mean of every sample moves least.
    """
    import numpy as np

    if workload == "dense":
        return statistics.fmean
    return lambda times: float(np.percentile(times, 10))


def typical_round(samples: List[Tuple[str, float]], mix: List[str],
                  typical: Callable[[List[float]], float]) -> List[float]:
    """Seconds of one round of ``mix`` with each trial at its kind's
    typical time over its ``(kind, seconds)`` samples."""
    by_kind: Dict[str, List[float]] = {}
    for kind, seconds in samples:
        by_kind.setdefault(kind, []).append(seconds)
    return [typical(by_kind[kind]) for kind in mix]


def timed_inprocess(workload: str, seed: int, seconds: int, check: Check
                    ) -> Tuple[List[Tuple[str, float]], List[str]]:
    """Trials in round order for ``seconds``, the first round at least,
    each round pinned to the next of this process's CPUs so that every
    kind runs on each CPU in turn.  Returns each trial's kind and wall
    seconds, and the kinds of one round."""
    import workloads

    rounds = workloads.inprocess_rounds(workload, seed)
    mix = [kind for kind, _ in rounds[0]]
    cpus = sorted(os.sched_getaffinity(0))
    placed = ((cpus[index % len(cpus)], kind, trial)
              for index, round_ in enumerate(rounds) for kind, trial in round_)
    canons: List[Dict[str, Any]] = []
    samples: List[Tuple[str, float]] = []
    deadline = time.perf_counter() + seconds
    try:
        for cpu, kind, trial in placed:
            os.sched_setaffinity(0, {cpu})
            (result,), (wall,) = workloads.run_trials([trial])
            canons.append(workloads.canonical(result))
            samples.append((kind, wall))
            if len(samples) >= len(mix) and time.perf_counter() >= deadline:
                break
        else:
            raise RuntimeError(f"{workload}: ran out of rounds; raise ROUNDS")
    finally:
        os.sched_setaffinity(0, cpus)
    check.units(canons)
    check.first_round(canons[:len(mix)])
    # A trial run again gives the same result.
    again, _ = workloads.run_trials([rounds[0][0][1]])
    check.same([workloads.canonical(again[0])], canons[:1], "rerun")
    return samples, mix


def timed_campaign(seed: int, seconds: int, check: Check
                   ) -> Tuple[List[Tuple[str, float]], List[str],
                              List[float]]:
    """Whole campaign rounds for ``seconds``.  Returns each unit's kind and
    turnaround, the kinds of one round, and each round's wall seconds."""
    import workloads

    journals = OUT_DIR / "journals" / f"campaign-{seed}-{os.getpid()}"
    shutil.rmtree(journals, ignore_errors=True)
    samples: List[Tuple[str, float]] = []
    round_walls: List[float] = []
    mix: List[str] = []
    first: List[Any] = []
    deadline = time.perf_counter() + seconds
    try:
        while not round_walls or time.perf_counter() < deadline:
            spec = workloads.campaign_spec(seed, len(round_walls))
            wall, units, records, turnaround = workloads.run_campaign_round(
                spec, journals / f"round-{len(round_walls):04d}.jsonl",
                campaign_jobs())
            canons = [workloads.canonical_record(r) for r in records]
            check.units(canons)
            cached = sum(1 for r in records if r is not None and r.cached)
            if cached:
                check.fail(cached, f"{cached} journal record(s) cached")
            if not round_walls:
                check.first_round(canons)
                mix = [workloads.unit_kind(unit) for unit in units]
                first = [units[0].trial, canons[0]]
            round_walls.append(wall)
            samples += turnaround
    finally:
        shutil.rmtree(journals, ignore_errors=True)
    # The first unit in process gives what the campaign journaled.
    again, _ = workloads.run_trials([first[0]])
    check.same([workloads.canonical(again[0])], [first[1]], "in process")
    return samples, mix, round_walls


def end_to_end(workload: str, seed: int, seconds: int
               ) -> Tuple[Dict[str, float], Check]:
    """The untraced run."""
    import numpy as np

    check = Check(workload, seed)
    typical = typical_time(workload)
    if workload == "campaign":
        samples, mix, round_walls = timed_campaign(seed, seconds, check)
    else:
        samples, mix = timed_inprocess(workload, seed, seconds, check)
    kinds = typical_round(samples, mix, typical)
    # Campaign units may overlap and a round also builds its report, so
    # a round takes its own wall, not the sum of its units.
    round_s = typical(round_walls) if workload == "campaign" else sum(kinds)
    p50, p95 = np.percentile(kinds, [50, 95])
    metrics = {
        "trials_per_s": len(mix) / round_s,
        "trial_ms_p50": float(p50) * 1000.0,
        "trial_ms_p95": float(p95) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": 1.0 - check.failed / check.attempted,
    }
    return metrics, check


def traced_passes(trials: List[Any], check: Check,
                  ) -> Dict[str, Any]:
    """One untraced then one traced pass over ``trials`` in process."""
    import workloads
    from repro.ll.csa2 import clear_schedule_cache
    from tracing import SIM_TARGETS, Tracer

    clear_schedule_cache()
    base, base_walls = workloads.run_trials(trials)
    clear_schedule_cache()
    tracer = Tracer()
    tracer.install(SIM_TARGETS)
    try:
        traced, traced_walls = workloads.run_trials(trials, tracer)
    finally:
        tracer.uninstall()
    base_canons = [workloads.canonical(r) for r in base]
    traced_canons = [workloads.canonical(r) for r in traced]
    check.units(traced_canons)
    check.same(traced_canons, base_canons, "traced vs untraced")
    return {
        "tracer": tracer,
        "summary": tracer.summary(),
        "canons": traced_canons,
        "base_s": sum(base_walls),
        "traced_s": sum(traced_walls),
        "attempts": sum(c["attempts"] for c in traced_canons),
    }


def per_layer(workload: str, seed: int, seconds: int
              ) -> Tuple[Dict[str, float], Check, Dict[str, Any]]:
    """The traced run: passes over the first round until ``seconds``."""
    import workloads
    from repro.ll.csa2 import clear_schedule_cache
    from tracing import Tracer

    check = Check(workload, seed)
    if workload == "campaign":
        spec = workloads.campaign_spec(seed, 0)
        from repro.campaign import expand_units

        trials = [unit.trial for unit in expand_units(spec)]
    else:
        trials = [trial for _, trial
                  in workloads.inprocess_rounds(workload, seed)[0]]
    journals = OUT_DIR / "journals" / f"trace-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(journals, ignore_errors=True)
    passes: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    try:
        while not passes or time.perf_counter() < deadline:
            sim = traced_passes(trials, check)
            if workload == "campaign":
                clear_schedule_cache()
                tracer = Tracer()
                wall, _, records, _ = workloads.run_campaign_round(
                    spec, journals / f"pass-{len(passes):04d}.jsonl",
                    campaign_jobs(), tracer)
                canons = [workloads.canonical_record(r) for r in records]
                check.units(canons)
                check.same(sim["canons"], canons, "in process vs campaign")
                sim.update(campaign=tracer.summary(), campaign_s=wall,
                           campaign_tracer=tracer, canons=canons)
            if not passes:
                check.first_round(sim["canons"])
            passes.append(sim)
    finally:
        shutil.rmtree(journals, ignore_errors=True)

    metrics = layer_metrics(passes, len(trials))
    counts = [layer_metrics([p], len(trials)) for p in passes]
    for name in EXACT_COUNTS:
        if len({c[name] for c in counts}) != 1:
            check.fail(1, f"{name} differs between passes")
    metrics["failed_ratio"] = check.failed / check.attempted
    return metrics, check, {"passes": passes}


def layer_metrics(passes: List[Dict[str, Any]],
                  n_trials: int) -> Dict[str, float]:
    """Per-layer metrics, per pass over the round: times are the mean of
    the passes, counts are the first pass's."""
    def mean_self(name: str, key: str = "summary") -> float:
        return statistics.fmean(p[key][name]["self_s"] for p in passes)

    first = passes[0]["summary"]
    events = first["sim.run"]["value"]
    ff = first["sim.fastforward.advance"]
    metrics: Dict[str, float] = {
        "sim.run_self_s": mean_self("sim.run"),
        "sim.events": events,
        "sim.fastforward.advance_s": mean_self("sim.fastforward.advance"),
        "sim.fastforward.calls": ff["calls"],
        "sim.fastforward.events": ff["value"],
        "sim.fastforward.engaged_ratio":
            ff["engaged"] / ff["calls"] if ff["calls"] else 0.0,
        "sim.fastforward.event_share": ff["value"] / events if events else 0.0,
        "sim.medium.transmit_s": mean_self("sim.medium.transmit"),
        "sim.medium.frames": first["sim.medium.transmit"]["calls"],
        "sim.medium.deliveries": first["sim.medium.deliver"]["calls"],
        "core.inject_attempts": passes[0]["attempts"],
    }
    for kernel in KERNELS:
        metrics[f"{kernel}.calls"] = first[kernel]["calls"]
        metrics[f"{kernel}_s"] = mean_self(kernel)
    traced = sum(p["traced_s"] for p in passes)
    base = sum(p["base_s"] for p in passes)
    covered = sum(span["top_s"] for p in passes
                  for span in p["summary"].values())
    metrics["trace.overhead_ratio"] = traced / base - 1.0
    metrics["unattributed_share"] = 1.0 - covered / traced
    if "campaign" in passes[0]:
        campaign = passes[0]["campaign"]
        dispatch = statistics.fmean(p["campaign_s"] - p["base_s"]
                                    for p in passes)
        metrics.update({
            "runner.dispatch_ms_per_trial": dispatch / n_trials * 1000.0,
            "campaign.journal.append_s":
                mean_self("campaign.journal.append", "campaign"),
            "campaign.journal.appends":
                campaign["campaign.journal.append"]["calls"],
            "campaign.expand_s": mean_self("campaign.expand", "campaign"),
            "campaign.report_s": mean_self("campaign.report", "campaign"),
        })
    else:
        metrics.update({
            "runner.dispatch_ms_per_trial": 0.0,
            "campaign.journal.append_s": 0.0,
            "campaign.journal.appends": 0,
            "campaign.expand_s": 0.0,
            "campaign.report_s": 0.0,
        })
    return metrics


def save_spans(path: Path, passes: List[Dict[str, Any]]) -> None:
    """Every pass's spans, one ``.npz`` (``p<pass>_<layer>_<field>``)."""
    import numpy as np

    arrays: Dict[str, Any] = {}
    for index, p in enumerate(passes):
        for layer in ("tracer", "campaign_tracer"):
            tracer = p.get(layer)
            if tracer is None:
                continue
            prefix = f"p{index}_{layer.split('_')[0]}"
            arrays[f"{prefix}_names"] = np.array(tracer.names)
            for field, column in tracer.columns().items():
                arrays[f"{prefix}_{field}"] = column
    np.savez(path, **arrays)


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv: List[str]) -> argparse.Namespace:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: List[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    engine = isolate_environment()
    if args.setup_probe:
        print(set_up(args.workload))
        return 0
    own_setup = set_up(args.workload)

    if args.trace:
        metrics, check, spans = per_layer(args.workload, args.seed,
                                          args.seconds)
    else:
        metrics, check = end_to_end(args.workload, args.seed, args.seconds)
        metrics["setup_s"] = statistics.median(
            [own_setup] + probe_set_ups(args.workload))

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match "
            f"BENCHMARK.json")
    run_stamp = stamp(args.workload, args.seed, args.trace, args.seconds,
                      engine)
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        save_spans(OUT_DIR / f"{name}-spans.npz", spans["passes"])
    record = dict(result, stamp=run_stamp, digest=check.digest,
                  problems=check.problems)
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")

    for metric, value in metrics.items():
        print(f"{metric:32} {value:<14.6g} {units[metric]}")
    for problem in check.problems:
        print(f"problem: {problem}")
    print("stamp " + json.dumps(run_stamp, sort_keys=True))
    print(f"digest {check.digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
