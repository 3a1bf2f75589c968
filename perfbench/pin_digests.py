"""Recompute the first-round digests that ``digests.json`` pins.

A run whose first round digests differently from the pinned value for its
workload and seed counts that round as failed.  Re-pin only after a
change that is meant to alter simulation results.  Run from the
repository root::

    python3 perfbench/pin_digests.py

It pins seeds ``0`` to ``PINNED_SEEDS - 1`` of every workload.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

PINNED_SEEDS = 16


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import run
    import workloads

    run.isolate_environment()
    journals = run.OUT_DIR / "journals" / f"pin-{os.getpid()}"
    pins = {}
    try:
        for workload in workloads.WORKLOADS:
            pins[workload] = {}
            for seed in range(PINNED_SEEDS):
                if workload == "campaign":
                    _, _, records, _ = workloads.run_campaign_round(
                        workloads.campaign_spec(seed, 0),
                        journals / f"{seed}.jsonl", run.campaign_jobs())
                    canons = [workloads.canonical_record(r) for r in records]
                else:
                    round_ = workloads.inprocess_rounds(workload, seed)[0]
                    results, _ = workloads.run_trials([t for _, t in round_])
                    canons = [workloads.canonical(r) for r in results]
                if any(workloads.is_failure(canon) for canon in canons):
                    raise RuntimeError(f"{workload} seed {seed}: a unit failed")
                pins[workload][str(seed)] = workloads.digest(canons)
                print(workload, seed, pins[workload][str(seed)], flush=True)
    finally:
        shutil.rmtree(journals, ignore_errors=True)
    (BENCH_DIR / "digests.json").write_text(
        json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
