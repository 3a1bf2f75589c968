"""Parallel trial execution.

The experiment harness (``repro.experiments``) builds every paper artefact
out of independent, seed-deterministic simulation units.  This package
executes those units:

* :func:`execute_trials` — process-pool execution of ``InjectionTrial``
  batches with deterministic ordering;
* :func:`parallel_map` — the underlying order-preserving pool map;
* :func:`run_units_robust` — one killable child process per unit, with
  timeouts, bounded retry and crash quarantine (the campaign engine's
  executor).

Parallelism is opt-in everywhere: ``jobs=None`` honours ``$REPRO_JOBS``
and defaults to single-process execution with results identical to the
parallel path.
"""

from repro.runner.executor import (
    JOBS_ENV,
    UnitOutcome,
    execute_trials,
    merge_trial_metrics,
    parallel_map,
    resolve_jobs,
    run_units_robust,
)

__all__ = [
    "JOBS_ENV",
    "UnitOutcome",
    "execute_trials",
    "merge_trial_metrics",
    "parallel_map",
    "resolve_jobs",
    "run_units_robust",
]
