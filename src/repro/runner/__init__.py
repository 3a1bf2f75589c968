"""Parallel trial execution and result caching.

The experiment harness (``repro.experiments``) builds every paper artefact
out of independent, seed-deterministic simulation units.  This package
executes those units:

* :func:`execute_trials` — process-pool execution of ``InjectionTrial``
  batches with deterministic ordering and an optional on-disk result cache;
* :func:`parallel_map` — the underlying order-preserving pool map;
* :class:`ResultCache` — trial-keyed, code-version-aware pickle store.

Parallelism is opt-in everywhere: ``jobs=None`` honours ``$REPRO_JOBS``
and defaults to single-process execution with results identical to the
parallel path.
"""

from repro.runner.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    code_version_token,
    default_cache_dir,
    source_tree_token,
    stable_trial_key,
)
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
    "CACHE_DIR_ENV",
    "JOBS_ENV",
    "ResultCache",
    "UnitOutcome",
    "code_version_token",
    "default_cache_dir",
    "execute_trials",
    "merge_trial_metrics",
    "parallel_map",
    "resolve_jobs",
    "run_units_robust",
    "source_tree_token",
    "stable_trial_key",
]
