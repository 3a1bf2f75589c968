"""Process-pool execution of independent simulation workloads.

Every paper artefact is rebuilt from *embarrassingly parallel* units —
seed-deterministic trials (or whole scenario worlds) that share no state.
This module fans them out over a ``ProcessPoolExecutor``:

* **chunked submission** — items are grouped into contiguous chunks so the
  per-task IPC overhead is amortised over several multi-hundred-millisecond
  simulations;
* **deterministic ordering** — results are reassembled by item index, so
  ``jobs=N`` returns exactly the list serial execution returns;
* **graceful fallback** — ``jobs=1``, a single item, or any environment
  where worker processes cannot be created (sandboxes without ``fork``/
  semaphores, broken pools mid-run) falls back to in-process execution of
  whatever is still missing.

``execute_trials`` layers the on-disk :class:`~repro.runner.cache.ResultCache`
on top: cached trials never reach the pool, and fresh results are persisted
before returning.

For workloads that must *survive* misbehaving units — the campaign engine's
territory — :func:`run_units_robust` trades the pool's amortised IPC for
full per-unit isolation: every unit runs in its own killable child process
with a wall-clock deadline, bounded retry with exponential backoff, and
crash quarantine (a unit that keeps killing its worker is recorded as
failed instead of being re-queued forever).  Wall-clock reads here are
watchdog plumbing only — they schedule work, they never feed trial bytes,
which is why this module is exempt from the ``nondeterministic-call`` lint.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

#: Environment variable giving the default worker count for the runner.
JOBS_ENV = "REPRO_JOBS"

#: Failure kinds that are re-queued (bounded by ``max_retries``); a clean
#: exception is deterministic in this codebase and therefore never retried.
RETRYABLE_STATUSES = ("timeout", "crash")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalise a ``jobs`` request to a positive worker count.

    ``None`` reads ``$REPRO_JOBS`` (default 1 — parallelism is opt-in so
    library users keep single-process semantics).  ``0`` or negative means
    "all cores".
    """
    if jobs is None:
        try:
            jobs = int(os.environ.get(JOBS_ENV, "1"))
        except ValueError:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def _chunk_indices(n_items: int, n_chunks: int) -> list[range]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous runs."""
    n_chunks = max(1, min(n_chunks, n_items))
    base, extra = divmod(n_items, n_chunks)
    out, start = [], 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        out.append(range(start, start + size))
        start += size
    return out


def _run_chunk(fn: Callable[[Any], Any], items: list) -> list:
    """Worker entry point: apply ``fn`` to each item of one chunk."""
    return [fn(item) for item in items]


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
    chunks_per_worker: int = 4,
) -> list:
    """``[fn(x) for x in items]`` over a process pool, order-preserving.

    ``fn`` and every item must be picklable (module-level function, plain
    dataclasses).  Falls back to in-process execution when ``jobs`` resolves
    to 1 or the pool cannot be created; if the pool breaks mid-run, the
    missing chunks are recomputed serially — results are identical either
    way, because each item is independent and internally seeded.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]

    chunks = _chunk_indices(len(items), jobs * chunks_per_worker)
    results: list = [None] * len(items)
    done = [False] * len(chunks)

    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            futures = [
                (ci, pool.submit(_run_chunk, fn, [items[i] for i in span]))
                for ci, span in enumerate(chunks)
            ]
            for ci, future in futures:
                chunk_results = future.result()
                for offset, i in enumerate(chunks[ci]):
                    results[i] = chunk_results[offset]
                done[ci] = True
    except Exception as exc:
        # Only infrastructure failures (no multiprocessing support, pool
        # creation denied, pool broken mid-run) trigger the serial fallback;
        # an exception raised by fn() inside a worker is re-raised verbatim.
        from concurrent.futures.process import BrokenProcessPool

        if not isinstance(exc, (ImportError, NotImplementedError, OSError,
                                PermissionError, BrokenProcessPool)):
            raise
    for ci, span in enumerate(chunks):
        if not done[ci]:
            for i in span:
                results[i] = fn(items[i])
    return results


@dataclass
class UnitOutcome:
    """Final fate of one work unit under :func:`run_units_robust`.

    Attributes:
        index: position of the unit in the submitted sequence.
        status: ``"ok"`` | ``"timeout"`` | ``"crash"`` | ``"error"``.
            ``timeout`` — the worker exceeded its wall-clock deadline and
            was terminated; ``crash`` — the worker died without reporting
            (segfault, ``os._exit``, OOM-kill); ``error`` — the unit raised
            a clean exception (deterministic, hence never retried).
        result: the unit's return value when ``status == "ok"``.
        detail: human-readable failure description (exception text, exit
            code, deadline) for non-ok statuses.
        retries: failed attempts consumed before this outcome (0 on a
            first-try success; ``max_retries`` on a quarantined unit).
    """

    index: int
    status: str
    result: Any = None
    detail: str = ""
    retries: int = 0

    @property
    def ok(self) -> bool:
        """Whether the unit completed and ``result`` is valid."""
        return self.status == "ok"


@dataclass
class _Attempt:
    """Scheduler bookkeeping for one unit: failures so far, retry gate."""

    index: int
    tries: int = 0          # failed attempts so far
    not_before: float = 0.0  # monotonic gate for backoff re-queueing


def _robust_child(fn: Callable[[Any], Any], item: Any, conn: Any) -> None:
    """Child-process entry point: run one unit, ship the outcome home.

    Anything that escapes — including an unpicklable result — is reported
    as an ``error`` payload; a child that dies before sending anything is
    classified as a ``crash`` by the parent.
    """
    try:
        payload: Tuple[str, Any, str] = ("ok", fn(item), "")
    except BaseException as exc:  # noqa: BLE001 - the whole point is capture
        payload = ("error", None, f"{type(exc).__name__}: {exc}")
    try:
        conn.send(payload)
    except Exception:
        try:
            conn.send(("error", None,
                       "result could not be pickled back to the parent"))
        except Exception:
            pass
    finally:
        conn.close()


def _run_unit_inprocess(fn: Callable[[Any], Any], item: Any
                        ) -> Tuple[str, Any, str]:
    """Fallback single-unit execution when child processes are unavailable.

    Converts clean exceptions into ``error`` outcomes; it cannot survive a
    hang or a hard exit (no process boundary to kill), which is acceptable
    in the sandboxes that lack ``fork`` — those also cannot host the
    runaway native code the boundary exists to contain.
    """
    try:
        return ("ok", fn(item), "")
    except Exception as exc:
        return ("error", None, f"{type(exc).__name__}: {exc}")


def run_units_robust(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
    max_retries: int = 2,
    backoff_s: float = 0.25,
    on_outcome: Optional[Callable[[UnitOutcome], None]] = None,
) -> List[UnitOutcome]:
    """Run every item in its own killable child process; never hang, never die.

    The fault-tolerance contract (the campaign engine is built on it):

    * **per-unit timeout** — a unit that exceeds ``timeout_s`` wall-clock
      seconds is terminated and classified ``timeout``; completed units
      keep their results (nothing is dropped with the stalled chunk, as the
      chunked pool used to do);
    * **crash isolation** — a worker that dies without reporting (hard
      exit, signal) is classified ``crash``; the parent and every other
      in-flight unit are unaffected;
    * **bounded retry with exponential backoff** — ``timeout``/``crash``
      attempts are re-queued up to ``max_retries`` times, waiting
      ``backoff_s * 2**(tries-1)`` seconds between attempts; a unit that
      keeps killing its worker is then *quarantined*: recorded as failed,
      not re-queued forever.  Clean exceptions are deterministic here and
      fail immediately;
    * **deterministic ordering** — outcomes are returned in item order;
      ``on_outcome`` (the campaign journal hook) fires as units finalise,
      in completion order.

    Falls back to in-process execution (no preemptive timeout, no crash
    survival) only where child processes cannot be created at all.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    outcomes: List[Optional[UnitOutcome]] = [None] * len(items)

    def finalize(outcome: UnitOutcome) -> None:
        outcomes[outcome.index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    backlog: List[_Attempt] = [_Attempt(i) for i in range(len(items))]
    # conn -> (attempt, process, absolute deadline or None)
    running: Dict[Any, Tuple[_Attempt, Any, Optional[float]]] = {}

    def retire(attempt: _Attempt, status: str, detail: str) -> None:
        """Classify one failed attempt: re-queue with backoff or finalize."""
        attempt.tries += 1
        if status in RETRYABLE_STATUSES and attempt.tries <= max_retries:
            attempt.not_before = (
                time.monotonic() + backoff_s * (2 ** (attempt.tries - 1)))
            backlog.append(attempt)
        else:
            finalize(UnitOutcome(attempt.index, status,
                                 detail=detail, retries=attempt.tries - 1))

    def reap(conn: Any) -> None:
        """Collect the payload (or death) of one finished child."""
        attempt, process, _ = running.pop(conn)
        try:
            status, result, detail = conn.recv()
        except (EOFError, OSError):
            process.join(5)
            retire(attempt, "crash",
                   f"worker died without reporting "
                   f"(exit code {process.exitcode})")
            conn.close()
            return
        process.join(5)
        conn.close()
        if status == "ok":
            finalize(UnitOutcome(attempt.index, "ok", result=result,
                                 retries=attempt.tries))
        else:
            retire(attempt, status, detail)

    pool_broken = False
    try:
        import multiprocessing

        ctx = multiprocessing.get_context()
        from multiprocessing.connection import wait as conn_wait

        while backlog or running:
            now = time.monotonic()
            # Spawn every due attempt a free slot exists for, in queue order.
            spawnable = [a for a in backlog if a.not_before <= now]
            while spawnable and len(running) < jobs:
                attempt = spawnable.pop(0)
                backlog.remove(attempt)
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_robust_child,
                    args=(fn, items[attempt.index], child_conn),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                deadline = (now + timeout_s) if timeout_s is not None else None
                running[parent_conn] = (attempt, process, deadline)
            if not running:
                # Everything pending is backing off: sleep to the next gate.
                gate = min(a.not_before for a in backlog)
                time.sleep(max(0.0, min(gate - time.monotonic(), 1.0)))
                continue
            # Wake on the first completion, expired deadline or retry gate.
            horizon: List[float] = [d for _, _, d in running.values()
                                    if d is not None]
            horizon.extend(a.not_before for a in backlog)
            wait_s = 0.5
            if horizon:
                wait_s = max(0.01, min(min(horizon) - time.monotonic(), 0.5))
            for conn in conn_wait(list(running), timeout=wait_s):
                reap(conn)
            now = time.monotonic()
            for conn in [c for c, (_, _, d) in running.items()
                         if d is not None and d < now]:
                if conn.poll():  # finished just as the deadline expired
                    reap(conn)
                    continue
                attempt, process, _expired = running.pop(conn)
                process.terminate()
                process.join(1)
                if process.is_alive():  # pragma: no cover - SIGTERM ignored
                    process.kill()
                    process.join(1)
                conn.close()
                retire(attempt, "timeout",
                       f"exceeded the {timeout_s} s per-unit deadline "
                       f"and was terminated")
    except (ImportError, NotImplementedError, OSError, PermissionError):
        pool_broken = True
        for conn, (attempt, process, _) in list(running.items()):
            try:
                process.terminate()
                process.join(1)
                conn.close()
            except Exception:
                pass
            backlog.append(attempt)
        running.clear()
    if pool_broken or backlog:
        # No child processes here (sandbox) or the machinery broke mid-run:
        # finish the stragglers in-process, without preemptive timeouts.
        for attempt in list(backlog):
            status, result, detail = _run_unit_inprocess(
                fn, items[attempt.index])
            if status == "ok":
                finalize(UnitOutcome(attempt.index, "ok", result=result,
                                     retries=attempt.tries))
            else:
                attempt.tries += 1
                finalize(UnitOutcome(attempt.index, "error", detail=detail,
                                     retries=attempt.tries - 1))
        backlog.clear()
    return [outcome for outcome in outcomes if outcome is not None]


def merge_trial_metrics(results: Sequence[Any]) -> dict:
    """Aggregate per-trial telemetry snapshots into one campaign snapshot.

    Each :class:`TrialResult` produced with ``collect_metrics=True`` carries
    its world's :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`
    as a plain dict, so snapshots survive the pickle hop back from worker
    processes unchanged.  Merging is pure data-plane arithmetic (counters
    sum, gauges max, histograms add bucket-wise) and results arrive in
    deterministic trial order, so the aggregate is identical for any
    ``jobs`` value.

    Results without metrics (``collect_metrics=False``, failed worlds) are
    skipped; an empty snapshot is returned when none carry any.
    """
    from repro.telemetry.metrics import merge_snapshots

    return merge_snapshots(
        getattr(result, "metrics", None) for result in results
    )


def _run_one_trial(trial: Any) -> Any:
    """Module-level (hence picklable) single-trial worker."""
    from repro.experiments.common import run_single_trial

    return run_single_trial(trial)


def _failure_result(outcome: UnitOutcome) -> Any:
    """A ``TrialResult`` placeholder recording why a trial never finished."""
    from repro.experiments.common import TrialResult

    detail = outcome.status
    if outcome.detail:
        detail = f"{outcome.status}: {outcome.detail}"
    return TrialResult(success=False, attempts=0, failure=detail)


def execute_trials(
    trials: Sequence[Any],
    jobs: Optional[int] = None,
    cache: Union[None, bool, "ResultCache"] = None,
    *,
    timeout_s: Optional[float] = None,
    max_retries: int = 0,
    backoff_s: float = 0.25,
    isolate: bool = False,
    runner: Optional[Callable[[Any], Any]] = None,
    on_result: Optional[Callable[[int, Any, Any, Optional[UnitOutcome],
                                  bool], None]] = None,
) -> list:
    """Run a batch of :class:`InjectionTrial` configs, possibly in parallel.

    Args:
        trials: trial configs, one independent simulated world each.
        jobs: worker processes (``None`` → ``$REPRO_JOBS`` → 1; ``<=0`` →
            all cores).
        cache: ``None``/``False`` disables caching; ``True`` uses the
            default on-disk :class:`ResultCache`; an instance is used as
            given.
        timeout_s: per-trial wall-clock deadline.  Setting it routes
            execution through :func:`run_units_robust`: a hung trial is
            terminated and recorded as a failure *result* while every
            completed trial keeps its full result — including its
            telemetry snapshot — instead of the whole panel stalling.
        max_retries: bounded re-queueing of timed-out/crashed trials
            (exponential backoff, ``backoff_s`` base); a trial that keeps
            killing its worker is quarantined as failed.
        backoff_s: base delay between retry attempts.
        isolate: force the per-trial-process robust path even without a
            timeout or retries (crash isolation on its own).
        runner: the picklable single-item callable (defaults to running
            an ``InjectionTrial``); campaign units supply a dispatcher.
        on_result: streaming hook ``(index, trial, result, outcome,
            cached)`` fired as each slot resolves — cache hits immediately
            (``outcome=None, cached=True``), fresh robust results in
            completion order, plain-pool results in trial order.

    Returns:
        ``TrialResult`` objects in trial order — bit-identical to serial
        execution for the same trial list.  Under the robust path, a slot
        whose trial ultimately failed holds a placeholder result with
        :attr:`TrialResult.failure` set to the failure taxonomy
        (``timeout`` / ``crash`` / ``error``) instead of raising.
    """
    trials = list(trials)
    if cache is True:
        from repro.runner.cache import ResultCache

        cache = ResultCache()
    elif cache is False:
        cache = None
    run_fn = runner if runner is not None else _run_one_trial

    results: list = [None] * len(trials)
    missing: list[int] = []
    if cache is not None:
        for i, trial in enumerate(trials):
            hit = cache.get(trial)
            if hit is not None:
                results[i] = hit
                if on_result is not None:
                    on_result(i, trial, hit, None, True)
            else:
                missing.append(i)
    else:
        missing = list(range(len(trials)))

    if not missing:
        return results

    robust = isolate or timeout_s is not None or max_retries > 0
    if robust:
        def settle(outcome: UnitOutcome) -> None:
            slot = missing[outcome.index]
            result = outcome.result if outcome.ok \
                else _failure_result(outcome)
            results[slot] = result
            if outcome.ok and cache is not None:
                cache.put(trials[slot], result)
            if on_result is not None:
                on_result(slot, trials[slot], result, outcome, False)

        run_units_robust(
            run_fn, [trials[i] for i in missing], jobs=jobs,
            timeout_s=timeout_s, max_retries=max_retries,
            backoff_s=backoff_s, on_outcome=settle,
        )
    else:
        fresh = parallel_map(run_fn, [trials[i] for i in missing], jobs=jobs)
        for slot, result in zip(missing, fresh):
            results[slot] = result
            if cache is not None:
                cache.put(trials[slot], result)
            if on_result is not None:
                on_result(slot, trials[slot], result, None, False)
    return results
