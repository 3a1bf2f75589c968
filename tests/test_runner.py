"""Tests for the parallel trial runner."""

import pickle

import pytest

from repro.experiments.common import InjectionTrial, run_single_trial
from repro.runner import (
    execute_trials,
    merge_trial_metrics,
    parallel_map,
    resolve_jobs,
)
from repro.runner.executor import _chunk_indices


def _square(x):
    """Module-level so the process pool can pickle it."""
    return x * x


def _quick_trial(seed):
    return InjectionTrial(seed=seed, hop_interval=75)


def _run(base_seed, n, make_trial, jobs):
    """``n`` trials with the derived seeds ``base_seed * 10_000 + i``."""
    return execute_trials(
        [make_trial(base_seed * 10_000 + i) for i in range(n)], jobs=jobs)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_var_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert resolve_jobs(None) == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1


class TestChunking:
    def test_chunks_partition_the_range(self):
        for n_items in (1, 5, 16, 17):
            for n_chunks in (1, 3, 8, 40):
                spans = _chunk_indices(n_items, n_chunks)
                flat = [i for span in spans for i in span]
                assert flat == list(range(n_items))

    def test_no_empty_chunks(self):
        assert all(len(span) > 0 for span in _chunk_indices(3, 16))


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, range(7), jobs=1) == [
            0, 1, 4, 9, 16, 25, 36]

    def test_pool_preserves_order(self):
        assert parallel_map(_square, range(23), jobs=3) == [
            i * i for i in range(23)]

    def test_worker_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            parallel_map(_reciprocal, [2, 0], jobs=2)


def _reciprocal(x):
    return 1 / x


def _metric_trial(seed):
    return InjectionTrial(seed=seed, hop_interval=75, collect_metrics=True)


class TestParallelDeterminism:
    def test_jobs4_equals_jobs1_field_for_field(self):
        """The runner's core contract: job count never changes results."""
        serial = _run(21, 4, _quick_trial, jobs=1)
        parallel = _run(21, 4, _quick_trial, jobs=4)
        assert parallel == serial  # TrialResult eq covers report/records too
        assert [r.attempts for r in parallel] == [r.attempts for r in serial]

    def test_results_survive_pickle(self):
        """Results cross the worker boundary by pickle, loss-free."""
        [result] = execute_trials([_quick_trial(35_0000)], jobs=1)
        assert pickle.loads(pickle.dumps(result)) == result

    def test_cache_argument_is_refused(self):
        with pytest.raises(TypeError):
            execute_trials([_quick_trial(1)], cache=True)


class TestWorkerMetricsMerging:
    def test_snapshots_cross_the_process_boundary(self):
        results = _run(22, 2, _metric_trial, jobs=2)
        for result in results:
            assert result.metrics is not None
            assert result.metrics["counters"]["medium.tx"] > 0

    def test_merged_metrics_identical_at_any_job_count(self):
        """Per-trial snapshots sum to the same campaign aggregate."""
        serial = merge_trial_metrics(_run(23, 3, _metric_trial, jobs=1))
        pooled = merge_trial_metrics(_run(23, 3, _metric_trial, jobs=2))
        assert pooled == serial
        assert serial["counters"]["inject.success"] == 3

    def test_merge_skips_metricless_results(self):
        mixed = (_run(24, 1, _metric_trial, jobs=1)
                 + _run(24, 1, _quick_trial, jobs=1))
        merged = merge_trial_metrics(mixed)
        assert merged["counters"]["inject.success"] == 1

    def test_merge_of_nothing_is_empty(self):
        merged = merge_trial_metrics(_run(25, 2, _quick_trial, jobs=1))
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}


class TestSeedRepeatability:
    """Two distinct seeds, each run twice: identical results both times.

    This is the determinism contract the lint pass exists to protect —
    every field of the result dataclass must match, not just the headline
    success flag.
    """

    @pytest.mark.parametrize("seed", [40_0001, 40_0002])
    def test_same_seed_same_result(self, seed):
        trial = InjectionTrial(seed=seed, hop_interval=75,
                               collect_metrics=True)
        first = run_single_trial(trial)
        second = run_single_trial(trial)
        assert first == second
        assert first.metrics == second.metrics

    def test_different_seeds_differ_somewhere(self):
        a = run_single_trial(InjectionTrial(seed=40_0001, hop_interval=75))
        b = run_single_trial(InjectionTrial(seed=40_0002, hop_interval=75))
        # Seeds must actually steer the world (guards against a seed that
        # is read but never fed into the RNG streams).
        assert a != b
