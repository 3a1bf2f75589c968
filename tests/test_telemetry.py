"""Tests for the telemetry subsystem: metrics, JSONL sink, and trace wiring."""

import io
import pickle

import pytest

from repro.experiments.common import InjectionTrial, run_single_trial
from repro.sim.simulator import Simulator
from repro.sim.trace import Trace, TraceRecord
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    MetricsRegistry,
    merge_snapshots,
    read_jsonl,
)


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("tx")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_counter_float_amounts(self):
        c = Counter("airtime")
        c.inc(40.5)
        c.inc(9.5)
        assert c.value == 50.0

    def test_gauge_last_write_wins(self):
        g = Gauge("depth")
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_bucket_placement(self):
        h = Histogram("attempts", (1, 2, 5))
        for v in (1, 1, 2, 3, 5, 99):
            h.observe(v)
        # bounds are inclusive upper edges; 99 overflows
        assert h.counts == [2, 1, 2, 1]
        assert h.count == 6
        assert h.total == 111

    def test_histogram_mean(self):
        h = Histogram("x", (10,))
        assert h.mean == 0.0
        h.observe(4)
        h.observe(6)
        assert h.mean == 5.0

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", (5, 2))
        with pytest.raises(ValueError):
            Histogram("dup", (2, 2))


class TestRegistry:
    def test_instruments_are_cached_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c", (1, 2)) is reg.histogram("c", (1, 2))

    def test_histogram_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            reg.histogram("h", (1, 3))

    def test_disabled_registry_still_hands_out_instruments(self):
        reg = MetricsRegistry(enabled=False)
        assert not reg.enabled
        reg.counter("tx").inc()  # call sites guard; the instrument works
        assert reg.counter("tx").value == 1

    def test_snapshot_omits_untouched_instruments(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("used").inc(2)
        reg.counter("unused")
        reg.gauge("never_set")
        reg.histogram("empty", (1,))
        snap = reg.snapshot()
        assert snap["counters"] == {"used": 2}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_snapshot_is_plain_and_picklable(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("tx").inc(5)
        reg.gauge("depth").set(2.0)
        reg.histogram("h", (1, 10)).observe(3)
        snap = reg.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert snap["histograms"]["h"] == {
            "buckets": [1.0, 10.0], "counts": [0, 1, 0],
            "sum": 3.0, "count": 1,
        }

    def test_reset_zeroes_but_keeps_bindings(self):
        reg = MetricsRegistry(enabled=True)
        c = reg.counter("tx")
        h = reg.histogram("h", (1,))
        c.inc()
        h.observe(5)
        reg.reset()
        assert c.value == 0 and h.count == 0 and h.counts == [0, 0]
        c.inc()  # the pre-bound instrument is still live
        assert reg.snapshot()["counters"] == {"tx": 1}


class TestMergeSnapshots:
    def _snap(self, tx, depth, observations):
        reg = MetricsRegistry(enabled=True)
        reg.counter("tx").inc(tx)
        reg.gauge("depth").set(depth)
        h = reg.histogram("h", (1, 5))
        for value in observations:
            h.observe(value)
        return reg.snapshot()

    def test_counters_sum_gauges_max_histograms_add(self):
        merged = merge_snapshots([self._snap(3, 2.0, [1, 7]),
                                  self._snap(4, 9.0, [5])])
        assert merged["counters"] == {"tx": 7}
        assert merged["gauges"] == {"depth": 9.0}
        assert merged["histograms"]["h"]["counts"] == [1, 1, 1]
        assert merged["histograms"]["h"]["count"] == 3
        assert merged["histograms"]["h"]["sum"] == 13.0

    def test_none_entries_are_skipped(self):
        merged = merge_snapshots([None, self._snap(2, 1.0, []), None])
        assert merged["counters"] == {"tx": 2}

    def test_empty_merge(self):
        assert merge_snapshots([]) == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_merge_order_independent(self):
        snaps = [self._snap(1, 1.0, [1]), self._snap(2, 5.0, [2, 9])]
        assert merge_snapshots(snaps) == merge_snapshots(reversed(snaps))

    def test_bucket_mismatch_raises(self):
        a = {"histograms": {"h": {"buckets": [1.0], "counts": [0, 1],
                                  "sum": 2.0, "count": 1}}}
        b = {"histograms": {"h": {"buckets": [2.0], "counts": [1, 0],
                                  "sum": 1.0, "count": 1}}}
        with pytest.raises(ValueError):
            merge_snapshots([a, b])


class TestSinks:
    def _record(self, t=1.0, kind="tx"):
        return TraceRecord(t, "medium", kind, {"channel": 7})

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.write(self._record(5.5, "anchor"))
            sink.write(self._record(6.0))
        assert sink.written == 2
        rows = read_jsonl(path)
        assert rows[0] == {"time_us": 5.5, "source": "medium",
                           "kind": "anchor", "detail": {"channel": 7}}
        assert rows[1]["time_us"] == 6.0

    def test_jsonl_sink_on_open_file_stays_open(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.write(self._record())
        sink.close()
        assert not buffer.closed and buffer.getvalue().count("\n") == 1


class TestTraceBackends:
    def test_default_is_unbounded(self):
        trace = Trace()
        for t in range(5):
            trace.record(float(t), "x", "k")
        assert len(trace) == 5
        assert [r.time_us for r in trace] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_filter_query_helper(self):
        trace = Trace()
        trace.record(1.0, "a", "tx")
        trace.record(2.0, "b", "rx")
        trace.record(3.0, "a", "tx", channel=7)
        assert len(trace.filter(kind="tx", source="a")) == 2
        assert [r.time_us for r in trace.filter(kind="rx")] == [2.0]
        hits = trace.filter(predicate=lambda r: r.detail.get("channel") == 7)
        assert [r.time_us for r in hits] == [3.0]

    def test_disabled_trace_records_nothing(self):
        trace = Trace(enabled=False)
        trace.record(1.0, "x", "k")
        assert len(trace) == 0


class TestSimulatorWiring:
    def test_simulator_owns_a_registry_disabled_by_default(self):
        simulator = Simulator(seed=1)
        assert isinstance(simulator.metrics, MetricsRegistry)
        assert not simulator.metrics.enabled

    def test_world_metrics_flow_end_to_end(self):
        result = run_single_trial(
            InjectionTrial(seed=71_0001, hop_interval=75,
                           collect_metrics=True))
        assert result.success
        counters = result.metrics["counters"]
        assert counters["medium.tx"] > 0
        assert counters["medium.rx"] >= counters["medium.tx"]
        assert counters["inject.attempts"] >= 1
        assert counters["inject.success"] == 1
        assert counters["sniffer.anchors"] > 0
        hist = result.metrics["histograms"]["inject.attempts_to_success"]
        assert hist["count"] == 1
        assert hist["sum"] == result.attempts
        airtime = [k for k in counters if k.startswith("medium.airtime_us.")]
        assert airtime  # per-channel airtime was accounted

    def test_metrics_off_by_default_in_trials(self):
        result = run_single_trial(
            InjectionTrial(seed=71_0002, hop_interval=75))
        assert result.metrics is None
