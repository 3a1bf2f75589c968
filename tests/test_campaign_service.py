"""Tests for the distributed campaign service.

Layers, roughly bottom-up:

* **LeaseQueue** — pure scheduling semantics under a scripted clock:
  grant order, steal age gating, deadline expiry, first-wins dedup.
* **Coordinator** — the dict-level worker protocol against a real
  journal: welcome/lease/result round-trips, duplicate and stale-result
  handling, telemetry counters, the status event stream.
* **HTTP API** — submit/status/report/metrics over a live socket via
  the stdlib client, including the one-campaign-at-a-time conflict,
  the worker protocol on ``POST /worker``, ill-typed worker records,
  and a fuzz of the request parser with raw bytes.
* **The acceptance criterion** — a 48-unit campaign served to three
  worker processes; one worker is SIGKILLed mid-run, then the
  coordinator itself is torn down and a fresh one resumes the same
  journal on the same port.  Every unit must land in the journal
  exactly once and the report must be byte-identical to a serial
  ``run_campaign`` baseline.
* **Journal durability** — fsync-on-append flag, and recovery from a
  tail truncated *mid-record* (not just a torn appended line).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignSpec,
    ExperimentDef,
    build_report,
    load_state,
    read_journal,
    register_experiment,
    register_trial_runner,
    run_campaign,
)
from repro.campaign.service import (
    Coordinator,
    LeaseQueue,
    ServiceServer,
    fetch_metrics,
    fetch_report,
    fetch_status,
    follow_status,
    parse_url,
    serve_campaign,
    spawn_worker,
    submit_campaign,
)
from repro.campaign.service import server as server_module
from repro.campaign.service.coordinator import unit_record_payload
from repro.cli import main
from repro.errors import ConfigurationError, ReproError, ServiceError
from repro.experiments.common import TrialResult

# --------------------------------------------------------------------------
# Synthetic experiments (module-level: fork-inherited by worker processes).


@dataclasses.dataclass(frozen=True)
class _SleepyTrial:
    seed: int


@dataclasses.dataclass(frozen=True)
class _QuickTrial:
    seed: int


def _run_sleepy_trial(trial):
    time.sleep(0.03)  # long enough to kill things mid-campaign
    return TrialResult(success=True, attempts=trial.seed % 3 + 1,
                       effect_observed=True, connection_survived=True)


def _run_quick_trial(trial):
    return TrialResult(success=trial.seed % 4 != 3,
                       attempts=trial.seed % 2 + 1,
                       effect_observed=True, connection_survived=True)


def _sleepy_units(base_seed=0, n_connections=2):
    return [("sleepy", _SleepyTrial(seed=base_seed + i))
            for i in range(n_connections)]


def _quick_units(base_seed=0, n_connections=2):
    return [("quick", _QuickTrial(seed=base_seed + i))
            for i in range(n_connections)]


register_experiment(ExperimentDef(
    "test-sleepy", _sleepy_units, "slow fixture"), replace=True)
register_experiment(ExperimentDef(
    "test-quick", _quick_units, "instant fixture"), replace=True)
register_trial_runner(_SleepyTrial, _run_sleepy_trial, replace=True)
register_trial_runner(_QuickTrial, _run_quick_trial, replace=True)


def _quick_spec(n=6) -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "svc-quick", "seed": 0, "timeout_s": 60,
        "axes": [{"experiment": "test-quick", "n_connections": n}],
    })


def _grid48_spec() -> CampaignSpec:
    """48 units across two axes — the acceptance-criterion grid."""
    return CampaignSpec.from_dict({
        "name": "svc-grid48", "seed": 0, "timeout_s": 60,
        "axes": [
            {"experiment": "test-sleepy", "n_connections": 32},
            {"experiment": "test-quick", "n_connections": 16},
        ],
    })


# --------------------------------------------------------------------------
# LeaseQueue: pure scheduling semantics.


class TestLeaseQueue:
    def test_pending_granted_in_order_then_nothing(self):
        q = LeaseQueue(["a", "b"], lease_timeout_s=10, steal_after_s=5)
        first = q.lease("w1", now=0.0)
        second = q.lease("w2", now=0.1)
        assert (first.unit_id, first.stolen) == ("a", False)
        assert (second.unit_id, second.stolen) == ("b", False)
        assert q.lease("w3", now=0.2) is None  # too young to steal
        assert q.pending_count == 0 and q.inflight_count == 2

    def test_steal_requires_age_and_resets_it(self):
        q = LeaseQueue(["a"], lease_timeout_s=100, steal_after_s=2)
        q.lease("w1", now=0.0)
        assert q.lease("w2", now=1.9) is None
        grant = q.lease("w2", now=2.1)
        assert grant.stolen and grant.unit_id == "a"
        assert sorted(q.holders("a")) == ["w1", "w2"]
        # the steal refreshed last_granted: w3 must wait a full period
        assert q.lease("w3", now=3.0) is None
        assert q.lease("w3", now=4.2).stolen

    def test_worker_never_steals_its_own_lease(self):
        q = LeaseQueue(["a"], lease_timeout_s=100, steal_after_s=1)
        q.lease("w1", now=0.0)
        assert q.lease("w1", now=50.0) is None

    def test_expired_lease_is_requeued_and_regranted(self):
        q = LeaseQueue(["a"], lease_timeout_s=5, steal_after_s=100)
        q.lease("w1", now=0.0)
        assert q.requeue_expired(now=4.9) == []
        assert q.requeue_expired(now=5.1) == ["a"]
        grant = q.lease("w2", now=5.2)
        assert grant.unit_id == "a" and not grant.stolen

    def test_complete_is_first_wins_with_latency(self):
        q = LeaseQueue(["a"], lease_timeout_s=100, steal_after_s=1)
        q.lease("w1", now=1.0)
        q.lease("w2", now=2.5)  # steal
        done = q.complete("a", now=4.0)
        assert done.first and done.latency_s == pytest.approx(3.0)
        again = q.complete("a", now=4.1)
        assert not again.first and again.latency_s is None
        assert q.drained

    def test_complete_of_pending_unit_removes_it(self):
        q = LeaseQueue(["a", "b"])
        assert q.complete("b", now=0.0).first  # e.g. replayed journal
        grant = q.lease("w1", now=0.1)
        assert grant.unit_id == "a"
        q.complete("a", now=0.2)
        assert q.drained


# --------------------------------------------------------------------------
# Coordinator: the dict-level protocol against a real journal.


class _Clock:
    """Scripted monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _drain_units(coordinator, spec, worker="w"):
    """Lease and complete every unit the way a worker would."""
    from repro.campaign.engine import expand_units, unit_record, units_by_id
    from repro.campaign.registry import run_unit_trial
    from repro.runner import run_units_robust

    units = units_by_id(expand_units(spec))
    while True:
        reply = coordinator.handle_message({
            "op": "lease", "worker": worker,
            "fingerprint": spec.fingerprint})
        if reply["op"] == "drained":
            return
        assert reply["op"] == "unit"
        unit = units[reply["unit_id"]]
        (outcome,) = run_units_robust(run_unit_trial, [unit.trial], jobs=1,
                                      timeout_s=60, max_retries=0,
                                      backoff_s=0.01)
        record = unit_record(unit, outcome)
        ack = coordinator.handle_message({
            "op": "result", "worker": worker,
            "fingerprint": spec.fingerprint,
            "record": unit_record_payload(record)})
        assert ack["op"] == "ack" and not ack["duplicate"]


class TestCoordinator:
    def test_protocol_roundtrip_matches_serial_run(self, tmp_path):
        spec = _quick_spec()
        serial = tmp_path / "serial.jsonl"
        run_campaign(spec, serial, jobs=1)

        clock = _Clock()
        coordinator = Coordinator(clock=clock)
        welcome = coordinator.handle_message({"op": "hello",
                                              "worker": "w"})
        assert welcome["op"] == "idle"  # nothing submitted yet
        coordinator.submit(spec, tmp_path / "served.jsonl")
        welcome = coordinator.handle_message({"op": "hello", "worker": "w"})
        assert welcome["op"] == "welcome"
        assert welcome["fingerprint"] == spec.fingerprint
        assert CampaignSpec.from_dict(welcome["spec"]) == spec
        _drain_units(coordinator, spec)
        coordinator.close()

        assert coordinator.complete
        assert build_report(load_state(tmp_path / "served.jsonl")) == \
            build_report(load_state(serial))

    def test_duplicate_and_stale_results_are_discarded(self, tmp_path):
        spec = _quick_spec(n=2)
        clock = _Clock()
        coordinator = Coordinator(clock=clock)
        coordinator.submit(spec, tmp_path / "j.jsonl")
        grant = coordinator.handle_lease("w1", spec.fingerprint)
        from repro.campaign.engine import expand_units, unit_record, units_by_id
        from repro.runner.executor import UnitOutcome

        unit = units_by_id(expand_units(spec))[grant["unit_id"]]
        result = TrialResult(success=True, attempts=1,
                             effect_observed=True,
                             connection_survived=True)
        outcome = UnitOutcome(index=0, status="ok", result=result,
                              detail="", retries=0)
        payload = unit_record_payload(
            unit_record(unit, outcome))

        stale = coordinator.handle_result("w1", "not-the-fingerprint",
                                          payload)
        assert stale["op"] == "error"
        first = coordinator.handle_result("w1", spec.fingerprint, payload)
        assert first["op"] == "ack" and not first["duplicate"]
        second = coordinator.handle_result("w2", spec.fingerprint, payload)
        assert second["op"] == "ack" and second["duplicate"]

        counters = coordinator.metrics.snapshot()["counters"]
        assert counters["service.units.completed"] == 1
        assert counters["service.units.duplicate"] == 1
        assert counters["service.results.stale"] == 1
        # exactly one unit record hit the journal
        coordinator.close()
        _, _, records, _ = read_journal(tmp_path / "j.jsonl")
        assert list(records) == [unit.unit_id]

    def test_record_not_matching_its_grid_unit_is_refused(self, tmp_path):
        spec = _quick_spec(n=2)
        coordinator = Coordinator(clock=_Clock())
        coordinator.submit(spec, tmp_path / "j.jsonl")
        grant = coordinator.handle_lease("w1", spec.fingerprint)
        good = {"unit_id": grant["unit_id"], "experiment": "test-quick",
                "config_key": "quick", "status": "ok",
                "result": {"success": True, "attempts": 1,
                           "effect_observed": True,
                           "connection_survived": True}}
        for bad in ({**good, "experiment": "hop"},
                    {**good, "config_key": "25"},
                    {**good, "status": "done"},
                    {**good, "result": {**good["result"], "attempts": "1"}}):
            with pytest.raises(ReproError):
                coordinator.handle_result("w1", spec.fingerprint, bad)
        assert coordinator.campaign.state.done == 0
        ack = coordinator.handle_result("w1", spec.fingerprint, good)
        assert ack["op"] == "ack" and not ack["duplicate"]
        coordinator.close()

    def test_lease_telemetry_counts_steals_and_requeues(self, tmp_path):
        spec = _quick_spec(n=1)
        clock = _Clock()
        coordinator = Coordinator(clock=clock, lease_timeout_s=5,
                                  steal_after_s=1)
        coordinator.submit(spec, tmp_path / "j.jsonl")
        coordinator.handle_lease("w1", spec.fingerprint)
        clock.now = 2.0
        stolen = coordinator.handle_lease("w2", spec.fingerprint)
        assert stolen["stolen"] is True
        clock.now = 20.0  # both leases expired
        waiting = coordinator.handle_lease("w3", spec.fingerprint)
        assert waiting["op"] == "unit"  # requeued, then granted fresh
        counters = coordinator.metrics.snapshot()["counters"]
        assert counters["service.units.leased"] == 3
        assert counters["service.units.stolen"] == 1
        assert counters["service.units.requeued"] == 1
        coordinator.close()

    def test_second_submit_while_incomplete_is_refused(self, tmp_path):
        coordinator = Coordinator(clock=_Clock())
        coordinator.submit(_quick_spec(), tmp_path / "a.jsonl")
        with pytest.raises(ConfigurationError, match="still being served"):
            coordinator.submit(_quick_spec(n=3), tmp_path / "b.jsonl")
        coordinator.close()

    def test_event_stream_reports_each_unit_then_done(self, tmp_path):
        spec = _quick_spec(n=3)
        coordinator = Coordinator(clock=_Clock())
        coordinator.submit(spec, tmp_path / "j.jsonl")

        class _Sink(list):
            def put_nowait(self, item):
                self.append(item)

        sink = _Sink()
        coordinator.subscribe(sink)
        _drain_units(coordinator, spec)
        coordinator.close()
        kinds = [event["event"] for event in sink]
        assert kinds[0] == "status"
        assert kinds.count("unit") == 3
        assert kinds[-1] == "done"
        assert sink[-1]["campaign"]["done"] == 3


# --------------------------------------------------------------------------
# HTTP API over a live socket.


def _run_server(coroutine):
    """Run an async server-driving test body to completion."""
    return asyncio.run(coroutine)


async def _with_server(body, **coordinator_kwargs):
    """Start a coordinator+server on an ephemeral port, run ``body``."""
    coordinator = Coordinator(**coordinator_kwargs)
    server = ServiceServer(coordinator, port=0)
    await server.start()
    try:
        return await body(coordinator, server,
                          f"http://127.0.0.1:{server.port}")
    finally:
        await server.stop()
        coordinator.close()


class TestHttpApi:
    def test_submit_status_report_metrics(self, tmp_path):
        spec = _quick_spec()
        serial = tmp_path / "serial.jsonl"
        run_campaign(spec, serial, jobs=1)
        serial_report = build_report(load_state(serial))

        async def body(coordinator, server, url):
            loop = asyncio.get_event_loop()
            health = await loop.run_in_executor(
                None, lambda: fetch_status(url))
            assert health["campaign"] is None
            accepted = await loop.run_in_executor(
                None, lambda: submit_campaign(
                    url, spec.to_dict(),
                    journal=str(tmp_path / "served.jsonl")))
            assert accepted["total"] == 6
            # drain in-process (the protocol path is tested elsewhere)
            await loop.run_in_executor(
                None, lambda: _drain_units(coordinator, spec))
            status = await loop.run_in_executor(
                None, lambda: fetch_status(url))
            assert status["campaign"]["done"] == 6
            report = await loop.run_in_executor(
                None, lambda: fetch_report(url))
            report_json = await loop.run_in_executor(
                None, lambda: fetch_report(url, as_json=True))
            metrics = await loop.run_in_executor(
                None, lambda: fetch_metrics(url))
            return report, report_json, metrics

        report, report_json, metrics = _run_server(_with_server(body))
        assert report == serial_report + "\n"
        assert report_json["campaign"]["name"] == "svc-quick"
        assert report_json["campaign"]["done"] == 6
        assert metrics["counters"]["service.units.completed"] == 6

    def test_conflicting_submit_and_bad_requests(self, tmp_path):
        spec = _quick_spec()

        async def body(coordinator, server, url):
            loop = asyncio.get_event_loop()
            await loop.run_in_executor(
                None, lambda: submit_campaign(
                    url, spec.to_dict(),
                    journal=str(tmp_path / "a.jsonl")))
            with pytest.raises(ServiceError, match="still being served"):
                await loop.run_in_executor(
                    None, lambda: submit_campaign(
                        url, spec.to_dict(),
                        journal=str(tmp_path / "b.jsonl")))
            import http.client

            def raw(method, path):
                conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                                  timeout=10)
                try:
                    conn.request(method, path)
                    response = conn.getresponse()
                    return response.status, response.read()
                finally:
                    conn.close()

            not_found = await loop.run_in_executor(
                None, lambda: raw("GET", "/nope"))
            wrong_method = await loop.run_in_executor(
                None, lambda: raw("DELETE", "/status"))
            health = await loop.run_in_executor(
                None, lambda: raw("GET", "/healthz"))
            return not_found, wrong_method, health

        not_found, wrong_method, health = _run_server(_with_server(body))
        assert not_found[0] == 404
        assert wrong_method[0] == 405
        assert health[0] == 200 and json.loads(health[1]) == {"ok": True}

    def test_malformed_requests_get_400_or_a_quiet_close(self, monkeypatch):
        """Framing errors end in a response or a dropped peer, never in an
        exception that escapes the connection task.  A small size cap
        keeps the oversized inputs small."""
        cap = 1024
        monkeypatch.setattr(server_module, "MAX_MESSAGE_BYTES", cap)

        async def exchange(port, blob):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(blob)
            await writer.drain()
            try:
                return await reader.read()
            except ConnectionResetError:
                return b""
            finally:
                writer.close()

        async def body(coordinator, server, url):
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            negative = await exchange(
                server.port,
                b"POST /campaign HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
            long_head = await exchange(
                server.port, b"GET /healthz HTTP/1.1\r\nX-Pad: "
                + b"a" * (cap + 100) + b"\r\n\r\n")
            long_body = await exchange(
                server.port,
                b"POST /worker HTTP/1.1\r\nContent-Length: "
                + str(cap + 100).encode() + b"\r\n\r\n"
                + b'{"op": "' + b"a" * (cap + 100) + b'"}')
            health = await exchange(
                server.port, b"GET /healthz HTTP/1.1\r\n\r\n")
            return unhandled, negative, long_head, long_body, health

        unhandled, negative, long_head, long_body, health = \
            _run_server(_with_server(body))
        assert negative.startswith(b"HTTP/1.1 400 ")
        assert b"bad Content-Length" in negative
        assert long_head.startswith(b"HTTP/1.1 400 ")
        assert long_body.startswith(b"HTTP/1.1 400 ")
        assert b"exceeds size cap" in long_body
        assert health.startswith(b"HTTP/1.1 200 ")
        assert unhandled == []

    def test_url_and_endpoint_parsing(self):
        assert parse_url("http://127.0.0.1:8000") == ("127.0.0.1", 8000)
        assert parse_url("127.0.0.1:8000/") == ("127.0.0.1", 8000)
        # the form ``repro campaign worker --connect`` takes
        assert parse_url("10.0.0.2:4100") == ("10.0.0.2", 4100)
        for bad in ("https://x:1", "nope", "host:", "no-port"):
            with pytest.raises(ServiceError):
                parse_url(bad)


    def test_ill_typed_result_is_refused_and_report_still_builds(
            self, tmp_path):
        """A result whose record is ill-typed is answered ``op: error``
        over ``POST /worker`` and never reaches the journal, so the
        report keeps building."""
        spec = _quick_spec(n=2)
        journal = tmp_path / "j.jsonl"

        async def body(coordinator, server, url):
            loop = asyncio.get_event_loop()
            coordinator.submit(spec, journal)
            lines_before = journal.read_text()

            def post(message):
                return _post_worker(server.port, message)

            grant = await loop.run_in_executor(None, lambda: post({
                "op": "lease", "worker": "w",
                "fingerprint": spec.fingerprint}))
            reply = await loop.run_in_executor(None, lambda: post({
                "op": "result", "worker": "w",
                "fingerprint": spec.fingerprint,
                "record": {"unit_id": grant[1]["unit_id"], "status": "ok",
                           "result": "garbage"}}))
            report = await loop.run_in_executor(
                None, lambda: fetch_report(url))
            return grant, reply, lines_before, report

        grant, reply, lines_before, report = _run_server(_with_server(body))
        assert grant[0] == 200 and grant[1]["op"] == "unit"
        assert reply[0] == 200 and reply[1]["op"] == "error"
        assert "result" in reply[1]["error"]
        assert journal.read_text() == lines_before  # no unit line added
        assert "svc-quick" in report

    def test_follower_streams_each_unit_then_done(self, tmp_path):
        """A ``GET /status?follow=1`` client that stays connected gets
        the status event, one event per unit and ``done``; then the
        stream closes and the subscriber is dropped."""
        spec = _quick_spec(n=2)

        async def body(coordinator, server, url):
            loop = asyncio.get_event_loop()
            coordinator.submit(spec, tmp_path / "j.jsonl")
            follower = loop.run_in_executor(
                None, lambda: list(follow_status(url, timeout_s=10)))
            while not coordinator._subscribers:
                await asyncio.sleep(0.01)
            _drain_units(coordinator, spec)
            events = await asyncio.wait_for(follower, 10)
            return events, len(coordinator._subscribers)

        events, subscribers = _run_server(_with_server(body))
        kinds = [event["event"] for event in events]
        assert kinds == ["status", "unit", "unit", "done"]
        assert subscribers == 0

    def test_abandoned_follower_is_released(self):
        """A ``GET /status?follow=1`` client that hangs up leaves no
        subscriber and no open connection behind within 1 s, although
        no campaign is loaded that could ever drain."""

        async def body(coordinator, server, url):
            loop = asyncio.get_event_loop()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"GET /status?follow=1 HTTP/1.1\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            first = json.loads(await reader.readline())
            # white-box: the follower's subscriber queue and connection
            held = (len(coordinator._subscribers), len(server._connections))
            writer.close()
            await writer.wait_closed()
            deadline = loop.time() + 1.0
            while loop.time() < deadline and (
                    coordinator._subscribers or server._connections):
                await asyncio.sleep(0.01)
            left = (len(coordinator._subscribers), len(server._connections))
            return head, first, held, left

        head, first, held, left = _run_server(_with_server(body))
        assert head.startswith(b"HTTP/1.1 200 ")
        assert first["event"] == "status"
        assert held == (1, 1)
        assert left == (0, 0)

    def test_ill_shaped_metrics_are_refused_and_report_still_builds(
            self, tmp_path):
        """A record that is well-typed but for its metrics snapshot
        (``{"counters": "x"}``) is answered ``op: error``: it adds no
        journal line and ``GET /report`` still builds.  The same record
        with ``metrics: null`` is then acked."""
        from repro.campaign.engine import expand_units

        spec = _quick_spec(n=2)
        journal = tmp_path / "j.jsonl"
        units = {unit.unit_id: unit for unit in expand_units(spec)}

        async def body(coordinator, server, url):
            loop = asyncio.get_event_loop()
            coordinator.submit(spec, journal)
            lines_before = journal.read_text()

            def post(message):
                return _post_worker(server.port, message)

            grant = await loop.run_in_executor(None, lambda: post({
                "op": "lease", "worker": "w",
                "fingerprint": spec.fingerprint}))
            unit = units[grant[1]["unit_id"]]
            record = {"unit_id": unit.unit_id,
                      "experiment": unit.experiment,
                      "config_key": unit.config_key, "status": "ok",
                      "result": {"success": True, "attempts": 1,
                                 "effect_observed": True,
                                 "connection_survived": True},
                      "metrics": {"counters": "x"}}

            def post_record(metrics):
                return post({"op": "result", "worker": "w",
                             "fingerprint": spec.fingerprint,
                             "record": {**record, "metrics": metrics}})

            refused = await loop.run_in_executor(
                None, lambda: post_record({"counters": "x"}))
            lines_after = journal.read_text()
            report = await loop.run_in_executor(
                None, lambda: fetch_report(url))
            acked = await loop.run_in_executor(
                None, lambda: post_record(None))
            return refused, lines_before, lines_after, report, acked

        refused, lines_before, lines_after, report, acked = \
            _run_server(_with_server(body))
        assert refused[0] == 200 and refused[1]["op"] == "error"
        assert "metrics" in refused[1]["error"]
        assert lines_after == lines_before  # no unit line added
        assert "svc-quick" in report
        assert acked[0] == 200 and acked[1]["op"] == "ack"


def _post_worker(port, message):
    """One ``POST /worker`` exchange; returns (status, decoded reply)."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("POST", "/worker", body=json.dumps(message).encode())
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


# --------------------------------------------------------------------------
# Fuzz: raw bytes against a live server.


class _ThreadedServer:
    """A coordinator's server on an event loop in a background thread,
    so blocking sockets (and hypothesis) can drive it."""

    def __init__(self, coordinator):
        self.unhandled = []
        self.loop = asyncio.new_event_loop()
        self.loop.set_exception_handler(
            lambda loop, context: self.unhandled.append(context))
        self.server = ServiceServer(coordinator, port=0)
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self._call(self.server.start())
        self.port = self.server.port

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self.loop).result(timeout=10)

    def close(self):
        self._call(self.server.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()
        self.loop.close()


def _raw_exchange(port, blob):
    """Send ``blob``, half-close, and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            sock.sendall(blob)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server may answer and close before reading it all
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _http_request(head, body=b""):
    return head + b"\r\n\r\n" + body


_FUZZ_CAP = 16 * 1024
_token = st.binary(max_size=12).filter(
    lambda b: not any(c in b for c in b" \t\r\n\x0b\x0c"))
_request_lines = st.one_of(
    st.binary(max_size=64),
    st.lists(_token, max_size=5).map(b" ".join),
    st.tuples(st.sampled_from([b"GET", b"POST", b"PUT", b"DELETE"]),
              _token.map(lambda t: b"/fuzz" + t),
              st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"x"])
              ).map(b" ".join),
)
_content_lengths = st.one_of(
    st.integers(min_value=-2 ** 40, max_value=2 ** 40).map(
        lambda n: str(n).encode()),
    st.binary(max_size=12).filter(lambda b: b"\r\n" not in b),
)
_header_blocks = st.lists(
    st.one_of(
        st.binary(max_size=40).filter(lambda b: b"\r\n" not in b),
        _content_lengths.map(lambda v: b"Content-Length: " + v),
    ), max_size=4).map(b"\r\n".join)


def _wrong(*kinds):
    """Values of the JSON types ``kinds`` excludes."""
    choices = {
        "bool": st.booleans(), "int": st.integers(-5, 5),
        "str": st.text(max_size=6), "none": st.none(),
        "list": st.lists(st.integers(), max_size=2),
        "dict": st.dictionaries(st.text(max_size=3), st.integers(),
                                max_size=2),
        "float": st.floats(allow_nan=False, allow_infinity=False),
    }
    return st.one_of(*(v for k, v in choices.items() if k not in kinds))


def _ill_shaped_snapshots():
    """Dict snapshots :func:`merge_snapshots` could not fold."""
    hist = {"buckets": [1.0], "counts": [0, 1], "sum": 1.0, "count": 1}
    return st.one_of(
        st.sampled_from(["counters", "gauges", "histograms"]).flatmap(
            lambda section: _wrong("dict").map(lambda v: {section: v})),
        st.sampled_from(["counters", "gauges"]).flatmap(
            lambda section: _wrong("int", "float").map(
                lambda v: {section: {"m": v}})),
        _wrong("dict").map(lambda v: {"histograms": {"h": v}}),
        st.sampled_from(["sum", "count"]).flatmap(
            lambda key: _wrong("int", "float").map(
                lambda v: {"histograms": {"h": {**hist, key: v}}})),
        st.sampled_from(["buckets", "counts"]).flatmap(
            lambda key: _wrong("list").map(
                lambda v: {"histograms": {"h": {**hist, key: v}}})),
        st.lists(st.integers(0, 3), max_size=4).filter(
            lambda counts: len(counts) != 2).map(
            lambda counts: {"histograms": {"h": {**hist,
                                                 "counts": counts}}}),
    )


def _ill_typed_records(unit_id, experiment, config_key):
    good = {"unit_id": unit_id, "experiment": experiment,
            "config_key": config_key, "status": "ok",
            "result": {"success": True, "attempts": 1,
                       "effect_observed": True,
                       "connection_survived": True},
            "failure": None, "metrics": None, "cached": False}

    def with_result(key, value):
        return {**good, "result": {**good["result"], key: value}}

    return st.one_of(
        _wrong("dict").map(lambda v: {**good, "result": v}),
        st.sampled_from(["success", "effect_observed",
                         "connection_survived"]).flatmap(
            lambda key: _wrong("bool").map(lambda v: with_result(key, v))),
        _wrong("int").map(lambda v: with_result("attempts", v)),
        _wrong("dict").map(lambda v: with_result("detection", v)),
        st.text(max_size=8).filter(lambda t: t not in ("ok", "failed")).map(
            lambda v: {**good, "status": v}),
        _wrong("dict").map(
            lambda v: {**good, "status": "failed", "result": None,
                       "failure": v}),
        _wrong("dict", "none").map(lambda v: {**good, "metrics": v}),
        _ill_shaped_snapshots().map(lambda v: {**good, "metrics": v}),
        st.text(max_size=8).filter(lambda t: t != experiment).map(
            lambda v: {**good, "experiment": v}),
        st.text(max_size=8).filter(lambda t: t != config_key).map(
            lambda v: {**good, "config_key": v}),
        st.sampled_from(["unit_id", "status", "result"]).map(
            lambda key: {k: v for k, v in good.items() if k != key}),
    )


def _worker_bodies(fingerprint, unit):
    envelope = {"worker": "fuzz", "fingerprint": fingerprint}
    return st.one_of(
        st.binary(max_size=64),
        st.one_of(st.integers(), st.text(max_size=8),
                  st.lists(st.integers(), max_size=3), st.none()).map(
            lambda v: json.dumps(v).encode()),
        st.text(max_size=10).filter(
            lambda op: op not in ("hello", "lease", "result")).map(
            lambda op: json.dumps({**envelope, "op": op}).encode()),
        _wrong("dict").map(lambda v: json.dumps(
            {**envelope, "op": "result", "record": v}).encode()),
        st.just(json.dumps({**envelope, "op": "result"}).encode()),
        _ill_typed_records(unit.unit_id, unit.experiment,
                           unit.config_key).map(lambda r: json.dumps(
                               {**envelope, "op": "result",
                                "record": r}).encode()),
    )


def _acceptable(reply):
    """A 4xx, a 200 carrying ``op: error``, or a closed connection."""
    if reply == b"":
        return True
    head, _, body = reply.partition(b"\r\n\r\n")
    if head.startswith(b"HTTP/1.1 4"):
        return True
    return (head.startswith(b"HTTP/1.1 200 ")
            and json.loads(body).get("op") == "error")


class TestProtocolFuzz:
    def test_raw_bytes_never_harm_the_coordinator(self, tmp_path,
                                                  monkeypatch):
        """Random request lines, header blocks, ``Content-Length``
        values and ``POST /worker`` bodies each end in a 4xx, a 200
        ``op: error`` or a closed connection; afterwards the loop has
        seen no unhandled exception, ``/healthz`` answers and the
        journal holds no unit record (every fuzzed record was
        ill-typed)."""
        from repro.campaign.engine import expand_units

        monkeypatch.setattr(server_module, "MAX_MESSAGE_BYTES", _FUZZ_CAP)
        spec = _quick_spec(n=2)
        journal = tmp_path / "fuzz.jsonl"
        coordinator = Coordinator()
        coordinator.submit(spec, journal)
        unit = expand_units(spec)[0]
        live = _ThreadedServer(coordinator)
        try:
            worker_posts = _worker_bodies(spec.fingerprint, unit).map(
                lambda body: _http_request(
                    b"POST /worker HTTP/1.1\r\nContent-Length: "
                    + str(len(body)).encode(), body))
            raw = st.tuples(_request_lines, _header_blocks,
                            st.binary(max_size=32)).map(
                lambda parts: _http_request(
                    parts[0] + b"\r\n" + parts[1], parts[2]))

            @settings(max_examples=250, deadline=None, database=None,
                      suppress_health_check=list(HealthCheck))
            @given(blob=st.one_of(worker_posts, raw))
            @example(blob=_http_request(
                b"POST /worker HTTP/1.1\r\nContent-Length: 12000",
                b"[" * 12000))
            @example(blob=b"")
            @example(blob=b"GET /healthz HTTP/1.1\r\n")  # no blank line
            def check(blob):
                reply = _raw_exchange(live.port, blob)
                assert _acceptable(reply), (blob, reply)

            check()
            health = _raw_exchange(
                live.port, _http_request(b"GET /healthz HTTP/1.1"))
        finally:
            live.close()
            coordinator.close()
        assert live.unhandled == []
        assert health.startswith(b"HTTP/1.1 200 ")
        _, _, records, _ = read_journal(journal)  # validates every record
        assert records == {}
        assert build_report(load_state(journal))


# --------------------------------------------------------------------------
# serve_campaign: managed fleets.


class TestServeCampaign:
    def test_served_report_is_byte_identical_to_serial(self, tmp_path):
        spec = _quick_spec()
        serial = tmp_path / "serial.jsonl"
        run_campaign(spec, serial, jobs=1)
        events = []
        state = serve_campaign(spec, tmp_path / "served.jsonl", workers=2,
                               on_event=events.append)
        assert state.done == 6 and not state.pending
        assert build_report(state) == build_report(load_state(serial))
        kinds = [event["event"] for event in events]
        assert kinds.count("unit") == 6 and kinds[-1] == "done"

    def test_all_workers_dead_raises_instead_of_hanging(self, tmp_path):
        """If every managed worker dies, the watchdog must raise rather
        than serve an un-drainable campaign forever.  A supervisor
        thread SIGKILLs the single managed worker the moment it appears;
        sleepy units guarantee it cannot drain the grid first."""
        import multiprocessing
        import threading

        spec = CampaignSpec.from_dict({
            "name": "doomed", "seed": 0, "timeout_s": 60,
            "axes": [{"experiment": "test-sleepy", "n_connections": 8}],
        })

        def killer():
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                children = multiprocessing.active_children()
                if children:
                    for child in children:
                        child.kill()
                    return
                time.sleep(0.005)

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        with pytest.raises(ServiceError, match="every managed worker"):
            serve_campaign(spec, tmp_path / "dead.jsonl", workers=1)
        thread.join(timeout=30)


# --------------------------------------------------------------------------
# The acceptance criterion: SIGKILL a worker mid-run, kill the
# coordinator, resume on the same journal, byte-identical report.


class TestWorkStealingAcceptance:
    def test_kill_worker_and_coordinator_then_resume_byte_identical(
            self, tmp_path):
        spec = _grid48_spec()
        serial = tmp_path / "serial.jsonl"
        run_campaign(spec, serial, jobs=1)
        serial_report = build_report(load_state(serial))
        journal = tmp_path / "served.jsonl"

        async def wait_done(coordinator, minimum, timeout_s=120.0):
            deadline = time.monotonic() + timeout_s
            while time.monotonic() < deadline:
                if coordinator.campaign.state.done >= minimum:
                    return
                await asyncio.sleep(0.02)
            raise AssertionError(
                f"campaign stalled before reaching {minimum} units "
                f"(at {coordinator.campaign.state.done})")

        async def phase_one():
            """Serve until mid-campaign; SIGKILL one worker, then 'crash'
            the coordinator by dropping it without draining."""
            coordinator = Coordinator(lease_timeout_s=30, steal_after_s=0.5)
            server = ServiceServer(coordinator, port=0)
            await server.start()
            port = server.port
            fleet = [spawn_worker("127.0.0.1", port, f"w{i}",
                                  reconnect_s=60.0,
                                  close_fds=server.listen_fds)
                     for i in range(3)]
            try:
                coordinator.submit(spec, journal)
                await wait_done(coordinator, 5)
                fleet[0].kill()  # SIGKILL mid-campaign
                await wait_done(coordinator, 15)
                done = coordinator.campaign.state.done
                assert done < 48, "finished too fast to exercise resume"
            finally:
                await server.stop()
                coordinator.close()  # journal writer released, not drained
            return port, fleet

        async def phase_two(port, fleet):
            """Fresh coordinator, same port, same journal: resume."""
            coordinator = Coordinator(lease_timeout_s=30, steal_after_s=0.5)
            server = ServiceServer(coordinator, host="127.0.0.1", port=port)
            await server.start()
            try:
                state = coordinator.submit(spec, journal)
                assert 0 < state.done < 48  # genuinely mid-campaign
                done_event = asyncio.Event()
                coordinator.add_completion_callback(done_event.set)
                await asyncio.wait_for(done_event.wait(), timeout=120)
                # keep serving while the survivors fetch their
                # "drained" reply and exit; only then tear down
                loop = asyncio.get_event_loop()
                for process in fleet[1:]:
                    await loop.run_in_executor(
                        None, lambda p=process: p.join(30))
            finally:
                await server.stop()
                coordinator.close()
            for process in fleet[1:]:
                assert process.exitcode == 0  # drained and exited cleanly
            fleet[0].join(timeout=10)

        port, fleet = asyncio.run(phase_one())
        try:
            asyncio.run(phase_two(port, fleet))
        finally:
            for process in fleet:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=10)

        # Every unit exactly once: 48 unique unit records, no duplicates.
        unit_lines = [json.loads(line)
                      for line in journal.read_text().splitlines()
                      if '"type": "unit"' in line]
        ids = [line["unit_id"] for line in unit_lines]
        assert len(ids) == 48
        assert len(set(ids)) == 48

        final = load_state(journal)
        assert final.done == 48 and not final.pending
        assert build_report(final) == serial_report


# --------------------------------------------------------------------------
# Journal durability satellites.


class TestJournalDurability:
    def test_fsync_flag_reaches_the_writer_and_journal_is_valid(
            self, tmp_path):
        spec = _quick_spec(n=3)
        journal = tmp_path / "fsync.jsonl"
        state = run_campaign(spec, journal, jobs=1, fsync=True)
        assert state.done == 3
        plain = tmp_path / "plain.jsonl"
        run_campaign(spec, plain, jobs=1)
        # identical bytes: fsync changes durability, not content
        assert journal.read_bytes() == plain.read_bytes()

    def test_fsync_attribute_plumbing(self, tmp_path):
        from repro.campaign import open_journal

        writer, _, _ = open_journal(_quick_spec(), tmp_path / "a.jsonl",
                                    fsync=True)
        assert writer.fsync is True
        writer.close()
        writer, _, _ = open_journal(_quick_spec(), tmp_path / "b.jsonl")
        assert writer.fsync is False
        writer.close()

    def test_truncation_mid_record_recovers_all_complete_records(
            self, tmp_path):
        spec = _quick_spec(n=5)
        journal = tmp_path / "cut.jsonl"
        run_campaign(spec, journal, jobs=1)
        intact = read_journal(journal)[2]
        assert len(intact) == 5

        # cut the file in the middle of the final record, as a power
        # loss or full disk would
        blob = journal.read_bytes()
        last_line_start = blob.rstrip(b"\n").rfind(b"\n") + 1
        cut_at = last_line_start + (len(blob) - last_line_start) // 2
        journal.write_bytes(blob[:cut_at])

        state = load_state(journal)
        assert state.done == 4  # the torn record is dropped, rest survive
        resumed = run_campaign(spec, journal, jobs=1)
        assert resumed.done == 5 and not resumed.pending

    def test_truncated_then_resumed_report_is_byte_identical(self, tmp_path):
        spec = _quick_spec(n=5)
        reference = tmp_path / "ref.jsonl"
        run_campaign(spec, reference, jobs=1)
        cut = tmp_path / "cut.jsonl"
        run_campaign(spec, cut, jobs=1)
        blob = cut.read_bytes()
        last_line_start = blob.rstrip(b"\n").rfind(b"\n") + 1
        cut.write_bytes(blob[:last_line_start + 7])  # mid-record tail
        run_campaign(spec, cut, jobs=1)  # re-executes the torn unit
        assert build_report(load_state(cut)) == \
            build_report(load_state(reference))


# --------------------------------------------------------------------------
# CLI surface: --format json shares the HTTP API's rendering path.


class TestCliJsonFormats:
    def test_status_and_report_format_json(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_quick_spec().to_dict()))
        journal = tmp_path / "j.jsonl"
        assert main(["campaign", "run", str(spec_path),
                     "--journal", str(journal)]) == 0
        capsys.readouterr()

        assert main(["campaign", "status", str(journal),
                     "--format", "json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["name"] == "svc-quick"
        assert status["done"] == status["total"] == 6

        assert main(["campaign", "report", str(journal),
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["campaign"] == status
        assert report["axes"][0]["experiment"] == "test-quick"
        assert "failures" in report and "metrics" in report

    def test_status_requires_journal_or_url(self, capsys):
        assert main(["campaign", "status"]) == 2
        assert "journal" in capsys.readouterr().err

    def test_serve_cli_runs_and_resumes(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_quick_spec().to_dict()))
        journal = tmp_path / "served.jsonl"
        assert main(["serve", str(spec_path), "--journal", str(journal),
                     "--workers", "2", "--port", "0"]) == 0
        capsys.readouterr()
        # resume of a finished journal (no spec): immediate clean exit
        assert main(["serve", "--journal", str(journal),
                     "--workers", "0", "--port", "0"]) == 0
        capsys.readouterr()
        # no spec and no journal: usage error
        assert main(["serve", "--journal",
                     str(tmp_path / "missing.jsonl")]) == 2
