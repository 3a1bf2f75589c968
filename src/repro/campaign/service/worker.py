"""The campaign worker: lease, execute, report, repeat.

A worker is a plain HTTP client of the coordinator: each protocol
message (``hello``, ``lease``, ``result``) is the JSON body of one
``POST /worker`` request, sent through the same
:mod:`~repro.campaign.service.client` helpers ``repro campaign
submit/status/report`` use, and the coordinator's reply is the response
body.  The worker learns the campaign spec from the ``welcome`` reply,
re-expands the unit grid deterministically on its own side — only unit
ids ever cross the wire — and executes each leased unit through
:func:`repro.runner.run_units_robust`, so the timeout/retry/quarantine
taxonomy of ``repro campaign run`` applies per-unit here too.  Records
are built by the same :func:`repro.campaign.engine.unit_record` the
serial engine uses, which is what makes the merged journal
byte-identical to a serial run.

Workers survive coordinator restarts: an unreachable coordinator
triggers bounded retries (``reconnect_s`` budget), and a fingerprint
mismatch after a restart simply re-runs the hello handshake against the
resumed campaign.  Pointing a worker at another host is a command-line
change (``--connect HOST:PORT``), not a code change.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from typing import Any, Dict, Optional, Sequence

from repro.campaign.engine import TrialUnit, expand_units, unit_record, units_by_id
from repro.campaign.registry import run_unit_trial
from repro.campaign.service.client import _json_or_error, _request
from repro.campaign.service.coordinator import unit_record_payload
from repro.campaign.spec import CampaignSpec
from repro.errors import ServiceError
from repro.runner import run_units_robust

#: Default reconnect budget: how long a worker keeps retrying a dead
#: coordinator before giving up (covers a restart-and-resume window).
DEFAULT_RECONNECT_S = 30.0

#: Pause between reconnect attempts.
RECONNECT_BACKOFF_S = 0.25


def _send(url: str, message: Dict[str, Any]) -> Dict[str, Any]:
    """POST one protocol message to the coordinator; return its reply."""
    body = json.dumps(message, sort_keys=True).encode("utf-8")
    return _json_or_error(*_request(url, "POST", "/worker", body=body))


def _execute_unit(spec: CampaignSpec, unit: TrialUnit) -> Dict[str, Any]:
    """Run one leased unit and serialise its journal record."""
    (outcome,) = run_units_robust(run_unit_trial, [unit.trial], jobs=1,
                                  timeout_s=spec.timeout_s,
                                  max_retries=spec.max_retries,
                                  backoff_s=spec.backoff_s)
    record = unit_record(unit, outcome)
    return unit_record_payload(record)


def _serve_session(url: str, worker_id: str) -> str:
    """Drive one campaign until it yields; returns why it stopped.

    Return values: ``"drained"`` (campaign finished), ``"idle"`` (no
    campaign loaded yet), ``"stale"`` (fingerprint changed under us —
    re-hello wanted).
    """
    welcome = _send(url, {"op": "hello", "worker": worker_id})
    op = welcome.get("op")
    if op == "idle":
        return "idle"  # coordinator is up but has no campaign loaded
    if op != "welcome":
        raise ServiceError(f"unexpected hello reply: {welcome!r}")
    fingerprint = welcome.get("fingerprint")
    if not isinstance(fingerprint, str):
        raise ServiceError(f"welcome reply lacks a fingerprint: {welcome!r}")
    spec_dict = welcome.get("spec")
    if not isinstance(spec_dict, dict):
        raise ServiceError(f"welcome reply lacks a spec: {welcome!r}")
    spec = CampaignSpec.from_dict(spec_dict)
    if spec.fingerprint != fingerprint:
        raise ServiceError("coordinator spec does not match its "
                           "advertised fingerprint")
    units = units_by_id(expand_units(spec))
    while True:
        reply = _send(url, {"op": "lease", "worker": worker_id,
                            "fingerprint": fingerprint})
        op = reply.get("op")
        if op == "drained":
            return "drained"
        if op == "idle":
            # The coordinator restarted (or our campaign was replaced and
            # closed) between leases; re-handshake instead of erroring.
            return "idle"
        if op == "wait":
            time.sleep(float(reply.get("retry_s", 0.2)))
            continue
        if op == "error":
            return "stale"
        if op != "unit":
            raise ServiceError(f"unexpected lease reply: {reply!r}")
        unit_id = str(reply.get("unit_id"))
        unit = units.get(unit_id)
        if unit is None:
            raise ServiceError(f"leased unknown unit {unit_id!r}")
        payload = _execute_unit(spec, unit)
        ack = _send(url, {"op": "result", "worker": worker_id,
                          "fingerprint": fingerprint,
                          "record": payload})
        if ack.get("op") not in ("ack", "error"):
            raise ServiceError(f"unexpected result reply: {ack!r}")
        if ack.get("op") == "ack" and ack.get("done"):
            return "drained"  # our result finished the campaign


def run_worker(host: str, port: int, worker_id: Optional[str] = None,
               oneshot: bool = True,
               reconnect_s: float = DEFAULT_RECONNECT_S) -> int:
    """Work a coordinator until its campaign drains.

    Args:
        host, port: the coordinator's address.
        worker_id: stable identity for lease bookkeeping (defaults to
            ``worker-<pid>``).
        oneshot: exit 0 once the campaign drains; with ``False`` the
            worker keeps polling for the next campaign indefinitely.
        reconnect_s: budget of *consecutive* unreachable-coordinator
            time before giving up — any successful session resets it,
            so a coordinator restart mid-campaign is survived as long
            as it comes back within this window.

    Returns the process exit code (0 = drained / finished cleanly).
    """
    name = worker_id or f"worker-{os.getpid()}"
    url = f"{host}:{port}"
    down_since: Optional[float] = None
    while True:
        try:
            stopped = _serve_session(url, name)
            down_since = None
        except (OSError, ServiceError, ValueError):
            now = time.monotonic()
            if down_since is None:
                down_since = now
            if now - down_since > reconnect_s:
                return 1
            time.sleep(RECONNECT_BACKOFF_S)
            continue
        if stopped == "drained" and oneshot:
            return 0
        # idle / stale / non-oneshot drain: pause, then re-handshake.
        time.sleep(RECONNECT_BACKOFF_S)


def worker_entry(host: str, port: int, worker_id: str,
                 oneshot: bool = True,
                 reconnect_s: float = DEFAULT_RECONNECT_S,
                 close_fds: Sequence[int] = ()) -> None:
    """Process target wrapping :func:`run_worker` (exit code = result).

    ``close_fds`` names file descriptors the fork inherited but must
    not keep — above all the coordinator's *listening* socket, which
    would otherwise hold the port hostage after a coordinator crash
    and block the restarted coordinator from rebinding it.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    raise SystemExit(run_worker(host, port, worker_id=worker_id,
                                oneshot=oneshot, reconnect_s=reconnect_s))


def spawn_worker(host: str, port: int, worker_id: str,
                 oneshot: bool = True,
                 reconnect_s: float = DEFAULT_RECONNECT_S,
                 close_fds: Sequence[int] = (),
                 ) -> "multiprocessing.process.BaseProcess":
    """Start a worker in a child process and return its handle.

    Uses the ``fork`` start method where available so experiments
    registered by the parent (e.g. test fixtures) are inherited — the
    same convention :func:`repro.runner.run_units_robust` relies on.
    Pass the coordinator's listening descriptors via ``close_fds`` so
    the child releases them immediately (see :func:`worker_entry`).
    """
    try:
        ctx: Any = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()
    # NOT daemonic: the worker itself forks a killable child per unit
    # (run_units_robust), and daemons may not have children.
    process = ctx.Process(target=worker_entry,
                          args=(host, port, worker_id),
                          kwargs={"oneshot": oneshot,
                                  "reconnect_s": reconnect_s,
                                  "close_fds": tuple(close_fds)},
                          daemon=False)
    process.start()
    return process

