"""Thin stdlib HTTP client for the campaign service.

``repro campaign submit/status/report --url`` and the worker's
``POST /worker`` messages go through here, as can any script: the
functions speak plain ``http.client`` (no third-party dependency),
return the parsed JSON payloads, and raise
:class:`~repro.errors.ServiceError` with the server's error message on
non-200 responses.  :func:`follow_status` yields the ``/status?follow``
NDJSON event stream line by line until the terminal ``done`` event.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import ServiceError


def parse_url(url: str) -> Tuple[str, int]:
    """Extract host and port from ``http://HOST:PORT`` (or ``HOST:PORT``)."""
    trimmed = url.strip()
    for prefix in ("http://", "https://"):
        if trimmed.startswith(prefix):
            if prefix == "https://":
                raise ServiceError("the campaign service speaks plain "
                                   "HTTP; use an http:// URL")
            trimmed = trimmed[len(prefix):]
    trimmed = trimmed.rstrip("/")
    host, sep, port = trimmed.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ServiceError(f"expected http://HOST:PORT, got {url!r}")
    return host, int(port)


def _request(url: str, method: str, path: str,
             body: Optional[bytes] = None,
             timeout_s: float = 30.0) -> Tuple[int, bytes]:
    """One request/response exchange; returns (status, raw body)."""
    host, port = parse_url(url)
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except OSError as exc:
        raise ServiceError(f"cannot reach campaign service at {url}: "
                           f"{exc}") from exc
    finally:
        conn.close()


def _json_or_error(status: int, raw: bytes) -> Dict[str, Any]:
    """Parse a JSON payload, surfacing server-side errors as exceptions."""
    try:
        payload = json.loads(raw)
    except ValueError:
        payload = {"error": raw.decode("utf-8", "replace").strip()}
    if status != 200:
        message = payload.get("error") if isinstance(payload, dict) \
            else None
        raise ServiceError(message or f"service returned HTTP {status}")
    if not isinstance(payload, dict):
        raise ServiceError(f"malformed service payload: {payload!r}")
    return payload


def submit_campaign(url: str, spec_dict: Dict[str, Any],
                    journal: Optional[str] = None) -> Dict[str, Any]:
    """POST a campaign spec; returns the acceptance summary."""
    body = json.dumps({"spec": spec_dict, "journal": journal}
                      if journal else spec_dict).encode("utf-8")
    status, raw = _request(url, "POST", "/campaign", body=body)
    return _json_or_error(status, raw)


def fetch_status(url: str) -> Dict[str, Any]:
    """GET the machine-readable campaign/service status."""
    status, raw = _request(url, "GET", "/status")
    return _json_or_error(status, raw)


def fetch_report(url: str, as_json: bool = False) -> Any:
    """GET the campaign report (text, or the dict form with ``as_json``)."""
    path = "/report?format=json" if as_json else "/report"
    status, raw = _request(url, "GET", path)
    if as_json:
        return _json_or_error(status, raw)
    if status != 200:
        _json_or_error(status, raw)  # raises with the server's message
    return raw.decode("utf-8")


def fetch_metrics(url: str) -> Dict[str, Any]:
    """GET the coordinator's telemetry snapshot."""
    status, raw = _request(url, "GET", "/metrics")
    return _json_or_error(status, raw)


def follow_status(url: str,
                  timeout_s: float = 3600.0) -> Iterator[Dict[str, Any]]:
    """Yield ``/status?follow=1`` events until the stream ends.

    The final event has ``event == "done"``; the generator closes the
    connection when the server does (the stream is framed by close).
    """
    host, port = parse_url(url)
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", "/status?follow=1")
        response = conn.getresponse()
        if response.status != 200:
            _json_or_error(response.status, response.read())
        while True:
            line = response.readline()
            if not line:
                return
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            if isinstance(event, dict):
                yield event
                if event.get("event") == "done":
                    return
    except OSError as exc:
        raise ServiceError(f"cannot reach campaign service at {url}: "
                           f"{exc}") from exc
    finally:
        conn.close()
