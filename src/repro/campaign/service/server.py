"""The coordinator's network face: one port, one protocol (HTTP/1.1).

A single ``asyncio`` TCP server parses every connection as one HTTP/1.1
request and answers it with one ``Connection: close`` response.  Workers
and ``repro campaign status --url`` point at the same address, so
deployment is a single ``HOST:PORT`` whether the workers share the host
or not.

The parser is deliberately minimal (hand-rolled request line, headers
and ``Content-Length`` body) because the standard library offers no
asyncio HTTP server and this API serves a handful of trusted clients,
not the open internet.  Endpoints:

* ``GET /healthz`` — liveness probe.
* ``POST /worker`` — one worker-protocol message (``hello``, ``lease``
  or ``result``) as the JSON body; the reply is the coordinator's JSON
  answer with status 200, an ``{"op": "error"}`` one included.
* ``POST /campaign`` — submit a :class:`~repro.campaign.spec.
  CampaignSpec` (raw spec JSON, or ``{"spec": ..., "journal": ...}``).
* ``GET /status`` — machine-readable status; ``?follow=1`` streams
  newline-delimited JSON events until the campaign drains or the client
  hangs up.
* ``GET /report`` — text report; ``?format=json`` for the dict form.
* ``GET /metrics`` — the coordinator's telemetry snapshot.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.campaign.service.coordinator import Coordinator
from repro.campaign.spec import CampaignSpec
from repro.errors import ReproError, ServiceError

#: Hard cap on an HTTP header block and an HTTP body (16 MiB) — a full
#: unit record with merged telemetry fits with huge margin.  It is the
#: streams' buffer limit too: a peer that goes past it gets a 400.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024

_HTTP_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}


def _http_response(status: int, body: bytes,
                   content_type: str = "application/json") -> bytes:
    """Serialise a complete ``Connection: close`` HTTP/1.1 response."""
    reason = _HTTP_STATUS_TEXT.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("ascii") + body


def _json_body(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _json_object(body: bytes) -> Dict[str, Any]:
    """Decode a request body that must hold one JSON object."""
    try:
        payload = json.loads(body)
    except (ValueError, RecursionError):
        raise ServiceError("body is not valid JSON") from None
    if not isinstance(payload, dict):
        raise ServiceError("body must be a JSON object")
    return payload


def _parse_query(raw: str) -> Dict[str, str]:
    """Split ``a=1&b=2`` (the API needs no percent-decoding)."""
    query: Dict[str, str] = {}
    for pair in raw.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        query[key] = value
    return query


class ServiceServer:
    """Binds the :class:`Coordinator` to a TCP port.

    Args:
        coordinator: the campaign coordinator to expose.
        host: bind address (use ``127.0.0.1`` unless you mean it).
        port: TCP port; 0 picks an ephemeral one (read :attr:`port`
            after :meth:`start`).
    """

    def __init__(self, coordinator: Coordinator,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.coordinator = coordinator
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[asyncio.StreamWriter]" = set()

    @property
    def port(self) -> int:
        """The bound port (valid once started)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not listening")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def listen_fds(self) -> "tuple[int, ...]":
        """The listening descriptors — forked children must close these
        (via ``spawn_worker(close_fds=...)``) or a crashed coordinator's
        port stays bound and a restart cannot reclaim it."""
        if self._server is None:
            return ()
        return tuple(sock.fileno() for sock in self._server.sockets or ())

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port,
            limit=MAX_MESSAGE_BYTES)

    async def stop(self) -> None:
        """Stop accepting, then close every open connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        await asyncio.sleep(0)  # let handlers observe the EOF

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Parse one request, route it, send one response, close."""
        self._connections.add(writer)
        try:
            await self._serve_http(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-exchange; nothing to clean up
        except asyncio.CancelledError:
            return  # shutdown while blocked on this peer — close quietly
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_http(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            method, path, query, body = await self._read_request(reader)
        except ServiceError as exc:
            writer.write(_http_response(
                400, _json_body({"error": str(exc)})))
            await writer.drain()
            return
        if path == "/status" and query.get("follow") in ("1", "true"):
            await self._stream_status(reader, writer)
            return
        # Bounded blocking: the coordinator is synchronous by contract
        # (single loop thread).  Its only I/O is one buffered journal
        # append per worker result (+ opt-in fsync) and, on POST
        # /campaign, the journal replay, which *is* the submit operation
        # and must finish before any worker may lease.  An executor hop
        # would serialise on the same single writer anyway.
        status, payload, content_type = self._route(  # lint-ok: blocking-in-async bounded
            method, path, query, body)
        writer.write(_http_response(status, payload, content_type))
        await writer.drain()

    async def _read_request(
            self, reader: asyncio.StreamReader,
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        """Read request line, headers, and Content-Length-framed body."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise ServiceError("header block exceeds size cap")
        request_line, _, header_blob = head.partition(b"\r\n")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ServiceError(f"malformed request line: {parts!r}")
        method, target = parts[0].upper(), parts[1]
        path, _, raw_query = target.partition("?")
        length = 0
        for header in header_blob.decode("latin-1").split("\r\n"):
            name, _, value = header.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = -1
                if length < 0:
                    raise ServiceError(f"bad Content-Length: {value!r}")
        if length > MAX_MESSAGE_BYTES:
            raise ServiceError("request body exceeds size cap")
        body = await reader.readexactly(length) if length else b""
        return method, path, _parse_query(raw_query), body

    def _route(self, method: str, path: str, query: Dict[str, str],
               body: bytes) -> Tuple[int, bytes, str]:
        """Dispatch one parsed request; returns (status, body, type)."""
        try:
            if path == "/healthz" and method == "GET":
                return 200, _json_body({"ok": True}), "application/json"
            if path == "/worker" and method == "POST":
                return self._handle_worker(body)
            if path == "/campaign" and method == "POST":
                return self._handle_submit(body)
            if path == "/status" and method == "GET":
                return (200, _json_body(self.coordinator.status_payload()),
                        "application/json")
            if path == "/report" and method == "GET":
                if query.get("format") == "json":
                    return (200,
                            _json_body(self.coordinator.report_payload()),
                            "application/json")
                text = self.coordinator.report_text()
                return (200, (text + "\n").encode("utf-8"),
                        "text/plain; charset=utf-8")
            if path == "/metrics" and method == "GET":
                return (200,
                        _json_body(self.coordinator.metrics.snapshot()),
                        "application/json")
            if path in ("/healthz", "/worker", "/campaign", "/status",
                        "/report", "/metrics"):
                return (405, _json_body({"error": f"{method} not allowed "
                                                  f"on {path}"}),
                        "application/json")
            return (404, _json_body({"error": f"no such endpoint {path}"}),
                    "application/json")
        except ReproError as exc:
            status = 409 if "still being served" in str(exc) else 400
            return (status, _json_body({"error": str(exc)}),
                    "application/json")
        except ValueError as exc:
            # Report building can surface ValueError (e.g. merging
            # telemetry snapshots with mismatched schemas); translate it
            # into a response instead of crashing the connection task.
            return (500, _json_body({"error": str(exc)}),
                    "application/json")

    def _handle_worker(self, body: bytes) -> Tuple[int, bytes, str]:
        """POST /worker: one worker-protocol message in, its reply out.

        Every well-framed request gets a 200: a message the coordinator
        refuses is answered ``{"op": "error"}``, which the worker's
        protocol already handles.
        """
        try:
            reply = self.coordinator.handle_message(_json_object(body))
        except ReproError as exc:
            reply = {"op": "error", "error": str(exc)}
        return 200, _json_body(reply), "application/json"

    def _handle_submit(self, body: bytes) -> Tuple[int, bytes, str]:
        """POST /campaign: load the spec and start serving it."""
        payload = _json_object(body or b"{}")
        if "spec" in payload:
            spec_dict = payload["spec"]
            journal = payload.get("journal")
        else:
            spec_dict, journal = payload, None
        spec = CampaignSpec.from_dict(spec_dict)
        journal_path = Path(journal) if journal else Path(
            f"{spec.name}.journal.jsonl")
        state = self.coordinator.submit(spec, journal_path)
        return (200, _json_body({
            "name": spec.name,
            "fingerprint": spec.fingerprint,
            "journal": str(journal_path),
            "total": state.total,
            "pending": len(state.pending),
        }), "application/json")

    async def _stream_status(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """``GET /status?follow=1``: NDJSON events until the campaign
        drains or the client hangs up.  The body is framed by connection
        close (no chunking), which every line-reading client handles."""
        events: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        self.coordinator.subscribe(events)
        hangup = asyncio.ensure_future(_until_eof(reader))
        event: "Optional[asyncio.Future[Dict[str, Any]]]" = None
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        try:
            while True:
                event = asyncio.ensure_future(events.get())
                await asyncio.wait({event, hangup},
                                   return_when=asyncio.FIRST_COMPLETED)
                if not event.done():
                    return  # the client hung up
                writer.write(_json_body(event.result()))
                await writer.drain()
                if event.result().get("event") == "done":
                    return
        finally:
            hangup.cancel()
            if event is not None:
                event.cancel()
            self.coordinator.unsubscribe(events)


async def _until_eof(reader: asyncio.StreamReader) -> None:
    """Return once the peer closes its end (or the connection drops)."""
    try:
        while await reader.read(4096):
            pass
    except ConnectionError:
        pass
