"""A zero-dependency asyncio HTTP/1.1 front end for the sweep service.

Deliberately minimal rather than a framework: requests are parsed off
an ``asyncio.start_server`` stream, every response carries
``Connection: close``, and anything long-running is pushed to a thread
via ``run_in_executor`` so the event loop only ever shuffles bytes.
The API surface (see ``docs/service.md`` for the full reference):

====== ============================== =======================================
Method Path                           Purpose
====== ============================== =======================================
POST   ``/v1/sweeps``                 submit a declarative grid (202/200)
GET    ``/v1/sweeps/{id}``            job status + per-task states
GET    ``/v1/sweeps/{id}/result``     merged ``repro.sweep/1`` artifact
GET    ``/v1/sweeps/{id}/events``     NDJSON progress stream (``?since=N``)
GET    ``/v1/tasks/{key}``            content-addressed point lookup
GET    ``/v1/stats``                  store/queue/scheduler counters
GET    ``/v1/healthz``                liveness probe
====== ============================== =======================================

Errors are structured JSON — ``{"error": {"code", "message", "field"?}}``
— and a malformed submit is rejected before it touches the job queue
(pinned by the failure-path tests).  The tenant for fair scheduling
comes from the ``X-Tenant`` header (default ``public``).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.serve.gridspec import GridSpecError
from repro.serve.service import JobNotSettledError, SweepService

#: Submit bodies larger than this are refused with 413 (a grid spec is
#: a few hundred bytes; megabytes means a confused client).
MAX_BODY = 1 << 20


def _error_body(code: str, message: str,
                field: Optional[str] = None) -> Dict[str, Any]:
    error: Dict[str, Any] = {"code": code, "message": message}
    if field is not None:
        error["field"] = field
    return {"error": error}


class ServeHTTP:
    """Bind a :class:`SweepService` to a TCP port."""

    def __init__(self, service: SweepService, host: str = "127.0.0.1",
                 port: int = 8752):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        # Report the kernel-assigned port when constructed with port=0.
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- request handling -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader, writer)
            if request is not None:
                method, path, headers, body = request
                await self._route(writer, method, path, headers, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
            self, reader: asyncio.StreamReader,
            writer: asyncio.StreamWriter,
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            await self._send_json(writer, 431, _error_body(
                "header_too_large", "request line too long"))
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            await self._send_json(writer, 400, _error_body(
                "bad_request", "malformed request line"))
            return None
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = 0
        if length > MAX_BODY:
            await self._send_json(writer, 413, _error_body(
                "body_too_large", f"request body exceeds {MAX_BODY} bytes"))
            return None
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _route(self, writer: asyncio.StreamWriter, method: str,
                     target: str, headers: Dict[str, str],
                     body: bytes) -> None:
        path, _, query = target.partition("?")
        segments = [s for s in path.split("/") if s]
        loop = asyncio.get_running_loop()

        if segments == ["v1", "healthz"] and method == "GET":
            await self._send_json(writer, 200, {"ok": True})
            return
        if segments == ["v1", "stats"] and method == "GET":
            stats = await loop.run_in_executor(None, self.service.stats)
            await self._send_json(writer, 200, stats)
            return
        if segments == ["v1", "sweeps"] and method == "POST":
            await self._submit(writer, headers, body)
            return
        if len(segments) == 3 and segments[:2] == ["v1", "sweeps"] \
                and method == "GET":
            status = await loop.run_in_executor(
                None, self.service.status, segments[2])
            if status is None:
                await self._send_json(writer, 404, _error_body(
                    "not_found", f"unknown job {segments[2]!r}"))
            else:
                await self._send_json(writer, 200, status)
            return
        if len(segments) == 4 and segments[:2] == ["v1", "sweeps"] \
                and segments[3] == "result" and method == "GET":
            await self._result(writer, segments[2])
            return
        if len(segments) == 4 and segments[:2] == ["v1", "sweeps"] \
                and segments[3] == "events" and method == "GET":
            await self._events(writer, segments[2], query)
            return
        if len(segments) == 3 and segments[:2] == ["v1", "tasks"] \
                and method == "GET":
            payload = await loop.run_in_executor(
                None, self.service.task, segments[2])
            if payload is None:
                await self._send_json(writer, 404, _error_body(
                    "not_found", f"no stored result for task "
                                 f"{segments[2]!r}"))
            else:
                await self._send_json(writer, 200, payload)
            return
        await self._send_json(writer, 404, _error_body(
            "not_found", f"no route for {method} {path}"))

    async def _submit(self, writer: asyncio.StreamWriter,
                      headers: Dict[str, str], body: bytes) -> None:
        tenant = headers.get("x-tenant", "public") or "public"
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except ValueError:
            await self._send_json(writer, 400, _error_body(
                "invalid_json", "request body is not valid JSON"))
            return
        loop = asyncio.get_running_loop()
        try:
            receipt = await loop.run_in_executor(
                None, self.service.submit, payload, tenant)
        except GridSpecError as error:
            await self._send_json(
                writer, 400, {"error": error.as_dict()})
            return
        status = 202 if receipt["created"] else 200
        await self._send_json(writer, status, receipt)

    async def _result(self, writer: asyncio.StreamWriter,
                      job_id: str) -> None:
        loop = asyncio.get_running_loop()
        try:
            report = await loop.run_in_executor(
                None, self.service.result, job_id)
        except JobNotSettledError as error:
            await self._send_json(writer, 409, _error_body(
                "not_settled", str(error)))
            return
        if report is None:
            await self._send_json(writer, 404, _error_body(
                "not_found", f"unknown job {job_id!r}"))
        else:
            await self._send_json(writer, 200, report)

    async def _events(self, writer: asyncio.StreamWriter, job_id: str,
                      query: str) -> None:
        if self.service.status(job_id) is None:
            await self._send_json(writer, 404, _error_body(
                "not_found", f"unknown job {job_id!r}"))
            return
        since = 0
        for pair in query.split("&"):
            name, _, value = pair.partition("=")
            if name == "since":
                try:
                    since = int(value)
                except ValueError:
                    await self._send_json(writer, 400, _error_body(
                        "bad_request", "since must be an integer",
                        field="since"))
                    return
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        loop = asyncio.get_running_loop()
        heartbeat = self.service.config.heartbeat
        while True:
            events, settled = await loop.run_in_executor(
                None, self.service.events_since, job_id, since, heartbeat)
            for event in events:
                since = max(since, event["seq"])
                writer.write(json.dumps(event, sort_keys=True)
                             .encode("utf-8") + b"\n")
            if not events and not settled:
                # Liveness marker so clients can distinguish "quiet"
                # from "dead" (mirrors the runner's heartbeat events).
                writer.write(b'{"ev": "stream_heartbeat"}\n')
            await writer.drain()
            if settled:
                break
            job = self.service.status(job_id)
            if job is not None and job["state"] != "running":
                # Final drain: emit anything raced in, then stop.
                events, _ = await loop.run_in_executor(
                    None, self.service.events_since, job_id, since, 0.0)
                for event in events:
                    writer.write(json.dumps(event, sort_keys=True)
                                 .encode("utf-8") + b"\n")
                await writer.drain()
                break

    @staticmethod
    async def _send_json(writer: asyncio.StreamWriter, status: int,
                         payload: Dict[str, Any]) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   404: "Not Found", 409: "Conflict",
                   413: "Payload Too Large",
                   431: "Request Header Fields Too Large"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (f"HTTP/1.1 {status} {reasons.get(status, 'Error')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


def run_server(service: SweepService, host: str, port: int) -> None:
    """Blocking entry point used by ``repro serve``."""
    server = ServeHTTP(service, host=host, port=port)

    async def _main() -> None:
        await server.start()
        print(f"repro serve: listening on http://{server.host}:"
              f"{server.port} (queue={service.queue.root})", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
