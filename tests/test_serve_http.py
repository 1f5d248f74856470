"""The HTTP front end, exercised over real sockets.

A :class:`~repro.serve.http.ServeHTTP` instance runs on a
kernel-assigned port (``port=0``) inside a thread-hosted asyncio loop;
the tests speak plain ``http.client``.  What matters here is the
*wire* behaviour — status codes, error shapes, the NDJSON stream —
not the service semantics (those are pinned socket-free in
``test_serve.py``).
"""

import asyncio
import http.client
import json
import socket
import threading

import pytest

from repro.serve import MemoryResultStore, ServiceConfig, SweepService
from repro.serve.http import MAX_BODY, ServeHTTP

SMALL = {"benchmarks": ["comp"], "instructions": 2000}


class ServerFixture:
    """ServeHTTP on port 0 in a background asyncio loop."""

    def __init__(self, tmp_path, store=None, **config):
        self.service = SweepService(
            str(tmp_path / "queue"),
            store if store is not None else MemoryResultStore(),
            ServiceConfig(jobs=1, heartbeat=0.2, **config))
        self.http = ServeHTTP(self.service, port=0)
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self.loop.run_forever,
                                        daemon=True)
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.http.start(), self.loop).result(timeout=10)

    @property
    def port(self):
        return self.http.port

    def close(self):
        asyncio.run_coroutine_threadsafe(
            self.http.stop(), self.loop).result(timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        self.loop.close()

    def request(self, method, path, body=None, headers=None, raw_body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)
        try:
            payload = raw_body if raw_body is not None else (
                json.dumps(body).encode() if body is not None else None)
            conn.request(method, path, body=payload,
                         headers=dict(headers or {}))
            response = conn.getresponse()
            data = response.read()
            return response.status, (json.loads(data) if data else None)
        finally:
            conn.close()

    def raw(self, data):
        """Send raw bytes; return (status, JSON body) of the reply."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=30) as sock:
            sock.sendall(data)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        return status, json.loads(body)

    def wait_settled(self, job_id, timeout=60.0):
        import time
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, payload = self.request("GET", f"/v1/sweeps/{job_id}")
            assert status == 200
            if payload["state"] != "running":
                return payload
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never settled")


@pytest.fixture()
def server(tmp_path):
    fixture = ServerFixture(tmp_path)
    yield fixture
    fixture.close()


def test_health_and_stats(server):
    assert server.request("GET", "/v1/healthz") == (200, {"ok": True})
    status, stats = server.request("GET", "/v1/stats")
    assert status == 200
    assert set(stats) >= {"store", "queue", "shards_run"}


def test_submit_poll_result_roundtrip(server):
    status, receipt = server.request("POST", "/v1/sweeps", body=SMALL,
                                     headers={"X-Tenant": "alice"})
    assert status == 202 and receipt["created"]
    job = receipt["job"]

    settled = server.wait_settled(job)
    assert settled["state"] == "done"
    assert settled["tenant"] == "alice"

    status, report = server.request("GET", f"/v1/sweeps/{job}/result")
    assert status == 200
    assert report["schema"] == "repro.sweep/1"
    assert len(report["points"]) == settled["total_tasks"]
    assert report["context"]["source"] == "repro.serve"

    # Content-addressed point lookup for every key the status lists.
    for key in settled["tasks"]:
        status, point = server.request("GET", f"/v1/tasks/{key}")
        assert status == 200 and point["task_key"] == key

    # Resubmission attaches (200, not 202) and reports the settled state.
    status, again = server.request("POST", "/v1/sweeps", body=dict(SMALL))
    assert status == 200 and not again["created"]
    assert again["job"] == job and again["state"] == "done"


def test_events_stream_ends_with_job_done(server):
    _, receipt = server.request("POST", "/v1/sweeps", body=SMALL)
    job = receipt["job"]
    conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=60)
    try:
        conn.request("GET", f"/v1/sweeps/{job}/events")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        events = [json.loads(line) for line in response.read().splitlines()]
    finally:
        conn.close()
    names = [e["ev"] for e in events]
    assert names[-1] == "job_done"           # terminal event, then EOF
    real = [e for e in events if e["ev"] != "stream_heartbeat"]
    seqs = [e["seq"] for e in real]
    assert seqs == sorted(seqs)
    # A non-integer ?since= is a structured 400, not a broken stream.
    status, _ = server.request("GET", f"/v1/sweeps/{job}/events?since=abc")
    assert status == 400


def test_error_statuses(server):
    # Invalid JSON body.
    status, payload = server.request(
        "POST", "/v1/sweeps", raw_body=b"{not json",
        headers={"Content-Length": "9"})
    assert status == 400 and payload["error"]["code"] == "invalid_json"
    # Validation failure carries the offending field.
    status, payload = server.request("POST", "/v1/sweeps",
                                     body={"benchmarks": ["nope"]})
    assert status == 400
    assert payload["error"]["code"] == "invalid_request"
    assert payload["error"]["field"] == "benchmarks"
    # Unknown routes and ids.
    assert server.request("GET", "/v1/sweeps/nope")[0] == 404
    assert server.request("GET", "/v1/sweeps/nope/result")[0] == 404
    assert server.request("GET", "/v1/sweeps/nope/events")[0] == 404
    assert server.request("GET", "/v1/tasks/" + "0" * 64)[0] == 404
    assert server.request("GET", "/nope")[0] == 404
    assert server.request("DELETE", "/v1/sweeps")[0] == 404
    # Rejections left the queue untouched.
    _, stats = server.request("GET", "/v1/stats")
    assert stats["queue"]["jobs"] == 0


def test_oversized_body_is_413(server):
    status, payload = server.request(
        "POST", "/v1/sweeps", raw_body=b"x",
        headers={"Content-Length": str(MAX_BODY + 1)})
    assert status == 413
    assert payload["error"]["code"] == "body_too_large"


def test_result_while_running_is_409(tmp_path):
    """Submit against a server whose dispatcher thread is stopped, so the
    job genuinely stays running for the 409 check."""
    fixture = ServerFixture(tmp_path)
    try:
        fixture.service.stop()               # freeze the dispatcher
        _, receipt = fixture.request("POST", "/v1/sweeps", body=SMALL)
        job = receipt["job"]
        status, payload = fixture.request("GET", f"/v1/sweeps/{job}/result")
        assert status == 409
        assert payload["error"]["code"] == "not_settled"
    finally:
        fixture.close()


@pytest.mark.parametrize("tenant_header", [{}, {"X-Tenant": ""}],
                         ids=["absent", "empty"])
def test_tenant_defaults_to_public(server, tenant_header):
    status, receipt = server.request("POST", "/v1/sweeps", body=SMALL,
                                     headers=tenant_header)
    assert status == 202
    assert server.request("GET", f"/v1/sweeps/{receipt['job']}")[1][
        "tenant"] == "public"


def test_instruction_cap_is_400_and_never_queued(tmp_path):
    fixture = ServerFixture(tmp_path, max_instructions=1000)
    try:
        status, payload = fixture.request("POST", "/v1/sweeps", body=SMALL)
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert payload["error"]["field"] == "instructions"
        assert fixture.request("GET", "/v1/stats")[1]["queue"]["jobs"] == 0
    finally:
        fixture.close()


def test_non_integer_content_length_reads_no_body(server):
    """An unparsable Content-Length counts as 0: the submit then fails
    validation as an empty body rather than hanging on a read."""
    status, payload = server.request("POST", "/v1/sweeps",
                                     headers={"Content-Length": "abc"})
    assert status == 400
    assert payload["error"]["code"] == "invalid_request"
    assert "NoneType" in payload["error"]["message"]


@pytest.mark.parametrize("request_line", [
    b"GARBAGE\r\n\r\n",
    b"GET /v1/healthz\r\n\r\n",
    b"\r\n\r\n",
], ids=["one-word", "no-version", "empty"])
def test_malformed_request_line_is_400(server, request_line):
    status, payload = server.raw(request_line)
    assert status == 400
    assert payload["error"]["code"] == "bad_request"


def test_overlong_request_line_is_431(server):
    # One byte past the stream reader's 64 KiB line limit and no line
    # end: the server has read everything sent when it refuses, so the
    # reply is not raced by a reset.
    status, payload = server.raw(b"GET /" + b"a" * ((1 << 16) + 1 - 5))
    assert status == 431
    assert payload["error"]["code"] == "header_too_large"
    assert server.request("GET", "/v1/healthz") == (200, {"ok": True})


def test_restarted_server_serves_journaled_job(tmp_path):
    """Stop a server after a job settles and boot a new one over the
    same queue directory and store: the job is still listed and its
    result is served without re-simulating any point."""
    store = MemoryResultStore()
    first = ServerFixture(tmp_path, store=store)
    try:
        _, receipt = first.request("POST", "/v1/sweeps", body=SMALL)
        job = receipt["job"]
        assert first.wait_settled(job)["state"] == "done"
        _, report = first.request("GET", f"/v1/sweeps/{job}/result")
    finally:
        first.close()
    writes = store.writes

    second = ServerFixture(tmp_path, store=store)
    try:
        _, stats = second.request("GET", "/v1/stats")
        assert stats["queue"]["jobs"] == 1
        status, settled = second.request("GET", f"/v1/sweeps/{job}")
        assert status == 200 and settled["state"] == "done"
        status, again = second.request("GET", f"/v1/sweeps/{job}/result")
        assert status == 200
        assert again["points"] == report["points"]
    finally:
        second.close()
    assert store.writes == writes
