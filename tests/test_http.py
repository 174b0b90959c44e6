"""repro.http over live sockets: both servers answer malformed input alike,
unmatched routes share one latency key, keep-alive connections are reused
and hung up on shutdown."""

import asyncio
import contextlib
import json
import logging
import os
import socket
import threading
import time

import pytest

from repro.client import ReproClient
from repro.cluster import CoordinatorThread
from repro.http import UNMATCHED, HttpError
from repro.server import HttpError as ServerHttpError
from repro.server import ReproServer
from repro.service import load_manifest

MANIFEST = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "cluster_smoke.toml")
COORDINATOR_MAX_BODY = 4 * 1024 * 1024

#: raw bytes -> the status both servers must answer with
MALFORMED = {
    "garbage-request-line": (b"COMPLETE GARBAGE\r\n\r\n", 400),
    "negative-length": (b"POST /lease HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    "body-over-limit": (
        b"POST /lease HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (COORDINATOR_MAX_BODY + 1),
        413,
    ),
    "chunked": (b"POST /lease HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 411),
    "head-over-64k": (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (70 * 1024) + b"\r\n\r\n", 413),
    "post-without-length": (b"POST /lease HTTP/1.1\r\nHost: x\r\n\r\n", 411),
}


class _LoopThread:
    """An event loop on a daemon thread, for servers the sync tests drive."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self._thread.start()

    def run(self, coro, timeout_s: float = 30.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout_s)

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()
        self.loop.close()


@contextlib.contextmanager
def _repro_server(root, **kwargs):
    """A live :class:`ReproServer` on its own loop thread."""
    loop = _LoopThread()

    async def start():
        server = ReproServer(str(root), port=0, **kwargs)
        await server.start()
        return server

    server = loop.run(start())
    try:
        yield loop, server
    finally:
        loop.run(server.stop())
        loop.close()


@pytest.fixture(scope="module")
def both_servers(tmp_path_factory):
    """``{"server": port, "coordinator": port}`` with the same body limit."""
    coordinator = CoordinatorThread(load_manifest(MANIFEST)).start()
    root = tmp_path_factory.mktemp("root")
    with _repro_server(root, max_body=COORDINATOR_MAX_BODY) as (_, server):
        yield {"server": server.port, "coordinator": coordinator.coordinator.port}
    coordinator.stop()


def _raw_exchange(port: int, payload: bytes) -> bytes:
    """Send ``payload`` and read until the server hangs up."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(payload)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_servers_answer_malformed_input_identically(both_servers, case, caplog):
    payload, expected = MALFORMED[case]
    caplog.set_level(logging.ERROR)
    statuses = {}
    for name, port in both_servers.items():
        raw = _raw_exchange(port, payload)
        assert raw, f"{name} sent an empty reply to {case}"
        head, _, body = raw.partition(b"\r\n\r\n")
        statuses[name] = int(head.split(b" ")[1])
        assert b"Connection: close" in head, f"{name} kept a connection of unknown framing"
        assert "error" in json.loads(body)
    assert statuses == {"server": expected, "coordinator": expected}
    assert not [r for r in caplog.records if "Unhandled exception" in r.getMessage()]


def test_server_exports_the_one_http_error():
    assert ServerHttpError is HttpError


def test_unmatched_paths_share_one_latency_key(tmp_path):
    with _repro_server(tmp_path) as (_, server), ReproClient("127.0.0.1", server.port) as client:
        client.get("/stats")  # a request is observed once answered
        before = set(client.get("/stats").json()["latency"])
        for i in range(200):
            assert client.get(f"/scan/{i}").status == 404
        assert client.post("/healthz", b"").status == 405
        after = set(client.get("/stats").json()["latency"])
    assert after - before <= {UNMATCHED}


def test_latency_counts_the_body_read_not_the_idle_wait(tmp_path):
    pause = 0.3
    with _repro_server(tmp_path) as (_, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            reply = sock.makefile("rb")
            time.sleep(pause)  # idle keep-alive wait before the head: not timed
            sock.sendall(b"POST /decompress HTTP/1.1\r\nContent-Length: 4\r\n\r\n")
            time.sleep(pause)  # the body trickles in after the head: timed
            sock.sendall(b"junk")
            assert reply.readline().split(b" ")[1] == b"400"
        with ReproClient("127.0.0.1", server.port) as client:
            latency = client.get("/stats").json()["latency"]
    assert latency["POST /decompress"]["count"] == 1
    assert pause * 1000 <= latency["POST /decompress"]["max_ms"] < 2 * pause * 1000


def test_one_client_reuses_one_connection(tmp_path):
    with _repro_server(tmp_path) as (_, server), ReproClient("127.0.0.1", server.port) as client:
        for _ in range(5):
            assert client.get("/healthz").status == 200
        assert client.get("/no-such-route").status == 404
        assert client.stats["requests"] == 6
        assert client.stats["conn_opens"] == 1


def _assert_hung_up(sock: socket.socket) -> None:
    sock.settimeout(5)
    assert sock.recv(1) == b"", "idle keep-alive connection still open"


@pytest.mark.parametrize("how", ["stop", "drain"])
def test_shutdown_hangs_up_idle_keepalive_connections(tmp_path, how):
    with _repro_server(tmp_path) as (loop, server):
        client = ReproClient("127.0.0.1", server.port)
        assert client.get("/healthz").status == 200
        sock = client._conn.sock
        loop.run(getattr(server, how)(), timeout_s=10)
        # the loop thread still runs: only the server let go of the socket
        _assert_hung_up(sock)
        client.close()


def test_coordinator_stop_hangs_up_idle_keepalive_connections():
    coordinator = CoordinatorThread(load_manifest(MANIFEST)).start()
    client = ReproClient("127.0.0.1", coordinator.coordinator.port)
    assert client.get("/healthz").status == 200
    thread = coordinator._thread
    coordinator.stop()
    assert not thread.is_alive(), "stop() waited on an idle keep-alive connection"
    _assert_hung_up(client._conn.sock)
    client.close()
