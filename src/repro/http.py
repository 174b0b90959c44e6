"""The one HTTP/1.1 codec behind ``repro serve``, the cluster coordinator
and :class:`repro.client.AsyncReproClient`.

:class:`HttpServer`, the base of both servers, answers the same malformed
input with the same JSON 4xx and keeps connections alive (status table and
connection rules: ``docs/API.md``).

>>> import asyncio
>>> async def parse(raw):
...     reader = asyncio.StreamReader()
...     reader.feed_data(raw)
...     reader.feed_eof()
...     return await read_request(reader, max_body=1024)
>>> req = asyncio.run(parse(b"POST /jobs/j1?eb=0.01 HTTP/1.1\\r\\nContent-Length: 2\\r\\n\\r\\n{}"))
>>> req.method, req.parts, req.query_float("eb"), req.json(), req.keep_alive
('POST', ['jobs', 'j1'], 0.01, {}, True)
>>> Routes({("GET", "/jobs/{id}"): None}).match(req)
Traceback (most recent call last):
repro.http.HttpError: /jobs/j1 only supports GET
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
import urllib.parse
from collections.abc import Awaitable, Callable

#: the latency key shared by every request no route matched (404/405) or
#: that never parsed, so junk paths cannot grow the ``/stats`` key set
UNMATCHED = "* unmatched"

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: ``(status, headers, body)`` — what a handler returns
ResponseTuple = tuple[int, dict, bytes]
Handler = Callable[..., Awaitable[ResponseTuple]]


class HttpError(Exception):
    """A client-visible failure: ``status``, a one-line message, and any
    extra response headers (``Retry-After`` on 429/503)."""

    def __init__(self, status: int, message: str, headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}

    def response(self) -> ResponseTuple:
        status, headers, body = json_response({"error": self.message}, status=self.status)
        return status, {**headers, **self.headers}, body


def json_response(doc, status: int = 200) -> ResponseTuple:
    body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
    return status, {"Content-Type": "application/json"}, body


class Request:
    """One parsed HTTP request (method, decoded path parts, query, body).

    ``parts`` are the path segments split on ``/`` *before* percent-decoding,
    so an encoded slash (``..%2Fcorpus``) stays inside one segment.
    ``began`` (``perf_counter``) is when the head arrived, where latency starts.
    """

    def __init__(self, method: str, target: str, version: str, headers: dict, body: bytes,
                 began: float = 0.0):
        self.method = method
        self.began = began
        self.headers = headers
        self.body = body
        self.version = version
        try:
            split = urllib.parse.urlsplit(target)
        except ValueError:
            raise HttpError(400, f"malformed request target {target!r}") from None
        self.path = split.path
        self.parts = [urllib.parse.unquote(p) for p in split.path.strip("/").split("/") if p]
        self.query = {
            k: v[-1] for k, v in urllib.parse.parse_qs(split.query, keep_blank_values=True).items()
        }

    @property
    def keep_alive(self) -> bool:
        return self.version == "HTTP/1.1" and self.headers.get("connection", "").lower() != "close"

    def json(self) -> dict:
        """The body as a JSON object, or a 400."""
        try:
            doc = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be a JSON object")
        return doc

    def _query_number(self, key: str, cast, default, what: str):
        raw = self.query.get(key)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ValueError:
            raise HttpError(400, f"query parameter {key}={raw!r} is not {what}") from None

    def query_float(self, key: str, default: float | None = None) -> float | None:
        return self._query_number(key, float, default, "a number")

    def query_int(self, key: str, default: int | None = None) -> int | None:
        return self._query_number(key, int, default, "an integer")

    def query_dims(self, key: str) -> tuple[int, ...] | None:
        raw = self.query.get(key)
        if raw is None:
            return None
        try:
            dims = tuple(int(d) for d in raw.split(",") if d)
        except ValueError:
            dims = ()
        if not dims or any(d <= 0 for d in dims):
            raise HttpError(
                400, f"query parameter {key}={raw!r} must be comma-separated positive integers"
            )
        return dims


async def read_request(reader: asyncio.StreamReader, max_body: int) -> Request | None:
    """Parse one request off ``reader``; ``None`` on a clean EOF before it.

    Raises :class:`HttpError` (always a 4xx) for anything malformed, too
    large or cut off; the connection's framing is unknown afterwards.  The
    reader's limit bounds the head (64 KiB on an ``asyncio`` server).
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large") from None
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "incomplete request") from None
    began = time.perf_counter()
    head = raw[:-4].decode("latin-1").split("\r\n")
    request_line = head[0].split(" ")
    if len(request_line) != 3 or not request_line[2].startswith("HTTP/1"):
        raise HttpError(400, f"malformed request line {head[0]!r}")
    method, target, version = request_line
    headers: dict[str, str] = {}
    for line in head[1:]:
        key, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[key.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise HttpError(411, "chunked bodies are not supported; send Content-Length")
    body = b""
    if "content-length" in headers:
        length = headers["content-length"]
        if not (length.isascii() and length.isdigit()):
            raise HttpError(400, f"malformed Content-Length {length!r}")
        n = int(length)
        if n > max_body:
            raise HttpError(413, f"body of {n} bytes exceeds the {max_body} byte limit")
        try:
            body = await reader.readexactly(n)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "incomplete request") from None
    elif method in ("POST", "PUT"):
        raise HttpError(411, f"{method} requests need a Content-Length body")
    return Request(method, target, version, headers, body, began)


async def read_response(reader: asyncio.StreamReader) -> ResponseTuple:
    """Read one response: ``(status, lower-cased headers, body)``.

    The body is framed by ``Content-Length``, which both servers always
    send.  A torn or malformed response raises :class:`ConnectionError` or
    :class:`asyncio.IncompleteReadError` (an ``EOFError``) — transport
    failures a retrying client may replay.
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise ConnectionError("response head too large") from None
    lines = raw.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split(" ")[1])
    except (IndexError, ValueError):
        raise ConnectionError(f"malformed response line {lines[0]!r}") from None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        key, sep, value = line.partition(":")
        if sep:
            headers[key.strip().lower()] = value.strip()
    length = headers.get("content-length", "")
    if not (length.isascii() and length.isdigit()):
        raise ConnectionError(f"malformed Content-Length {length!r}")
    return status, headers, await reader.readexactly(int(length))


class Routes:
    """``(method, path template) -> handler`` table.

    A template segment in braces binds the (decoded) request segment and is
    passed to the handler positionally after the request:
    ``("GET", "/jobs/{id}")`` calls ``handler(request, job_id)``.
    """

    def __init__(self, table: dict[tuple[str, str], Handler]):
        self._table = [
            (method, template.strip("/").split("/"), f"{method} {template}", handler)
            for (method, template), handler in table.items()
        ]

    def match(self, req: Request) -> tuple[str, Handler, list[str]]:
        """``(latency key, handler, bound params)``; 404/405 as HttpError."""
        allowed = []
        for method, segments, key, handler in self._table:
            if len(segments) != len(req.parts) or any(
                s != p and not s.startswith("{") for s, p in zip(segments, req.parts)
            ):
                continue
            if method == req.method:
                return key, handler, [p for s, p in zip(segments, req.parts) if s.startswith("{")]
            allowed.append(method)
        if allowed:
            raise HttpError(
                405,
                f"{req.path} only supports {', '.join(allowed)}",
                headers={"Allow": ", ".join(allowed)},
            )
        raise HttpError(404, f"no route for {req.path!r}")


class HttpServer:
    """Base of the HTTP servers: one listener, one route table, keep-alive.

    Subclasses fill :attr:`routes` and may override :meth:`_observe`, which
    runs once per response.  Once ``_draining`` is set, every response
    closes its connection; :meth:`stop` also hangs up idle keep-alive
    connections, so shutdown never waits on a parked client.
    """

    def __init__(self, host: str, port: int, max_body: int, log: logging.Logger):
        self.host = host
        self._requested_port = port
        self.max_body = max_body
        self.routes = Routes({})
        self._log = log
        self._server: asyncio.AbstractServer | None = None
        self._stopped = asyncio.Event()
        self._idle: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._requests = 0

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._stopped.clear()
        self._server = await asyncio.start_server(self._serve, self.host, self._requested_port)

    async def serve_forever(self) -> None:
        """Start if needed, then block until :meth:`stop` runs."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def stop(self) -> None:
        if self._server is not None:
            server, self._server = self._server, None
            server.close()
            for writer in self._idle:
                writer.close()
            await server.wait_closed()
        self._stopped.set()

    def _observe(self, route: str, status: int, seconds: float) -> None:
        """Per-response hook: the route template (or :data:`UNMATCHED`)."""

    def _must_close(self) -> bool:
        return self._draining or self._server is None

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """The connection loop: parse, route, respond, until told to close."""
        try:
            while self._server is not None:  # a stopping server takes no new request
                self._idle.add(writer)
                try:
                    request = await read_request(reader, self.max_body)
                except HttpError as exc:
                    await self._send(writer, UNMATCHED, 0.0, exc.response(), close=True)
                    break
                finally:
                    self._idle.discard(writer)
                if request is None:
                    break
                key = UNMATCHED
                try:
                    key, handler, params = self.routes.match(request)
                    response = await handler(request, *params)
                except HttpError as exc:
                    response = exc.response()
                except ConnectionResetError:
                    break  # injected conn-reset: drop the socket, no reply
                except Exception:  # noqa: BLE001 — request isolation boundary
                    self._log.exception("%s %s failed", request.method, request.path)
                    response = HttpError(500, "internal server error").response()
                close = not request.keep_alive or self._must_close()
                await self._send(writer, key, time.perf_counter() - request.began, response, close)
                if close or self._must_close():  # draining may begin mid-send
                    break
        except ConnectionError:
            pass  # peer vanished mid-exchange; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _send(self, writer, route: str, seconds: float, response: ResponseTuple, close: bool):
        """Count and observe one response, then write it."""
        self._requests += 1
        self._observe(route, response[0], seconds)
        status, headers, body = response
        head = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}"]
        headers = {"Content-Type": "application/octet-stream", **headers}
        headers["Content-Length"] = str(len(body))
        headers["Connection"] = "close" if close else "keep-alive"
        head += [f"{k}: {v}" for k, v in headers.items()]
        if not writer.is_closing():
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
            await writer.drain()
