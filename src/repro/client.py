"""Retrying HTTP client for ``repro serve`` — backoff, deadlines, fault-aware.

The server's guardrails speak in status codes: ``429`` when admission is
saturated, ``503`` when a deadline expired, a worker died, the server is
draining, or storage corruption was detected — all *retryable*, all carrying
a ``Retry-After`` hint.  This module is the client half of that contract:

* :class:`RetryPolicy` — capped exponential backoff with seeded jitter,
  which statuses to retry, how far a ``Retry-After`` header may stretch a
  pause, and a per-request wall-clock deadline;
* :class:`ReproClient` — synchronous (``http.client``) with **keep-alive**:
  the connection is cached across sequential requests and reused until the
  server closes it (``repro serve`` and the cluster coordinator both keep
  the socket open, so a worker's whole poll loop rides one TCP
  connection).  A request that dies on a *reused* socket — the server
  closed it between requests — is replayed once on a fresh connection
  before the retry policy gets involved;
* :class:`AsyncReproClient` — the same policy over asyncio streams, a fresh
  ``Connection: close`` socket per attempt, used by
  ``benchmarks/loadgen.py`` and the chaos suite.

``stats["conn_opens"]`` counts actual TCP connects, so harnesses can assert
socket reuse (``conn_opens == 1`` across N requests against a keep-alive
server) as well as persistence.

Both clients keep ``retries`` / ``gave_up`` counters (:attr:`ReproClient.stats`)
so harnesses can report persistence instead of dying on the first non-2xx:
when every attempt yields a retryable status, the *last response is returned*
(and ``gave_up`` incremented) — :class:`RetriesExhausted` is raised only when
no HTTP response was ever received (pure transport failure or deadline).

>>> RetryPolicy(max_attempts=4).backoff_s(1) <= 0.1
True
>>> RetryPolicy().backoff_s(2, retry_after=7.0)
7.0

The ``client.request`` chaos point (:mod:`repro.faults`) fires before every
attempt, so an injected ``conn-reset`` or ``stall`` exercises exactly the
retry path a flaky network would.
"""

from __future__ import annotations

import json as _json
import random
import time
from dataclasses import dataclass, field

from .faults import fire as _fault_fire

__all__ = [
    "ClientError",
    "RetriesExhausted",
    "RetryPolicy",
    "Response",
    "ReproClient",
    "AsyncReproClient",
]

#: Transport-level failures every attempt may legitimately hit and retry.
_TRANSPORT_ERRORS = (ConnectionError, TimeoutError, OSError, EOFError)


class ClientError(Exception):
    """Base class for client-side failures."""


class RetriesExhausted(ClientError):
    """No HTTP response was ever received within the attempt/deadline budget.

    Carries ``attempts`` (how many were made) and ``last_error`` (the final
    transport failure, if any).  Retryable *statuses* never raise this — the
    last response is returned instead, with ``gave_up`` counted.
    """

    def __init__(self, message: str, attempts: int, last_error: Exception | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


@dataclass(frozen=True)
class RetryPolicy:
    """When and how fast to retry.

    ``backoff_s(attempt)`` grows ``base_s * multiplier**(attempt-1)`` capped
    at ``cap_s``, then shrinks by up to ``jitter`` (full-jitter style, so a
    herd of clients retrying a drained server spreads out).  A server
    ``Retry-After`` hint overrides the computed backoff when larger, capped
    at ``retry_after_cap_s`` so a confused server cannot park a client for
    minutes.
    """

    max_attempts: int = 5
    base_s: float = 0.1
    cap_s: float = 5.0
    multiplier: float = 2.0
    jitter: float = 0.5  # fraction of the backoff randomly shaved off
    retry_statuses: tuple[int, ...] = (429, 503)
    retry_after_cap_s: float = 30.0
    attempt_timeout_s: float = 60.0  # per-attempt transport timeout
    deadline_s: float | None = None  # default per-request total budget

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_s < 0 or self.cap_s < 0:
            raise ValueError("base_s and cap_s must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(
        self, attempt: int, retry_after: float | None = None, rng: random.Random | None = None
    ) -> float:
        """Pause before attempt ``attempt + 1`` (``attempt`` is 1-based)."""
        pause = min(self.cap_s, self.base_s * self.multiplier ** max(0, attempt - 1))
        if rng is not None and self.jitter:
            pause *= 1.0 - self.jitter * rng.random()
        if retry_after is not None:
            pause = max(pause, min(retry_after, self.retry_after_cap_s))
        return pause


@dataclass
class Response:
    """One HTTP exchange: status, lower-cased headers, body."""

    status: int
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self):
        return _json.loads(self.body.decode("utf-8"))

    def retry_after_s(self) -> float | None:
        raw = self.headers.get("retry-after")
        try:
            return float(raw) if raw is not None else None
        except ValueError:
            return None


class _RetryLoop:
    """Shared retry bookkeeping for the sync and async clients.

    Drives the decision logic; the client supplies the transport.  One
    instance per request: ``start_attempt()`` before each try, then exactly
    one of ``retryable_response`` / ``transport_error`` — both return the
    pause before the next attempt, or ``None`` when the budget is spent.
    """

    def __init__(self, policy: RetryPolicy, rng: random.Random, deadline_ts: float | None):
        self.policy = policy
        self.rng = rng
        self.deadline_ts = deadline_ts
        self.attempts = 0
        self.retries = 0
        self.last_error: Exception | None = None

    def attempt_timeout_s(self) -> float:
        timeout = self.policy.attempt_timeout_s
        if self.deadline_ts is not None:
            timeout = min(timeout, max(0.001, self.deadline_ts - time.monotonic()))
        return timeout

    def _pause_or_stop(self, pause: float) -> float | None:
        if self.attempts >= self.policy.max_attempts:
            return None
        if self.deadline_ts is not None and time.monotonic() + pause >= self.deadline_ts:
            return None
        self.retries += 1
        return pause

    def retryable_response(self, response: Response) -> float | None:
        return self._pause_or_stop(
            self.policy.backoff_s(self.attempts, response.retry_after_s(), self.rng)
        )

    def transport_error(self, exc: Exception) -> float | None:
        self.last_error = exc
        return self._pause_or_stop(self.policy.backoff_s(self.attempts, None, self.rng))

    def exhausted(self, method: str, target: str) -> RetriesExhausted:
        detail = f": {self.last_error}" if self.last_error is not None else ""
        return RetriesExhausted(
            f"{method} {target} failed after {self.attempts} attempt"
            f"{'s' if self.attempts != 1 else ''}{detail}",
            attempts=self.attempts,
            last_error=self.last_error,
        )


class ReproClient:
    """Synchronous retrying client (``http.client`` transport, keep-alive).

    >>> client = ReproClient("127.0.0.1", 0, seed=7)
    >>> client.stats
    {'requests': 0, 'retries': 0, 'gave_up': 0, 'conn_opens': 0}
    """

    def __init__(
        self, host: str, port: int, policy: RetryPolicy | None = None, seed: int | str = 0
    ):
        self.host = host
        self.port = port
        self.policy = policy or RetryPolicy()
        self._rng = random.Random(f"{seed}:{host}:{port}")
        self.stats = {"requests": 0, "retries": 0, "gave_up": 0, "conn_opens": 0}
        self._conn = None  # cached keep-alive connection (not thread-safe)

    # ----------------------------------------------------------- conveniences
    def get(self, target: str, deadline_s: float | None = None) -> Response:
        return self.request("GET", target, deadline_s=deadline_s)

    def post(self, target: str, body: bytes, deadline_s: float | None = None) -> Response:
        return self.request("POST", target, body, deadline_s=deadline_s)

    def close(self) -> None:
        """Drop the cached keep-alive connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------- core
    def request(
        self, method: str, target: str, body: bytes = b"", deadline_s: float | None = None
    ) -> Response:
        """One logical request: retries inside, at most one Response out.

        Retryable statuses (:attr:`RetryPolicy.retry_statuses`) and transport
        failures are retried with backoff until the attempt or deadline
        budget runs out; the *last* retryable response is then returned (and
        ``gave_up`` counted) so callers can record the status.  Raises
        :class:`RetriesExhausted` only if no response was ever received.
        """
        self.stats["requests"] += 1
        deadline_s = deadline_s if deadline_s is not None else self.policy.deadline_s
        deadline_ts = time.monotonic() + deadline_s if deadline_s is not None else None
        loop = _RetryLoop(self.policy, self._rng, deadline_ts)
        response: Response | None = None
        while True:
            loop.attempts += 1
            try:
                # Chaos point: injected conn-reset/stall lands here, before
                # the socket — exactly where a flaky network would bite.
                _fault_fire("client.request", method=method, target=target)
                response = self._exchange(method, target, body, loop.attempt_timeout_s())
            except _TRANSPORT_ERRORS as exc:
                pause = loop.transport_error(exc)
                if pause is None:
                    self.stats["retries"] += loop.retries
                    self.stats["gave_up"] += 1
                    raise loop.exhausted(method, target) from exc
                time.sleep(pause)
                continue
            if response.status in self.policy.retry_statuses:
                pause = loop.retryable_response(response)
                if pause is None:
                    break
                time.sleep(pause)
                continue
            break
        self.stats["retries"] += loop.retries
        assert response is not None
        if response.status in self.policy.retry_statuses:
            self.stats["gave_up"] += 1
        return response

    def _exchange(self, method: str, target: str, body: bytes, timeout_s: float) -> Response:
        """One attempt over the cached connection (opened on demand).

        A keep-alive socket the server quietly closed between requests fails
        only once we write to it; that failure says nothing about the server,
        so it is replayed once on a fresh connection *inside* the attempt —
        the retry policy's budget is reserved for real failures.  Timeouts
        are never replayed: the peer was reached and is merely slow.
        """
        import http.client

        reused = self._conn is not None
        conn = self._conn
        if conn is None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout_s)
            self.stats["conn_opens"] += 1
        elif conn.sock is not None:
            conn.sock.settimeout(timeout_s)
        try:
            conn.request(method, target, body=body)
            resp = conn.getresponse()
            payload = resp.read()
            headers = {k.lower(): v for k, v in resp.getheaders()}
        except (http.client.HTTPException, *_TRANSPORT_ERRORS) as exc:
            conn.close()
            self._conn = None
            if reused and not isinstance(exc, TimeoutError):
                return self._exchange(method, target, body, timeout_s)
            if isinstance(exc, http.client.HTTPException):  # torn response line
                raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc
            raise
        if resp.will_close:  # HTTP/1.0 peer or explicit Connection: close
            conn.close()
            self._conn = None
        else:
            self._conn = conn
        return Response(resp.status, headers, payload)


class AsyncReproClient:
    """The same retry loop over asyncio streams.

    Each attempt opens its own ``Connection: close`` socket and parses the
    reply with the servers' own codec (:func:`repro.http.read_response`),
    so the loadgen and chaos harnesses drive exactly the wire format
    production clients see.
    """

    def __init__(
        self, host: str, port: int, policy: RetryPolicy | None = None, seed: int | str = 0
    ):
        self.host = host
        self.port = port
        self.policy = policy or RetryPolicy()
        self._rng = random.Random(f"{seed}:{host}:{port}")
        self.stats = {"requests": 0, "retries": 0, "gave_up": 0, "conn_opens": 0}

    async def get(self, target: str, deadline_s: float | None = None) -> Response:
        return await self.request("GET", target, deadline_s=deadline_s)

    async def post(self, target: str, body: bytes, deadline_s: float | None = None) -> Response:
        return await self.request("POST", target, body, deadline_s=deadline_s)

    async def request(
        self, method: str, target: str, body: bytes = b"", deadline_s: float | None = None
    ) -> Response:
        """Async twin of :meth:`ReproClient.request` (same semantics)."""
        import asyncio

        self.stats["requests"] += 1
        deadline_s = deadline_s if deadline_s is not None else self.policy.deadline_s
        deadline_ts = time.monotonic() + deadline_s if deadline_s is not None else None
        loop = _RetryLoop(self.policy, self._rng, deadline_ts)
        response: Response | None = None
        while True:
            loop.attempts += 1
            try:
                _fault_fire("client.request", method=method, target=target)
                response = await asyncio.wait_for(
                    self._exchange(method, target, body), timeout=loop.attempt_timeout_s()
                )
            except (asyncio.TimeoutError, *_TRANSPORT_ERRORS) as exc:  # noqa: UP041
                pause = loop.transport_error(exc)
                if pause is None:
                    self.stats["retries"] += loop.retries
                    self.stats["gave_up"] += 1
                    raise loop.exhausted(method, target) from exc
                await asyncio.sleep(pause)
                continue
            if response.status in self.policy.retry_statuses:
                pause = loop.retryable_response(response)
                if pause is None:
                    break
                await asyncio.sleep(pause)
                continue
            break
        self.stats["retries"] += loop.retries
        assert response is not None
        if response.status in self.policy.retry_statuses:
            self.stats["gave_up"] += 1
        return response

    async def _exchange(self, method: str, target: str, body: bytes) -> Response:
        import asyncio

        from .http import read_response

        reader, writer = await asyncio.open_connection(self.host, self.port)
        self.stats["conn_opens"] += 1
        try:
            head = (
                f"{method} {target} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Connection: close\r\nContent-Length: {len(body)}\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            status, headers, payload = await read_response(reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        return Response(status, headers, payload)
