"""Async compression service: a stdlib-only HTTP front end over the engine.

``repro serve`` binds this server over an **archive root** directory and
exposes the compute (:func:`repro.compress` / :func:`repro.decompress`), the
storage (:class:`~repro.service.archive.ArchiveStore` random access with
per-tile partial reads) and the batch layer
(:class:`~repro.service.runner.BatchRunner` jobs) as HTTP endpoints:

====== ================================== =======================================
method path                               purpose
====== ================================== =======================================
POST   ``/compress``                      raw field bytes -> ``.rpz`` container
POST   ``/decompress``                    ``.rpz`` container -> raw field bytes
GET    ``/archives``                      list archives under the root
GET    ``/archives/{name}``               list one archive's entries
GET    ``/archives/{name}/fields/{f}``    decompress one entry (``?tile=I``
                                          decodes a single tile)
POST   ``/jobs``                          submit a manifest to the batch runner
GET    ``/jobs/{id}``                     poll a job (report embedded when done)
GET    ``/codecs``                        registry capabilities table
GET    ``/healthz``                       liveness + version/schema report
GET    ``/stats``                         cache/batcher/jobs/request counters
====== ================================== =======================================

``POST /compress`` query parameters deserialize into one
:class:`repro.api.CompressionRequest` (the same contract the CLI and the
batch manifests speak), so every registered codec and option is reachable
over HTTP with no per-endpoint plumbing.

Service-scale mechanisms sit between the sockets and the engine:

* every CPU-heavy call runs off the event loop (``asyncio.to_thread``), so
  slow decompressions never stall the accept loop or the health probe;
* with ``--workers-procs N`` (N > 1) heavy work leaves the frontend process
  entirely: a :class:`~repro.server.pool.WorkerPool` dispatches
  compress/decompress/archive-read tasks to N worker processes, with the
  read cache sharded per worker by consistent hashing on
  ``(archive, field)`` — one multi-second compress no longer holds the
  frontend's GIL (see ``docs/OPERATIONS.md`` for the topology);
* in single-process mode, concurrent ``POST /compress`` requests coalesce
  in a :class:`~repro.server.batching.MicroBatcher` and execute as one
  LPT-scheduled pass (largest field first) instead of racing each other;
* decompressed tiles/fields land in a byte-budgeted
  :class:`~repro.server.cache.ByteBudgetLRU`, so the repeated-read hot path
  (dashboards polling the same slice) costs one dict lookup, with
  hit/miss/eviction counters surfaced in ``/stats``.

Production guardrails (all observable on ``GET /stats``, schema
``repro.stats/1``):

* **admission control** — once ``--queue-depth`` heavy requests are in
  flight, new ones get ``429`` with a ``Retry-After`` estimate instead of
  growing an unbounded backlog;
* **deadlines** — with ``--deadline-ms`` set, a heavy request that cannot
  finish in time returns ``503`` (and, pooled, is skipped by workers
  before any compute if it expired while queued);
* **graceful drain** — SIGTERM (via :meth:`ReproServer.install_signal_handlers`)
  stops admissions (new requests get ``503``, ``/healthz``/``/stats`` stay
  live), lets in-flight requests finish, flushes final stats to the log,
  then stops the listener and the worker pool;
* **latency histograms** — every request lands in a per-route log-bucket
  histogram with p50/p99 estimates;
* **integrity** — detected archive corruption, worker death and injected
  faults map to typed, retryable ``503`` responses (never a bare ``500``),
  are counted in the ``integrity`` stats block, and corruption flips the
  ``degraded`` flag on ``/healthz`` until the instance is repaired and
  restarted (see the corruption runbook in ``docs/OPERATIONS.md``).

HTTP comes from :mod:`repro.http`, the codec the cluster coordinator
shares: HTTP/1.1 keep-alive, ``Content-Length`` bodies only, JSON errors
with 4xx for anything malformed (bad query, bad body, unknown route) and
5xx only for genuine server bugs.  See ``docs/API.md`` for request/response
examples and ``docs/OPERATIONS.md`` for deployment/tuning guidance.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import os
import signal
import time

import numpy as np

from ..api import (
    REQUEST_SCHEMA,
    CapabilityError,
    RequestError,
    UnknownCodecError,
    build_request,
    codec_name,
    registry,
)
from ..core.container import ContainerError
from ..core.tiling import resolve_workers
from ..encoders import ans as _ans_tables
from ..encoders import huffman as _huffman_tables
from ..http import HttpError, HttpServer, Request, Routes, json_response
from ..predictor.interpolation import level_plan_stats
from ..service import (
    ArchiveCorruption,
    ArchiveError,
    ArchiveNotFound,
    ArchiveStore,
    ManifestError,
)
from ..service.archive import blob_cache_stats
from .batching import MicroBatcher
from .cache import ByteBudgetLRU
from .jobs import JobManager, check_bare_name
from .metrics import RouteLatencies
from .pool import (
    DEFAULT_QUEUE_DEPTH,
    DeadlineExceeded,
    PoolSaturated,
    PoolTaskError,
    WorkerPool,
)

__all__ = ["HttpError", "ReproServer", "DEFAULT_CACHE_BYTES", "STATS_SCHEMA"]

log = logging.getLogger("repro.server")

DEFAULT_CACHE_BYTES = 256 * 1024 * 1024
_MAX_BODY_BYTES = 1024 * 1024 * 1024
_DTYPES = ("float32", "float64")

#: wire-format identifier stamped into the ``GET /stats`` document, so
#: dashboards and tests can pin the counter shape
STATS_SCHEMA = "repro.stats/1"


def _coerce_option(value: str):
    """``opt.*`` query values: numbers become numbers, the rest stay text."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _safe_name(name: str, what: str) -> str:
    try:
        return check_bare_name(name)
    except ValueError:
        raise HttpError(400, f"invalid {what} {name!r}") from None


class ReproServer(HttpServer):
    """The ``repro serve`` application object (also usable in-process).

    Parameters
    ----------
    archive_root:
        Directory holding the archives served under ``/archives`` and
        receiving job outputs (created if missing).
    host, port:
        Bind address; ``port=0`` picks a free port (read :attr:`port` after
        :meth:`start` — the pattern the test suite uses).
    cache_bytes:
        LRU byte budget for decompressed tiles/fields; ``0`` disables caching.
        In pooled mode the budget is split evenly across the worker shards.
    workers:
        Thread fan-out for the compress micro-batcher (``0`` = CPU count).
    batch_window_ms, max_batch:
        Micro-batching window: how long a compress request waits for
        batchmates, and the batch size that flushes immediately.
    worker_procs:
        Heavy-work processes behind the frontend.  ``1`` (default) keeps the
        single-process in-process path; ``> 1`` routes compress/decompress/
        archive reads through a :class:`~repro.server.pool.WorkerPool`;
        ``0`` means one worker per usable CPU.
    queue_depth:
        Admission bound: heavy requests in flight beyond this get 429 with
        ``Retry-After``.
    deadline_ms:
        Per-request deadline for heavy work; ``0`` disables.  Expired
        requests get 503.
    drain_grace_s:
        How long :meth:`drain` waits for in-flight work before stopping.
    """

    def __init__(
        self,
        archive_root: str,
        host: str = "127.0.0.1",
        port: int = 8077,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        workers: int = 0,
        batch_window_ms: float = 5.0,
        max_batch: int = 32,
        max_body: int = _MAX_BODY_BYTES,
        worker_procs: int = 1,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        deadline_ms: float = 0.0,
        drain_grace_s: float = 30.0,
    ):
        super().__init__(host, port, max_body, log)
        self.archive_root = os.path.abspath(archive_root)
        self.worker_procs = resolve_workers(worker_procs) if worker_procs == 0 else int(worker_procs)
        if self.worker_procs < 1:
            raise ValueError(f"worker_procs must be >= 0 (0 = CPU count), got {worker_procs}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if deadline_ms < 0:
            raise ValueError(f"deadline_ms must be >= 0 (0 = no deadline), got {deadline_ms}")
        self.queue_depth = int(queue_depth)
        self.deadline_ms = float(deadline_ms)
        self.drain_grace_s = float(drain_grace_s)
        self.pool: WorkerPool | None = (
            WorkerPool(self.worker_procs, queue_depth=self.queue_depth, cache_bytes=cache_bytes)
            if self.worker_procs > 1
            else None
        )
        # Pooled mode hands the whole read-cache budget to the worker shards;
        # the frontend LRU only serves the single-process path.
        self.cache = ByteBudgetLRU(0 if self.pool is not None else cache_bytes)
        self.batcher = MicroBatcher(window_ms=batch_window_ms, max_batch=max_batch, workers=workers)
        self.jobs = JobManager(self.archive_root, workers=1)
        self.latency = RouteLatencies()
        work = {
            ("POST", "/compress"): self._handle_compress,
            ("POST", "/decompress"): self._handle_decompress,
            ("GET", "/archives"): self._handle_archive_list,
            ("GET", "/archives/{name}"): self._handle_archive_entries,
            ("GET", "/archives/{name}/fields/{field}"): self._handle_field_read,
            ("POST", "/jobs"): self._handle_job_submit,
            ("GET", "/jobs/{id}"): self._handle_job_poll,
        }
        # Probes stay live while draining so orchestrators can watch the
        # landing; the rest is refused while in-flight work finishes.
        self.routes = Routes(
            {
                ("GET", "/healthz"): self._handle_healthz,
                ("GET", "/codecs"): self._handle_codecs,
                ("GET", "/stats"): self._handle_stats,
                **{route: self._unless_draining(handler) for route, handler in work.items()},
            }
        )
        self._started_s = time.time()
        self._responses: dict[str, int] = {"2xx": 0, "4xx": 0, "5xx": 0}
        self._drain_task: asyncio.Task | None = None
        self._inflight_heavy = 0
        self._heavy_ewma_s = 0.0
        self._rejected_429 = 0
        self._expired_503 = 0
        self._draining_503 = 0
        # Storage-integrity counters (the ``integrity`` block of /stats):
        # detected archive corruption, worker deaths, injected faults — all
        # served as typed, retryable 503s rather than bare 500s.
        self._integrity = {"corruption": 0, "worker_death": 0, "fault": 0}

    # -------------------------------------------------------------- lifecycle
    @property
    def degraded(self) -> bool:
        """Whether this server has served corrupt storage since it started.

        Sticky until restart (or until an operator runs ``repro archive
        repair`` and recycles the instance): a corrupt archive does not heal
        by itself, so orchestrators should route around the replica and page
        someone instead of retrying forever.
        """
        return self._integrity["corruption"] > 0

    async def start(self) -> None:
        os.makedirs(self.archive_root, exist_ok=True)
        self._started_s = time.time()
        if self.pool is not None:
            # spawn + handshake blocks; keep the loop responsive while workers boot
            await asyncio.to_thread(self.pool.start)
        await super().start()
        log.info(
            "serving %s on http://%s:%d (%d worker process%s)",
            self.archive_root,
            self.host,
            self.port,
            self.worker_procs,
            "" if self.worker_procs == 1 else "es",
        )

    async def stop(self) -> None:
        await super().stop()
        await self.batcher.drain()
        if self.pool is not None:
            self.pool.close()
        self.jobs.shutdown()

    def install_signal_handlers(self) -> None:
        """Arrange for SIGTERM/SIGINT to trigger a graceful :meth:`drain`.

        Must run inside the event loop that serves requests (the CLI calls
        it right after :meth:`start`).  Safe to call on platforms without
        ``loop.add_signal_handler`` — it degrades to doing nothing.
        """
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._begin_drain, signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                return

    def _begin_drain(self, signum: int) -> None:
        if self._draining:  # a second signal must not restart the sequence
            return
        if self._drain_task is None or self._drain_task.done():
            log.info("received signal %d; draining", signum)
            self._drain_task = asyncio.get_running_loop().create_task(self.drain())

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish in-flight, flush stats.

        New heavy requests get 503 the moment draining starts (``/healthz``
        and ``/stats`` keep answering so orchestrators can watch the
        landing).  In-flight requests get up to ``drain_grace_s`` seconds
        to finish; then the final stats document is flushed to the log and
        the listener plus worker pool are stopped.
        """
        if self._draining:
            return
        self._draining = True
        deadline = time.monotonic() + self.drain_grace_s
        while time.monotonic() < deadline:
            pending = self._inflight_heavy + (self.pool.pending if self.pool else 0)
            if pending == 0:
                break
            await asyncio.sleep(0.05)
        await self.batcher.drain()
        if self.pool is not None:
            await self.pool.drain(grace_s=max(0.0, deadline - time.monotonic()))
        log.info("drain complete; final stats: %s", json.dumps(self.stats(), sort_keys=True))
        await self.stop()

    # ------------------------------------------------------------ HTTP layer
    def _observe(self, route: str, status: int, seconds: float) -> None:
        bucket = f"{status // 100}xx"
        self._responses[bucket] = self._responses.get(bucket, 0) + 1
        self.latency.observe(route, seconds)

    def _unless_draining(self, handler):
        """Refuse ``handler``'s work with 503 once draining has begun."""

        async def guarded(req: Request, *params: str) -> tuple[int, dict, bytes]:
            if self._draining:
                self._draining_503 += 1
                raise HttpError(503, "server is draining; no new work accepted")
            return await handler(req, *params)

        return guarded

    async def _handle_healthz(self, req: Request) -> tuple[int, dict, bytes]:
        from .. import __version__

        return json_response(
            {
                "status": "draining" if self._draining else "ok",
                "degraded": self.degraded,
                "archive_root": self.archive_root,
                "version": __version__,
                "request_schema": REQUEST_SCHEMA,
            }
        )

    async def _handle_codecs(self, req: Request) -> tuple[int, dict, bytes]:
        return json_response({"request_schema": REQUEST_SCHEMA, "codecs": registry.table()})

    async def _handle_stats(self, req: Request) -> tuple[int, dict, bytes]:
        return json_response(self.stats())

    # ------------------------------------------------- admission and deadlines
    def _deadline_ts(self) -> float | None:
        """Absolute wall-clock expiry for a request arriving now (or None).

        Wall clock (not monotonic) because the timestamp crosses process
        boundaries: workers compare it against their own ``time.time()``.
        """
        if self.deadline_ms <= 0:
            return None
        return time.time() + self.deadline_ms / 1000.0

    def _retry_after_s(self) -> int:
        """Single-process backlog-drain estimate, clamped to [1, 60] s."""
        wall = self._heavy_ewma_s or 0.5
        return max(1, min(60, int(self._inflight_heavy * wall + 0.999)))

    def _corruption_503(self, exc: ArchiveCorruption) -> HttpError:
        """Detected storage corruption: a typed, retryable 503 (a replica or
        ``repro archive repair`` may heal it), counted and flipping
        ``/healthz`` to degraded — never a bare 500."""
        self._integrity["corruption"] += 1
        return HttpError(503, str(exc), headers={"Retry-After": "1"})

    async def _run_heavy(self, work) -> tuple[int, dict, bytes]:
        """Single-process guardrails around one heavy handler body.

        ``work`` is a zero-arg coroutine function (not a coroutine — nothing
        is created if admission refuses).  Applies the same admission bound
        and deadline the pooled path gets from :class:`WorkerPool`.
        """
        if self._inflight_heavy >= self.queue_depth:
            self._rejected_429 += 1
            raise HttpError(
                429,
                f"{self._inflight_heavy} heavy requests in flight (bound {self.queue_depth})",
                headers={"Retry-After": str(self._retry_after_s())},
            )
        deadline = self._deadline_ts()
        self._inflight_heavy += 1
        began = time.perf_counter()
        try:
            if deadline is None:
                return await work()
            try:
                return await asyncio.wait_for(work(), timeout=max(0.0, deadline - time.time()))
            except asyncio.TimeoutError:  # noqa: UP041 — distinct class on py3.10
                self._expired_503 += 1
                raise HttpError(503, f"deadline of {self.deadline_ms:g} ms exceeded") from None
        finally:
            self._inflight_heavy -= 1
            wall = time.perf_counter() - began
            self._heavy_ewma_s = (
                wall if not self._heavy_ewma_s else 0.8 * self._heavy_ewma_s + 0.2 * wall
            )

    async def _pool_call(self, kind: str, payload: dict, key: str | None = None) -> dict:
        """Submit one task to the worker pool, mapping pool failures onto
        the same HTTP statuses the single-process guardrails produce."""
        assert self.pool is not None
        deadline = self._deadline_ts()
        self._inflight_heavy += 1
        try:
            future = self.pool.submit(kind, payload, key=key, deadline_ts=deadline)
            if deadline is None:
                return await future
            try:
                # The worker also pre-checks expiry at dequeue (fast 503 for
                # a backlog); this wait_for covers tasks that *started* in
                # time but cannot finish in budget.
                return await asyncio.wait_for(future, timeout=max(0.0, deadline - time.time()))
            except asyncio.TimeoutError:  # noqa: UP041 — distinct class on py3.10
                self.pool.abandon(future)
                self._expired_503 += 1
                raise HttpError(503, f"deadline of {self.deadline_ms:g} ms exceeded") from None
        except PoolSaturated as exc:
            self._rejected_429 += 1
            raise HttpError(
                429, str(exc), headers={"Retry-After": str(exc.retry_after_s)}
            ) from None
        except DeadlineExceeded:
            self._expired_503 += 1
            raise HttpError(503, f"deadline of {self.deadline_ms:g} ms exceeded") from None
        except PoolTaskError as exc:
            headers = {}
            if exc.kind in ("corruption", "worker-death", "fault"):
                self._integrity[exc.kind.replace("-", "_")] += 1
                if exc.status == 503:
                    # Transient (worker death, injected fault) or maybe
                    # healed by a replica/repair (corruption): worth a
                    # client-side retry after a beat.
                    headers["Retry-After"] = "1"
            raise HttpError(exc.status, exc.message, headers or None) from None
        finally:
            self._inflight_heavy -= 1

    # ---------------------------------------------------------------- compute
    def _compress_request(self, req: Request):
        """Deserialize ``POST /compress`` query parameters into the one
        canonical :class:`~repro.api.CompressionRequest` (all eb/codec/
        tiling/pipeline defaulting and validation lives in ``repro.api``).

        Codec-specific options ride as ``opt.<key>=<value>`` query
        parameters (numbers coerced), e.g. ``codec=cuzfp&opt.rate=8`` —
        so every registered codec, including fixed-rate ones, is reachable
        over HTTP."""
        codec = req.query.get("codec")
        mode = req.query.get("mode")
        options = {}
        for key, value in req.query.items():
            if key.startswith("opt."):
                options[key[4:]] = _coerce_option(value)
        try:
            return build_request(
                codec=codec,
                mode=None if codec is not None else mode,
                eb=req.query_float("eb"),
                eb_mode=req.query.get("eb_mode"),
                tiles=req.query_dims("tiles"),
                workers=req.query_int("workers"),
                executor=req.query.get("executor"),
                pipeline=req.query.get("pipeline"),
                options=options or None,
            )
        except (RequestError, CapabilityError, UnknownCodecError) as exc:
            raise HttpError(400, str(exc)) from None

    async def _handle_compress(self, req: Request) -> tuple[int, dict, bytes]:
        shape = req.query_dims("shape")
        if shape is None:
            raise HttpError(400, "POST /compress needs ?shape=D0,D1,... matching the body")
        dtype = req.query.get("dtype", "float32")
        if dtype not in _DTYPES:
            raise HttpError(400, f"dtype must be one of {_DTYPES}, got {dtype!r}")
        request = self._compress_request(req)
        expected = math.prod(shape) * np.dtype(dtype).itemsize
        if len(req.body) != expected:
            raise HttpError(
                400,
                f"body is {len(req.body)} bytes but shape={','.join(map(str, shape))} "
                f"dtype={dtype} needs {expected}",
            )
        if self.pool is not None:
            result = await self._pool_call(
                "compress",
                {"request": request.to_dict(), "data": req.body, "dtype": dtype, "shape": shape},
            )
            payload = result["payload"]
            headers = {
                "X-Repro-Codec": result["codec"],
                "X-Repro-CR": f"{result['raw_nbytes'] / max(1, len(payload)):.4f}",
                "X-Repro-Eb-Abs": f"{result['eb_abs']:.8g}",
            }
            return 200, headers, payload
        data = np.frombuffer(req.body, dtype=dtype).reshape(shape)

        async def _work() -> tuple[int, dict, bytes]:
            try:
                result = await self.batcher.submit(data, request)
            except (ValueError, TypeError, KeyError) as exc:
                raise HttpError(400, f"compression rejected: {exc}") from None
            blob = result.blob
            payload = await asyncio.to_thread(blob.to_bytes)  # CRCs off the loop
            headers = {
                "X-Repro-Codec": codec_name(blob.codec),
                "X-Repro-CR": f"{len(req.body) / max(1, len(payload)):.4f}",
                "X-Repro-Eb-Abs": f"{blob.error_bound:.8g}",
            }
            return 200, headers, payload

        return await self._run_heavy(_work)

    async def _handle_decompress(self, req: Request) -> tuple[int, dict, bytes]:
        if not req.body:
            raise HttpError(400, "POST /decompress needs a .rpz container body")
        if self.pool is not None:
            result = await self._pool_call("decompress", {"data": req.body})
            headers = {
                "X-Repro-Shape": ",".join(str(d) for d in result["shape"]),
                "X-Repro-Dtype": result["dtype"],
            }
            return 200, headers, result["payload"]
        from ..api import decompress as _decompress

        async def _work() -> tuple[int, dict, bytes]:
            def _decode() -> tuple[np.ndarray, bytes]:
                data = _decompress(req.body)
                return data, data.tobytes()

            try:
                data, body = await asyncio.to_thread(_decode)
            except (ContainerError, ValueError, KeyError) as exc:
                raise HttpError(400, f"not a decodable container: {exc}") from None
            headers = {
                "X-Repro-Shape": ",".join(str(d) for d in data.shape),
                "X-Repro-Dtype": data.dtype.name,
            }
            return 200, headers, body

        return await self._run_heavy(_work)

    # ---------------------------------------------------------------- storage
    def _archive_path(self, name: str) -> str:
        _safe_name(name, "archive name")
        path = os.path.join(self.archive_root, name)
        if os.path.exists(path):
            return path
        if not name.endswith(".rpza") and os.path.exists(path + ".rpza"):
            return path + ".rpza"
        raise HttpError(404, f"archive {name!r} not found under the archive root")

    async def _handle_archive_list(self, req: Request) -> tuple[int, dict, bytes]:
        names = []
        for entry in sorted(os.listdir(self.archive_root)):
            full = os.path.join(self.archive_root, entry)
            if entry.endswith(".rpza") and os.path.isfile(full):
                names.append(entry)
            elif os.path.isdir(full) and os.path.exists(os.path.join(full, "index.json")):
                names.append(entry)
        return json_response({"archives": names})

    async def _handle_archive_entries(self, req: Request, name: str) -> tuple[int, dict, bytes]:
        path = self._archive_path(name)

        def _list() -> list[dict]:
            with ArchiveStore(path, mode="r") as archive:
                return [e.to_json() for e in archive.entries()]

        try:
            entries = await asyncio.to_thread(_list)
        except ArchiveCorruption as exc:
            raise self._corruption_503(exc) from None
        except ArchiveError as exc:
            raise HttpError(400, str(exc)) from None
        return json_response({"archive": name, "entries": entries})

    async def _handle_field_read(
        self, req: Request, name: str, field: str
    ) -> tuple[int, dict, bytes]:
        path = self._archive_path(name)
        tile = req.query_int("tile")
        if self.pool is not None:
            # Shard on (archive, field) — tiles of one field share a worker
            # cache, so repeated tile reads hit that worker's LRU.
            result = await self._pool_call(
                "read",
                {"path": path, "field": field, "tile": tile},
                key=f"{os.path.basename(path)}|{field}",
            )
            headers = {
                "X-Repro-Shape": ",".join(str(d) for d in result["shape"]),
                "X-Repro-Dtype": result["dtype"],
                "X-Repro-Source": result["source"],
            }
            if result["origin"] is not None:
                headers["X-Repro-Tile-Origin"] = ",".join(str(o) for o in result["origin"])
            return 200, headers, result["payload"]
        key = (path, field, tile)
        cached = self.cache.get(key)
        if cached is not None:
            origin, data = cached
            served_from = "cache"
        else:

            def _read():
                with ArchiveStore(path, mode="r") as archive:
                    if tile is None:
                        return None, archive.get(field)
                    return archive.get_tile(field, tile)

            try:
                origin, data = await asyncio.to_thread(_read)
            except ArchiveNotFound as exc:
                raise HttpError(404, str(exc)) from None
            except ArchiveCorruption as exc:
                raise self._corruption_503(exc) from None
            except ArchiveError as exc:
                raise HttpError(400, str(exc)) from None
            self.cache.put(key, (origin, data), nbytes=data.nbytes)
            served_from = "store"
        headers = {
            "X-Repro-Shape": ",".join(str(d) for d in data.shape),
            "X-Repro-Dtype": data.dtype.name,
            "X-Repro-Source": served_from,
        }
        if origin is not None:
            headers["X-Repro-Tile-Origin"] = ",".join(str(o) for o in origin)
        return 200, headers, await asyncio.to_thread(data.tobytes)

    # ------------------------------------------------------------------- jobs
    async def _handle_job_submit(self, req: Request) -> tuple[int, dict, bytes]:
        doc = req.json()
        archive = req.query.get("archive")
        try:
            snapshot = self.jobs.submit(doc, archive=archive)
        except (ManifestError, ValueError) as exc:
            raise HttpError(400, str(exc)) from None
        return json_response(snapshot, status=202)

    async def _handle_job_poll(self, req: Request, job_id: str) -> tuple[int, dict, bytes]:
        snapshot = self.jobs.get(job_id)
        if snapshot is None:
            raise HttpError(404, f"no job {job_id!r}")
        return json_response(snapshot)

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """Everything ``GET /stats`` reports, as one JSON-ready document.

        ``codec_tables`` exposes the memoized coding-table counters (Huffman
        code/LUT tables, rANS tables, interpolation pass plans): micro-batched
        requests with identical histograms must show ``huffman.hits`` growing
        instead of rebuilding tables — the counters make that provable from
        the outside.  ``archive_blob_cache`` is the parsed-frame cache behind
        per-tile archive reads.

        ``schema`` pins the document shape (``repro.stats/1``); ``admission``
        tracks the 429/503 guardrails, ``integrity`` the corruption/worker-
        death/fault 503s (plus the sticky ``degraded`` flag), ``latency``
        holds the per-route histograms, and ``pool`` is the worker-pool
        counter block (``None`` in single-process mode).
        """
        return {
            "schema": STATS_SCHEMA,
            "uptime_s": round(time.time() - self._started_s, 3),
            "archive_root": self.archive_root,
            "draining": self._draining,
            "requests": self._requests,
            "responses": dict(self._responses),
            "admission": {
                "queue_depth": self.queue_depth,
                "deadline_ms": self.deadline_ms,
                "inflight_heavy": self._inflight_heavy,
                "rejected_429": self._rejected_429,
                "expired_503": self._expired_503,
                "draining_503": self._draining_503,
            },
            "integrity": {**self._integrity, "degraded": self.degraded},
            "latency": self.latency.snapshot(),
            "pool": self.pool.stats() if self.pool is not None else None,
            "cache": self.cache.stats(),
            "batcher": self.batcher.stats(),
            "jobs": self.jobs.counts(),
            "codec_tables": {
                "huffman": _huffman_tables.table_cache_stats(),
                "ans": _ans_tables.table_cache_stats(),
                "interp_plans": level_plan_stats(),
            },
            "archive_blob_cache": blob_cache_stats(),
        }


async def run_server(server: ReproServer) -> None:
    """Start ``server`` and serve until cancelled."""
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
