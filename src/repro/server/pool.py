"""Multi-process worker pool: route CPU-heavy work off the frontend process.

The asyncio frontend (:mod:`repro.server.app`) is excellent at sockets and
terrible at NumPy: the hot compression path holds the GIL for hundreds of
milliseconds at a time, so in a single process one heavy ``POST /compress``
starves every concurrent request — including ``GET /healthz``.  This module
puts ``N`` **worker processes** behind the frontend:

* each worker runs :func:`_worker_main`: a blocking loop over its own task
  queue, executing ``compress`` / ``decompress`` / archive ``read`` tasks
  with the same :mod:`repro.api` calls the in-process path uses — blobs are
  byte-identical to the single-process server;
* tasks travel as small picklable tuples over per-worker
  ``multiprocessing`` queues (pipe transport); each worker answers on its
  own result pipe (no lock shared between workers, which a worker killed
  mid-write would leak), drained by a dispatcher thread that resolves
  asyncio futures via ``loop.call_soon_threadsafe``;
* archive reads are **sharded by consistent hashing** on
  ``(archive, field)`` (:class:`HashRing`), so each worker's byte-budgeted
  blob cache holds a disjoint slice of the corpus instead of ``N`` copies
  of the same hot fields;
* compress/decompress tasks go to the least-loaded worker (fewest in-flight
  tasks, round-robin tie-break);
* the pool enforces **admission control**: once ``queue_depth`` tasks are
  in flight, :meth:`WorkerPool.submit` raises :class:`PoolSaturated`
  carrying a ``Retry-After`` estimate derived from an EWMA of recent task
  walls (the HTTP layer turns it into a 429);
* **deadlines** ride with each task as an absolute wall-clock timestamp;
  a worker picking up an already-expired task skips the work and reports
  ``expired`` (the HTTP layer's 503), so a backlog drains at queue speed
  instead of compute speed.  The frontend additionally stops waiting at
  the deadline and calls :meth:`WorkerPool.abandon`; a result arriving for
  an abandoned task is counted (``expired`` if the worker skipped it,
  ``late_results`` if it computed an answer nobody wanted) but never
  delivered;
* a worker that dies mid-task fails only its own in-flight tasks — each gets
  a retryable 503 (compress/read tasks are idempotent; :mod:`repro.client`
  retries them) — and is respawned by the dispatcher on a fresh task queue
  (a worker killed while blocked in ``get()`` leaks its queue's reader
  lock), so the pool survives worker crashes without ever surfacing a 500;
* detected storage corruption (:class:`~repro.service.ArchiveCorruption`)
  travels back with an error *kind* so the frontend can count it in the
  ``integrity`` stats block and flag ``/healthz`` degraded.

Workers are spawned (never forked) so they hold no inherited locks from the
frontend's threads, and they ignore SIGINT/SIGTERM: shutdown is owned by
the frontend's drain sequence, which stops admissions first and sends each
worker a sentinel once in-flight work has settled; :meth:`WorkerPool.close`
SIGKILLs any worker still alive after its grace period.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import multiprocessing
import multiprocessing.connection
import signal
import threading
import time

__all__ = [
    "HashRing",
    "WorkerPool",
    "PoolSaturated",
    "PoolTaskError",
    "DeadlineExceeded",
    "DEFAULT_QUEUE_DEPTH",
]

#: default bound on tasks in flight (queued + executing) across the pool
DEFAULT_QUEUE_DEPTH = 64

#: EWMA smoothing for completed-task wall times (Retry-After estimation)
_EWMA_ALPHA = 0.2


class PoolSaturated(Exception):
    """Admission refused: the pool already holds ``queue_depth`` tasks.

    ``retry_after_s`` is the backlog-drain estimate the HTTP layer reports
    as the ``Retry-After`` header of its 429 response.
    """

    def __init__(self, retry_after_s: int, depth: int):
        super().__init__(f"worker pool saturated ({depth} tasks in flight)")
        self.retry_after_s = retry_after_s
        self.depth = depth


class DeadlineExceeded(Exception):
    """A task expired before a worker finished (or started) it."""


class PoolTaskError(Exception):
    """A task failed in a worker; carries the HTTP status it maps to.

    ``kind`` classifies the failure for the frontend's bookkeeping:
    ``"error"`` (plain task failure), ``"corruption"`` (the worker hit
    :class:`~repro.service.ArchiveCorruption` — counted in the ``integrity``
    stats block), ``"worker-death"`` (the worker died mid-task; retryable),
    or ``"fault"`` (an injected :class:`~repro.faults.FaultInjected`).
    """

    def __init__(self, status: int, message: str, kind: str = "error"):
        super().__init__(message)
        self.status = status
        self.message = message
        self.kind = kind


class HashRing:
    """Consistent hashing over ``n`` workers (cache-shard routing).

    Keys map deterministically to a worker index; growing the pool by one
    worker re-homes only ``~1/n`` of the keys, so a rolling resize does not
    cold-start every worker cache at once.  Points are MD5-derived, so the
    mapping is stable across processes and Python runs (no ``PYTHONHASHSEED``
    dependence — the frontend and a load generator agree on shard homes).

    >>> ring = HashRing(3)
    >>> ring.node("corpus.rpza|temperature") == ring.node("corpus.rpza|temperature")
    True
    >>> sorted({ring.node(f"key-{i}") for i in range(64)})  # all workers used
    [0, 1, 2]
    >>> HashRing(1).node("anything")
    0
    """

    def __init__(self, nodes: int, replicas: int = 64):
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        self.nodes = int(nodes)
        points = []
        for node in range(self.nodes):
            for replica in range(replicas):
                digest = hashlib.md5(f"{node}:{replica}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), node))
        points.sort()
        self._points = points

    def node(self, key: str) -> int:
        """The worker index owning ``key`` (first point clockwise)."""
        h = int.from_bytes(hashlib.md5(key.encode()).digest()[:8], "big")
        lo, hi = 0, len(self._points)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._points[mid][0] < h:
                lo = mid + 1
            else:
                hi = mid
        return self._points[lo % len(self._points)][1]


# --------------------------------------------------------------------- worker


def _task_failure_for(exc: Exception) -> tuple[int, str]:
    """Map a task exception to ``(http_status, kind)`` — the same split the
    frontend uses on the in-process path.  Detected storage corruption is a
    retryable, *typed* 503 (the entry may heal via ``repro archive repair``
    or another replica), never a bare 500."""
    from ..faults import FaultInjected
    from ..service import ArchiveCorruption, ArchiveError, ArchiveNotFound

    if isinstance(exc, ArchiveNotFound):
        return 404, "error"
    if isinstance(exc, ArchiveCorruption):
        return 503, "corruption"
    if isinstance(exc, FaultInjected):
        return 503, "fault"
    if isinstance(exc, (ArchiveError, ValueError, TypeError, KeyError)):
        return 400, "error"
    return 500, "error"


def _run_task(kind: str, payload: dict, cache) -> dict:
    """Execute one task inside a worker process (pure function of payload).

    Uses exactly the same :mod:`repro.api` entry points as the in-process
    server path, so pooled and single-process responses are byte-identical.
    """
    import numpy as np

    from .. import api

    if kind == "compress":
        from ..api import CompressionRequest

        request = CompressionRequest.from_dict(payload["request"])
        data = np.frombuffer(payload["data"], dtype=payload["dtype"]).reshape(payload["shape"])
        result = api.compress(data, request)
        blob_bytes = result.to_bytes()
        return {
            "payload": blob_bytes,
            "codec": api.codec_name(result.blob.codec),
            "eb_abs": float(result.blob.error_bound),
            "raw_nbytes": len(payload["data"]),
        }
    if kind == "decompress":
        data = api.decompress(payload["data"])
        return {"payload": data.tobytes(), "shape": tuple(data.shape), "dtype": data.dtype.name}
    if kind == "read":
        from ..service import ArchiveStore

        path, fld, tile = payload["path"], payload["field"], payload.get("tile")
        key = (path, fld, tile)
        cached = cache.get(key)
        source = "worker-cache"
        if cached is None:
            with ArchiveStore(path, mode="r") as archive:
                if tile is None:
                    cached = (None, archive.get(fld))
                else:
                    cached = archive.get_tile(fld, tile)
            cache.put(key, cached, nbytes=cached[1].nbytes)
            source = "store"
        origin, data = cached
        return {
            "payload": data.tobytes(),
            "shape": tuple(data.shape),
            "dtype": data.dtype.name,
            "origin": tuple(origin) if origin is not None else None,
            "source": source,
        }
    raise ValueError(f"unknown pool task kind {kind!r}")


def _worker_main(worker_id: int, task_q, results, cache_bytes: int) -> None:
    """One worker process: blocking task loop until the ``None`` sentinel.

    Top-level (not a closure) so the ``spawn`` start method can import it;
    SIGINT/SIGTERM are ignored because shutdown belongs to the frontend's
    drain sequence, not to whoever signalled the process group.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    from ..core.cache import ByteBudgetLRU

    # Importing repro.faults arms any REPRO_FAULTS plan the spawning frontend
    # exported, with this process's own hit counters.
    from ..faults import fire as _fault_fire

    cache = ByteBudgetLRU(cache_bytes)
    # Ready handshake: the heavy module imports above take seconds; tell the
    # frontend before blocking on the queue so start() can wait for a pool
    # that actually dequeues promptly (deadlined tasks submitted while a
    # worker is still importing would all expire at the dequeue pre-check).
    results.send((0, "ready", worker_id))
    while True:
        item = task_q.get()
        if item is None:
            break
        task_id, kind, deadline_ts, payload = item
        if deadline_ts is not None and time.time() > deadline_ts:
            results.send((task_id, "expired", None))
            continue
        try:
            # Chaos hook ("pool.worker-task"): SIGKILL at task K, injected
            # error, or stall — after the dequeue pre-check, so the fault
            # lands on *started* work.
            _fault_fire("pool.worker-task", worker=worker_id, kind=kind)
            results.send((task_id, "ok", _run_task(kind, payload, cache)))
        except Exception as exc:  # noqa: BLE001 — per-task isolation boundary
            status, failure_kind = _task_failure_for(exc)
            results.send((task_id, "error", (status, f"{exc}", failure_kind)))


# ----------------------------------------------------------------- dispatcher


class _Pending:
    """Book-keeping for one in-flight task."""

    __slots__ = ("future", "loop", "worker", "t0", "abandoned")

    def __init__(self, future, loop, worker: int, t0: float):
        self.future = future
        self.loop = loop
        self.worker = worker
        self.t0 = t0
        self.abandoned = False


def _resolve(future: asyncio.Future, exc: Exception | None, value) -> None:
    """Resolve a future from the loop thread, tolerating earlier timeouts."""
    if future.done():  # deadline already fired wait_for's cancellation
        return
    if exc is not None:
        future.set_exception(exc)
    else:
        future.set_result(value)


class WorkerPool:
    """Dispatcher over ``workers`` processes (the ``--workers-procs`` tier).

    Construct, then :meth:`start` (blocking — spawn it off the event loop
    with ``asyncio.to_thread``); :meth:`submit` returns an asyncio future
    and must be called from the loop thread.  ``cache_bytes`` is the *total*
    read-cache budget, split evenly across the worker shards.
    """

    def __init__(
        self,
        workers: int,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        cache_bytes: int = 0,
        start_method: str = "spawn",
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.workers = int(workers)
        self.queue_depth = int(queue_depth)
        self.cache_bytes = int(cache_bytes)
        self._ctx = multiprocessing.get_context(start_method)
        self._ring = HashRing(self.workers)
        self._task_queues = [self._ctx.Queue() for _ in range(self.workers)]
        self._procs: list = [None] * self.workers
        self._results: list = [None] * self.workers  # read ends of the result pipes
        self._pending: dict[int, _Pending] = {}
        self._ids = itertools.count(1)
        self._rr = itertools.count()
        self._lock = threading.Lock()
        self._dispatcher: threading.Thread | None = None
        self._closed = False
        # Counters surfaced in GET /stats.
        self._dispatched = 0
        self._completed = 0
        self._errors = 0
        self._expired = 0
        self._rejected = 0
        self._late = 0
        self._worker_restarts = 0
        self._cache_hits = 0
        self._depth_high_water = 0
        self._ewma_wall_s = 0.0
        self._per_worker = [0] * self.workers

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Spawn the workers, wait for their ready handshake, start dispatch.

        Blocking (the server calls it via ``asyncio.to_thread``).  Waiting
        for the handshake means a freshly started pool dequeues within
        milliseconds — without it, every deadlined task submitted during the
        workers' multi-second import phase would expire before starting.
        """
        for wid in range(self.workers):
            self._spawn_worker(wid)
        self._await_ready()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-pool-dispatch", daemon=True
        )
        self._dispatcher.start()

    def _await_ready(self, timeout_s: float = 60.0) -> None:
        """Consume one ``ready`` message per worker (respawning boot deaths).

        Gives up at ``timeout_s`` instead of raising — a pool that boots
        slowly is degraded (early deadlined tasks expire in queue), not
        broken.
        """
        deadline = time.monotonic() + timeout_s
        booting = set(range(self.workers))
        while booting and time.monotonic() < deadline:
            conns = [self._results[wid] for wid in booting]
            for conn in multiprocessing.connection.wait(conns, timeout=0.5):
                wid = self._results.index(conn)
                try:
                    conn.recv()  # the ready handshake
                    booting.discard(wid)
                except (EOFError, OSError):  # died while booting, maybe mid-message
                    self._procs[wid].join(timeout=5.0)
                    self._spawn_worker(wid)

    def _spawn_worker(self, wid: int) -> None:
        shard_bytes = self.cache_bytes // self.workers
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, self._task_queues[wid], writer, shard_bytes),
            name=f"repro-worker-{wid}",
            daemon=True,
        )
        proc.start()
        writer.close()  # the worker holds the only write end: its exit reads as EOF
        if self._results[wid] is not None:
            self._results[wid].close()
        self._procs[wid] = proc
        self._results[wid] = reader

    def close(self, join_s: float = 5.0) -> None:
        """Stop admissions, fail whatever is still pending, stop the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers = list(self._pending.items())
            self._pending.clear()
        for _, entry in leftovers:
            entry.loop.call_soon_threadsafe(
                _resolve, entry.future, PoolTaskError(503, "server shutting down"), None
            )
        for q in self._task_queues:
            try:
                q.put(None)
            except (ValueError, OSError):
                pass
        deadline = time.monotonic() + join_s
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()  # workers ignore SIGTERM; a stalled one only stops for SIGKILL
                proc.join(timeout=1.0)
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=join_s)

    async def drain(self, grace_s: float = 30.0) -> bool:
        """Wait (up to ``grace_s``) for in-flight tasks to settle; returns
        whether the pool emptied.  Admission must already be stopped by the
        caller — the pool itself keeps accepting until :meth:`close`."""
        deadline = time.monotonic() + grace_s
        while self.pending and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        return not self.pending

    # ----------------------------------------------------------------- submit
    @property
    def pending(self) -> int:
        """Tasks in flight (queued + executing) across the pool."""
        with self._lock:
            return len(self._pending)

    def retry_after_s(self) -> int:
        """Backlog-drain estimate: pending × EWMA wall ÷ workers, in [1, 60]."""
        with self._lock:
            return self._retry_after_locked()

    def _retry_after_locked(self) -> int:
        wall = self._ewma_wall_s or 0.5
        estimate = len(self._pending) * wall / self.workers
        return max(1, min(60, int(estimate + 0.999)))

    def submit(self, kind: str, payload: dict, key: str | None = None,
               deadline_ts: float | None = None) -> asyncio.Future:
        """Queue one task; resolves to the worker's result dict.

        ``key`` pins the task to its consistent-hash shard (archive reads);
        without it the least-loaded worker wins.  Raises
        :class:`PoolSaturated` when ``queue_depth`` tasks are already in
        flight — admission control happens *here*, before any bytes hit a
        queue.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        with self._lock:
            if self._closed:
                raise PoolTaskError(503, "server shutting down")
            depth = len(self._pending)
            if depth >= self.queue_depth:
                self._rejected += 1
                raise PoolSaturated(self._retry_after_locked(), depth)
            task_id = next(self._ids)
            wid = self._route_locked(key)
            self._pending[task_id] = _Pending(future, loop, wid, time.perf_counter())
            self._dispatched += 1
            self._per_worker[wid] += 1
            self._depth_high_water = max(self._depth_high_water, depth + 1)
            task_q = self._task_queues[wid]
        try:
            task_q.put((task_id, kind, deadline_ts, payload))
        except (ValueError, OSError):
            pass  # the worker died and its queue was retired: the reap failed this task
        return future

    def abandon(self, future: asyncio.Future) -> None:
        """Mark ``future``'s task as given-up-on (its deadline fired in the
        frontend).  The task stays pending — the worker may already be
        computing it and drain still waits for it — but its eventual result
        is only counted (``expired`` or ``late_results``), never delivered.
        """
        with self._lock:
            for entry in self._pending.values():
                if entry.future is future:
                    entry.abandoned = True
                    return

    def _route_locked(self, key: str | None) -> int:
        if key is not None:
            return self._ring.node(key)
        inflight = [0] * self.workers
        for entry in self._pending.values():
            inflight[entry.worker] += 1
        start = next(self._rr) % self.workers
        order = [(inflight[(start + i) % self.workers], (start + i) % self.workers)
                 for i in range(self.workers)]
        return min(order)[1]

    # --------------------------------------------------------------- dispatch
    def _dispatch_loop(self) -> None:
        while True:
            conns = [conn for conn in self._results if conn is not None]
            ready = multiprocessing.connection.wait(conns, timeout=0.5)
            idle = not ready
            for conn in ready:
                try:
                    self._handle_result(*conn.recv())
                except (EOFError, OSError):  # the worker exited, maybe mid-message
                    self._results[self._results.index(conn)] = None
                    conn.close()
                    idle = True
            if self._closed and not self._pending:
                return
            if idle:
                self._reap_dead_workers()

    def _handle_result(self, task_id: int, status: str, value) -> None:
        if status == "ready":  # a respawned worker's handshake; not a task
            return
        with self._lock:
            entry = self._pending.pop(task_id, None)
            if entry is None:
                self._late += 1
                return
            if entry.abandoned:
                # The frontend gave up on this task (deadline) before the
                # worker reported back.  An "expired" status means the worker
                # skipped it at dequeue; anything else is work nobody wanted.
                if status == "expired":
                    self._expired += 1
                else:
                    self._late += 1
                return
            wall = time.perf_counter() - entry.t0
            if status == "ok":
                self._completed += 1
                self._ewma_wall_s = (
                    wall if not self._ewma_wall_s
                    else (1 - _EWMA_ALPHA) * self._ewma_wall_s + _EWMA_ALPHA * wall
                )
                if isinstance(value, dict) and value.get("source") == "worker-cache":
                    self._cache_hits += 1
            elif status == "expired":
                self._expired += 1
            else:
                self._errors += 1
        if status == "ok":
            entry.loop.call_soon_threadsafe(_resolve, entry.future, None, value)
        elif status == "expired":
            entry.loop.call_soon_threadsafe(
                _resolve, entry.future, DeadlineExceeded("deadline expired in queue"), None
            )
        else:
            http_status, message, failure_kind = value
            entry.loop.call_soon_threadsafe(
                _resolve, entry.future, PoolTaskError(http_status, message, failure_kind), None
            )

    def _reap_dead_workers(self) -> None:
        """Fail tasks stranded on dead workers, then respawn the workers."""
        for wid, proc in enumerate(self._procs):
            if proc is None or proc.is_alive() or self._closed:
                continue
            # The replacement gets a fresh task queue: a worker killed while
            # idle in get() dies holding the old queue's reader lock, which
            # would wedge any successor reading from it.  Swapping under the
            # lock that collects the stranded tasks means every task is either
            # failed here or queued for the new worker.
            task_q = self._ctx.Queue()
            with self._lock:
                stranded = [
                    (tid, entry) for tid, entry in self._pending.items() if entry.worker == wid
                ]
                for tid, _ in stranded:
                    del self._pending[tid]
                self._errors += len(stranded)
                self._worker_restarts += 1
                retired, self._task_queues[wid] = self._task_queues[wid], task_q
            retired.cancel_join_thread()  # never block exit flushing to a dead reader
            retired.close()
            # Stranded tasks are idempotent (compress/decompress/read), so the
            # death maps to a retryable 503, not a 500 — a retrying client
            # lands on the respawned (or a surviving) worker.
            for _, entry in stranded:
                entry.loop.call_soon_threadsafe(
                    _resolve,
                    entry.future,
                    PoolTaskError(
                        503,
                        f"worker {wid} died (exit {proc.exitcode}); respawned — retry the request",
                        "worker-death",
                    ),
                    None,
                )
            self._spawn_worker(wid)

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """Counter snapshot (the ``pool`` block of ``GET /stats``)."""
        with self._lock:
            return {
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "pending": len(self._pending),
                "depth_high_water": self._depth_high_water,
                "dispatched": self._dispatched,
                "completed": self._completed,
                "errors": self._errors,
                "expired": self._expired,
                "rejected": self._rejected,
                "late_results": self._late,
                "worker_restarts": self._worker_restarts,
                "read_cache_hits": self._cache_hits,
                "ewma_wall_s": round(self._ewma_wall_s, 6),
                "per_worker_dispatched": list(self._per_worker),
                "pids": [p.pid if p is not None else None for p in self._procs],
            }
