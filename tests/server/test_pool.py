"""Worker-pool tier: pooled serving must be indistinguishable from
single-process serving — same bytes, same headers, same error mapping —
while the work actually happens in spawned processes.

These tests boot real multi-process servers (``worker_procs=2``), so they
exercise spawn, the pipe transport, the dispatcher thread and the
consistent-hash cache shards end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.server import STATS_SCHEMA, HashRing


class TestHashRing:
    def test_deterministic_and_covers_all_nodes(self):
        ring = HashRing(3)
        keys = [f"corpus.rpza|field-{i}" for i in range(128)]
        homes = [ring.node(k) for k in keys]
        assert homes == [ring.node(k) for k in keys], "routing must be deterministic"
        assert set(homes) == {0, 1, 2}, "128 keys must spread over all 3 workers"

    def test_resize_moves_few_keys(self):
        """Consistent hashing's point: adding a worker re-homes ~1/n of the
        keys, not all of them."""
        keys = [f"archive|f{i}" for i in range(256)]
        before = [HashRing(4).node(k) for k in keys]
        after = [HashRing(5).node(k) for k in keys]
        moved = sum(1 for b, a in zip(before, after) if b != a)
        assert moved < len(keys) // 2, f"{moved}/256 keys moved on a 4 -> 5 resize"

    def test_single_node_and_validation(self):
        assert HashRing(1).node("anything") == 0
        with pytest.raises(ValueError):
            HashRing(0)


class TestPooledServing:
    def test_pooled_results_match_single_process(self, serve, http, field16, seeded_archive):
        """One scenario, every heavy endpoint: the pooled server's compress
        blob, decompress bytes, field/tile reads and /stats pool counters,
        checked against the single-process server's bytes."""
        shape = ",".join(map(str, field16.shape))

        async def scenario(server):
            comp = await http(
                server, "POST", f"/compress?shape={shape}&eb=1e-3", field16.tobytes()
            )
            assert comp.status == 200
            deco = await http(server, "POST", "/decompress", comp.body)
            assert deco.status == 200
            plain = await http(server, "GET", "/archives/corpus/fields/plain")
            assert plain.status == 200
            tile = await http(server, "GET", "/archives/corpus/fields/tiled?tile=3")
            assert tile.status == 200
            again = await http(server, "GET", "/archives/corpus/fields/plain")
            assert again.status == 200
            stats = (await http(server, "GET", "/stats")).json()
            return comp, deco, plain, tile, again, stats

        single = serve(scenario)
        pooled = serve(scenario, worker_procs=2, cache_bytes=1 << 20)

        s_comp, s_deco, s_plain, s_tile, _, s_stats = single
        p_comp, p_deco, p_plain, p_tile, p_again, p_stats = pooled
        assert p_comp.body == s_comp.body, "pooled compress must be byte-identical"
        for header in ("x-repro-codec", "x-repro-cr", "x-repro-eb-abs"):
            assert p_comp.headers[header] == s_comp.headers[header]
        assert p_deco.body == s_deco.body
        assert p_deco.headers["x-repro-shape"] == s_deco.headers["x-repro-shape"]
        assert p_plain.body == s_plain.body
        assert p_tile.body == s_tile.body
        assert p_tile.headers["x-repro-tile-origin"] == s_tile.headers["x-repro-tile-origin"]
        # Second read of the same field lands on the same shard's LRU.
        assert p_again.headers["x-repro-source"] == "worker-cache"

        assert s_stats["pool"] is None
        pool = p_stats["pool"]
        assert pool["workers"] == 2
        assert pool["completed"] >= 5
        assert pool["errors"] == 0 and pool["worker_restarts"] == 0
        assert pool["read_cache_hits"] >= 1
        assert len(pool["pids"]) == 2 and all(isinstance(p, int) for p in pool["pids"])

    def test_pooled_error_mapping(self, serve, http):
        """Worker-side failures map onto the single-process statuses: garbage
        container -> 400, missing archive -> 404 — never a 500."""

        async def scenario(server):
            bad = await http(server, "POST", "/decompress", b"this is not a container")
            missing = await http(server, "GET", "/archives/nope/fields/f")
            return bad, missing

        bad, missing = serve(scenario, worker_procs=2)
        assert bad.status == 400
        assert b"error" in bad.body
        assert missing.status == 404

    def test_stats_schema_is_versioned(self, serve, http, field16):
        """``repro.stats/1``: the counter sections dashboards pin, including
        the per-route latency histograms the guardrails feed."""
        shape = ",".join(map(str, field16.shape))

        async def scenario(server):
            assert (
                await http(server, "POST", f"/compress?shape={shape}&eb=1e-3", field16.tobytes())
            ).status == 200
            assert (await http(server, "GET", "/healthz")).status == 200
            assert (await http(server, "GET", "/stats")).status == 200
            # A request is observed as it completes, so the second scrape is
            # the one that can see "GET /stats" itself.
            return (await http(server, "GET", "/stats")).json()

        stats = serve(scenario)
        assert stats["schema"] == STATS_SCHEMA == "repro.stats/1"
        assert stats["draining"] is False
        admission = stats["admission"]
        assert set(admission) == {
            "queue_depth",
            "deadline_ms",
            "inflight_heavy",
            "rejected_429",
            "expired_503",
            "draining_503",
        }
        assert admission["rejected_429"] == 0 and admission["expired_503"] == 0
        compress_hist = stats["latency"]["POST /compress"]
        assert compress_hist["count"] == 1
        assert 0 < compress_hist["p50_ms"] <= compress_hist["p99_ms"] <= compress_hist["max_ms"]
        assert any(b["count"] for b in compress_hist["buckets"])
        assert stats["latency"]["GET /healthz"]["count"] == 1
        assert stats["latency"]["GET /stats"]["count"] >= 1


def test_route_key_collapses_names(serve, http):
    cases = {
        "/archives/a.rpza": "GET /archives/{name}",
        "/archives/a/fields/temp": "GET /archives/{name}/fields/{field}",
        "/jobs/j123": "GET /jobs/{id}",
        "/stats": "GET /stats",
    }

    async def scenario(server):
        for target in cases:
            await http(server, "GET", target)
        return (await http(server, "GET", "/stats")).json()["latency"]

    latency = serve(scenario)
    for expected in cases.values():
        assert latency[expected]["count"] == 1


def test_worker_runs_in_separate_process(serve, http):
    """The point of the tier: pooled work executes under different PIDs than
    the frontend."""
    import os

    async def scenario(server):
        stats = (await http(server, "GET", "/stats")).json()
        return stats["pool"]["pids"]

    pids = serve(scenario, worker_procs=2)
    assert os.getpid() not in pids
    assert len(set(pids)) == 2


def test_worker_killed_mid_result_is_typed_503_and_pool_recovers():
    """A worker SIGKILLed while its result is half written leaves a torn
    message in its result pipe.  The dispatcher must read that as the
    worker's death (a retryable 503, then a respawn); if it died instead,
    every pending future would hang."""
    import asyncio
    import os
    import signal
    import threading

    from repro import compress
    from repro.server.pool import PoolTaskError, WorkerPool

    small = compress(np.zeros((16, 16, 16), np.float32), eb=1e-3).to_bytes()
    # 4 MiB of decoded floats: far past a pipe buffer, so the send blocks
    big = compress(np.zeros((128, 128, 64), np.float32), eb=1e-3).to_bytes()

    pool = WorkerPool(1)
    pool.start()
    entered, gate = threading.Event(), threading.Event()
    handle = pool._handle_result

    def parked(*item):  # hold the dispatcher so nobody drains the pipe
        entered.set()
        gate.wait(30)
        handle(*item)

    pool._handle_result = parked

    async def scenario():
        first = pool.submit("decompress", {"data": small})
        torn = pool.submit("decompress", {"data": big})
        assert await asyncio.to_thread(entered.wait, 30), "first result never arrived"
        results = pool._results[0]
        for _ in range(3000):  # the big result has started arriving
            if results.poll():
                break
            await asyncio.sleep(0.01)
        else:
            raise AssertionError("the big result never started")
        worker = pool._procs[0]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(10)
        gate.set()
        assert (await asyncio.wait_for(first, 30))["shape"] == (16, 16, 16)
        with pytest.raises(PoolTaskError) as err:
            await asyncio.wait_for(torn, 30)
        assert (err.value.status, err.value.kind) == (503, "worker-death")
        again = await asyncio.wait_for(pool.submit("decompress", {"data": big}), 60)
        assert again["shape"] == (128, 128, 64)

    try:
        asyncio.run(scenario())
        assert pool._dispatcher.is_alive()
        assert pool.stats()["worker_restarts"] == 1
    finally:
        gate.set()
        pool.close()


def _reap(pool, procs) -> list:
    """Close ``pool``, then SIGKILL whatever survived (so a failing test
    cannot leave a process that blocks interpreter exit); returns the
    survivors."""
    import time

    pool.close(join_s=0.5)
    deadline = time.monotonic() + 5.0
    while any(p.is_alive() for p in procs) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [p for p in procs if p.is_alive()]
    for p in survivors:
        p.kill()
        p.join(5)
    return survivors


def test_idle_worker_killed_respawns_on_a_fresh_queue():
    """An idle worker blocks in ``Queue.get()`` holding its task queue's
    reader lock; a SIGKILL there leaks the lock.  The respawned worker must
    not inherit that queue, or it wedges and no task is ever served again."""
    import asyncio
    import os
    import signal

    from repro import compress
    from repro.server.pool import WorkerPool

    small = compress(np.zeros((16, 16, 16), np.float32), eb=1e-3).to_bytes()
    pool = WorkerPool(1)
    pool.start()
    procs = list(pool._procs)

    async def scenario():
        warm = await asyncio.wait_for(pool.submit("decompress", {"data": small}), 30)
        assert warm["shape"] == (16, 16, 16)
        await asyncio.sleep(0.2)  # the worker is back, idle in get()
        os.kill(procs[0].pid, signal.SIGKILL)
        procs[0].join(10)
        for _ in range(1000):
            if pool.stats()["worker_restarts"] == 1:
                break
            await asyncio.sleep(0.01)
        else:
            raise AssertionError("the killed worker was never respawned")
        procs.append(pool._procs[0])
        again = await asyncio.wait_for(pool.submit("decompress", {"data": small}), 20)
        assert again["shape"] == (16, 16, 16)

    async def guarded():
        try:
            await scenario()
        finally:
            await asyncio.to_thread(_reap, pool, procs)

    asyncio.run(guarded())


def test_close_kills_a_stalled_worker(monkeypatch):
    """Workers ignore SIGTERM, so ``close()`` must escalate with SIGKILL: a
    stalled worker otherwise outlives the pool and blocks interpreter exit."""
    import asyncio

    from repro.faults import ENV_VAR, FaultPlan, FaultSpec
    from repro.server.pool import PoolTaskError, WorkerPool

    plan = FaultPlan([FaultSpec("pool.worker-task", "stall", arg=120.0)], seed=0)
    monkeypatch.setenv(ENV_VAR, plan.dumps())  # spawned workers arm at import
    pool = WorkerPool(1)
    pool.start()
    procs = list(pool._procs)

    async def scenario():
        stalled = pool.submit("decompress", {"data": b""})
        await asyncio.sleep(0.5)  # the worker has dequeued it and is stalling
        survivors = await asyncio.to_thread(_reap, pool, procs)
        with pytest.raises(PoolTaskError):
            await stalled
        return survivors

    assert not asyncio.run(scenario()), "a stalled worker survived close()"


def test_every_task_settles_while_workers_are_killed():
    """Tasks submitted around respawns land either on the retired queue (and
    fail with the dead worker's 503) or on the fresh one (and are served):
    none is stranded."""
    import asyncio

    from repro import compress
    from repro.server.pool import PoolTaskError, WorkerPool

    small = compress(np.zeros((16, 16, 16), np.float32), eb=1e-3).to_bytes()
    pool = WorkerPool(2)
    pool.start()
    procs = list(pool._procs)

    async def scenario():
        futures = []
        for rnd in range(3):
            futures += [pool.submit("decompress", {"data": small}) for _ in range(4)]
            victim = pool._procs[rnd % 2]
            procs.append(victim)
            victim.kill()
            futures += [pool.submit("decompress", {"data": small}) for _ in range(4)]
            await asyncio.sleep(0.05)
        results = await asyncio.wait_for(asyncio.gather(*futures, return_exceptions=True), 60)
        for r in results:
            if isinstance(r, PoolTaskError):
                assert (r.status, r.kind) == (503, "worker-death")
            else:
                assert r["shape"] == (16, 16, 16), r
        procs.extend(pool._procs)
        again = await asyncio.wait_for(pool.submit("decompress", {"data": small}), 30)
        assert again["shape"] == (16, 16, 16)

    async def guarded():
        try:
            await scenario()
        finally:
            await asyncio.to_thread(_reap, pool, procs)

    asyncio.run(guarded())
