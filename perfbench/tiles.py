"""``tile-serve``: a fresh ``repro serve`` process driven by one
:class:`repro.client.ReproClient` in a closed loop.

Set-up writes an ``.rpza`` archive of tiled CR fields (32^3 tiles) under the
server's root. Each cycle then sends a fixed mix: one tiled
``POST /compress`` of a fresh 64^3 field (the write path), ``COLD`` GETs of
never-read tiles (archive open, frame parse, one tile decode) and ``HOT``
GETs of already-read tiles (LRU hits: only the HTTP codec and
serialization). The loop ends when the time is up or when the archive has
no never-read tiles left for a whole cycle.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import re
import selectors
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

import repro.api as api
from repro import datasets
from repro.client import ReproClient
from repro.core.container import CompressedBlob, is_tiled, tile_count, unpack_tile
from repro.core.tiling import TiledEngine
from repro.service.archive import ArchiveStore, clear_blob_cache

from common import (
    EB,
    MB,
    CheckFailed,
    HostProbe,
    Tracer,
    check_bound,
    import_probe_s,
    input_seed,
    kernel_layer_metrics,
    median,
    psnr_db,
    replay_decompress,
    tail,
)

DATASETS = ("nyx", "jhtdb", "miranda")
FIELD = (64, 64, 64)
TILE = (32, 32, 32)
#: archive entries; 8 tiles each, so the archive covers 27 full cycles
ENTRIES = 14
COLD, HOT = 4, 32
#: cycles an end-to-end run always makes; quality metrics cover these and
#: the archive entries
QUALITY_CYCLES = 4
#: healthz probes per cycle in the traced run
HEALTHZ = 4
SERVER_STARTS = 3
ARCHIVE = "bench.rpza"
POST_TARGET = (
    f"/compress?shape={','.join(map(str, FIELD))}&dtype=float32"
    f"&tiles={','.join(map(str, TILE))}&mode=cr&eb={EB}"
)
ROUTES = {
    "compress": "POST /compress",
    "field_read": "GET /archives/{name}/fields/{field}",
    "healthz": "GET /healthz",
}


def make_field(seed: int, kind: int, i: int) -> np.ndarray:
    return datasets.load(DATASETS[i % len(DATASETS)], shape=FIELD, seed=input_seed(seed, kind, i))


# ------------------------------------------------------------------ server
class Server:
    """One ``repro serve <root> --port 0`` child, stderr to a log file."""

    def __init__(self, src: str, root: str, log_path: str):
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", root, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=dict(os.environ, PYTHONPATH=src),
        )
        try:
            self.port = self._read_port()
            probe = ReproClient("127.0.0.1", self.port)
            while probe.get("/healthz").status != 200:
                time.sleep(0.005)
            probe.close()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=60):
                raise CheckFailed("repro serve printed no address within 60 s")
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        match = re.search(r"http://[^:/]+:(\d+)", line)
        if match is None:
            raise CheckFailed(f"repro serve did not start: {line.strip()!r}")
        return int(match.group(1))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / MB
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# ------------------------------------------------------------------- checks
def _check_post(resp, x: np.ndarray, decode: bool) -> bytes:
    if resp.status != 200:
        raise CheckFailed(f"POST /compress: HTTP {resp.status}")
    blob = CompressedBlob.from_bytes(resp.body)  # verifies every CRC
    if blob.shape != x.shape or not is_tiled(blob) or tile_count(blob) != 8:
        raise CheckFailed(f"POST /compress: frame of shape {blob.shape} is not 8 tiles of {x.shape}")
    if decode:
        check_bound(x, api.decompress(blob), blob.error_bound, "POST /compress")
    return resp.body


def _check_tile(resp, source: np.ndarray, eb_abs: float, want: str) -> tuple[tuple, np.ndarray]:
    if resp.status != 200:
        raise CheckFailed(f"tile GET: HTTP {resp.status}")
    if resp.headers.get("x-repro-source") != want:
        raise CheckFailed(f"tile GET: served from {resp.headers.get('x-repro-source')!r}, expected {want!r}")
    origin = tuple(int(v) for v in resp.headers["x-repro-tile-origin"].split(","))
    shape = tuple(int(v) for v in resp.headers["x-repro-shape"].split(","))
    tile = np.frombuffer(resp.body, dtype=resp.headers["x-repro-dtype"]).reshape(shape)
    ref = source[tuple(slice(o, o + s) for o, s in zip(origin, shape))]
    check_bound(ref, tile, eb_abs, f"tile at {origin}")
    return origin, tile


def _mb_s(shape: tuple[int, ...], latencies_ms: list[float]) -> float:
    """float32 MB of ``shape`` per second of the median latency."""
    return int(np.prod(shape)) * 4 / MB / (median(latencies_ms) / 1e3) if latencies_ms else 0.0


def _stats_delta(after: dict, before: dict) -> dict:
    def pair(doc, *path):
        for key in path:
            doc = doc[key]
        return doc["hits"], doc["misses"]

    blocks = {
        "server.cache": ("cache",),
        "service.archive.blob_cache": ("archive_blob_cache",),
        "huffman": ("codec_tables", "huffman"),
        "ans": ("codec_tables", "ans"),
    }
    out = {}
    for name, path in blocks.items():
        (h1, m1), (h0, m0) = pair(after, *path), pair(before, *path)
        out[name] = (h1 - h0, m1 - m0)
    return out


# ------------------------------------------------------------------ workload
def _timed_gets(client: ReproClient, targets: list[str]) -> tuple[list, list[tuple]]:
    """GET each target in turn: the responses and each (start, end)."""
    resps, windows = [], []
    for tgt in targets:
        t0 = time.perf_counter()
        resps.append(client.get(tgt))
        windows.append((t0, time.perf_counter()))
    return resps, windows


def _traced_read(tr: Tracer, path: str, name: str, index: int, served: np.ndarray) -> None:
    """Replay one cold tile read in-process, layer by layer, and guard it."""
    with tr.span("service.archive.open"):
        store = ArchiveStore(path, mode="r")
    try:
        clear_blob_cache()
        with tr.span("service.archive.get_blob"):
            blob = store.get_blob(name)
    finally:
        store.close()
    with tr.span("core.tiling.decompress_tile"):
        _, tile = TiledEngine().decompress_tile(blob, index)
    _, _, payload = unpack_tile(blob, index)
    if not np.array_equal(replay_decompress(tr, payload), tile):
        raise CheckFailed(f"replay guard: unpack_tile replay of {name}[{index}] differs from decompress_tile")
    if not np.array_equal(tile, served):
        raise CheckFailed(f"replay guard: in-process decode of {name}[{index}] differs from the served tile")


def run(workload: str, seed: int, seconds: float, trace: bool, src: str) -> dict:
    # One CPU for this process and the server it starts (children inherit
    # the affinity), so the host probe samples the CPU that serves: the vCPUs
    # of a shared VM drift in speed independently. The field workloads run
    # in one process and stay unpinned.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = HostProbe()
    tr = Tracer(trace, probe)
    rng = random.Random(seed)
    workdir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                           f"{workload}-{seed}-{os.getpid()}")
    root = os.path.join(workdir, "root")
    os.makedirs(root, exist_ok=True)
    server = None
    try:
        import_s = import_probe_s(src, probe)

        archive_path = os.path.join(root, ARCHIVE)
        sources, bounds = [], []
        archive_w = []
        raw_bytes = comp_bytes = 0
        with ArchiveStore(archive_path, mode="w", backend="file") as store:
            for e in range(ENTRIES):
                x = make_field(seed, 2, e)
                result, t0, t1 = probe.timed(
                    lambda: api.compress(x, mode="cr", eb=EB, tiles=TILE))
                store.add_blob(f"f{e}", result.blob)
                archive_w.append((t0, t1))
                raw_bytes += x.nbytes
                comp_bytes += store.entry(f"f{e}").nbytes
                sources.append(x)
                bounds.append(result.error_bound)

        ready = []
        for i in range(SERVER_STARTS):
            server, t0, t1 = probe.timed(
                lambda: Server(src, root, os.path.join(workdir, "server.log")))
            ready.append((t0, t1))
            if i + 1 < SERVER_STARTS:
                server.stop()
        client = ReproClient("127.0.0.1", server.port, seed=seed)

        cold_pool = [(e, t) for e in range(ENTRIES) for t in range(8)]
        rng.shuffle(cold_pool)
        read: list[tuple[int, int]] = []

        def target(e: int, t: int) -> str:
            return f"/archives/{ARCHIVE}/fields/f{e}?tile={t}"

        # Warm-up: one op of each kind outside the measured loop (it counts
        # toward setup_s).
        x = make_field(seed, 1, 0)
        e, t = cold_pool.pop()

        def warm():
            _check_post(client.post(POST_TARGET, x.tobytes()), x, decode=True)
            _check_tile(client.get(target(e, t)), sources[e], bounds[e], "store")
            _check_tile(client.get(target(e, t)), sources[e], bounds[e], "cache")

        _, warm0, warm1 = probe.timed(warm)
        read.append((e, t))
        before = client.get("/stats").json()

        # (start, end) of every timed request, by kind
        post_w, cold_w, hot_w, healthz_w, failures = [], [], [], [], []
        psnrs = []
        attempted = 0
        loop_t0 = time.perf_counter()
        c = 0
        min_cycles = 1 if trace else QUALITY_CYCLES
        while len(cold_pool) >= COLD and (
            c < min_cycles or time.perf_counter() - loop_t0 < seconds
        ):
            c += 1
            x = make_field(seed, 1, c)
            body = x.tobytes()
            gc.collect()
            try:
                attempted += 1
                resp, t0, t1 = probe.timed(lambda: client.post(POST_TARGET, body))
                post_w.append((t0, t1))
                frame = _check_post(resp, x, decode=c == 1)
                if c <= QUALITY_CYCLES:
                    raw_bytes += x.nbytes
                    comp_bytes += len(frame)
                if trace:
                    tr.op += 1

                    def local_compress():
                        with tr.span("core.tiling.compress"):
                            return api.compress(x, mode="cr", eb=EB, tiles=TILE).to_bytes()

                    local = probe.timed(local_compress)[0]
                    if hashlib.sha256(local).digest() != hashlib.sha256(frame).digest():
                        raise CheckFailed("replay guard: in-process tiled compress differs from POST /compress")
                for _ in range(COLD):
                    e, t = cold_pool.pop()
                    attempted += 1
                    resp, t0, t1 = probe.timed(lambda: client.get(target(e, t)))
                    cold_w.append((t0, t1))
                    origin, tile = _check_tile(resp, sources[e], bounds[e], "store")
                    read.append((e, t))
                    if c <= QUALITY_CYCLES:
                        ref = sources[e][tuple(slice(o, o + s) for o, s in zip(origin, tile.shape))]
                        psnrs.append(psnr_db(ref, tile, float(sources[e].max()) - float(sources[e].min())))
                    if trace:
                        tr.op += 1
                        probe.timed(lambda: _traced_read(tr, archive_path, f"f{e}", t, tile))
                picks = [rng.choice(read) for _ in range(HOT)]
                attempted += HOT
                resps, windows = probe.timed(
                    lambda: _timed_gets(client, [target(e, t) for e, t in picks]))[0]
                hot_w.extend(windows)
                for (e, t), resp in zip(picks, resps):
                    _check_tile(resp, sources[e], bounds[e], "cache")
                if trace:
                    resps, windows = probe.timed(
                        lambda: _timed_gets(client, ["/healthz"] * HEALTHZ))[0]
                    healthz_w.extend(windows)
                    if any(resp.status != 200 for resp in resps):
                        raise CheckFailed("GET /healthz: not HTTP 200")
            except CheckFailed as exc:
                failures.append(f"cycle {c}: {exc}")

        stats = client.get("/stats").json()
        delta = _stats_delta(stats, before)
        if delta["server.cache"] != (len(hot_w), len(cold_w)):
            failures.append(
                f"accounting: server cache hits/misses {delta['server.cache']} != "
                f"hot/cold reads ({len(hot_w)}, {len(cold_w)})"
            )
        errors = {k: v for k, v in stats["responses"].items() if k[0] in "45" and v}
        if errors:
            failures.append(f"accounting: error responses {errors}")
        peak_rss = server.peak_rss_mb()
        client.close()
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(root, ignore_errors=True)
    if not failures:
        shutil.rmtree(workdir, ignore_errors=True)  # server.log stays for a failed run

    def ms(windows):
        return [probe.scaled_ms(t0, t1) for t0, t1 in windows]

    post_ms, cold_ms, hot_ms, healthz_ms = ms(post_w), ms(cold_w), ms(hot_w), ms(healthz_w)
    archive_s = sum(probe.scaled_s(t0, t1) for t0, t1 in archive_w)
    ready_s = median([probe.scaled_s(t0, t1) for t0, t1 in ready])
    warm_s = probe.scaled_s(warm0, warm1)
    setup_s = import_s + archive_s + ready_s + warm_s
    requests_ms = post_ms + cold_ms + hot_ms
    e2e = {
        "setup_s": (setup_s, "s"),
        "compress_mb_s": (_mb_s(FIELD, post_ms), "MB/s"),
        "decompress_mb_s": (_mb_s(TILE, cold_ms), "MB/s"),
        "compression_ratio": (raw_bytes / comp_bytes if comp_bytes else 0.0, "x"),
        "psnr_db": (float(np.mean(psnrs)) if psnrs else 0.0, "dB"),
        "peak_rss_mb": (peak_rss, "MB"),
        "req_per_s": (len(requests_ms) / (sum(requests_ms) / 1e3) if requests_ms else 0.0, "1/s"),
        "request_p50_ms": (median(requests_ms), "ms"),
    }
    cold_tail, cold_pct = tail(cold_ms)
    hot_tail, hot_pct = tail(hot_ms)
    layers = {}
    if trace:
        layers = kernel_layer_metrics(tr)
        for name in ("core.tiling.compress", "core.tiling.decompress_tile",
                     "service.archive.open", "service.archive.get_blob"):
            layers[f"{name}.ms"] = (tr.median_of(name), "ms")
        layers["server.app.healthz_p50_ms"] = (median(healthz_ms), "ms")
        for short, route in ROUTES.items():
            layers[f"server.route.{short}.p50_ms"] = (stats["latency"][route]["p50_ms"], "ms")
        for name in ("server.cache", "service.archive.blob_cache"):
            layers[f"{name}.hits"] = (delta[name][0], "count")
            layers[f"{name}.misses"] = (delta[name][1], "count")
        layers["encoders.codec_tables.hits"] = (delta["huffman"][0] + delta["ans"][0], "count")
        layers["encoders.codec_tables.misses"] = (delta["huffman"][1] + delta["ans"][1], "count")
        layers["client.conn_opens_per_req"] = (client.stats["conn_opens"] / client.stats["requests"], "1/req")
        layers["client.retries"] = (client.stats["retries"], "count")
        layers["read_cold_tail_ms"] = (cold_tail, "ms")
        layers["read_hot_tail_ms"] = (hot_tail, "ms")
        for name in ("compress_mb_s", "decompress_mb_s", "req_per_s"):
            layers[f"trace.{name}"] = e2e[name]
    detail = [
        f"cycles={c} (quality over the first {QUALITY_CYCLES}), requests={len(requests_ms)}, "
        f"setup = import {import_s:.3f}s + archive {archive_s:.3f}s ({ENTRIES} x {FIELD} tiled) "
        f"+ server ready {ready_s:.3f}s (median of {SERVER_STARTS}) + warm-up {warm_s:.3f}s",
        f"tiled_compress_p50_ms={median(post_ms):.3f} ms (n={len(post_ms)})",
        f"read_cold_p50_ms={median(cold_ms):.3f} ms (n={len(cold_ms)}), "
        f"read_cold_tail_ms={cold_tail:.3f} ms (p{cold_pct})",
        f"read_hot_p50_ms={median(hot_ms):.3f} ms (n={len(hot_ms)}), "
        f"read_hot_tail_ms={hot_tail:.3f} ms (p{hot_pct})",
        "unscaled: " + ", ".join(
            f"{k}_p50_ms={median([(t1 - t0) * 1e3 for t0, t1 in w]):.3f}"
            for k, w in (("post", post_w), ("cold", cold_w), ("hot", hot_w)))
        + f"; host probe median {median(probe.samples):.3f} ms (nominal {HostProbe.NOMINAL_MS} ms)",
        f"client: {client.stats}",
        f"error_rate={len(failures) / max(1, attempted):.4f} fraction ({len(failures)} failures, {attempted} requests)",
    ]
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "e2e": e2e,
        "layers": layers,
        "detail": detail,
        "samples": {"compress_mb_s": len(post_ms), "decompress_mb_s": len(cold_ms),
                    "request_p50_ms": len(requests_ms)},
        "spans": tr.spans,
    }
