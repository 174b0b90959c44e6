"""``field-cr`` and ``field-tp``: whole fields through ``repro.api`` in-process.

One op is one round over the rotation below, each field generated fresh
(untimed) so memoized coding tables miss as they would on new simulation
output, while the shapes repeat so per-shape level plans stay warm. Each
field is timed through ``api.compress`` -> ``to_bytes`` (the compress wall)
and ``api.decompress`` from those bytes (the decompress wall); a round's
walls are the sums over its fields.
"""

from __future__ import annotations

import gc
import hashlib
import time

import numpy as np

import repro.api as api
from repro import datasets
from repro.encoders import ans, huffman

from common import (
    COMPRESS_LAYERS,
    DECOMPRESS_LAYERS,
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
    peak_rss_mb_self,
    psnr_db,
    replay_compress,
    replay_decompress,
)

#: 8.4 MB of float32 each; nyx, jhtdb and miranda at 128^3 plus cesm-atm 2-D
ROTATION = (
    ("nyx", (128, 128, 128)),
    ("jhtdb", (128, 128, 128)),
    ("miranda", (128, 128, 128)),
    ("cesm-atm", (2048, 1024)),
)
ROUND_MB = sum(int(np.prod(shape)) * 4 for _, shape in ROTATION) / MB
#: rounds an end-to-end run always makes; quality metrics cover exactly
#: these and the warm-up round, so they repeat exactly for one seed
#: whatever the run length
QUALITY_ROUNDS = 6


def make_round(seed: int, r: int) -> list[np.ndarray]:
    return [datasets.load(name, shape=shape, seed=input_seed(seed, r, i))
            for i, (name, shape) in enumerate(ROTATION)]


def _table_counters() -> tuple[int, int]:
    h, a = huffman.table_cache_stats(), ans.table_cache_stats()
    return h["hits"] + a["hits"], h["misses"] + a["misses"]


def _compress(x: np.ndarray, mode: str):
    result = api.compress(x, mode=mode, eb=EB)
    return result, result.to_bytes()


def run(workload: str, seed: int, seconds: float, trace: bool, src: str) -> dict:
    mode = {"field-cr": "cr", "field-tp": "tp"}[workload]
    probe = HostProbe()
    tr = Tracer(trace, probe)
    import_s = import_probe_s(src, probe)

    # Warm-up: one round outside the measured loop (it counts toward
    # setup_s); each field is compressed twice and the two blob digests must
    # match (the codec is deterministic).
    warm = []
    raw_bytes = comp_bytes = 0
    psnrs = []
    for x in make_round(seed, 0):
        def warm_op(x=x):
            result = api.compress(x, mode=mode, eb=EB)
            first = result.to_bytes()
            second = api.compress(x, mode=mode, eb=EB).to_bytes()
            if hashlib.sha256(first).digest() != hashlib.sha256(second).digest():
                raise CheckFailed(f"warm-up: two compresses of one {x.shape} field differ")
            y = api.decompress(first)
            check_bound(x, y, result.error_bound, "warm-up")
            return first, y

        (raw, y), t0, t1 = probe.timed(warm_op)
        warm.append((t0, t1))
        raw_bytes += x.nbytes
        comp_bytes += len(raw)
        psnrs.append(psnr_db(x, y, float(x.max()) - float(x.min())))
    tables0 = _table_counters()

    # Per completed round: the (start, end) of each compress and decompress.
    rounds: list[tuple[list, list]] = []
    failures = []
    loop_t0 = time.perf_counter()
    r = 0
    min_rounds = 1 if trace else QUALITY_ROUNDS
    while r < min_rounds or time.perf_counter() - loop_t0 < seconds:
        r += 1
        fields = make_round(seed, r)
        gc.collect()
        tr.op = r
        comp_w, dec_w = [], []
        try:
            for x in fields:
                (result, raw), c0, c1 = probe.timed(lambda: _compress(x, mode))
                y, d0, d1 = probe.timed(lambda: api.decompress(raw))
                comp_w.append((c0, c1))
                dec_w.append((d0, d1))
                check_bound(x, y, result.error_bound, f"{mode} field {x.shape}")
                if r <= QUALITY_ROUNDS:
                    raw_bytes += x.nbytes
                    comp_bytes += len(raw)
                    psnrs.append(psnr_db(x, y, float(x.max()) - float(x.min())))
                if trace:
                    tr.record("api.compress", c0, c1)
                    tr.record("api.decompress", d0, d1)
                    replayed = probe.timed(lambda: replay_compress(tr, x, mode))[0]
                    if hashlib.sha256(replayed).digest() != hashlib.sha256(raw).digest():
                        raise CheckFailed(f"replay guard: replayed compress of {x.shape} differs from api.compress")
                    if not np.array_equal(probe.timed(lambda: replay_decompress(tr, raw))[0], y):
                        raise CheckFailed(f"replay guard: replayed decompress of {x.shape} differs from api.decompress")
        except CheckFailed as exc:
            failures.append(f"round {r}: {exc}")
            continue
        rounds.append((comp_w, dec_w))
    hits, misses = (a - b for a, b in zip(_table_counters(), tables0))

    def scaled(windows):
        return sum(probe.scaled_s(t0, t1) for t0, t1 in windows)

    def unscaled(windows):
        return sum(t1 - t0 for t0, t1 in windows)

    def mb_s(walls):
        return ROUND_MB / median(walls) if walls else 0.0

    comp = [scaled(c) for c, _ in rounds]
    dec = [scaled(d) for _, d in rounds]
    calls_ms = [probe.scaled_ms(t0, t1) for c, d in rounds for t0, t1 in c + d]
    warm_s = scaled(warm)
    e2e = {
        "setup_s": (import_s + warm_s, "s"),
        "compress_mb_s": (mb_s(comp), "MB/s"),
        "decompress_mb_s": (mb_s(dec), "MB/s"),
        "compression_ratio": (raw_bytes / comp_bytes if comp_bytes else 0.0, "x"),
        "psnr_db": (float(np.mean(psnrs)) if psnrs else 0.0, "dB"),
        "peak_rss_mb": (peak_rss_mb_self(), "MB"),
        "req_per_s": (len(calls_ms) / (sum(calls_ms) / 1e3) if calls_ms else 0.0, "1/s"),
        "request_p50_ms": (median(calls_ms), "ms"),
    }
    layers = {}
    if trace:
        layers = kernel_layer_metrics(tr)
        for kind, names in (("compress", COMPRESS_LAYERS), ("decompress", DECOMPRESS_LAYERS)):
            walls, replayed = tr.per_op(f"api.{kind}"), tr.per_op(*names)
            layers[f"api.{kind}.unaccounted_ms"] = (
                median([a - b for a, b in zip(walls, replayed)]), "ms")
        layers["encoders.codec_tables.hits"] = (hits, "count")
        layers["encoders.codec_tables.misses"] = (misses, "count")
        for name in ("compress_mb_s", "decompress_mb_s", "req_per_s"):
            layers[f"trace.{name}"] = e2e[name]
    detail = [
        f"rounds={len(comp)} of {ROUND_MB:.1f} MB raw (quality over warm-up + first {QUALITY_ROUNDS}); "
        f"setup = import {import_s:.3f}s + warm-up round {warm_s:.3f}s",
        f"unscaled: compress_mb_s={mb_s([unscaled(c) for c, _ in rounds]):.4f} "
        f"decompress_mb_s={mb_s([unscaled(d) for _, d in rounds]):.4f}; "
        f"host probe median {median(probe.samples):.3f} ms (nominal {HostProbe.NOMINAL_MS} ms)",
        f"error_rate={len(failures) / max(1, r):.4f} fraction ({len(failures)} of {r} rounds)",
    ]
    return {
        "attempted": r,
        "failed": len(failures),
        "failures": failures,
        "e2e": e2e,
        "layers": layers,
        "detail": detail,
        "samples": {"compress_mb_s": len(comp), "decompress_mb_s": len(dec),
                    "request_p50_ms": len(calls_ms)},
        "spans": tr.spans,
    }
