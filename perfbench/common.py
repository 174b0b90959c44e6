"""Shared pieces of the benchmark: statistics, the span tracer, input seeds,
and the layer-by-layer replays of one compress and one decompress.

The replays call each layer's public function in the order
``repro.core.compressor.CuszHi`` does, so every layer's wall time is measured
from the benchmark's own files. A replay counts only when its output is
byte-identical to the public entry point's on the same input (see the guards
in ``fields.py`` and ``tiles.py``).
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from repro.core.compressor import CuszHi, _decode_levels, _encode_levels, resolve_error_bound
from repro.core.config import CuszHiConfig
from repro.core.container import CompressedBlob
from repro.encoders.pipelines import CR_PIPELINE, TP_PIPELINE, get_pipeline
from repro.predictor.autotune import autotune_levels
from repro.predictor.interpolation import InterpolationPredictor
from repro.predictor.reorder import inverse_reorder, reorder

#: value-range-relative error bound of every workload (the paper's 1e-3)
EB = 1e-3
PIPELINES = {"cr": CR_PIPELINE, "tp": TP_PIPELINE}
#: every lossless stage either mode runs; per-layer metrics name each one
STAGES = ("HF", "RRE4", "TCMS8", "RZE1", "TCMS1", "BIT1", "RRE1")
MB = 1e6


class CheckFailed(Exception):
    """An output check failed: the op counts as failed and the run exits 1."""


def input_seed(seed: int, *path: int) -> int:
    """A generator seed for one input, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0]) & 0x7FFFFFFF


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it (nearest
    rank), as ``(value, percentile)``; ``(0.0, 0)`` below eleven samples."""
    n = len(values)
    if n < 11:
        return 0.0, 0
    pct = math.floor(100.0 * (n - 10) / n)
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]), pct


def max_abs_err(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.max(np.abs(x.astype(np.float64) - y.astype(np.float64))))


def psnr_db(x: np.ndarray, y: np.ndarray, value_range: float) -> float:
    mse = float(np.mean((x.astype(np.float64) - y.astype(np.float64)) ** 2))
    return 20.0 * math.log10(value_range) - 10.0 * math.log10(max(mse, 1e-300))


def check_bound(x: np.ndarray, y: np.ndarray, eb_abs: float, what: str) -> None:
    if x.shape != y.shape:
        raise CheckFailed(f"{what}: shape {y.shape} != {x.shape}")
    err = max_abs_err(x, y)
    if not err <= eb_abs:
        raise CheckFailed(f"{what}: max|x - x'| = {err:.6g} > bound {eb_abs:.6g}")


def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def import_probe_s(src: str, probe: "HostProbe", reps: int = 3) -> float:
    """Median scaled wall of a fresh interpreter importing the library."""
    env = dict(os.environ, PYTHONPATH=src)
    walls = []
    for _ in range(reps):
        _, t0, t1 = probe.timed(lambda: subprocess.run(
            [sys.executable, "-c", "import repro.api, repro.datasets"],
            env=env, check=True, timeout=120,
        ))
        walls.append(probe.scaled_s(t0, t1))
    return median(walls)


class HostProbe:
    """Host-speed reference: a fixed mix of interpreter, NumPy-dispatch,
    cache-resident and memory-bound work that calls nothing in the library.

    A shared VM drifts in speed (by up to ~50 % over seconds to minutes on
    the 2-vCPU VM the baselines were recorded on), and the library's ops
    slow down with it. The probe is sampled
    before and after every timed call. A call's wall is then scaled by
    ``NOMINAL_MS`` over the median of the samples taken within ``WINDOW_S``
    of it, so reported times read as on a host where the reference takes
    ``NOMINAL_MS``: a code change moves them, host drift mostly does not.
    The unscaled figures are printed in the readable report.
    """

    #: a fixed reference time, of the order of the probe's time on the host
    #: the baselines were recorded on (2-vCPU VM, 2.0 GHz, Python 3.11,
    #: NumPy 2.4); it only sets the unit of the scaled figures
    NOMINAL_MS = 6.0
    WINDOW_S = 1.0

    def __init__(self):
        rng = np.random.default_rng(0)
        self._tiny = np.arange(64.0)
        self._small = rng.random(1 << 16)
        self._big = rng.random((96, 96, 96))
        self._times: list[float] = []
        self.samples: list[float] = []

    def mark(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i
        for _ in range(750):
            self._tiny.sum()
        np.sort(self._small)
        self._big[1:, ::2, 1::2] * 0.5 + self._big[:-1, ::2, :-1:2]
        t1 = time.perf_counter()
        self._times.append((t0 + t1) / 2.0)
        self.samples.append((t1 - t0) * 1e3)

    def timed(self, fn):
        """``fn()`` between two probe samples: ``(result, start, end)``."""
        self.mark()
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        self.mark()
        return out, t0, t1

    def factor(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self._times, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self._times, t1 + self.WINDOW_S)
        near = self.samples[lo:hi]
        if not near:
            raise ValueError("no host-probe sample near a timed call")
        return self.NOMINAL_MS / median(near)

    def scaled_s(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.factor(t0, t1)

    def scaled_ms(self, t0: float, t1: float) -> float:
        return (t1 - t0) * 1e3 * self.factor(t0, t1)


class Tracer:
    """In-memory spans ``(name, start, end, parent, op)`` around layer calls.

    ``enabled=False`` records nothing, so the end-to-end runs pay no tracing
    cost. Counts (bytes out, outliers) ride along as zero-length spans'
    ``value``. Span times are scaled by the :class:`HostProbe` when read.
    """

    def __init__(self, enabled: bool, probe: HostProbe):
        self.enabled = enabled
        self.probe = probe
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        rec = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            now = time.perf_counter()
            self.spans.append({"name": name, "op": self.op, "start": now, "end": now,
                               "parent": self._stack[-1] if self._stack else None,
                               "value": value})

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller (an end-to-end call already measured)."""
        if self.enabled:
            self.spans.append({"name": name, "op": self.op, "start": start, "end": end,
                               "parent": self._stack[-1] if self._stack else None})

    def per_op(self, *names: str) -> list[float]:
        """Per-op totals over the named spans: scaled milliseconds, or the
        counted value."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if s["name"] in names:
                if "value" in s:
                    v = s["value"]
                else:
                    v = self.probe.scaled_ms(s["start"], s["end"])
                totals[s["op"]] = totals.get(s["op"], 0.0) + v
        return [totals[k] for k in sorted(totals)]

    def median_of(self, name: str) -> float:
        return median(self.per_op(name))


# ---------------------------------------------------------------- replays
def replay_compress(tr: Tracer, data: np.ndarray, mode: str, eb: float = EB) -> bytes:
    """``api.compress(data, mode=mode, eb=eb).to_bytes()``, one layer at a time."""
    cfg = CuszHiConfig(pipeline=PIPELINES[mode])
    with tr.span("core.compressor.resolve_error_bound"):
        abs_eb = resolve_error_bound(data, eb, cfg.eb_mode)
    with tr.span("predictor.autotune.autotune_levels"):
        levels = autotune_levels(data, cfg.anchor_stride, target_fraction=cfg.sample_fraction)
    with tr.span("predictor.interpolation.compress"):
        res = InterpolationPredictor(cfg.anchor_stride).compress(data, abs_eb, levels)
    tr.count("predictor.interpolation.outliers", res.outlier_values.size)
    with tr.span("predictor.reorder.reorder"):
        seq = reorder(res.codes, cfg.anchor_stride)
    payload = seq.tobytes()
    for name, codec in get_pipeline(cfg.pipeline).stages:
        with tr.span(f"encoders.{name}.encode"):
            payload = codec.encode(payload)
        tr.count(f"encoders.{name}.out_bytes", len(payload))
    blob = CompressedBlob(
        codec=CuszHi(config=cfg).codec_id,
        shape=data.shape,
        dtype=data.dtype,
        error_bound=abs_eb,
        meta={
            "pipeline": cfg.pipeline,
            "levels": _encode_levels(res.level_configs),
            "anchor_stride": str(cfg.anchor_stride),
            "reorder": "1",
            "eb_mode": cfg.eb_mode,
            "eb_input": repr(float(eb)),
        },
    )
    blob.put_array("anchors", res.anchors)
    blob.put_array("outliers", res.outlier_values)
    blob.segments["codes"] = payload
    with tr.span("core.container.to_bytes"):
        return blob.to_bytes()


def replay_decompress(tr: Tracer, raw) -> np.ndarray:
    """``api.decompress(raw)`` of an untiled cuSZ-Hi stream, one layer at a time."""
    with tr.span("core.container.from_bytes"):
        blob = CompressedBlob.from_bytes(raw)
    stride = int(blob.meta["anchor_stride"])
    payload = bytes(blob.segments["codes"])
    for name, codec in reversed(get_pipeline(blob.meta["pipeline"]).stages):
        with tr.span(f"encoders.{name}.decode"):
            payload = codec.decode(payload)
    seq = np.frombuffer(payload, dtype=np.uint8)
    with tr.span("predictor.reorder.inverse_reorder"):
        codes = inverse_reorder(seq, blob.shape, stride)
    with tr.span("predictor.interpolation.decompress"):
        return InterpolationPredictor(stride).decompress(
            codes,
            blob.get_array("anchors"),
            blob.get_array("outliers"),
            blob.shape,
            blob.error_bound,
            _decode_levels(blob.meta["levels"]),
            blob.dtype,
        )


#: spans of one replayed compress / decompress (their sum is the layers' time)
COMPRESS_LAYERS = (
    "core.compressor.resolve_error_bound",
    "predictor.autotune.autotune_levels",
    "predictor.interpolation.compress",
    "predictor.reorder.reorder",
    *(f"encoders.{s}.encode" for s in STAGES),
    "core.container.to_bytes",
)
DECOMPRESS_LAYERS = (
    "core.container.from_bytes",
    *(f"encoders.{s}.decode" for s in STAGES),
    "predictor.reorder.inverse_reorder",
    "predictor.interpolation.decompress",
)


def kernel_layer_metrics(tr: Tracer) -> dict:
    """Per-layer medians of the replayed compress/decompress spans."""
    out = {}
    for name in COMPRESS_LAYERS + DECOMPRESS_LAYERS:
        out[f"{name}.ms"] = (tr.median_of(name), "ms")
    out["predictor.interpolation.outliers"] = (tr.median_of("predictor.interpolation.outliers"), "count")
    for s in STAGES:
        out[f"encoders.{s}.out_bytes"] = (tr.median_of(f"encoders.{s}.out_bytes"), "bytes")
    return out
