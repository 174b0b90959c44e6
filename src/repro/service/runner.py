"""Batch runner: a manifest's fields as tasks of the shared task core.

:class:`BatchRunner` turns a :class:`~repro.service.manifest.JobSpec` into
one :class:`~repro.service.tasks.Task` per field (weighted by
:func:`~repro.service.tasks.estimate_field_cost`) and runs them through
:func:`~repro.service.tasks.run_tasks` into an
:class:`~repro.service.archive.ArchiveStore`.  The core supplies LPT
(largest-first) scheduling, per-field failure isolation (a missing raw file
or a poisoned worker marks that one field ``failed`` and the rest of the
corpus still lands), resume (fields already archived are reported
``skipped`` without being scheduled) and the per-field archive commit.

This module owns what is specific to fields: :func:`run_field`, the work
function (also what each cluster worker runs on its leased field), and
:class:`BatchReport`, which serializes per-field CR / bitrate / PSNR /
max-error / wall time plus corpus totals as JSON (schema id
``repro.batch-report/1``), the artifact CI tracks per-PR.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..api import DEFAULT_CODEC, codec_name, compress, decompress, kernel_for
from ..core.streaming import StreamReader, StreamWriter
from ..core.tiling import resolve_workers
from ..datasets.io import read_raw
from ..datasets.registry import load
from ..metrics.error import max_abs_error, psnr
from .archive import ArchiveStore
from .manifest import FieldSpec, JobSpec, resolve_field_path
from .tasks import Outcome, Task, estimate_field_cost, run_tasks

__all__ = [
    "BatchRunner",
    "BatchReport",
    "FieldResult",
    "REPORT_SCHEMA",
    "estimate_field_cost",
    "failed_field",
    "field_tasks",
    "run_field",
]

REPORT_SCHEMA = "repro.batch-report/1"


@dataclass
class FieldResult:
    """Everything the report records about one manifest field."""

    name: str
    status: str  # "ok" | "skipped" | "failed"
    error: str | None = None
    codec: str | None = None
    shape: tuple[int, ...] | None = None
    dtype: str | None = None
    timesteps: int = 1
    eb_abs: float | None = None
    raw_nbytes: int = 0
    nbytes: int = 0
    cr: float | None = None
    bitrate: float | None = None
    psnr: float | None = None
    max_err: float | None = None
    wall_s: float = 0.0


@dataclass
class BatchReport:
    """JSON-serializable job report (per-field metrics + corpus totals)."""

    job: str
    archive: str
    executor: str
    workers: int
    fields: list[FieldResult] = field(default_factory=list)
    wall_s: float = 0.0
    lpt_makespan_elements: float = 0.0

    @property
    def counts(self) -> dict[str, int]:
        out = {"ok": 0, "skipped": 0, "failed": 0}
        for r in self.fields:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def to_json(self) -> dict:
        ok = [r for r in self.fields if r.status == "ok"]
        raw = sum(r.raw_nbytes for r in ok)
        packed = sum(r.nbytes for r in ok)
        return {
            "schema": REPORT_SCHEMA,
            "job": self.job,
            "archive": self.archive,
            "executor": self.executor,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "scheduler": {
                "policy": "lpt",
                "modeled_makespan_elements": self.lpt_makespan_elements,
            },
            "totals": {
                "fields": len(self.fields),
                **self.counts,
                "raw_nbytes": raw,
                "compressed_nbytes": packed,
                "cr": raw / packed if packed else None,
            },
            "fields": [asdict(r) for r in self.fields],
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @property
    def ok(self) -> bool:
        return self.counts["failed"] == 0


# --------------------------------------------------------------------------
# Field tasks for the shared core (repro.service.tasks).  The work function
# is module-level so the "processes" executor can pickle it; the parent owns
# the archive.
# --------------------------------------------------------------------------


def field_tasks(job: JobSpec, fields, meta: dict) -> list[Task]:
    """One task per manifest field; ``meta`` is the entry meta its commit
    carries.  The whole (frozen, picklable) JobSpec travels with each task:
    per-field requests resolve against the job-level request in one place
    (:meth:`FieldSpec.request`)."""
    return [Task(f.name, estimate_field_cost(job, f), (f, job, meta)) for f in fields]


def skipped_field(task: Task, entry) -> FieldResult:
    """The report row of a field the archive already holds."""
    return FieldResult(name=task.name, status="skipped")


def failed_field(task: Task, error: str) -> FieldResult:
    """The report row of a field whose task raised outside :func:`run_field`."""
    return FieldResult(
        name=task.name, status="failed", error=error, timesteps=task.spec[0].timesteps
    )


def _load_field(spec: FieldSpec, base_dir: str, seed_offset: int = 0) -> np.ndarray:
    if spec.dataset is not None:
        return load(spec.dataset, shape=spec.shape, seed=spec.seed + seed_offset)
    path = resolve_field_path(base_dir, spec)
    data = read_raw(path, shape=spec.shape)
    if data.ndim == 1 and spec.shape is None:
        raise ValueError(f"{path}: pass 'shape' in the manifest (or encode dims in the name)")
    return data


def run_field(task_spec, inner: tuple[str, int]) -> Outcome:
    """Compress one manifest field (the batch and cluster work function)."""
    spec, job, meta = task_spec
    t0 = time.perf_counter()
    result = FieldResult(name=spec.name, status="failed", timesteps=spec.timesteps)
    try:
        request = spec.request(job)
        if request.tiling is not None:
            request = request.with_tiling_execution(*inner)
        if spec.is_stream:
            payload, info = _compress_stream(spec, job, request)
            first = info["first_snapshot"]
            result.shape = tuple(first.shape)
            result.dtype = first.dtype.name
            result.codec = "stream"
            result.eb_abs = info["eb_abs"]
            result.raw_nbytes = info["raw_nbytes"]
            result.psnr = info["psnr"]
            result.max_err = info["max_err"]
            stream = {
                "shape": tuple(first.shape),
                "dtype": first.dtype.name,
                "eb_abs": info["eb_abs"],
                "timesteps": spec.timesteps,
            }
        else:
            data = _load_field(spec, job.base_dir)
            compressed = compress(data, request)
            blob = compressed.blob
            recon = decompress(blob)
            payload = blob.to_bytes()
            stream = None
            result.shape = tuple(data.shape)
            result.dtype = data.dtype.name
            result.codec = codec_name(blob.codec)
            result.eb_abs = compressed.error_bound
            result.raw_nbytes = int(data.nbytes)
            result.psnr = psnr(data, recon)
            result.max_err = max_abs_error(data, recon)
        result.nbytes = len(payload)
        result.cr = result.raw_nbytes / max(1, result.nbytes)
        n_elements = result.raw_nbytes // np.dtype(result.dtype).itemsize
        result.bitrate = 8.0 * result.nbytes / max(1, n_elements)
        result.status = "ok"
        result.wall_s = time.perf_counter() - t0
        return Outcome(result, payload, meta, stream)
    except Exception as exc:  # noqa: BLE001 — per-field isolation boundary
        result.error = f"{type(exc).__name__}: {exc}"
        result.wall_s = time.perf_counter() - t0
        return Outcome(result)


def _compress_stream(spec, job, request):
    snapshots = [_load_field(spec, job.base_dir, seed_offset=t) for t in range(spec.timesteps)]
    kwargs = {}
    if request.tiling is not None:
        kwargs.update(
            tile_shape=request.tiling.tiles,
            workers=request.tiling.workers,
            executor=request.tiling.executor or "threads",
        )
    if request.codec == DEFAULT_CODEC and not kwargs and request.pipeline is None:
        compressor = None  # the StreamWriter default engine, constructed once
    else:
        # The writer owns tiled-frame handling, so hand it the untiled kernel.
        compressor = kernel_for(replace(request, tiling=None))
    writer = StreamWriter(
        compressor=compressor,
        eb=request.error_bound.value,
        temporal=spec.temporal,
        **kwargs,
    )
    for snap in snapshots:
        writer.append(snap)
    payload = writer.getvalue()
    recons = StreamReader(payload).read_all()
    stack, rstack = np.stack(snapshots), np.stack(recons)
    return payload, {
        "first_snapshot": snapshots[0],
        "eb_abs": float(writer._abs_eb),
        "raw_nbytes": int(stack.nbytes),
        "psnr": psnr(stack, rstack),
        "max_err": max_abs_error(stack, rstack),
    }


class BatchRunner:
    """Run one manifest into one archive under the configured executor."""

    def __init__(
        self,
        spec: JobSpec,
        archive: ArchiveStore | str,
        executor: str | None = None,
        workers: int | None = None,
        resume: bool = True,
    ):
        self.spec = spec
        self._owns_archive = not isinstance(archive, ArchiveStore)
        self.archive = (
            archive if isinstance(archive, ArchiveStore) else ArchiveStore(archive, mode="a")
        )
        self.executor = executor or spec.executor
        self.workers = resolve_workers(spec.workers if workers is None else workers)
        self.resume = resume

    # -------------------------------------------------------------------- run
    def run(self) -> BatchReport:
        """Run the job; closes the archive afterwards if this runner opened it
        from a path (callers passing an ArchiveStore keep ownership)."""
        t0 = time.perf_counter()
        try:
            run = run_tasks(
                field_tasks(self.spec, self.spec.fields, {"job": self.spec.name}),
                run_field,
                self.archive,
                resumed=skipped_field,
                failed=failed_field,
                executor=self.executor,
                workers=self.workers,
                resume=self.resume,
            )
        finally:
            if self._owns_archive:
                self.archive.close()
        return BatchReport(
            job=self.spec.name,
            archive=self.archive.path,
            executor=self.executor,
            workers=self.workers,
            fields=run.rows,
            wall_s=time.perf_counter() - t0,
            lpt_makespan_elements=run.makespan,
        )
