"""Experiment-matrix runner: a config's cells as tasks of the shared task core.

:func:`run_eval` expands an :class:`~repro.evaluation.config.EvalConfig`
into one :class:`~repro.service.tasks.Task` per matrix cell (weighted by its
element count) and runs them through :func:`~repro.service.tasks.run_tasks`,
the core :class:`~repro.service.runner.BatchRunner` and the cluster workers
also run: LPT scheduling, per-cell failure isolation, and a per-cell archive
commit that stores the cell's metrics in the entry's ``meta``, so a rerun
with resume enabled rebuilds finished cells from the index without
recomputing anything and a crashed run loses at most its in-flight cells.

Cells execute through the harness kernel path
(``kernel_for(request).compress(data, eb)``), the same construction as
:func:`repro.analysis.run_case` / ``run_fixed_rate_case``, so the
orchestrator's CR/PSNR numbers match the legacy benchmarks exactly.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from ..api import build_request, kernel_for
from ..core.tiling import resolve_workers
from ..datasets.registry import load
from ..faults import fire as _fault_fire
from ..metrics import max_abs_error, psnr
from ..service.archive import ArchiveStore
from ..service.tasks import Outcome, Task, element_cost, run_tasks
from .config import EvalConfig
from .matrix import EvalCell, expand

__all__ = ["CellResult", "EvalRun", "cell_request", "run_cell", "run_eval"]

#: archive-entry meta key holding the cell's serialized metrics (the resume
#: substrate: rebuilding a finished cell is a dict read, not a recompute)
META_KEY = "eval"


@dataclass
class CellResult:
    """Everything the report records about one matrix cell."""

    cell: str  # cell_id == archive entry name
    dataset: str
    variant: str  # codec name or ablation step label
    kind: str  # "eb" | "rate" | "ablation"
    status: str  # "ok" | "failed"
    eb: float | None = None
    eb_mode: str = "rel"
    rate: float | None = None
    tiles: list[int] | None = None
    error: str | None = None
    shape: list[int] | None = None
    dtype: str | None = None
    eb_abs: float | None = None
    raw_nbytes: int = 0
    nbytes: int = 0
    cr: float | None = None
    bitrate: float | None = None
    psnr: float | None = None
    max_err: float | None = None
    wall_s: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "CellResult":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 — set of names
        return cls(**{k: v for k, v in doc.items() if k in known})


@dataclass
class EvalRun:
    """One orchestrator run: per-cell results plus execution provenance."""

    config: EvalConfig
    archive: str
    executor: str
    workers: int
    cells: list[CellResult] = field(default_factory=list)  # expansion order
    executed: list[str] = field(default_factory=list)  # cell ids run this time
    resumed: list[str] = field(default_factory=list)  # rebuilt from the archive
    wall_s: float = 0.0
    lpt_makespan_elements: float = 0.0

    @property
    def failed(self) -> list[str]:
        return [r.cell for r in self.cells if r.status == "failed"]

    @property
    def ok(self) -> bool:
        return not self.failed


def cell_request(cell: EvalCell):
    """The :class:`~repro.api.CompressionRequest` a codec cell executes as
    (ablation cells run a pinned engine config instead and have none)."""
    if cell.kind == "ablation":
        raise ValueError(f"ablation cell {cell.cell_id!r} has no request; it runs a pinned config")
    if cell.kind == "rate":
        return build_request(codec=cell.variant, options={"rate": cell.rate})
    return build_request(codec=cell.variant, eb=cell.eb, eb_mode=cell.eb_mode, tiles=cell.tiles)


def _cell_compressor(cell: EvalCell, inner: tuple[str, int]):
    if cell.kind == "ablation":
        from ..analysis.ablation import ABLATION_STEPS
        from ..core.compressor import CuszHi

        return CuszHi(config=dict(ABLATION_STEPS)[cell.variant])
    request = cell_request(cell)
    if request.tiling is not None:
        request = request.with_tiling_execution(*inner)
    return kernel_for(request)


@lru_cache(maxsize=4)
def _load_dataset(name: str, shape: tuple[int, ...] | None, seed: int) -> np.ndarray:
    return load(name, shape=shape, seed=seed)


def _cell_row(cell: EvalCell, **fields) -> CellResult:
    return CellResult(
        cell=cell.cell_id,
        dataset=cell.dataset.name,
        variant=cell.variant,
        kind=cell.kind,
        status="failed",
        **fields,
    )


def run_cell(task_spec, inner: tuple[str, int]) -> Outcome:
    """Execute one cell (the eval work function of the shared task core)."""
    cell, config_name = task_spec
    t0 = time.perf_counter()
    result = _cell_row(
        cell,
        eb=cell.eb,
        eb_mode=cell.eb_mode,
        rate=cell.rate,
        tiles=list(cell.tiles) if cell.tiles is not None else None,
    )
    try:
        # Chaos hook ("eval.cell"): kill/error a worker at cell K — the
        # sweep's per-cell isolation and resume must absorb it.
        _fault_fire("eval.cell", cell=cell.cell_id)
        data = _load_dataset(cell.dataset.name, cell.dataset.shape, cell.dataset.seed)
        comp = _cell_compressor(cell, inner)
        blob = comp.compress(data, cell.eb)
        recon = comp.decompress(blob)
        result.shape = [int(d) for d in data.shape]
        result.dtype = data.dtype.name
        result.eb_abs = float(blob.error_bound)
        result.raw_nbytes = int(data.nbytes)
        result.nbytes = int(blob.nbytes)
        result.cr = float(blob.compression_ratio)
        result.bitrate = float(blob.bitrate)
        result.psnr = psnr(data, recon)
        result.max_err = max_abs_error(data, recon)
        result.status = "ok"
        result.wall_s = time.perf_counter() - t0
        meta = {META_KEY: result.to_json(), "config": config_name}
        return Outcome(result, blob.to_bytes(), meta)
    except Exception as exc:  # noqa: BLE001 — per-cell isolation boundary
        result.error = f"{type(exc).__name__}: {exc}"
        result.wall_s = time.perf_counter() - t0
        return Outcome(result)


def run_eval(
    cfg: EvalConfig,
    archive: ArchiveStore | str,
    resume: bool = True,
    executor: str | None = None,
    workers: int | None = None,
) -> EvalRun:
    """Run (or resume) a config's matrix into an archive.

    With ``resume`` enabled (the default), cells whose ids are already in
    the archive are rebuilt from the index's stored metrics and **not**
    re-executed; with it disabled every cell reruns and replaces its entry.
    Closes the archive afterwards if it was opened here from a path.
    """
    owns = not isinstance(archive, ArchiveStore)
    store = ArchiveStore(archive, mode="a") if owns else archive
    try:
        run = EvalRun(
            config=cfg,
            archive=store.path,
            executor=executor or cfg.executor,
            workers=resolve_workers(cfg.workers if workers is None else workers),
        )
        t0 = time.perf_counter()
        tasks = [
            Task(c.cell_id, element_cost(c.dataset.shape, c.dataset.name), (c, cfg.name))
            for c in expand(cfg)
        ]
        done = run_tasks(
            tasks,
            run_cell,
            store,
            resumed=lambda task, entry: CellResult.from_json(entry.meta.get(META_KEY, {})),
            failed=lambda task, error: _cell_row(task.spec[0], error=error),
            executor=run.executor,
            workers=run.workers,
            resume=resume,
        )
    finally:
        if owns:
            store.close()
    run.cells, run.resumed, run.executed = done.rows, done.resumed, done.executed
    run.lpt_makespan_elements = done.makespan
    run.wall_s = time.perf_counter() - t0
    return run
