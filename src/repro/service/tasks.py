"""One task core: resume, LPT order, isolated run, per-task archive commit.

Every archive-backed sweep is a list of named, costed :class:`Task` s run
through :func:`run_tasks`: ``repro batch``
(:class:`~repro.service.runner.BatchRunner`), ``repro eval``
(:func:`~repro.evaluation.runner.run_eval`) and each leased field of a
cluster worker (:class:`~repro.cluster.worker.ClusterWorker`, a one-task
slice).  The core does the four steps once:

1. **resume** — tasks the store already holds are rebuilt by the caller's
   ``resumed`` hook, never re-executed;
2. **LPT order** — the rest are submitted largest-first
   (:func:`repro.gpu.costmodel.lpt_order`), so one big trailing task does
   not serialize the run;
3. **isolation** — tasks run behind ``map_tiles(..., return_exceptions=True)``:
   a task that raises (or whose worker process dies) becomes the caller's
   ``failed`` row, a commit that raises marks its row failed, and the rest
   of the run still lands;
4. **commit** — each ok outcome is appended to the store as it completes,
   so a crashed run loses at most its in-flight tasks.

Work functions are module-level (the ``processes`` executor pickles them)
and take ``(spec, inner)``: the task's spec and the tile-level
``(executor, workers)`` they may fan out to (:func:`inner_execution`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.tiling import map_tiles
from ..datasets.registry import get_info
from ..gpu.costmodel import lpt_order

__all__ = [
    "Outcome",
    "Task",
    "TaskRun",
    "element_cost",
    "estimate_field_cost",
    "inner_execution",
    "run_tasks",
]


@dataclass(frozen=True)
class Task:
    """One unit of work: archive entry ``name``, LPT weight ``cost`` and the
    picklable ``spec`` handed to the work function."""

    name: str
    cost: float
    spec: Any


@dataclass
class Outcome:
    """What a work function returns for one task.

    ``row`` is the caller's report row — anything with ``status`` and
    ``error`` attributes; the payload is committed only when
    ``row.status == "ok"``.  ``stream`` holds the
    :meth:`~repro.service.archive.ArchiveStore.add_stream` keywords
    (``shape``, ``dtype``, ``eb_abs``, ``timesteps``); ``None`` commits the
    payload as a blob.
    """

    row: Any
    payload: bytes | None = None
    meta: dict = field(default_factory=dict)
    stream: dict | None = None


@dataclass
class TaskRun:
    """What :func:`run_tasks` returns: one row per task in input order, the
    task names resumed from the store and executed this time (both in input
    order), and the modelled LPT makespan of the executed tasks (in the
    costs' unit)."""

    rows: list
    resumed: list[str]
    executed: list[str]
    makespan: float


def inner_execution(executor: str) -> tuple[str, int]:
    """The tile-level ``(executor, workers)`` a task may use while tasks run
    under ``executor``: never nest process pools, and keep tile threads off
    the lanes the task workers occupy."""
    return ("serial" if executor == "processes" else "threads", 1 if executor != "serial" else 0)


def element_cost(shape, dataset: str | None = None, timesteps: int = 1) -> float:
    """LPT weight in elements: ``prod(shape) * timesteps``, with a registered
    dataset's default shape standing in for an unset ``shape``."""
    if shape is None:
        shape = get_info(dataset).default_shape
    return float(np.prod(shape)) * timesteps


def estimate_field_cost(job, spec) -> float:
    """A manifest field's LPT weight in elements.

    Shared by :class:`~repro.service.runner.BatchRunner` and the cluster
    coordinator, so single-node and distributed runs hand out the same
    largest-first order.  Raw files without a shape weigh their float32
    element count.
    """
    if spec.shape is None and spec.dataset is None:
        try:
            return os.path.getsize(job.resolve_path(spec)) / 4.0
        except OSError:
            return 0.0
    return element_cost(spec.shape, spec.dataset, spec.timesteps)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _invoke(job):
    work, spec, inner = job
    return work(spec, inner)


def run_tasks(
    tasks,
    work: Callable[[Any, tuple[str, int]], Outcome],
    store,
    *,
    resumed: Callable[[Task, Any], Any],
    failed: Callable[[Task, str], Any],
    executor: str = "serial",
    workers: int = 1,
    resume: bool = True,
    inner: tuple[str, int] | None = None,
    before_commit: Callable[[Task], None] | None = None,
) -> TaskRun:
    """Run ``tasks`` through ``work`` into ``store`` (an
    :class:`~repro.service.archive.ArchiveStore`).

    With ``resume`` a task already in the store is rebuilt as
    ``resumed(task, entry)``; without it every task runs and replaces its
    entry.  ``failed(task, error)`` builds the row of a task that raised.
    ``inner`` overrides :func:`inner_execution`'s tile-level pinning, and
    ``before_commit(task)`` runs inside the commit's isolation boundary
    just before the entry is written.
    """
    tasks = list(tasks)
    rows: list = [None] * len(tasks)
    pending = []
    for i, task in enumerate(tasks):
        if resume and task.name in store:
            rows[i] = resumed(task, store.entry(task.name))
        else:
            pending.append(i)
    order, makespan = lpt_order([tasks[i].cost for i in pending], workers)
    submitted = [pending[k] for k in order]
    inner = inner or inner_execution(executor)

    def commit(k: int, outcome) -> None:
        # Runs in the caller's thread as each task completes.
        i = submitted[k]
        task = tasks[i]
        if isinstance(outcome, Exception):
            rows[i] = failed(task, _describe(outcome))
            return
        row = outcome.row
        if row.status == "ok":
            try:
                if before_commit is not None:
                    before_commit(task)
                if outcome.stream is not None:
                    store.add_stream(
                        task.name,
                        outcome.payload,
                        **outcome.stream,
                        meta=outcome.meta,
                        replace=not resume,
                    )
                else:
                    store.add_blob(
                        task.name, outcome.payload, meta=outcome.meta, replace=not resume
                    )
            except Exception as exc:  # noqa: BLE001 — per-task isolation boundary
                row.status = "failed"
                row.error = _describe(exc)
        rows[i] = row

    map_tiles(
        _invoke,
        [(work, tasks[i].spec, inner) for i in submitted],
        executor,
        workers,
        return_exceptions=True,
        on_result=commit,
    )
    ran = set(pending)
    return TaskRun(
        rows=rows,
        resumed=[t.name for i, t in enumerate(tasks) if i not in ran],
        executed=[tasks[i].name for i in pending],
        makespan=makespan,
    )
