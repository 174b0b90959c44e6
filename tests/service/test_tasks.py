"""The shared task core: resume, LPT submission, isolation, per-task commit.

Batch, eval and the cluster workers all run through
:func:`repro.service.tasks.run_tasks`, so its contract is pinned here once,
as properties over random costs, pre-existing archive entries and failures
raised both by the work function and by the commit.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compress
from repro.core.streaming import StreamWriter
from repro.service import ArchiveStore
from repro.service.tasks import Outcome, Task, inner_execution, run_tasks

BLOB = compress(np.zeros((4, 4), np.float32), eb=1e-3).to_bytes()

#: how one task ends: already archived, committed, raised in the work
#: function, failed without raising, or raised while being committed
FATES = ("stored", "ok", "raises", "row-failed", "commit-fails")


@dataclass
class Row:
    name: str
    status: str
    error: str | None = None


class FlakyStore(ArchiveStore):
    """An archive whose commit raises for the names in ``refuse``."""

    def __init__(self, path: str, refuse=()):
        super().__init__(path, mode="a")
        self.refuse = set(refuse)

    def add_blob(self, name, blob, **kwargs):
        if name in self.refuse:
            raise OSError(f"disk full writing {name}")
        return super().add_blob(name, blob, **kwargs)


def _work(fates: dict, calls: list):
    def work(name, inner):
        calls.append(name)
        fate = fates.get(name, "ok")
        if fate == "raises":
            raise RuntimeError(f"work for {name} failed")
        if fate == "row-failed":  # a payload beside a failed row is never committed
            return Outcome(Row(name, "failed", "bad data"), BLOB, {"task": name})
        return Outcome(Row(name, "ok"), BLOB, {"task": name})

    return work


def _run(tasks, store, fates, calls, **kwargs):
    return run_tasks(
        tasks,
        _work(fates, calls),
        store,
        resumed=lambda task, entry: Row(task.name, "resumed"),
        failed=lambda task, error: Row(task.name, "failed", error),
        **kwargs,
    )


scenarios = st.lists(
    st.tuples(st.integers(0, 20), st.sampled_from(FATES)), min_size=0, max_size=10
)


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios, workers=st.integers(1, 4))
def test_every_task_ends_exactly_once_and_resume_converges(scenario, workers):
    tasks = [Task(f"t{i}", float(cost), f"t{i}") for i, (cost, _) in enumerate(scenario)]
    fates = {t.name: fate for t, (_, fate) in zip(tasks, scenario)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tasks.rpza")
        with ArchiveStore(path, mode="a") as store:
            for name, fate in fates.items():
                if fate == "stored":
                    store.add_blob(name, BLOB, meta={"task": name})
        refuse = [n for n, f in fates.items() if f == "commit-fails"]
        calls: list = []
        with FlakyStore(path, refuse) as store:
            run = _run(tasks, store, fates, calls, workers=workers)
            names = set(store.names())

        # Rows come back in input order, one per task.
        assert [r.name for r in run.rows] == [t.name for t in tasks]
        # Each task ends exactly once: resumed, ok or failed.
        resumed = set(run.resumed)
        ok = {r.name for r in run.rows if r.status == "ok"}
        failed = {r.name for r in run.rows if r.status == "failed"}
        assert len(resumed) + len(ok) + len(failed) == len(tasks)
        assert resumed | ok | failed == set(fates)
        assert resumed == {n for n, f in fates.items() if f == "stored"}
        assert ok == {n for n, f in fates.items() if f == "ok"}
        assert set(run.executed) == set(fates) - resumed
        # The archive holds exactly what was resumed or committed.
        assert names == resumed | ok
        # Submission order is LPT: largest first, ties in input order.
        pending = [t for t in tasks if t.name not in resumed]
        assert calls == [t.name for t in sorted(pending, key=lambda t: -t.cost)]
        # Failure rows carry the typed error of whichever step raised.
        for row in run.rows:
            if fates[row.name] == "raises":
                assert row.error == f"RuntimeError: work for {row.name} failed"
            if fates[row.name] == "commit-fails":
                assert row.error == f"OSError: disk full writing {row.name}"
            if fates[row.name] == "row-failed":
                assert row.error == "bad data"

        # Resume re-executes only what failed, then nothing at all.
        with ArchiveStore(path, mode="a") as store:
            calls2: list = []
            second = _run(tasks, store, {}, calls2, workers=workers)
            assert set(calls2) == failed and set(second.executed) == failed
            calls3: list = []
            third = _run(tasks, store, {}, calls3, workers=workers)
            assert calls3 == [] and third.executed == []
            assert set(third.resumed) == set(fates) == set(store.names())
            assert all(store.entry(n).meta == {"task": n} for n in store.names())


def test_no_resume_reruns_and_replaces(tmp_path):
    tasks = [Task(n, 1.0, n) for n in ("a", "b")]
    with ArchiveStore(str(tmp_path / "t.rpza"), mode="a") as store:
        _run(tasks, store, {}, [])
        calls: list = []
        run = _run(tasks, store, {}, calls, resume=False)
        assert sorted(calls) == ["a", "b"] and run.resumed == []
        assert store.names() == ["a", "b"]
        assert store.verify(deep=True) == []


def test_stream_outcome_commits_a_stream_entry(tmp_path):
    writer = StreamWriter(eb=1e-3)
    for t in range(2):
        writer.append(np.full((6, 6), float(t), np.float32))
    stream = {"shape": (6, 6), "dtype": "float32", "eb_abs": 1e-3, "timesteps": 2}

    def work(spec, inner):
        return Outcome(Row("s", "ok"), writer.getvalue(), {"job": "j"}, stream)

    with ArchiveStore(str(tmp_path / "t.rpza"), mode="a") as store:
        run = run_tasks([Task("s", 72.0, None)], work, store, resumed=None, failed=None)
        assert run.rows[0].status == "ok"
        entry = store.entry("s")
        assert (entry.kind, entry.timesteps, entry.meta) == ("stream", 2, {"job": "j"})


def test_before_commit_failure_is_isolated(tmp_path):
    def refuse_b(task):
        if task.name == "b":
            raise OSError("no space left")

    tasks = [Task(n, 1.0, n) for n in ("a", "b", "c")]
    with ArchiveStore(str(tmp_path / "t.rpza"), mode="a") as store:
        run = _run(tasks, store, {}, [], before_commit=refuse_b)
        assert [r.status for r in run.rows] == ["ok", "failed", "ok"]
        assert run.rows[1].error == "OSError: no space left"
        assert store.names() == ["a", "c"]


@pytest.mark.parametrize(
    ("executor", "inner"),
    [("serial", ("threads", 0)), ("threads", ("threads", 1)), ("processes", ("serial", 1))],
)
def test_inner_execution_never_nests_pools(executor, inner):
    assert inner_execution(executor) == inner


def test_threads_rows_stay_in_input_order(tmp_path):
    tasks = [Task(f"t{i}", float(i % 3), f"t{i}") for i in range(8)]
    with ArchiveStore(str(tmp_path / "t.rpza"), mode="a") as store:
        run = _run(tasks, store, {}, [], executor="threads", workers=3)
        assert [r.name for r in run.rows] == [t.name for t in tasks]
        assert all(r.status == "ok" for r in run.rows)
        assert sorted(store.names()) == sorted(t.name for t in tasks)
