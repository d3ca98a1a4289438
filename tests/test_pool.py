"""The worker pool on its own: order, exactly-once, the window bound and errors.

ordered is also checked through its three callers (the sampler, the record
codec and the reconciliation bench); here it runs plain tasks that sleep a
random few microseconds, on 1-4 workers, so the schedule varies.
"""

import sys
import threading
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqkd import _pool
from psqkd._pool import ordered, worker_count

POOL = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def pool_of(workers, tasks):
    """Buffers for worker_count(tasks) workers on a host of workers CPUs,
    with the cap raised to match; each worker's buffers name it."""
    with mock.patch.object(_pool, "_usable_cpus", lambda: workers), \
            mock.patch.object(_pool, "_MAX_WORKERS", workers):
        return [f"worker {w}" for w in range(worker_count(tasks))]


@st.composite
def runs(draw):
    """Tasks as (index, sleep in microseconds), a worker count and a window."""
    sleeps = draw(st.lists(st.integers(0, 200), max_size=40))
    workers = draw(st.integers(1, 4))
    window = draw(st.none() | st.integers(1, 4))
    return list(enumerate(sleeps)), workers, window


@POOL
@given(run=runs())
def test_results_come_in_task_order_each_task_run_once(run):
    tasks, workers, window = run
    buffers = pool_of(workers, len(tasks))
    assert len(buffers) == min(workers, len(tasks))
    lock, started, ran = threading.Lock(), [0], Counter()

    def work(task, worker_buffers):
        assert worker_buffers in buffers
        with lock:
            started[0] += 1
            ran[task] += 1
        time.sleep(task[1] * 1e-6)
        return task[0] ** 2

    threads, got = threading.active_count(), []
    # up to four workers on fewer cores, switching threads every microsecond
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for result in ordered(tasks, work, buffers, window):
            got.append(result)
            if window is not None:
                # between two results the caller holds, at most window tasks
                # are taken past the last one yielded
                with lock:
                    assert started[0] <= len(got) + window
    finally:
        sys.setswitchinterval(interval)
    assert got == [i ** 2 for i, _ in tasks]
    assert ran == Counter(tasks)
    assert threading.active_count() == threads


@POOL
@given(run=runs(), data=st.data())
def test_an_error_in_any_task_reaches_the_caller(run, data):
    tasks, workers, window = run
    if not tasks:
        tasks = [(0, 0)]
    failing = data.draw(st.integers(0, len(tasks) - 1))
    buffers = pool_of(workers, len(tasks))

    def work(task, worker_buffers):
        time.sleep(task[1] * 1e-6)
        if task[0] == failing:
            raise ValueError(f"task {failing}")
        return task[0]

    threads = threading.active_count()
    got = []
    with pytest.raises(ValueError, match=f"task {failing}$"):
        for result in ordered(tasks, work, buffers, window):
            got.append(result)
    # results before the failing task may come out, and only in order
    assert got == list(range(len(got))) and len(got) <= failing
    assert threading.active_count() == threads


def test_results_still_running_when_the_tasks_run_out_come_in_order():
    # the calling thread runs its tasks at once and the other three workers
    # sleep, so the last results are yielded after every worker has stopped
    buffers = pool_of(4, 12)

    def work(task, worker_buffers):
        if worker_buffers != buffers[0]:
            time.sleep(0.01)
        return task

    assert list(ordered(range(12), work, buffers)) == list(range(12))


def test_worker_count_is_capped_by_cpus_cap_and_tasks(monkeypatch):
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 16)
    assert [worker_count(t) for t in (0, 1, 2, 40)] == [0, 1, 2, 2]
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 1)
    assert worker_count(40) == 1
