"""The one worker pool that sampling, record I/O and the reconciliation bench run on.

worker_count sizes a pool and ordered runs it, with the same results at any
size.  _usable_cpus and _MAX_WORKERS are the size's inputs and the seam that
tests patch.
"""

from __future__ import annotations

import os
import threading

# Most threads a pool runs.  A streaming Monte Carlo run's threads hold ~17 MB
# of buffers each, and two is the count whose speed and peak memory were measured.
_MAX_WORKERS = 2


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


def worker_count(tasks: int) -> int:
    """Threads for tasks independent tasks: one per usable CPU, at most
    _MAX_WORKERS and tasks."""
    return min(_usable_cpus(), _MAX_WORKERS, tasks)


def ordered(tasks, run, buffers, window=None):
    """Yield run(task, buffers[w]) for each task, in task order, worker w
    running each task it takes.

    One worker runs per entry of buffers, the calling thread as worker 0.
    Each takes the next task under one lock and runs it with its own
    buffers, and the results come out in task order, the same for any
    worker count and schedule: between its own tasks, the calling thread
    yields every result that is done with all those before it.  With a
    window, no task is taken while window results are running or done but
    not yet yielded, so at most that many are held.  NumPy's array steps
    release the GIL, so the workers run side by side.  However the calling
    thread leaves, by an error in any worker, an interrupt or the caller
    closing the generator, the other workers stop after their current
    task; a thread's error is raised here unless the calling thread's own
    is already on its way.
    """
    results, order, cond = [], iter(tasks), threading.Condition()
    stop, errors, running, done = threading.Event(), [], object(), 0

    def full():
        return window is not None and len(results) - done >= window

    def take():
        # the next task and its place, or None once none is left; cond is held
        task = running if stop.is_set() else next(order, running)
        if task is running:
            return None
        results.append(running)
        return len(results) - 1, task

    def work_in_thread(worker_buffers):
        try:
            while True:
                with cond:
                    while full() and not stop.is_set():
                        cond.wait()
                    item = take()
                if item is None:
                    return
                result = run(item[1], worker_buffers)
                with cond:
                    results[item[0]] = result
                    cond.notify_all()
        except BaseException as exc:
            errors.append(exc)
            stop.set()
        finally:
            with cond:
                cond.notify_all()

    threads = [threading.Thread(target=work_in_thread, args=(b,), daemon=True)
               for b in buffers[1:]]
    for thread in threads:
        thread.start()
    try:
        while True:
            while done < len(results) and results[done] is not running:
                result, results[done] = results[done], None
                done += 1
                with cond:
                    cond.notify_all()
                yield result
            with cond:
                if full():
                    # the oldest result is another worker's: wait for it
                    while results[done] is running and not stop.is_set():
                        cond.wait()
                    if stop.is_set():
                        break
                    continue
                item = take()
            if item is None:
                break
            results[item[0]] = run(item[1], buffers[0])
    finally:
        stop.set()
        with cond:
            cond.notify_all()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    yield from results[done:]
