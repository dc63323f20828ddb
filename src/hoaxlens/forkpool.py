"""An ordered map over forked worker processes, and the rule for how many to fork.

``ingest`` reads hourly log files and ``features`` computes article features
with it. Each stage decides how much work one worker must have to repay a
pool's start, and ``worker_count`` does the rest: one worker per CPU available
to the process, at most one per task. There is no setting for the worker
count, as a stage's outputs are the same whatever it is.

Workers are forked, so a calling script needs no ``__main__`` guard, and each
worker inherits the state the pool is started with rather than receiving a
pickled copy. The task function itself is pickled by name, so it must be a
module-level function. ``multiprocessing`` and ``concurrent.futures`` are
imported only when a pool starts: they cost a stage memory and start-up time
that a small input does not repay.
"""

from __future__ import annotations

import os
from functools import partial


def available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(tasks: int, amount: int, per_worker: int) -> int:
    """Worker processes for tasks that hold amount units of work in all; 1 means
    the calling process runs them.

    One per available CPU, at most one per task and one per per_worker units,
    and never fewer than one. Where ``fork`` is not offered, there is one.
    """
    workers = max(1, min(available_cpus(), tasks, amount // per_worker))
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return workers


# The arguments after the task that ordered_map passes to fn; _start_worker sets
# them once in each worker process.
_worker_state: tuple = ()


def _start_worker(state: tuple) -> None:
    global _worker_state
    _worker_state = state


def _run_in_worker(fn, task):
    return fn(task, *_worker_state)


def ordered_map(fn, tasks, workers: int, state: tuple = ()):
    """Yield ``fn(task, *state)`` for each task, in task order.

    With one worker the calling process runs them, all with the same state
    objects. Otherwise each of workers forked processes inherits state once, so
    a mutable object in it, such as a cache, is shared by the tasks that worker
    runs. An exception fn raises reaches the caller when its task's result is
    due; the tasks after it that have not started are cancelled.
    """
    if workers == 1:
        for task in tasks:
            yield fn(task, *state)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(state,),
    ) as pool:
        yield from pool.map(partial(_run_in_worker, fn), tasks)
