"""An ordered map over forked worker processes, and the rule for how many to fork.

``ingest`` reads hourly log files and ``features`` computes article features
with it, and ``attention`` runs single tasks beside its own work. Each stage
decides how much work one worker must have to repay a pool's start, and
``worker_count`` does the rest: one worker per CPU available to the process,
at most one per task. There is no setting for the worker count, as a stage's
outputs are the same whatever it is.

The pool is ``os.fork`` and one pipe per worker, with no pool machinery: no
``multiprocessing``, no management thread, no call queue. Worker *k* of *w*
runs tasks *k*, *k + w*, *k + 2w*, ... and writes one pickled result per task
to its pipe, which the calling process reads in task order. The workers start
when the map is made, so the calling process can work while they run. A worker
inherits the task function, the tasks and the state, so none of them is
pickled, and a calling script needs no ``__main__`` guard; only results and
exceptions cross a pipe. With one worker nothing is forked and nothing is
imported, and each task runs when the caller reaches it.
"""

from __future__ import annotations

import os
import sys


class WorkerError(RuntimeError):
    """A worker process ended without sending the result of a task it owned, or
    could not send back the exception the task raised."""


class RemoteTraceback(Exception):
    """The traceback text of an exception raised in a worker process; it is set
    as that exception's cause, so that printing the exception shows where in the
    worker it was raised."""

    def __init__(self, text: str):
        super().__init__(text)
        self.text = text

    def __str__(self) -> str:
        return f'\n"""\n{self.text}"""'


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
    and never fewer than one. Where ``os.fork`` is not offered, there is one.
    """
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(available_cpus(), tasks, amount // per_worker))


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _serve(fn, tasks: list, state: tuple, fd: int) -> None:
    """Run tasks in this worker process, writing one pickled ``(True, value)`` or
    ``(False, exception, traceback text)`` per task to fd; stop after an error."""
    import pickle

    with os.fdopen(fd, "wb") as out:
        for task in tasks:
            try:
                payload = pickle.dumps((True, fn(task, *state)), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                import traceback

                text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
                try:
                    payload = pickle.dumps((False, exc, text), pickle.HIGHEST_PROTOCOL)
                    pickle.loads(payload)
                except Exception:
                    # An exception that does not survive pickling still sends its text.
                    payload = pickle.dumps((False, None, text), pickle.HIGHEST_PROTOCOL)
                out.write(payload)
                return
            out.write(payload)
            out.flush()


def _fork_workers(fn, tasks: list, workers: int, state: tuple) -> list[tuple[int, int]]:
    """Fork workers processes, each serving its share of tasks; return each
    one's pid and the read end of its pipe, in worker order."""
    children: list[tuple[int, int]] = []
    try:
        for k in range(workers):
            _flush_std_streams()
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    for _, fd in children:
                        os.close(fd)
                    _serve(fn, tasks[k::workers], state, write_fd)
                    code = 0
                finally:
                    try:
                        _flush_std_streams()
                    finally:
                        os._exit(code)
            os.close(write_fd)
            children.append((pid, read_fd))
    except BaseException:
        _stop(children, kill=True)
        raise
    return children


def _stop(children: list[tuple[int, int]], kill: bool, reaped=frozenset()) -> None:
    """Close each child's pipe, kill the child if kill is set, and reap it; a pid
    in reaped is already reaped, so it is neither signalled nor waited for."""
    import signal

    running = [pid for pid, _ in children if pid not in reaped]
    for _, fd in children:
        os.close(fd)
    if kill:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
    for pid in running:
        os.waitpid(pid, 0)


def _lost(pid: int, task: int) -> WorkerError:
    """Reap a worker that closed its pipe before sending task's result, and
    describe how it ended."""
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        how = f"was killed by signal {os.WTERMSIG(status)}"
    else:
        how = f"exited with status {os.waitstatus_to_exitcode(status)}"
    return WorkerError(f"worker process {pid} {how} without the result of task {task}")


def ordered_map(fn, tasks, workers: int, state: tuple = ()):
    """An iterator of ``fn(task, *state)`` for each task, in task order.

    With one worker the calling process runs each task when the iterator
    reaches it, all with the same state objects. Otherwise the forked worker
    processes start before this returns, so the caller can work while they
    run; each inherits state, so a mutable object in it, such as a cache, is
    shared by the tasks that worker runs. An exception fn raises reaches the
    caller when its task's result is due, with the worker's traceback text as
    its cause, or as a WorkerError if it does not survive pickling; a worker
    that ends without a result raises WorkerError then. Once the last result
    is read the workers are reaped; on an error, or when the caller closes the
    iterator early, even before reading any result, the workers still running
    are killed first.
    """
    if workers == 1:
        return (fn(task, *state) for task in tasks)
    results = _forked_map(fn, list(tasks), workers, state)
    next(results)  # forks the workers and enters the block that stops them
    return results


def _forked_map(fn, tasks: list, workers: int, state: tuple):
    """Fork the workers and yield None, then yield the result of each task in
    task order; the workers are stopped when this is closed or done."""
    import pickle

    workers = min(workers, len(tasks))
    children = _fork_workers(fn, tasks, workers, state)
    readers = [os.fdopen(fd, "rb", closefd=False) for _, fd in children]
    reaped: set[int] = set()
    done = False
    try:
        yield None
        for i in range(len(tasks)):
            try:
                result = pickle.load(readers[i % workers])
            except (EOFError, pickle.UnpicklingError):
                pid = children[i % workers][0]
                reaped.add(pid)
                raise _lost(pid, i) from None
            if not result[0]:
                _, exc, text = result
                if exc is None:
                    exc = WorkerError(f"task {i} raised an exception that cannot be sent back")
                raise exc from RemoteTraceback(text)
            yield result[1]
        done = True
    finally:
        _stop(children, kill=not done, reaped=reaped)
