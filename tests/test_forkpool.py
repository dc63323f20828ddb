"""The forked worker pool: ordered results, errors, early close, lost workers, cleanup."""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoaxlens import forkpool


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert_no_child_left()


@pytest.fixture
def alarm():
    """Fail a test that runs past 30 s instead of letting it hang."""

    def expire(signum, frame):
        raise TimeoutError("pool did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@settings(max_examples=40, deadline=None)
@given(
    tasks=st.lists(st.integers(-(10**6), 10**6), max_size=30),
    workers=st.integers(2, 3),
)
@example(tasks=[], workers=3)
@example(tasks=[5], workers=2)
def test_results_equal_serial_map(tasks, workers):
    # Neither the closure nor the lock in its state could be pickled: workers inherit both.
    lock = threading.Lock()
    offset = 7

    def fn(task, guard):
        with guard:
            return [task * task + offset, str(task)]

    serial = list(forkpool.ordered_map(fn, tasks, 1, (lock,)))
    assert serial == [fn(task, lock) for task in tasks]
    assert list(forkpool.ordered_map(fn, tasks, workers, (lock,))) == serial
    assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_each_worker_keeps_its_own_state(workers):
    """Worker k runs tasks k, k + w, ...; a mutable state object is shared by those tasks."""

    def fn(task, seen):
        seen.append(task)
        return (os.getpid(), list(seen))

    results = list(forkpool.ordered_map(fn, range(10), workers, ([],)))
    for i, (pid, seen) in enumerate(results):
        assert seen == list(range(i % workers, i + 1, workers))
        assert pid == results[i % workers][0] != os.getpid()


@pytest.mark.parametrize("workers", [2, 3])
def test_first_error_follows_the_results_before_it(workers):
    def fn(task):
        if task in (5, 6):
            raise KeyError(f"task {task} failed")
        return task

    results = forkpool.ordered_map(fn, range(12), workers)
    got = []
    with pytest.raises(KeyError, match="task 5 failed") as info:
        for value in results:
            got.append(value)
    assert got == [0, 1, 2, 3, 4]
    cause = info.value.__cause__
    assert isinstance(cause, forkpool.RemoteTraceback)
    assert "in fn" in str(cause)
    assert "KeyError: 'task 5 failed'" in str(cause)


def test_unpicklable_result_is_the_task_error():
    def fn(task):
        return task if task != 2 else (lambda: None)

    with pytest.raises(Exception, match="pickle") as info:
        list(forkpool.ordered_map(fn, range(5), 2))
    assert isinstance(info.value.__cause__, forkpool.RemoteTraceback)


class NeedsTwoArgs(Exception):
    """Pickles, but its __init__ cannot take back the args it pickles with."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


@pytest.mark.parametrize(
    "error",
    [ValueError(lambda: None), NeedsTwoArgs("task 3", "broken")],
    ids=["does_not_pickle", "does_not_unpickle"],
)
def test_exception_that_cannot_be_sent_back_keeps_its_text(error):
    def fn(task):
        if task == 3:
            raise error
        return task

    with pytest.raises(forkpool.WorkerError, match="task 3 raised an exception") as info:
        list(forkpool.ordered_map(fn, range(6), 2))
    assert type(error).__name__ in str(info.value.__cause__)


def test_close_after_one_result(alarm):
    def fn(task):
        return task

    results = forkpool.ordered_map(fn, range(10_000), 2)
    assert next(results) == 0
    results.close()
    with pytest.raises(StopIteration):
        next(results)


def test_workers_start_when_called(tmp_path, alarm):
    """The workers run before the first result is asked for, so the caller can work meanwhile."""

    def fn(task):
        (tmp_path / str(task)).touch()
        return task

    results = forkpool.ordered_map(fn, range(3), 2)
    while len(list(tmp_path.iterdir())) < 3:
        time.sleep(0.01)
    assert list(results) == [0, 1, 2]


@pytest.mark.parametrize("workers", [2, 3])
def test_close_before_any_result_leaves_no_child(alarm, workers):
    def fn(task):
        time.sleep(60)
        return task

    results = forkpool.ordered_map(fn, range(4), workers)
    results.close()
    assert_no_child_left()
    with pytest.raises(StopIteration):
        next(results)


def test_single_task_error_raised_at_collection():
    """One task forks one worker; its exception waits for the caller to read the result."""

    def fn(task):
        raise KeyError(f"{task} failed")

    results = forkpool.ordered_map(fn, ["only"], 2)
    with pytest.raises(KeyError, match="only failed") as info:
        next(results)
    assert isinstance(info.value.__cause__, forkpool.RemoteTraceback)
    assert "KeyError: 'only failed'" in str(info.value.__cause__)


def test_one_worker_runs_each_task_here_when_reached():
    ran = []

    def fn(task):
        ran.append((task, os.getpid()))
        return task

    results = forkpool.ordered_map(fn, range(3), 1)
    assert ran == []
    assert next(results) == 0
    assert ran == [(0, os.getpid())]
    assert list(results) == [1, 2]
    assert ran == [(task, os.getpid()) for task in range(3)]


def test_killed_worker_raises_without_hanging(alarm):
    def fn(task):
        if task == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return task

    results = forkpool.ordered_map(fn, range(8), 2)
    got = []
    with pytest.raises(forkpool.WorkerError, match="signal 9 without the result of task 3"):
        for value in results:
            got.append(value)
    assert got == [0, 1, 2]


def test_worker_that_exits_early_raises(alarm):
    def fn(task):
        if task == 4:
            os._exit(3)
        return task

    with pytest.raises(forkpool.WorkerError, match="status 3 without the result of task 4"):
        list(forkpool.ordered_map(fn, range(8), 3))


# Leaves parent output unflushed in a block-buffered pipe, then runs a pool whose
# workers print too.
_OUTPUT_PROBE = """
import sys
from hoaxlens import forkpool

def shout(task):
    print(f"task {task}")
    return task

print("parent before", end="")
assert list(forkpool.ordered_map(shout, range(6), int(sys.argv[1]))) == list(range(6))
print(" parent after")
"""


@pytest.mark.parametrize("workers", [2, 3])
def test_unflushed_output_is_printed_once(workers):
    src = str(Path(forkpool.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # Block-buffered stdout, so that each process writes its text in one piece.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-c", _OUTPUT_PROBE, str(workers)],
        env={**env, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # The parent flushed its pending text before forking, and each worker its own before exiting.
    assert proc.stdout.startswith("parent before")
    assert proc.stdout.endswith(" parent after\n")
    assert proc.stdout.count("parent before") == proc.stdout.count("parent after") == 1
    assert sorted(re.findall(r"task \d+\n", proc.stdout)) == [f"task {t}\n" for t in range(6)]

