"""The worker pool: kept and dropped pools, pinning, nesting, worker
lifetime and the shares a map is cut into."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from softprop import pool
from softprop.simulator import HandModel

from conftest import assert_served_by, pid_task, worker_pids


@pytest.fixture(scope="module")
def small_hand():
    return HandModel.build_standard(segments=6, length_mm=40.0)


@pytest.fixture(scope="module")
def four_hand():
    return HandModel.build_standard(segments=4, length_mm=24.0)


def test_pool_is_kept_while_calls_pass_the_same_hand(four_hand, small_hand, two_cpus):
    results = pool.map_tasks(four_hand, pid_task, range(4))
    workers = worker_pids()
    assert len(workers) == 2 and os.getpid() not in workers
    assert_served_by(results, four_hand, workers)
    results = pool.map_tasks(four_hand, pid_task, range(4))
    assert worker_pids() == workers
    assert_served_by(results, four_hand, workers)
    # Another hand shuts the pool down and forks new workers.
    results = pool.map_tasks(small_hand, pid_task, range(4))
    fresh = worker_pids()
    assert len(fresh) == 2 and not set(fresh) & set(workers)
    assert_served_by(results, small_hand, fresh)


def _slow_pid(hand, task):
    time.sleep(0.2)
    return pid_task(hand, task)


def test_broken_pool_is_dropped_and_forked_again(four_hand, two_cpus):
    pool.map_tasks(four_hand, pid_task, range(4))
    workers = worker_pids()
    os.kill(workers[0], signal.SIGKILL)
    # The surviving worker cannot finish 0.8 s of tasks before the pool
    # notices its sibling died.
    with pytest.raises(BrokenProcessPool):
        pool.map_tasks(four_hand, _slow_pid, range(4))
    results = pool.map_tasks(four_hand, pid_task, range(4))
    fresh = worker_pids()
    assert len(fresh) == 2 and not set(fresh) & set(workers)
    assert_served_by(results, four_hand, fresh)


def _blas_threads(hand, task):
    return os.getpid(), [f() for f in pool._openblas_functions("get_num_threads")]


def test_pool_workers_run_one_blas_thread(four_hand, two_cpus):
    if not pool._openblas_functions("get_num_threads"):
        pytest.skip("no OpenBLAS library is loaded")
    results = pool.map_tasks(four_hand, _blas_threads, range(4))
    assert all(pid != os.getpid() for pid, _ in results)
    assert all(counts and set(counts) == {1} for _, counts in results)


# The real call: two_cpus patches os.sched_getaffinity.
_allowed_cpus = os.sched_getaffinity
# Set before a test's pool forks, so its workers inherit it.
_both_workers = None


def _pinned_cpus(hand, task):
    # Two tasks that each wait for the other run on both workers.
    _both_workers.wait(timeout=60)
    return os.getpid(), _allowed_cpus(0)


def test_pool_workers_are_pinned_to_distinct_cpus(four_hand, two_cpus, monkeypatch):
    if not {0, 1} <= _allowed_cpus(0):
        pytest.skip("this process may not use both CPUs 0 and 1")
    allowed = _allowed_cpus(0)
    monkeypatch.setattr(sys.modules[__name__], "_both_workers", multiprocessing.Barrier(2))
    results = pool.map_tasks(four_hand, _pinned_cpus, range(2))
    assert sorted(pid for pid, _ in results) == worker_pids()
    assert sorted(tuple(cpus) for _, cpus in results) == [(0,), (1,)]
    assert _allowed_cpus(0) == allowed  # this process stays unpinned


def _inner(hand, task):
    return os.getpid()


def _outer(hand, task):
    return os.getpid(), pool.map_tasks(hand, _inner, range(3))


def test_nested_map_tasks_run_in_the_worker(four_hand, two_cpus):
    # A pool worker that maps tasks itself runs them in-process: its
    # siblings already hold the other CPUs.
    results = pool.map_tasks(four_hand, _outer, range(2))
    assert all(pid != os.getpid() for pid, _ in results)
    assert all(inner_pids == [pid] * 3 for pid, inner_pids in results)


def test_one_cpu_maps_in_process(four_hand, monkeypatch):
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0})

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on one CPU")

    monkeypatch.setattr(pool, "ProcessPoolExecutor", no_pool)
    me = (os.getpid(), id(four_hand))
    assert pool.map_tasks(four_hand, pid_task, range(3)) == [me] * 3


def test_share_cuts_are_one_even_share_per_worker(two_cpus):
    # No items make no shares: cuts [0].
    for count in range(10):
        cuts = pool.share_cuts(count)
        sizes = [b - a for a, b in zip(cuts, cuts[1:])]
        assert cuts[0] == 0 and cuts[-1] == count
        assert all(size >= 0 for size in sizes)
        assert max(sizes, default=0) - min(sizes, default=0) <= 1
        assert len(sizes) == min(2, count)


def _worker_cuts(hand, count):
    return os.getpid(), pool.share_cuts(count)


def test_share_cuts_in_a_worker_are_one_share(four_hand, two_cpus):
    # A worker's siblings already hold the other CPUs, so it maps in-process.
    results = pool.map_tasks(four_hand, _worker_cuts, range(1, 10))
    assert all(pid != os.getpid() for pid, _ in results)
    assert [cuts for _, cuts in results] == [[0, count] for count in range(1, 10)]


# A child process that solves a hand frame on two workers, prints their
# pids, and then either exits normally (printing, from an atexit handler,
# the workers still alive by then) or waits to be killed.
_CHILD = """
import atexit, multiprocessing, os, sys, time
import numpy as np
from softprop import pool, simulator
pool.os.sched_getaffinity = lambda pid: {0, 1}
hand = simulator.HandModel.build_standard(segments=4, length_mm=24.0)
simulator.solve_hand(hand, np.full(6, 0.1))
print(" ".join(str(p.pid) for p in multiprocessing.active_children()), flush=True)
if sys.argv[1] == "exit":
    atexit.register(lambda: print(len(multiprocessing.active_children()), flush=True))
else:
    time.sleep(120)
"""


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.parametrize("end", ["exit", "kill"])
def test_no_pool_worker_outlives_its_process(end):
    src = os.path.dirname(os.path.dirname(os.path.abspath(pool.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.Popen([sys.executable, "-c", _CHILD, end], stdout=subprocess.PIPE,
                             text=True, env=env)
    try:
        workers = [int(pid) for pid in child.stdout.readline().split()]
        assert len(workers) == 2
        if end == "kill":
            child.kill()
            assert child.wait(timeout=60) == -signal.SIGKILL
        else:
            # concurrent.futures' exit hook joined the workers before the
            # interpreter ran its atexit handlers.
            assert child.stdout.read().split() == ["0"]
            assert child.wait(timeout=60) == 0
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=60)
        child.stdout.close()
    deadline = time.monotonic() + 10.0
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in workers if _alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert survivors == []
