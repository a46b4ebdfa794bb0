"""The worker pool: kept and dropped pools, pinning, nesting, worker
lifetime, the shares a map is cut into and the blocks chains move in."""

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


def _walk(hand, task):
    """A map_chains fn: step s folds into the chain's state as 3 * state + s,
    so a block that starts from the wrong state shows in every later
    output. Each step outputs (state, pid, first step of its task); the
    step "fail" stops the walk with a ValueError as its err, and "raise"
    raises one."""
    state, steps = task
    outputs = []
    for s in steps:
        if s == "fail":
            return outputs, ValueError("planted failure"), None
        if s == "raise":
            raise ValueError("planted exception")
        time.sleep(0.01)
        state = 3 * state + s
        outputs.append((state, os.getpid(), steps[0]))
    return outputs, None, state


# Three chains of 12 steps: six blocks each at the patched block size.
_WALKS = [(c, list(range(100 * c, 100 * c + 12))) for c in range(3)]


@pytest.fixture
def blocks_of_two(monkeypatch):
    monkeypatch.setattr(pool, "_CHAIN_BLOCK", 2)


def _states(results):
    return [([out[0] for out in outputs], err) for outputs, err in results]


def test_map_chains_returns_every_step_in_order(four_hand, two_cpus, blocks_of_two):
    results = pool.map_chains(four_hand, _walk, _WALKS)
    # Equal to the in-process run of whole chains.
    assert _states(results) == _states([_walk(four_hand, w)[:2] for w in _WALKS])
    workers = worker_pids()
    assert all(pid in workers for outputs, _ in results for _, pid, _ in outputs)
    # Every chain ran as six blocks of two steps.
    for (_, steps), (outputs, _) in zip(_WALKS, results):
        assert [first for _, _, first in outputs] == [s - s % 2 for s in steps]


def test_map_chains_moves_blocks_between_workers(four_hand, two_cpus, blocks_of_two):
    pool.map_tasks(four_hand, pid_task, range(4))  # both workers forked and up
    results = pool.map_chains(four_hand, _walk, _WALKS)
    # Three chains on two workers: the third one's blocks ran on both.
    assert {pid for _, pid, _ in results[2][0]} == set(worker_pids())


def test_map_chains_never_has_two_blocks_of_a_chain_in_flight(four_hand, two_cpus,
                                                              blocks_of_two, monkeypatch):
    futures = {}  # chain -> futures of its blocks, in submission order
    executor = pool._executor

    class Spy:
        def __init__(self, hand):
            self.executor = executor(hand)

        def submit(self, fn, *args):
            chain = args[1][1][0] // 100
            # Every earlier block of the chain has returned.
            assert all(f.done() for f in futures.setdefault(chain, []))
            futures[chain].append(self.executor.submit(fn, *args))
            return futures[chain][-1]

    monkeypatch.setattr(pool, "_executor", Spy)
    pool.map_chains(four_hand, _walk, _WALKS)
    assert [len(futures[c]) for c in range(3)] == [6, 6, 6]


def test_map_chains_stops_a_chain_at_its_err(four_hand, two_cpus, blocks_of_two):
    # Chain 1 fails at step 7, in its fourth block; chains 0 and 2 finish.
    walks = [(c, steps[:7] + ["fail"] + steps[8:] if c == 1 else steps)
             for c, steps in _WALKS]
    results = pool.map_chains(four_hand, _walk, walks)
    want = [_walk(four_hand, w)[:2] for w in walks]
    assert [states for states, _ in _states(results)] == [
        states for states, _ in _states(want)]
    assert [len(outputs) for outputs, _ in results] == [12, 7, 12]
    err = results[1][1]
    assert isinstance(err, ValueError) and err.args == ("planted failure",)
    assert results[0][1] is None and results[2][1] is None


def test_map_chains_task_exception_keeps_the_pool(four_hand, two_cpus, blocks_of_two):
    pool.map_tasks(four_hand, pid_task, range(4))
    workers = worker_pids()
    walks = [(c, steps[:9] + ["raise"] if c == 2 else steps) for c, steps in _WALKS]
    with pytest.raises(ValueError, match="planted exception"):
        pool.map_chains(four_hand, _walk, walks)
    assert worker_pids() == workers
    assert _states(pool.map_chains(four_hand, _walk, _WALKS)) == _states(
        [_walk(four_hand, w)[:2] for w in _WALKS])


def test_one_cpu_runs_whole_chains_in_process(four_hand, blocks_of_two, monkeypatch):
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0})

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on one CPU")

    monkeypatch.setattr(pool, "ProcessPoolExecutor", no_pool)
    results = pool.map_chains(four_hand, _walk, _WALKS)
    for (_, steps), (outputs, _) in zip(_WALKS, results):
        assert [(pid, first) for _, pid, first in outputs] == [(os.getpid(), steps[0])] * 12


def _nested_walks(hand, task):
    return os.getpid(), pool.map_chains(hand, _walk, _WALKS[:2])


def test_nested_map_chains_run_whole_chains_in_the_worker(four_hand, two_cpus,
                                                          blocks_of_two):
    for pid, results in pool.map_tasks(four_hand, _nested_walks, range(2)):
        assert pid != os.getpid()
        for (_, steps), (outputs, _) in zip(_WALKS, results):
            assert [(p, first) for _, p, first in outputs] == [(pid, steps[0])] * 12


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
