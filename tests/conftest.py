"""Fixtures and pool helpers shared by the test modules."""

import ctypes
import multiprocessing
import os

import pytest

from softprop import pool


def worker_pids():
    """Sorted pids of this process's live pool workers."""
    return sorted(p.pid for p in multiprocessing.active_children())


def pid_task(hand, task):
    """A map_tasks task: the pid that ran it and the id of the hand it got."""
    return os.getpid(), id(hand)


def assert_served_by(results, hand, workers):
    # Workers inherit the hand through fork: same object, same address.
    assert {pid for pid, _ in results} <= set(workers)
    assert all(hand_id == id(hand) for _, hand_id in results)


@pytest.fixture
def two_cpus(monkeypatch):
    # The pool runs whenever two CPUs are allowed, even on a one-core host.
    # Workers fork with whatever the test patched, so the pool is dropped
    # before the test and after it: no test inherits another's workers.
    # Workers pin themselves to CPUs 0 and 1; where this process may not
    # use both, the pin is a no-op and the workers stay unpinned.
    if not {0, 1} <= os.sched_getaffinity(0):
        monkeypatch.setattr(pool.os, "sched_setaffinity", lambda pid, cpus: None)
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0, 1})
    pool._drop_pool()
    yield
    pool._drop_pool()


@pytest.fixture
def one_cpu(monkeypatch):
    # Every map runs in the test's process, where spies and tracemalloc see it.
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0})
    pool._drop_pool()


@pytest.fixture
def one_blas_thread():
    # Pool workers run one BLAS thread, and OpenBLAS products can round
    # differently on more threads, so runs compared with pooled ones use one
    # throughout.
    setters = pool._openblas_functions("set_num_threads")
    counts = [get() for get in pool._openblas_functions("get_num_threads")]
    for set_threads in setters:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
    yield
    for set_threads, count in zip(setters, counts):
        set_threads(count)
