"""Fixtures shared by the test modules."""

import ctypes
import os

import pytest

from softprop import simulator


@pytest.fixture
def two_cpus(monkeypatch):
    # The pool runs whenever two CPUs are allowed, even on a one-core host.
    # Workers fork with whatever the test patched, so the pool is dropped
    # before the test and after it: no test inherits another's workers.
    # Workers pin themselves to CPUs 0 and 1; where this process may not
    # use both, the pin is a no-op and the workers stay unpinned.
    if not {0, 1} <= os.sched_getaffinity(0):
        monkeypatch.setattr(simulator.os, "sched_setaffinity", lambda pid, cpus: None)
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1})
    simulator._drop_pool()
    yield
    simulator._drop_pool()


@pytest.fixture
def one_cpu(monkeypatch):
    # Every map runs in the test's process, where spies and tracemalloc see it.
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0})
    simulator._drop_pool()


@pytest.fixture
def one_blas_thread():
    # Pool workers run one BLAS thread, and OpenBLAS products can round
    # differently on more threads, so runs compared with pooled ones use one
    # throughout.
    setters = simulator._openblas_functions("set_num_threads")
    counts = [get() for get in simulator._openblas_functions("get_num_threads")]
    for set_threads in setters:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
    yield
    for set_threads, count in zip(setters, counts):
        set_threads(count)
