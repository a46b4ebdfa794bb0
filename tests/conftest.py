"""Fixtures shared by the test modules."""

import pytest

from softprop import simulator


@pytest.fixture
def two_cpus(monkeypatch):
    # The pool runs whenever two CPUs are allowed, even on a one-core host.
    # Workers fork with whatever the test patched, so the pool is dropped
    # before the test and after it: no test inherits another's workers.
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1})
    simulator._drop_pool()
    yield
    simulator._drop_pool()
