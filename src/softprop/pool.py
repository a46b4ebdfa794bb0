"""Independent work on every CPU this process may use.

Tasks that do not depend on each other (finger chains: one finger's
solves for a hand frame, a dataset frame or an open-loop schedule; the
shares of a training step's decoder sub-batches and of a CMA-ES
generation's candidates) run in one pool of forked workers per process,
one per CPU this process may use, each pinned to its own CPU and with one
BLAS thread. The pool is kept across calls, so a control step's three warm
solves share both cores without paying for a fork.
"""

from __future__ import annotations

import ctypes
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context

# The hand a pool worker was forked with; set only in workers.
_worker_hand = None

# This process's pool and the hand its workers were forked with (see
# map_tasks).
_pool = None
_pool_hand = None

_PR_SET_PDEATHSIG = 1  # linux/prctl.h


def _openblas_functions(action):
    """One ctypes function `action` (e.g. "set_num_threads") per OpenBLAS
    library mapped into this process. numpy and scipy each bundle their
    own copy, under different symbol prefixes."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({
            parts[5] for parts in (line.rstrip("\n").split(maxsplit=5) for line in maps)
            if len(parts) == 6 and "openblas" in os.path.basename(parts[5])
        })
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in (f"openblas_{action}", f"scipy_openblas_{action}",
                     f"scipy_openblas_{action}64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                found.append(fn)
                break
    return found


def _start_worker(hand, parent_pid, cpus, next_cpu):
    global _worker_hand
    _worker_hand = hand
    # The pool outlives single calls, so a parent killed without running its
    # exit hooks must not leave idle workers behind: the kernel kills each
    # worker when the thread that forked it exits (map_tasks forks from
    # the caller's thread). A parent that died before prctl is caught by
    # the parent-pid check.
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent_pid:
        os._exit(1)
    # One BLAS thread per worker: with two workers of two OpenBLAS threads
    # each on two cores, a dataset frame took 1.4-2.0 s against 0.7-0.9 s
    # serial.
    for set_threads in _openblas_functions("set_num_threads"):
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
    # One CPU per worker, each the next of the parent's allowed CPUs. Left
    # to the scheduler, a pool's workers sometimes shared one core, and a
    # CMA-ES generation's shares then ran one after the other.
    with next_cpu.get_lock():
        cpu = cpus[next_cpu.value % len(cpus)]
        next_cpu.value += 1
    os.sched_setaffinity(0, {cpu})


def _run_in_worker(fn, task):
    return fn(_worker_hand, task)


def _drop_pool():
    """Shut this process's pool down, cancelling the tasks not yet started;
    the next map_tasks forks a fresh one."""
    global _pool, _pool_hand
    pool, _pool, _pool_hand = _pool, None, None
    if pool is not None:
        pool.shutdown(cancel_futures=True)


def _workers():
    """How many tasks map_tasks runs at once: one per CPU this process may
    use, or 1 inside a pool worker (whose siblings already hold the other
    CPUs)."""
    return 1 if _worker_hand is not None else len(os.sched_getaffinity(0))


def share_cuts(count):
    """Bounds of one contiguous share of `count` items per task map_tasks
    would run at once here, as even as they come: share k holds items
    cuts[k]:cuts[k + 1]. Never more shares than items: no items, [0]."""
    shares = min(_workers(), count)
    return [count * k // shares for k in range(shares + 1)] if shares else [0]


def map_tasks(hand, fn, tasks):
    """[fn(hand, t) for t in tasks], spread over the CPUs this process may use.

    fn must be a module-level function; every task gets the hand, whether
    fn reads it or not.
    The tasks are finger chains (simulator._solve_finger_chain), shares of
    a training step's decoder sub-batches (estimator._forward_backward) or
    shares of a CMA-ES generation's candidates (calibration.align_domains).
    With one CPU, a single task, or inside a pool worker they run here (see
    _workers). Otherwise they run in this process's pool: one forked worker
    per CPU, each pinned to its own CPU and with BLAS pinned to one thread;
    this process stays unpinned. The pool is forked on first use and kept
    while calls pass the same hand; a call with another hand shuts it down
    and forks a new one. Workers inherit the hand through fork and keep its
    solver caches from call to call; only fn, the tasks and the results are
    pickled.
    Results come back in task order, so the output equals the in-process
    run's. A task's exception is raised here with its type and the pool
    stays; any other failure of the map (a broken pool, an interrupt)
    drops the pool. On a normal exit concurrent.futures joins the workers;
    if this process is killed, the kernel kills them (see _start_worker).
    """
    global _pool, _pool_hand
    tasks = list(tasks)
    workers = _workers()
    if workers <= 1 or len(tasks) <= 1:
        return [fn(hand, t) for t in tasks]
    if _pool_hand is not hand:
        _drop_pool()
    if _pool is None:
        context = get_context("fork")
        _pool = ProcessPoolExecutor(workers, mp_context=context,
                                    initializer=_start_worker,
                                    initargs=(hand, os.getpid(),
                                              sorted(os.sched_getaffinity(0)),
                                              context.Value("i", 0)))
        _pool_hand = hand
    try:
        return list(_pool.map(_run_in_worker, [fn] * len(tasks), tasks))
    except BaseException as err:
        if isinstance(err, BrokenProcessPool) or not isinstance(err, Exception):
            _drop_pool()
        raise
