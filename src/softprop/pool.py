"""Independent work on every CPU this process may use.

Tasks that do not depend on each other (the shares of a training step's
decoder sub-batches and of a CMA-ES generation's candidates, map_tasks)
and chains of steps that each start from the previous one (one finger's
solves for a hand frame, a dataset frame or an open-loop schedule,
map_chains) run in one pool of forked workers per process, one per CPU
this process may use, each pinned to its own CPU and with one BLAS thread.
The pool is kept across calls, so a control step's three warm solves share
both cores without paying for a fork. map_chains cuts long chains into
blocks that any worker may run next, so three open-loop finger chains keep
two workers busy to the end instead of leaving one chain to run alone.
Both maps share one submit-and-collect loop (_run_pooled).
"""

from __future__ import annotations

import ctypes
import os
import signal
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context

# The hand a pool worker was forked with; set only in workers.
_worker_hand = None

# This process's pool and the hand its workers were forked with (see
# _executor).
_pool = None
_pool_hand = None

_PR_SET_PDEATHSIG = 1  # linux/prctl.h

# Most steps of one pooled chain block (see map_chains). A block's result
# carries its frames back before the next block is queued, so short blocks
# let three chains share two workers evenly, and long ones save round trips.
# On the learn benchmark's 75-step walk (paper hand, 2-vCPU x86 host, one
# BLAS thread per worker, a fresh process per walk, 10 rounds), the median
# walk took 583, 547, 571 and 565 ms with blocks of 5, 8, 13 and 25 steps,
# and 669 ms with whole chains. The 6-step walks of the servo and calib
# benchmarks fit one block, so their schedule is unchanged.
_CHAIN_BLOCK = 8


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
    # worker when the thread that forked it exits (a map forks from the
    # caller's thread). A parent that died before prctl is caught by
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
    the next pooled map forks a fresh one."""
    global _pool, _pool_hand
    pool, _pool, _pool_hand = _pool, None, None
    if pool is not None:
        pool.shutdown(cancel_futures=True)


def _workers():
    """How many tasks a map runs at once: one per CPU this process may
    use, or 1 inside a pool worker (whose siblings already hold the other
    CPUs)."""
    return 1 if _worker_hand is not None else len(os.sched_getaffinity(0))


def share_cuts(count):
    """Bounds of one contiguous share of `count` items per task map_tasks
    would run at once here, as even as they come: share k holds items
    cuts[k]:cuts[k + 1]. Never more shares than items: no items, [0]."""
    shares = min(_workers(), count)
    return [count * k // shares for k in range(shares + 1)] if shares else [0]


def _executor(hand):
    """This process's pool, forked on first use and kept while calls pass
    the same hand; another hand shuts it down and forks a new one."""
    global _pool, _pool_hand
    if _pool_hand is not hand:
        _drop_pool()
    if _pool is None:
        context = get_context("fork")
        _pool = ProcessPoolExecutor(_workers(), mp_context=context,
                                    initializer=_start_worker,
                                    initargs=(hand, os.getpid(),
                                              sorted(os.sched_getaffinity(0)),
                                              context.Value("i", 0)))
        _pool_hand = hand
    return _pool


def _run_pooled(hand, fn, tasks, then):
    """Run fn(hand, task) in the pool for every (key, task) of tasks, all
    queued at once. For each result r, then(key, r) returns the (key, task)
    pairs to queue next, at once; returns when no task is left.

    A task's exception stops the queueing: the tasks not yet started are
    cancelled, those already started finish, and the exception of the
    smallest key among them is raised here with its type. The pool stays.
    Any other failure (a broken pool, an interrupt) drops the pool.
    """
    executor = _executor(hand)
    pending, errors = {}, []

    def submit(ready):
        for key, task in ready:
            pending[executor.submit(_run_in_worker, fn, task)] = key

    try:
        submit(tasks)
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                key, err = pending.pop(future), future.exception()
                if err is not None:
                    errors.append((key, err))
                    for other in [f for f in pending if f.cancel()]:
                        del pending[other]
                elif not errors:
                    submit(then(key, future.result()))
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
    except BaseException as err:
        if isinstance(err, BrokenProcessPool) or not isinstance(err, Exception):
            _drop_pool()
        raise


def map_tasks(hand, fn, tasks):
    """[fn(hand, t) for t in tasks], spread over the CPUs this process may use.

    fn must be a module-level function; every task gets the hand, whether
    fn reads it or not.
    The tasks are shares of a training step's decoder sub-batches
    (estimator._decode_share) or of a CMA-ES generation's candidates
    (calibration._score_share); finger solves go through map_chains.
    With one CPU, a single task, or inside a pool worker they run here (see
    _workers). Otherwise they are all queued at once in this process's
    pool: one forked worker per CPU, each pinned to its own CPU and with
    BLAS pinned to one thread; this process stays unpinned. The pool is
    forked on first use and kept while calls pass the same hand; a call
    with another hand shuts it down and forks a new one. Workers inherit
    the hand through fork and keep its solver caches from call to call;
    only fn, the tasks and the results are pickled.
    Results come back in task order, so the output equals the in-process
    run's. The first task exception in task order is raised here with its
    type and the pool stays; any other failure of the map (a broken pool,
    an interrupt) drops the pool. On a normal exit concurrent.futures joins
    the workers; if this process is killed, the kernel kills them (see
    _start_worker).
    """
    tasks = list(tasks)
    if _workers() <= 1 or len(tasks) <= 1:
        return [fn(hand, t) for t in tasks]
    results = [None] * len(tasks)

    def keep(i, result):
        results[i] = result
        return ()

    _run_pooled(hand, fn, enumerate(tasks), keep)
    return results


def map_chains(hand, fn, chains):
    """[fn(hand, c)[:2] for c in chains], with each chain's steps cut into
    blocks that move between the CPUs this process may use.

    A chain is (state, steps): steps is a list, state what its first step
    starts from. fn(hand, (state, steps)) must run the steps in order and
    return (outputs, err, end): one output per step run, err None or the
    error that stopped the steps (those after it did not run), and end the
    state the step after the last one would start from. fn must be a
    module-level function (simulator._solve_finger_chain).
    With one CPU, a single chain, or inside a pool worker, whole chains run
    here (see _workers). Otherwise each chain is cut into blocks of at most
    _CHAIN_BLOCK steps, run in the pool (see map_tasks). Every chain's first
    block is queued at once; a block is queued as soon as its chain's
    previous block returns, and starts from that block's end state. So a
    chain never has two blocks in flight, and the pool's FIFO queue
    interleaves the chains on all workers: three chains on two workers
    take about 1.5 chains' time instead of 2. Every step runs the same fn
    from the same state as in-process, so the outputs are equal.
    Returns (outputs, err) per chain, in chain order: the outputs of all
    blocks run, in step order, and the err that stopped the chain (its
    later blocks are not run). A task exception is raised here, the lowest
    chain's if several raised, and the pool stays; other failures are
    handled as in map_tasks.
    """
    chains = list(chains)
    if _workers() <= 1 or len(chains) <= 1:
        return [fn(hand, chain)[:2] for chain in chains]
    outputs, errs = [[] for _ in chains], [None] * len(chains)

    def block(c, start, state):
        """Chain c's block of steps from start on, none past its end."""
        steps = chains[c][1][start : start + _CHAIN_BLOCK]
        return [((c, start), (state, steps))] if steps else []

    def extend(key, result):
        (c, start), (done, errs[c], end) = key, result
        outputs[c] += done
        return block(c, start + _CHAIN_BLOCK, end) if errs[c] is None else []

    _run_pooled(hand, fn, [b for c, (state, _) in enumerate(chains)
                           for b in block(c, 0, state)], extend)
    return list(zip(outputs, errs))
