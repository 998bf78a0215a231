"""Worker counts and worker processes, shared by the PUF sweep and the table.

Both size their workers by the CPUs this process may run on, so ``taskset``
limits them alike.  Nothing here imports numpy, and ``multiprocessing`` is
imported only when a pool is made.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), else all of the machine's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fork_pool(processes: int):
    """A ProcessPoolExecutor of `processes` forked workers, or None for fewer than
    two processes or where ``fork`` is not available.

    The workers are forked at the first submit, so a pool that is never
    used starts no process.  Being forked, they hold the parent's modules as
    they stand then: a submitted module-level function that looks a name up
    at call time finds what the parent put there, picklable or not.  An
    exception in a worker is re-raised by its future with its own type, and
    a worker that dies fails the pending futures with BrokenProcessPool.
    Workers ignore SIGINT; pass the pool to `stop` on every exit path.
    """
    if processes < 2:
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        processes, mp_context=multiprocessing.get_context("fork"), initializer=_ignore_sigint
    )


def stop(pool) -> None:
    """Terminate the pool's workers, running or idle, and join them and its threads."""
    # _processes is the pool's own map of its workers (Python 3.14 adds
    # terminate_workers() for this); it is empty until the first submit.
    for process in list(pool._processes.values()):
        process.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


def _ignore_sigint() -> None:
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
