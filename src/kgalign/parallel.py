"""One thread budget for the numeric kernels.

Ranking blocks, margin-loss chunks, the encoder's column blocks of both
graphs and the optimizer's parameter blocks are independent items whose
results do not depend on how many threads compute them. thread_map
alone shares a kernel's items out to the threads, by the array elements
that all of them touch together, and hands each thread the scratch
buffers the kernel asks for. thread_count() says how many threads there
are: one per core of the process's CPU affinity, or, in a worker
process of run_grid, that worker's share.

Those threads are what fill the cores, so BLAS runs on one thread of
its own inside them: thread_map sets OpenBLAS's process-wide thread
count to 1 while its items run and restores the caller's count after.
Every BLAS call kgalign makes (the weight products of weighted runs) is
inside a thread_map item, so no core count, worker count or caller
setting can change a bit of a weighted run. Where numpy's BLAS exports
no OpenBLAS thread-count calls (MKL, Accelerate) there is no pin, and
weighted bits may follow that library's own threads.

That pin is one of the two process-wide native settings this module
owns. The other, set once in each of run_grid's one-thread worker
processes and never in the caller's, is glibc's allocator thresholds:
pinned high, a worker's later runs reuse the heap its earlier runs
freed.
"""
from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# items that touch fewer array elements than this together run on the
# calling thread: a hop to a helper thread and back costs a few hundred
# microseconds, more than numpy spends on that many elements
MIN_ITEM_SIZE = 1 << 16
# the thread share of a run_grid worker process; None in any other process
_process_share: int | None = None


def thread_count() -> int:
    """Threads a kernel may use in this process: its share under
    run_grid, else the cores in its CPU affinity (`taskset` narrows it),
    else, where the platform has no affinity call, its CPU count."""
    if _process_share is not None:
        return _process_share
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # the affinity call is absent on macOS and Windows


def set_process_share(threads: int) -> None:
    """Pool initializer of run_grid's worker processes, so that workers
    times threads stays within the cores. A one-thread worker also pins
    its allocator thresholds: one of more threads runs kernels on helper
    threads, each allocating in its own malloc arena, and pinned
    thresholds keep those arenas full (a zh-en-scale grid's two-thread
    workers peaked 17% higher)."""
    global _process_share
    _process_share = threads
    if threads == 1:
        _pin_malloc_thresholds()


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for the rest of the process.

    Left dynamic, they follow the size of the arrays a run frees, so
    each epoch hands arrays back to the kernel and faults them in again.
    Once set they stay: mallopt has no getter, so only run_grid's
    one-thread workers call this. Does nothing where libc has no
    mallopt (macOS, Windows) or refuses the call (musl returns 0).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: CDLL(None) on Windows
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # M_MMAP_THRESHOLD at its ceiling on 64-bit glibc, then
    # M_TRIM_THRESHOLD at twice it, the ratio glibc's own heuristic keeps
    for param, value in ((-3, 32 << 20), (-1, 64 << 20)):
        if mallopt(param, value) == 0:
            return


# OpenBLAS's (get, set) thread-count calls: None until first use, () where
# numpy's BLAS exports neither
_blas_calls: tuple | None = None
# names of the pair with and without the 64-bit-integer suffix of
# numpy's bundled OpenBLAS, and as a system OpenBLAS exports them
_BLAS_NAMES = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")
)
_blas_lock = threading.Lock()
_blas_depth = 0  # callers inside one_blas_thread
_blas_saved = 0  # the count to restore when the last of them leaves


def _find_blas_calls() -> tuple:
    """OpenBLAS's thread-count calls, looked up through numpy's own
    extension module, which links the BLAS that numpy's products call."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return ()
    for get_name, set_name in _BLAS_NAMES:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return ()


@contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore the count
    that was set before, also when the body raises. The count is global
    to the process, so callers on several threads share one pin: the
    first to enter sets it and the last to leave restores it. Does
    nothing where numpy's BLAS is not OpenBLAS."""
    global _blas_calls, _blas_depth, _blas_saved
    with _blas_lock:
        if _blas_calls is None:
            _blas_calls = _find_blas_calls()
        if _blas_calls and _blas_depth == 0:
            _blas_saved = _blas_calls[0]()
            _blas_calls[1](1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_calls and _blas_depth == 0:
                _blas_calls[1](_blas_saved)


def thread_map(fn, items, work: int, scratch=None) -> list:
    """[fn(x) for x in items], on up to thread_count() threads.

    work is the number of array elements that all the items touch
    together; below MIN_ITEM_SIZE the items run on the calling thread.
    Item i runs on thread i % threads, where thread 0 is the calling
    thread and the others are helpers started for this call: an item
    allocates in its thread's malloc arena, and with every item on
    helpers (a plain ThreadPoolExecutor.map) train-zh-en's peak RSS on a
    2-core VM rose from 438-443 to 500-508 MB over 3 alternating runs.
    scratch, when given, is called once per thread, on the calling
    thread, and each item runs as fn(x, s) with its thread's s, so that
    the helpers allocate nothing. One thread means the plain loop and no
    pool. Every item has finished when an exception raised by fn reaches
    the caller. On any number of threads, the items run under
    one_blas_thread.
    """
    items = list(items)
    threads = 1 if work < MIN_ITEM_SIZE else max(1, min(thread_count(), len(items)))
    spaces = [() if scratch is None else (scratch(),) for _ in range(threads)]
    results = [None] * len(items)

    def share(t):
        for i in range(t, len(items), threads):
            results[i] = fn(items[i], *spaces[t])

    with one_blas_thread():
        if threads == 1:
            share(0)
            return results
        with ThreadPoolExecutor(max_workers=threads - 1) as pool:
            futures = [pool.submit(share, t) for t in range(1, threads)]
            share(0)  # leaving the block waits for the helpers, also on an exception
    for future in futures:
        future.result()  # re-raises a helper's exception
    return results
