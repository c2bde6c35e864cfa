"""One thread budget for the numeric kernels.

Ranking blocks, margin-loss chunks, the encoder's two graphs and the
optimizer's parameters are independent pieces of work whose results do
not depend on how many threads compute them. thread_count() says how
many threads that is: one per core of the process's CPU affinity, or,
in a worker process of run_grid, that worker's share of the cores.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

# items that touch fewer array elements than this run on the calling
# thread: a hop to a helper thread and back costs a few hundred
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
    times threads stays within the cores."""
    global _process_share
    _process_share = threads


def threads_for(n_items: int, item_size: int) -> int:
    """Threads that thread_map gives n_items items whose largest works
    on item_size array elements."""
    if item_size < MIN_ITEM_SIZE:
        return 1
    return max(1, min(thread_count(), n_items))


def thread_map(fn, items, item_size: int) -> list:
    """[fn(x) for x in items], on up to thread_count() threads.

    item_size is the number of array elements the largest item works
    on; below MIN_ITEM_SIZE the items run on the calling thread. Item i
    runs on thread i % threads, where thread 0 is the calling thread and
    the others are helpers started for this call. One thread means the
    plain loop and no pool. Every item has finished when an exception
    raised by fn reaches the caller.
    """
    items = list(items)
    threads = threads_for(len(items), item_size)
    if threads <= 1:
        return [fn(x) for x in items]
    results = [None] * len(items)

    def share(t):
        for i in range(t, len(items), threads):
            results[i] = fn(items[i])

    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        futures = [pool.submit(share, t) for t in range(1, threads)]
        share(0)  # leaving the block waits for the helpers, also on an exception
    for future in futures:
        future.result()  # re-raises a helper's exception
    return results
