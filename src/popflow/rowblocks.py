"""The row blocks of the surrogate block pass (``pipeline``) of ``popf`` and
``compare``, on one thread per BLAS thread team that fits on the usable cores.

Rows are cut into blocks of ``BLOCK_ROWS`` from row 0, whatever the worker
count; each block's work writes only that block's rows of an output its
caller allocated, and its result comes back in block order, so every bit is
independent of the number of workers and of the order the blocks run in.
Work that must run in block order (``popf`` drawing each block's normals
from sequential streams) goes in a ``prepare`` step on the calling thread,
with a bounded number of blocks in flight. One worker, or a single block,
runs the work inline on the calling thread.

The work is BLAS matrix products: a multi-threaded BLAS already spreads
each product over the cores, and products issued from several threads at
once contend for the same BLAS threads and run slower than one at a time.

The block work must not call the functions a tracer may wrap (the public
layer entry points such as ``pipeline.infer``); it calls private helpers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

# a multiple of pipeline.INFER_CHUNK (512), so no block splits an inference chunk
BLOCK_ROWS = 4096

# read by OpenBLAS and MKL when they load, in this order of precedence; unset,
# they run one thread per usable core
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads the BLAS library gives one matrix product."""
    for name in _BLAS_THREAD_VARIABLES:
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return _usable_cores()


def workers(n_rows: int) -> int:
    """Threads ``for_each_block`` uses for ``n_rows`` rows: one per BLAS
    thread team that fits on the usable cores, but no more than there are
    blocks."""
    return max(1, min(_usable_cores() // _blas_threads(), -(-n_rows // BLOCK_ROWS)))


def for_each_block(n_rows: int, work, prepare=None) -> list:
    """``work(start, stop)`` for every block of rows ``[start, stop)``, the
    results in block order.

    With ``prepare``, each block's work is ``work(start, stop, prepare(start,
    stop))``, and ``prepare`` runs on the calling thread, block after block
    in block order, while at most two blocks per worker wait or run (one
    would leave a worker idle whenever a later block ends before an earlier
    one): what it returns is held for that many blocks plus the one being
    prepared.

    An exception raised by a block or by ``prepare`` reaches the caller as it
    was raised; blocks not yet prepared never start.
    """
    blocks = [(start, min(start + BLOCK_ROWS, n_rows)) for start in range(0, n_rows, BLOCK_ROWS)]
    if prepare is not None:
        blocks = ((start, stop, prepare(start, stop)) for start, stop in blocks)
    n_workers = workers(n_rows)
    if n_workers == 1:
        return [work(*block) for block in blocks]
    results, running = [], []
    with ThreadPoolExecutor(n_workers, thread_name_prefix="popflow-rows") as pool:
        for block in blocks:
            if len(running) == 2 * n_workers:
                results.append(running.pop(0).result())
            running.append(pool.submit(work, *block))
        results.extend(future.result() for future in running)
    return results
