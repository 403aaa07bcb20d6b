"""Row shards on the second core: the persistent worker thread that runs the
second half of a training step (`train.loss_and_grads`) or of a validation
scoring batch (`metrics.perplexity`), and the size from which that pays.
Two threads' float32 products (300 (1024, 64) @ (64, 512) each, as direct
cblas_sgemm calls with the GIL released) ran 1.5-2.3x faster than in turn in
22 of 27 probe rounds on a shared 2-vCPU x86_64 VM and no faster in the other
5, so when the shards do not overlap it is not numpy or the GIL that keeps
them apart."""

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# Rows x sequence length x d_model of one row shard from which a training step
# splits its minibatch into two shards on two threads. Median step, two shards
# vs one, three rounds each on a 2-vCPU x86_64 VM with one OpenBLAS thread
# (2 layers, 2 heads, dropout 0.1, occlusion 0.3): 16x64x64 = 65,536 (the
# ac4 config) 53-55 vs 91-97 ms; 12x64x64 = 49,152 42-48 vs 65-70 ms;
# 8x64x64 = 32,768 32-34 vs 43-46 ms; 8x32x64 = 16,384 23-26 vs 21-24 ms,
# slower; 8x32x32 = 8,192 (the sweep's 1-layer shape) 11 vs 6-8 ms, slower.
SHARD_MIN_SIZE = 32_768

_shard_pool = None
# process-wide, like the malloc setting; applying it twice is harmless
_heap_pages_kept = False


def _keep_heap_pages():
    """Keep freed heap pages in the process (glibc only; elsewhere a no-op).

    Without this the shard worker's malloc arena gives freed pages back to
    the kernel every step and faults them in again: on a 2-vCPU x86_64 VM an
    ac4 step then took ~16,500 minor faults and a 77-81 ms median, against
    ~440 faults and 56-59 ms with it. The setting is process-wide and pays
    on one thread too: a fresh process's 16-row ac4-shape one-shard step took
    a median of 55-57 ms without it and 35-37 ms with it. `run` sets it once,
    on its first call, whether or not a shard worker starts."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: heap, not mmap, below 32 MiB
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: keep up to 1 GiB of free top


@functools.cache
def _blas_threads_query():
    """The thread-count query of the OpenBLAS numpy runs on (numpy's bundled
    scipy-openblas), or None when that library or symbol is missing."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None


def _shard_worker():
    """The one persistent thread that runs shard 1, or None when a second
    thread would not pay: fewer than 2 usable cores, more than one BLAS
    thread, or a caller off the main thread (a sweep --parallel worker).
    The BLAS thread count is the loaded library's: numpy imported before
    occlm loads OpenBLAS with its own count, whatever OPENBLAS_NUM_THREADS
    says afterwards; the variable decides only when the library cannot be
    asked. Which thread runs a shard never changes a number."""
    global _shard_pool
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    query = _blas_threads_query()
    one_blas_thread = (query() == 1 if query is not None
                       else os.environ.get("OPENBLAS_NUM_THREADS") == "1")
    if (cores < 2 or not one_blas_thread
            or threading.current_thread() is not threading.main_thread()):
        return None
    if _shard_pool is None:
        _shard_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="occlm-shard")
    return _shard_pool


def shard_count(x, d_model):
    """2 when half the minibatch x is at least SHARD_MIN_SIZE, else 1."""
    rows, seq = np.shape(x)
    return 2 if (rows // 2) * seq * d_model >= SHARD_MIN_SIZE else 1


def run(fn, n):
    """[fn(0), ..., fn(n - 1)] for n of 1 or 2. With two, fn(1) runs on the
    shard worker when there is one and fn(0) on the caller, and both finish
    before an error from either propagates; without a worker both run in
    turn on the caller."""
    global _heap_pages_kept
    if not _heap_pages_kept:
        _keep_heap_pages()
        _heap_pages_kept = True
    worker = _shard_worker() if n > 1 else None
    if worker is None:
        return [fn(j) for j in range(n)]
    pending = worker.submit(fn, 1)
    try:
        first = fn(0)
    finally:
        wait([pending])
    return [first, pending.result()]
