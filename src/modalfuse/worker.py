"""The one worker thread that runs numpy and zlib jobs beside the main thread.

``backbone`` gives it product halves and AdamW halves, ``cli`` the model's
draws and ``store`` the CRCs of large records. Every job computes the bits
the main thread would, so a run gives the same outputs on one CPU or two.
"""

from __future__ import annotations

import os

_worker = None   # the executor of the one worker thread, made on first use


def _two_cpus() -> bool:
    """Whether the process may use at least 2 CPUs."""
    return len(os.sched_getaffinity(0)) >= 2


def _beside(work: int, least: int, job, *args):
    """``job(*args)`` on the worker thread, as a Future to join, when ``work`` reaches
    ``least`` and the process may use 2 CPUs; else run here, and None.

    Jobs call numpy or zlib only, never a modalfuse function or method: the
    benchmark's tracer keeps one span stack. A product is split only into
    column halves whose every half has at least ``backbone._SPLIT_MACS``
    multiply-adds: OpenBLAS computes each block of output columns from the
    same packed panels of the left factor, so an element sums its k terms in
    the same order in a half as in the whole. Smaller halves can fall into
    its small-matrix or gemv kernels, whose sums round apart.
    """
    global _worker
    if work < least or not _two_cpus():
        job(*args)
        return None
    if _worker is None:   # imported here: a run that never hands off loads nothing
        from concurrent.futures import ThreadPoolExecutor
        _worker = ThreadPoolExecutor(1, "modalfuse")
    return _worker.submit(job, *args)
