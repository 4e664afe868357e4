"""The one worker thread that runs numpy jobs beside the main thread.

``backbone`` gives it product halves, weight-gradient products, AdamW halves
and the model's draws, all through ``_beside``. Every job computes the bits
the main thread would, so a run gives the same outputs on one CPU or two.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

_worker = None   # the executor of the one worker thread, made on first use


def _beside(work: int, least: int, job, *args):
    """``job(*args)``, on the worker thread when ``work`` reaches ``least`` and the
    process may use 2 CPUs, else here; either way, a handle whose ``result()``
    joins the job and returns its value.

    Jobs call numpy only, never a modalfuse function or method: the
    benchmark's tracer keeps one span stack. A product is split only into
    column halves whose every half has at least ``backbone._SPLIT_MACS``
    multiply-adds: OpenBLAS computes each block of output columns from the
    same packed panels of the left factor, so an element sums its k terms in
    the same order in a half as in the whole. Smaller halves can fall into
    its small-matrix or gemv kernels, whose sums round apart.
    """
    global _worker
    if work < least or len(os.sched_getaffinity(0)) < 2:
        value = job(*args)
        return SimpleNamespace(result=lambda: value)
    if _worker is None:   # imported here: a run that never hands off loads nothing
        from concurrent.futures import ThreadPoolExecutor
        _worker = ThreadPoolExecutor(1, "modalfuse")
    return _worker.submit(job, *args)
