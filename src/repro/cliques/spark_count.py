"""Spark fan-out of the s-clique counting phase.

The outer loop of REC-LIST-CLIQUES (Algorithm 1 line 7 at the top level)
is embarrassingly parallel over root vertices. The oriented CSR is
broadcast to executors and each partition of an RDD of slice numbers,
one per worker (``defaultParallelism``), runs the local counting kernel
over its range of roots and yields its partial counts as numpy arrays:
one stage, no shuffle, no DataFrame or Arrow conversion. The kernel
decides the partials' form (``count_partials``) and the driver sums
them with the kernel's one merge (``merge_counts``), the one local
counting ends in too, so nothing here branches on r.

Each task drops the cached zip finders that PySpark's next task would
otherwise re-read (``_drop_zip_finders``). The CSR is broadcast once per
call and destroyed after the collect. Only its arrays travel: each task
builds DG's arc map (``CSR.arc_set``) from them on first use.
"""
from __future__ import annotations

import operator
import sys
import zipimport

import numpy as np
from pyspark.sql import SparkSession

from ..graphs.csr import CSR
from ..instrument import Counters
from .listing import count_partials, merge_counts

__all__ = ["spark_s_counts"]


def _drop_zip_finders() -> None:
    """Delete every ``zipimporter`` from ``sys.path_importer_cache``.

    PySpark's worker calls ``importlib.invalidate_caches()`` before each
    task. On CPython 3.11 that makes every cached ``zipimporter`` re-read
    its archive's whole central directory: a reused worker holds about
    16 of them, over ``pyspark.zip`` (1,328 entries) and the spark-core
    jar (5,359 entries), measured at 0.21-0.26 s per task (quartiles)
    with 4 workers on a 4-core box, and 0.07 ms after this trim. With
    the entries gone the next invalidate has nothing to re-read, and
    ``PathFinder`` rebuilds an entry on demand from zipimport's
    directory cache. On interpreters where the invalidate is cheap this
    costs nothing.
    """
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def spark_s_counts(
    spark: SparkSession,
    dg: CSR,
    r: int,
    s: int,
    *,
    n_slices: int | None = None,
    counters: Counters | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Distributed s-clique counts per r-clique over the oriented graph.

    Returns (vmat, counts): lexicographically sorted (n_r, r) vertex
    matrix and the aligned int64 counts — identical, dtype included, to
    local counting, ``s_counts_per_r_clique`` (tested equal). Slice i
    of ``n_slices`` (default: the session's ``defaultParallelism``)
    counts the roots ``[i*n//slices, (i+1)*n//slices)``. The kernel's
    work, summed over slices, is added to ``counters.work``.
    """
    sc = spark.sparkContext
    try:
        n_slices = operator.index(sc.defaultParallelism if n_slices is None else n_slices)
    except TypeError:
        raise ValueError(f"n_slices must be an integer, got {n_slices!r}") from None
    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    bc = sc.broadcast((dg.n, dg.offsets, dg.nbrs, dg.rank))
    n = dg.n
    slices = min(n_slices, max(1, n))

    def count_slice(i, _):
        task_counters = Counters()
        roots = np.arange(i * n // slices, (i + 1) * n // slices)
        part = count_partials(CSR(*bc.value), r, s, roots, task_counters)
        _drop_zip_finders()
        yield part, task_counters.work

    parts = sc.parallelize(range(slices), slices).mapPartitionsWithIndex(count_slice).collect()
    bc.destroy()
    if counters is not None:
        counters.work += sum(work for _, work in parts)
    return merge_counts(dg, r, [part for part, _ in parts])
