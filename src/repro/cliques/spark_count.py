"""Spark fan-out of the s-clique counting phase.

The outer loop of REC-LIST-CLIQUES (Algorithm 1 line 7 at the top
level) is embarrassingly parallel over root vertices. The oriented CSR
is broadcast to executors and each partition of ``spark.range(n)``
runs the local counting kernel over its roots inside ``mapInPandas``:
one stage, no shuffle. The driver collects the partial counts and
merges them with ``sum_by_row``, the row-rank sum the local kernel
uses to merge its chunks.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from ..graphs.csr import CSR
from .listing import s_counts_per_r_clique, sum_by_row

__all__ = ["spark_s_counts"]


def spark_s_counts(
    spark: SparkSession,
    dg: CSR,
    r: int,
    s: int,
    *,
    n_slices: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Distributed s-clique counts per r-clique over the oriented graph.

    Returns (vmat, counts): lexicographically sorted (n_r, r) vertex
    matrix and the aligned int64 counts — identical, dtype included, to
    the local kernel ``s_counts_per_r_clique`` (tested equal).
    """
    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    bc = spark.sparkContext.broadcast((dg.n, dg.offsets, dg.nbrs))
    vcols = [f"v{i}" for i in range(r)]
    schema = StructType([StructField(c, LongType()) for c in [*vcols, "cnt"]])

    def count_partition(batches):
        csr = CSR(*bc.value)
        for pdf in batches:
            vm, cnts = s_counts_per_r_clique(csr, r, s, roots=pdf["id"])
            out = pd.DataFrame(vm, columns=vcols)
            out["cnt"] = cnts
            yield out

    roots = spark.range(dg.n, numPartitions=min(n_slices, max(1, dg.n)))
    pdf = roots.mapInPandas(count_partition, schema).toPandas()
    vmat, cnts = pdf[vcols].to_numpy(dtype=np.int64), pdf["cnt"].to_numpy(dtype=np.int64)
    return sum_by_row(vmat, cnts, dg.n)
