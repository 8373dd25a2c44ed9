"""Spark fan-out of the s-clique counting phase.

The outer loop of REC-LIST-CLIQUES (Algorithm 1 line 7 at the top
level) is embarrassingly parallel over root vertices. We broadcast the
oriented CSR to executors, partition the root-vertex range, run the
local counting kernel on each batch of roots inside ``mapInPandas``,
and merge partial per-r-clique counts with a DataFrame
``groupBy().sum()`` — the Spark analogue of the paper's parallel
hash-table aggregation (COUNT-FUNC's atomic adds).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from ..graphs.csr import CSR
from .listing import s_counts_per_r_clique

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
    matrix and the aligned float counts — identical to the local kernel
    ``s_counts_per_r_clique`` (tested equal).
    """
    bc = spark.sparkContext.broadcast((dg.n, dg.offsets, dg.nbrs))
    schema = StructType(
        [StructField(f"v{i}", LongType()) for i in range(r)]
        + [StructField("cnt", DoubleType())]
    )

    def count_partition(batches):
        n_, offsets, nbrs = bc.value
        csr = CSR(n_, offsets, nbrs)
        for pdf in batches:
            vm, cnts = s_counts_per_r_clique(csr, r, s, roots=pdf["v"].to_numpy())
            if len(vm):
                out = pd.DataFrame({f"v{i}": vm[:, i] for i in range(r)})
                out["cnt"] = cnts
                yield out

    roots_df = spark.createDataFrame(
        pd.DataFrame({"v": np.arange(dg.n, dtype=np.int64)})
    ).repartition(min(n_slices, max(1, dg.n)))
    vcols = [f"v{i}" for i in range(r)]
    agg = (
        roots_df.mapInPandas(count_partition, schema)
        .groupBy(vcols)
        .agg(F.sum("cnt").alias("cnt"))
    )
    pdf = agg.toPandas()
    if len(pdf) == 0:
        return np.empty((0, r), dtype=np.int64), np.empty(0, dtype=np.float64)
    vmat = pdf[vcols].to_numpy(dtype=np.int64)
    cnts = pdf["cnt"].to_numpy(dtype=np.float64)
    order = np.lexsort(tuple(vmat[:, j] for j in range(r - 1, -1, -1)))
    return vmat[order], cnts[order]
