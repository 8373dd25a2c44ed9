"""Spark counting fan-out == local kernel; Spark-counted decomposition
matches the reference."""
import numpy as np
import pytest

from repro.cliques.listing import s_counts_per_r_clique
from repro.cliques.spark_count import spark_s_counts
from repro.graphs.csr import build_csr, orient_csr
from repro.graphs.gen import rmat
from repro.graphs.orient import make_rank
from repro.nucleus.decomp import DecompConfig, nucleus_decomposition
from repro.nucleus.reference import reference_nucleus

from .fixtures import FIG1_EDGES, SMALL_GRAPHS


def _dg(edges):
    und = build_csr(edges)
    return und, orient_csr(und, make_rank(und, "degeneracy"))


@pytest.mark.parametrize("r,s", [(2, 3), (3, 4), (2, 4)])
def test_spark_counts_match_local_fig1(spark, r, s):
    _, dg = _dg(FIG1_EDGES)
    vmat, cnts = spark_s_counts(spark, dg, r, s, n_slices=4)
    local_vmat, local_cnts = s_counts_per_r_clique(dg, r, s)
    assert np.array_equal(vmat, local_vmat) and np.array_equal(cnts, local_cnts)


def test_spark_counts_match_local_rmat(spark):
    _, dg = _dg(rmat(8, 900, seed=23))
    vmat, cnts = spark_s_counts(spark, dg, 2, 3, n_slices=8)
    local_vmat, local_cnts = s_counts_per_r_clique(dg, 2, 3)
    assert np.array_equal(vmat, local_vmat) and np.array_equal(cnts, local_cnts)


@pytest.mark.parametrize("name,r,s", [("fig1", 3, 4), ("er30", 2, 3)])
def test_decomp_with_spark_counting(spark, name, r, s):
    cfg = DecompConfig(counting="spark", spark_slices=4)
    res = nucleus_decomposition(SMALL_GRAPHS[name], r, s, cfg, spark=spark)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)


def test_spark_counts_empty_graph(spark):
    und = build_csr(np.array([(0, 1), (2, 3)]), n=4)
    dg = orient_csr(und, np.arange(4))
    vmat, cnts = spark_s_counts(spark, dg, 2, 3, n_slices=2)
    # two disjoint edges: both are 2-cliques with zero incident triangles
    assert len(vmat) == 2 and (cnts == 0).all()
