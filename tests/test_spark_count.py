"""Spark counting fan-out == local kernel; Spark-counted decomposition
matches the reference."""
import re
import sys
import zipfile
import zipimport
from dataclasses import asdict

import numpy as np
import pandas as pd
import pytest

from repro.cliques import spark_count
from repro.cliques.listing import s_counts_per_r_clique
from repro.cliques.spark_count import spark_s_counts
from repro.experiments import _best_config
from repro.graphs.csr import build_csr, orient_csr
from repro.graphs.gen import rmat
from repro.graphs.orient import make_rank
from repro.nucleus.decomp import nucleus_decomposition
from repro.nucleus.reference import reference_nucleus
from repro.oracle import assert_equivalent

from .fixtures import FIG1_EDGES, SMALL_GRAPHS


def _dg(edges):
    und = build_csr(edges)
    return und, orient_csr(und, make_rank(und))


# 64 slices are more than fig1's 7 vertices. The 4-slice cases keep
# their "r-s" IDs; the others add "@slices".
FIG1_CASES = [
    (r, s, k) for r, s in [(1, 2), (2, 3), (3, 4), (2, 4), (2, 5)] for k in (1, 3, 4, 64)
]


@pytest.mark.parametrize(
    "r,s,n_slices",
    FIG1_CASES,
    ids=[f"{r}-{s}" if k == 4 else f"{r}-{s}@{k}" for r, s, k in FIG1_CASES],
)
def test_spark_counts_match_local_fig1(spark, r, s, n_slices):
    _, dg = _dg(FIG1_EDGES)
    vmat, cnts = spark_s_counts(spark, dg, r, s, n_slices=n_slices)
    local_vmat, local_cnts = s_counts_per_r_clique(dg, r, s)
    assert np.array_equal(vmat, local_vmat) and np.array_equal(cnts, local_cnts)
    assert cnts.dtype == local_cnts.dtype == np.int64


def test_spark_counts_match_local_rmat(spark):
    _, dg = _dg(rmat(8, 900, seed=23))
    vmat, cnts = spark_s_counts(spark, dg, 2, 3, n_slices=8)
    local_vmat, local_cnts = s_counts_per_r_clique(dg, 2, 3)
    assert np.array_equal(vmat, local_vmat) and np.array_equal(cnts, local_cnts)
    assert cnts.dtype == local_cnts.dtype == np.int64


@pytest.mark.parametrize("n_slices", [0, -1])
def test_spark_counts_reject_bad_slices(spark, n_slices):
    _, dg = _dg(FIG1_EDGES)
    with pytest.raises(ValueError, match=f"n_slices must be >= 1, got {n_slices}"):
        spark_s_counts(spark, dg, 2, 3, n_slices=n_slices)


@pytest.mark.parametrize("n_slices", [2.5, "4"], ids=["float", "str"])
def test_spark_counts_reject_non_integer_slices(spark, n_slices):
    _, dg = _dg(FIG1_EDGES)
    with pytest.raises(ValueError, match=re.escape(f"n_slices must be an integer, got {n_slices!r}")):
        spark_s_counts(spark, dg, 2, 3, n_slices=n_slices)


def _in_job_group(spark, group, fn):
    """(fn(), completed tasks of each stage of each job fn ran)."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()  # job and task events are delivered
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = [tracker.getJobInfo(j).stageIds for j in jobs]
    return out, [[tracker.getStageInfo(sid).numCompletedTasks for sid in job] for job in stages]


def test_spark_counts_run_one_stage(spark):
    """One job of one stage with one task per slice: each task counts one
    root range of an RDD of slice numbers, and the partials are merged on
    the driver, not shuffled."""
    _, dg = _dg(rmat(8, 900, seed=23))
    _, tasks = _in_job_group(spark, "one-stage", lambda: spark_s_counts(spark, dg, 2, 3, n_slices=4))
    assert tasks == [[4]]


@pytest.mark.parametrize("r,s", [(3, 4), (2, 3)])
def test_session_sets_the_slices(spark, r, s):
    """Given only ``spark=``, a decomposition counts in one job of one
    task per worker of the session (``defaultParallelism``), and its
    result is bit-identical to the local one."""
    edges = rmat(8, 900, seed=23)
    local = nucleus_decomposition(edges, r, s, _best_config(r, s))
    res, tasks = _in_job_group(
        spark, f"session-{r}-{s}", lambda: nucleus_decomposition(edges, r, s, _best_config(r, s), spark=spark)
    )
    assert tasks == [[spark.sparkContext.defaultParallelism]]
    assert np.array_equal(res.vmat, local.vmat) and np.array_equal(res.core, local.core)
    assert res.vmat.dtype == local.vmat.dtype and res.core.dtype == local.core.dtype
    assert res.rho == local.rho


@pytest.mark.parametrize("name,r,s", [("fig1", 3, 4), ("er30", 2, 3)])
def test_decomp_with_spark_counting(spark, name, r, s):
    res = nucleus_decomposition(SMALL_GRAPHS[name], r, s, spark=spark)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)


@pytest.mark.parametrize("name,r,s", [("fig1", 3, 4), ("er30", 2, 3), ("rmat", 2, 3)])
def test_spark_counting_keeps_counters(spark, name, r, s):
    """Every counter but wall-clock is the same under Spark and local
    counting: the counting kernel's work adds up over root ranges."""
    edges = rmat(8, 900, seed=23) if name == "rmat" else SMALL_GRAPHS[name]
    local = nucleus_decomposition(edges, r, s).counters
    remote = nucleus_decomposition(edges, r, s, spark=spark).counters
    local.wall_seconds = remote.wall_seconds = 0.0
    assert asdict(remote) == asdict(local)


def test_drop_zip_finders(tmp_path):
    """The trim removes every cached zipimporter, and modules of the same
    zip still import afterwards."""
    archive = tmp_path / "zipped.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr("zpkg_trim/__init__.py", "")
        zf.writestr("zpkg_trim/one.py", "VALUE = 1\n")
        zf.writestr("zpkg_trim/two.py", "VALUE = 2\n")
    saved_path = list(sys.path)
    sys.path.insert(0, str(archive))
    try:
        from zpkg_trim import one

        cached = sys.path_importer_cache.values()
        assert any(isinstance(f, zipimport.zipimporter) for f in cached)
        spark_count._drop_zip_finders()
        cached = sys.path_importer_cache.values()
        assert not any(isinstance(f, zipimport.zipimporter) for f in cached)
        from zpkg_trim import two

        assert (one.VALUE, two.VALUE) == (1, 2)
    finally:
        sys.path[:] = saved_path
        for name in ("zpkg_trim", "zpkg_trim.one", "zpkg_trim.two"):
            sys.modules.pop(name, None)
        spark_count._drop_zip_finders()


def test_dataframe_jobs_after_spark_counts(spark):
    """Python UDF jobs through Arrow and toPandas still return the right
    rows in a session whose workers have run the trimmed counting tasks."""
    _, dg = _dg(rmat(8, 900, seed=23))
    spark_s_counts(spark, dg, 2, 3, n_slices=4)
    df = spark.range(100, numPartitions=4)
    out = df.mapInPandas(lambda batches: (b for b in batches), df.schema).toPandas()
    assert sorted(out["id"]) == list(range(100))


def test_spark_counts_empty_graph(spark):
    und = build_csr(np.array([(0, 1), (2, 3)]), n=4)
    dg = orient_csr(und, np.arange(4))
    vmat, cnts = spark_s_counts(spark, dg, 2, 3, n_slices=2)
    local_vmat, local_cnts = s_counts_per_r_clique(dg, 2, 3)
    # two disjoint edges: both are 2-cliques with zero incident triangles
    assert len(vmat) == 2 and (cnts == 0).all()
    assert np.array_equal(vmat, local_vmat) and np.array_equal(cnts, local_cnts)
    assert cnts.dtype == local_cnts.dtype == np.int64


def test_spark_counts_vs_duckdb_oracle(spark):
    """Per-edge triangle counts and the 4-clique total from the Spark
    fan-out equal DuckDB self-joins over the raw edge list."""
    edges = rmat(8, 900, seed=23)
    raw = pd.DataFrame({"u": edges[:, 0], "v": edges[:, 1]})
    canon = """(SELECT DISTINCT least(u, v) AS u, greatest(u, v) AS v
                FROM raw WHERE u <> v)"""
    _, dg = _dg(edges)
    vmat, cnts = spark_s_counts(spark, dg, 2, 3, n_slices=4)
    got = pd.DataFrame({"u": vmat[:, 0], "v": vmat[:, 1], "support": cnts})
    assert_equivalent(
        spark.createDataFrame(got),
        f"""
        WITH e AS {canon},
        tri AS (
          SELECT e1.u AS a, e1.v AS b, e2.v AS c
          FROM e e1 JOIN e e2 ON e1.v = e2.u
          JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v
        ),
        sides AS (
          SELECT a AS u, b AS v FROM tri
          UNION ALL SELECT a, c FROM tri
          UNION ALL SELECT b, c FROM tri
        )
        SELECT e.u, e.v, COALESCE(s.support, 0) AS support
        FROM e LEFT JOIN (
          SELECT u, v, COUNT(*) AS support FROM sides GROUP BY u, v
        ) s ON e.u = s.u AND e.v = s.v
        """,
        raw=raw,
    )
    _, cnts4 = spark_s_counts(spark, dg, 3, 4, n_slices=4)
    total = pd.DataFrame({"cliques": [cnts4.sum() / 4]})  # C(4, 3) triangles each
    assert total["cliques"][0] > 0
    assert_equivalent(
        spark.createDataFrame(total),
        f"""
        WITH e AS {canon}
        SELECT COUNT(*) AS cliques
        FROM e ab JOIN e bc ON ab.v = bc.u
        JOIN e ac ON ac.u = ab.u AND ac.v = bc.v
        JOIN e cd ON cd.u = bc.v
        JOIN e ad ON ad.u = ab.u AND ad.v = cd.v
        JOIN e bd ON bd.u = ab.v AND bd.v = cd.v
        """,
        raw=raw,
    )


@pytest.mark.parametrize("r,s,n_slices", [(2, 3, 3), (3, 4, 4), (1, 2, 5)])
def test_spark_counts_vmat_lex_sorted(spark, r, s, n_slices):
    """The merged Spark partials come back in lexicographic row order,
    which the decomposition's output path relies on."""
    _, dg = _dg(rmat(8, 900, seed=23))
    vmat, _ = spark_s_counts(spark, dg, r, s, n_slices=n_slices)
    rows = [tuple(v) for v in vmat.tolist()]
    assert len(rows) and all(a < b for a, b in zip(rows, rows[1:]))
