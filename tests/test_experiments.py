"""Smoke tests for the table generators (small slices of each)."""
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pandas as pd
import pytest

import repro
from repro.experiments import (
    save_table,
    table_baselines,
    table_graph_stats,
    table_other_optimizations,
    table_rmat_scaling,
    table_rs_sweep,
    table_scalability,
    table_t_optimizations,
)
from repro.graphs.csr import build_csr
from repro.graphs.gen import rmat
from repro.nucleus.reference import brute_force_cliques


def test_graph_stats_one_graph():
    df = table_graph_stats(["youtube-lite"])
    assert {"graph", "n", "m", "r", "s", "rho", "max_core"} <= set(df.columns)
    assert (df["graph"] == "youtube-lite").all()
    assert len(df) > 3


def test_t_optimizations_configs_present():
    df = table_t_optimizations(rs=(3, 4), graphs=["amazon-lite"])
    assert "1-level (unopt)" in set(df["config"])
    assert (df[df["config"] == "1-level (unopt)"]["speedup_vs_1level"] == 1.0).all()
    assert (df["space_saving_vs_1level"] > 0).all()


def test_other_optimizations_shape():
    df = table_other_optimizations(["amazon-lite"], rs_list=[(2, 3)])
    opts = set(df["optimization"])
    assert {"relabel", "agg=list-buffer", "agg=hash", "contraction"} <= opts


def test_baselines_consistency_checks_run():
    # table_baselines asserts internally that every baseline agrees with ARB
    df = table_baselines(["amazon-lite"], rs_list=[(2, 3)])
    assert "slowdown_pkt_wall" in df.columns
    assert (df["pnd_rounds_ratio"] > 1).all()


def test_rs_sweep_relative_floor():
    df = table_rs_sweep(["youtube-lite"])
    assert df["slowdown_vs_fastest"].min() == pytest.approx(1.0)


def test_scalability_monotone():
    df = table_scalability(["amazon-lite"], rs_list=[(2, 3)], threads=[1, 4, 60])
    sp = df.sort_values("threads")["sim_speedup"].to_numpy()
    assert sp[0] == pytest.approx(1.0)
    assert sp[-1] > sp[0]


def test_rmat_scaling_small():
    df = table_rmat_scaling(log2_ns=[8], edges_per_vertex=[4, 8], rs_list=[(2, 3)])
    assert len(df) == 2
    assert df.sort_values("edges_per_vertex")["n_scliques"].is_monotonic_increasing


def test_rmat_scaling_counts_scliques():
    """``n_scliques`` is the graph's s-clique count, not what UPDATE
    listed: T7's (2,3) cell at log2_n 9, epv 4 holds 285 triangles, which
    UPDATE once listed 855 = 3 x 285 times."""
    df = table_rmat_scaling(log2_ns=[9], edges_per_vertex=[4], rs_list=[(2, 3), (3, 4)])
    edges = rmat(9, 4 << 9, seed=109)
    und = build_csr(edges)
    n3, n4 = df["n_scliques"].tolist()
    assert [n3, n4] == [len(brute_force_cliques(und, s)) for s in (3, 4)]
    assert n3 == 285
    assert (df["scliques_discovered"] <= [comb(3, 2) * n3, comb(4, 3) * n4]).all()


def test_save_table(tmp_path):
    df = pd.DataFrame({"a": [1], "b": [2.5]})
    p = save_table(df, "smoke", results_dir=tmp_path)
    assert p.exists() and (tmp_path / "smoke.csv").exists()


def test_import_does_not_load_pandas():
    # nucbench imports the module for _best_config alone; pandas would
    # add about 0.45 s and 67 MB of RSS to every such process. A local
    # decomposition does not load pyspark either.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, repro.experiments, repro.nucleus.decomp as d;"
        " d.nucleus_decomposition([[0, 1], [1, 2], [0, 2]], 2, 3, repro.experiments._best_config(2, 3));"
        " print('pandas' in sys.modules, 'pyspark' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "False False"
