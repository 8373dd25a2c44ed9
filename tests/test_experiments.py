"""Smoke tests for the table generators (small slices of each) and the
registry's shape checks."""
import dataclasses
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pandas as pd
import pytest

import repro
from repro import experiments
from repro.experiments import (
    _DEFAULT_RESULTS,
    TABLES,
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


@pytest.mark.parametrize("baseline", ["ND", "PKT"])
def test_baselines_disagreement_raises(monkeypatch, baseline):
    # A ValueError, not an assert: ``python -O`` would strip an assert.
    real_nd, real_pkt = experiments.nd_decomposition, experiments.pkt_truss

    def shifted_nd(edges, r, s):
        core, counters = real_nd(edges, r, s)
        return {k: c + 1 for k, c in core.items()}, counters

    def shifted_pkt(edges):
        out = real_pkt(edges)
        return dataclasses.replace(out, core=out.core + 1)

    if baseline == "ND":
        monkeypatch.setattr(experiments, "nd_decomposition", shifted_nd)
    else:
        monkeypatch.setattr(experiments, "pkt_truss", shifted_pkt)
    with pytest.raises(ValueError, match=rf"^{baseline} disagrees with ARB on amazon-lite \(2,3\)$"):
        table_baselines(["amazon-lite"], rs_list=[(2, 3)])


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


# Per table: a small frame that shows every claim, and single-cell edits
# that each break one named claim. No decomposition runs.
GOOD = {
    "t1_graph_stats": {"rho": [1, 3], "max_core": [0, 5]},
    "t2a_table_opts_34": {
        "graph": ["amazon-lite"] * 3,
        "config": ["1-level (unopt)", "2-level contig binsearch", "2-level noncontig binsearch"],
        "wall_s": [1.0, 1.0, 2.0],
        "space_saving_vs_1level": [1.0, 1.5, 1.2],
    },
    "t2b_table_opts_45": {"space_saving_vs_1level": [1.0, 1.5]},
    "t3_other_opts": {
        "optimization": ["agg=list-buffer", "agg=list-buffer", "agg=hash", "agg=hash"],
        "s": [3, 4, 3, 4],
        "sim_speedup_p60": [2.0, 1.0, 1.2, 0.8],
    },
    "t4_baselines": {
        "pnd_rounds_ratio": [10.0, 20.0],
        "slowdown_pnd_sim": [2.0, 3.0],
        "and_scliques_ratio": [2.0, 3.0],
        "andnn_scliques_ratio": [1.5, 3.0],
        "andnn_extra_mem_bytes": [100, 200],
    },
    "t5_rs_sweep": {"slowdown_vs_fastest": [1.0, 2.0]},
    "t6a_scalability_sim": {
        "graph": ["g"] * 3,
        "r": [2] * 3,
        "s": [3] * 3,
        "threads": [1, 4, 60],
        "sim_speedup": [1.0, 2.0, 10.0],
    },
    "t6b_spark_counting_scaling": {"slices": [1, 2], "n_rcliques": [10, 10]},
    "t7_rmat_scaling": {
        "log2_n": [9, 9],
        "edges_per_vertex": [4, 8],
        "r": [2, 2],
        "s": [3, 3],
        "n_scliques": [10, 20],
    },
}
BREAKS = [  # (table, column, row, value, the claim it breaks)
    ("t1_graph_stats", "rho", 0, 0, "rho >= 1"),
    ("t1_graph_stats", "max_core", 1, -1, "max_core >= 0"),
    ("t2a_table_opts_34", "space_saving_vs_1level", 2, 0.9, "multi-level T saves space on the clique-rich graphs"),
    ("t2a_table_opts_34", "space_saving_vs_1level", 1, 1.3, "best multi-level saving > 1.4"),
    ("t2a_table_opts_34", "wall_s", 2, 0.5, "contiguous layout should usually win"),
    ("t2b_table_opts_45", "space_saving_vs_1level", 1, 1.2, "best (4,5) saving > 1.3"),
    ("t3_other_opts", "sim_speedup_p60", 1, 0.9, "list buffer >= 0.99x the array at P=60"),
    ("t3_other_opts", "sim_speedup_p60", 0, 1.4, "list buffer > 1.5x the array somewhere"),
    ("t3_other_opts", "sim_speedup_p60", 2, 0.95, "hash beats the array at (2,3)"),
    ("t4_baselines", "pnd_rounds_ratio", 0, 3.0, "PND's sequential-peel round blowup"),
    ("t4_baselines", "slowdown_pnd_sim", 1, 0.9, "PND is slower than ARB at P=60 on every cell"),
    ("t4_baselines", "and_scliques_ratio", 1, 1.0, "AND re-discovers s-cliques"),
    ("t4_baselines", "andnn_scliques_ratio", 0, 2.5, "notification reduces rediscovery"),
    ("t4_baselines", "andnn_extra_mem_bytes", 1, 0, "AND-NN pays memory for it"),
    ("t5_rs_sweep", "slowdown_vs_fastest", 0, 0.5, "slowdown_vs_fastest >= 1"),
    ("t6a_scalability_sim", "sim_speedup", 1, 12.0, "sim_speedup monotone in P"),
    ("t6a_scalability_sim", "sim_speedup", 2, 2.5, "sim_speedup > 3 at the most threads"),
    ("t6b_spark_counting_scaling", "n_rcliques", 1, 11, "result independent of slicing"),
    ("t7_rmat_scaling", "n_scliques", 1, 5, "n_scliques grows with edges_per_vertex"),
]


def test_registry_covers_every_table():
    assert set(TABLES) == {p.stem for p in _DEFAULT_RESULTS.glob("*.md")}
    public = {f for n, f in vars(experiments).items() if n.startswith("table_")}
    assert public <= {getattr(make, "func", make) for make, _ in TABLES.values()}
    assert {b[0] for b in BREAKS} == set(GOOD) == set(TABLES)


@pytest.mark.parametrize(
    "table, column, row, value, claim", BREAKS, ids=[f"{b[0]}-{b[1]}-{b[2]}" for b in BREAKS]
)
def test_shape_check_reports_a_broken_claim(table, column, row, value, claim):
    shape = TABLES[table][1]
    good = pd.DataFrame(GOOD[table])
    assert all(shape(good).values())
    bad = good.copy()
    bad.loc[row, column] = value
    assert not shape(bad)[claim]


@pytest.mark.parametrize("table", list(TABLES))
def test_committed_table_shows_its_claims(table):
    checks = TABLES[table][1](pd.read_csv(_DEFAULT_RESULTS / f"{table}.csv"))
    assert all(checks.values()), checks
