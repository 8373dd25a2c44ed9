"""Shared bootstrapping for ``run_tables.py`` and ``run_scale_check.py``:
``repro`` on the path, a SparkSession for the one table that uses Spark,
table output, and one printed line per check."""
from __future__ import annotations

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)


def get_spark(app: str):
    """SparkSession whose Python workers can import ``repro``: the package
    is not installed, and local-mode workers find it only through the
    PYTHONPATH they inherit from this process, so it is set first."""
    from pyspark.sql import SparkSession

    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p)
    return SparkSession.builder.appName(app).getOrCreate()


def emit(df, name: str) -> None:
    from repro.experiments import save_table

    path = save_table(df, name)
    print(f"\n== {name} -> {path}")
    print(df.to_string(index=False))


def check(name: str, ok: bool) -> bool:
    print(f"  check {name}: {'ok' if ok else 'MISMATCH'}", flush=True)
    return ok
