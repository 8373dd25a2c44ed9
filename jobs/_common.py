"""Shared bootstrapping for the job entrypoints: ``repro`` on the path,
a SparkSession for the one job that uses Spark, and table output."""
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
