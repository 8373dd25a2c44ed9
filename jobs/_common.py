"""Shared bootstrapping for the job entrypoints: ``repro`` on the path,
a SparkSession for the one job that uses Spark, and table output."""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def get_spark(app: str):
    from pyspark.sql import SparkSession

    return SparkSession.builder.appName(app).getOrCreate()


def emit(df, name: str) -> None:
    from repro.experiments import save_table

    path = save_table(df, name)
    print(f"\n== {name} -> {path}")
    print(df.to_string(index=False))
