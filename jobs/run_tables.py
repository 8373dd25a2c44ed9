"""Regenerate the paper's evaluation tables under results/ and check their shape.

    python jobs/run_tables.py                                # every table
    python jobs/run_tables.py t4_baselines t7_rmat_scaling   # only these

Each NAME is a ``results/`` stem from ``repro.experiments.TABLES``. For
each table the job writes ``results/NAME.{md,csv}``, prints the table,
the seconds its generator took and one ok/MISMATCH line per paper claim
the table must show, and it exits non-zero if any claim fails. Spark
starts only for t6b_spark_counting_scaling.
"""
from __future__ import annotations

import argparse
import sys
import time

from _common import check, emit, get_spark

from repro.experiments import SPARK_TABLE, TABLES


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", metavar="NAME", help="a results/ stem (default: every table)")
    names = ap.parse_args().names or list(TABLES)
    if unknown := [n for n in names if n not in TABLES]:
        ap.error(f"unknown table {', '.join(unknown)}; choose from {', '.join(TABLES)}")
    spark = get_spark("repro-tables") if SPARK_TABLE in names else None
    ok = True
    try:
        for name in names:
            make, shape = TABLES[name]
            t0 = time.perf_counter()
            df = make(spark) if name == SPARK_TABLE else make()
            seconds = time.perf_counter() - t0
            emit(df, name)
            print(f"{name}: {seconds:.1f} s", flush=True)
            for claim, holds in shape(df).items():
                ok &= check(claim, holds)
    finally:
        if spark is not None:
            spark.stop()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
