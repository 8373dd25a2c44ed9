"""Fig 7 table: graph sizes, peeling complexity rho, and max core numbers.

Usage: python jobs/run_graph_stats.py  (counting runs locally).
"""
from _common import emit  # noqa: E402

from repro.experiments import table_graph_stats  # noqa: E402


def main() -> None:
    emit(table_graph_stats(), "t1_graph_stats")


if __name__ == "__main__":
    main()
