"""Fig 11 table: relabeling / update-aggregation / contraction speedups."""
from _common import emit  # noqa: E402

from repro.experiments import table_other_optimizations  # noqa: E402


def main() -> None:
    emit(table_other_optimizations(), "t3_other_opts")


if __name__ == "__main__":
    main()
