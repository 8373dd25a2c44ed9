"""Figs 8/9/10 tables: hash-table-level optimizations, speed and space."""
from _common import emit  # noqa: E402

from repro.experiments import table_t_optimizations  # noqa: E402


def main() -> None:
    emit(table_t_optimizations(rs=(3, 4)), "t2a_table_opts_34")
    emit(
        table_t_optimizations(rs=(4, 5), graphs=["amazon-lite", "dblp-lite", "orkut-lite"]),
        "t2b_table_opts_45",
    )


if __name__ == "__main__":
    main()
