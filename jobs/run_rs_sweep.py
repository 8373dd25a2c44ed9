"""Fig 13 table: relative times across (r, s) values per graph."""
from _common import emit  # noqa: E402

from repro.experiments import table_rs_sweep  # noqa: E402


def main() -> None:
    emit(table_rs_sweep(), "t5_rs_sweep")


if __name__ == "__main__":
    main()
