"""Fig 15 table: rMAT graphs of varying size and density."""
from _common import emit  # noqa: E402

from repro.experiments import table_rmat_scaling  # noqa: E402


def main() -> None:
    emit(table_rmat_scaling(), "t7_rmat_scaling")


if __name__ == "__main__":
    main()
