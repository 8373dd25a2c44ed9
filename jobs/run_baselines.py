"""Fig 12 table: ARB vs ND / PND / AND / AND-NN / PKT."""
from _common import emit  # noqa: E402

from repro.experiments import table_baselines  # noqa: E402


def main() -> None:
    emit(table_baselines(), "t4_baselines")


if __name__ == "__main__":
    main()
