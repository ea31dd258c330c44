"""Choosing an encoding for *your* workload: the crossover study.

Runs the mixed query/update workload at increasing update fractions over
all three encodings and prints the winner at each point — a miniature of
the paper's headline experiment (E7), plus the storage numbers (E1) that
complete the trade-off picture.

Run:  python examples/encoding_tradeoffs.py [operations]
"""

import sys

from repro.bench.experiments import run_e1_storage, run_e7_mixed_workload


def main() -> None:
    operations = int(sys.argv[1]) if len(sys.argv) > 1 else 120

    print("Running the mixed-workload crossover "
          f"({operations} operations per cell, cost in rows read + "
          "written)...\n")
    table = run_e7_mixed_workload(
        articles=15,
        operations=operations,
        fractions=(0.0, 0.1, 0.25, 0.5, 0.75, 1.0),
    )
    print(table.render_markdown())

    print("\nStorage cost of each encoding (label bytes per node):\n")
    print(run_e1_storage(sizes=(2000,)).render_markdown())

    print(
        "\nRule of thumb, as in the paper:\n"
        "  read-mostly + ordered queries  -> Global (or Dewey)\n"
        "  write-heavy                    -> Local\n"
        "  anything in between            -> Dewey, ideally with gaps\n"
    )


if __name__ == "__main__":
    main()
