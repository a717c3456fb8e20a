"""Regenerate src/bosonic_bounds/data/nastar_accuracy.json.

Freezes the relative error of both closed-form equal-entropy splits against
the exact solver on a fixed (mode pair, photons-per-A-mode) grid.  The
rows come from ``experiments.split_accuracy_sweep``, the same loop behind
``figure --name split-accuracy``.  The test suite asserts that current
errors stay within this envelope and that they decrease along nu for every
pair, so the grid deliberately uses mode ratios where both variants are
monotone.

Run from the repository root:

    python tools/freeze_nastar_regression.py
"""

import json
import pathlib

from bosonic_bounds.experiments import split_accuracy_sweep

PAIRS = [(1, 2), (1, 3), (1, 5)]
NU_GRID = [10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0]

OUT = (
    pathlib.Path(__file__).resolve().parents[1]
    / "src"
    / "bosonic_bounds"
    / "data"
    / "nastar_accuracy.json"
)


def envelope_rows() -> list[dict]:
    """The envelope's rows, in the order they are frozen."""
    # Every pair has n_A = 1, so the sweep's per-mode nu_star is N_A* itself.
    return [
        {
            "n_a": row["n_a"],
            "n_b": row["n_b"],
            "nu": row["nu"],
            "na_star": row["nu_star"],
            "relerr_leading": row["relerr_leading"],
            "relerr_refined": row["relerr_refined"],
        }
        for row in split_accuracy_sweep(PAIRS, NU_GRID)
    ]


def main() -> None:
    rows = envelope_rows()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    with OUT.open("w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} rows to {OUT}")


if __name__ == "__main__":
    main()
