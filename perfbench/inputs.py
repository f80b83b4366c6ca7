"""Seeded benchmark inputs: the shipped fixture, and synthetic counties/wide tables.

The synthetic tables use the latent-factor model of
scripts/generate_fixtures.py: one latent mobility factor per row, each
indicator loading on it with strength U(0.45, 0.85), sign matching its
declared direction, plus independent noise, then an affine map to a
realistic range. Gini values fall with the latent factor, and about 10%
of the rows get none, so the scenario table has unclassified states.

Everything is written under the directory the caller passes; the shipped
data/ files are only read.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from smi.dataset import PILLARS, Direction, load_indicator_metadata

COUNTIES_ROWS = 3100
WIDE_ROWS = 22
WIDE_INDICATORS = 120
WIDE_NEGATIVE_SHARE = 0.4
GINI_MISSING_SHARE = 0.10


@dataclass(frozen=True)
class Inputs:
    """Paths handed to the program; rows x indicators is the workload's shape."""

    data: Path
    meta: Path
    gini: Path
    rows: int
    indicators: int


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _latent_table(rng: np.random.Generator, names: list[str], ids: list[str],
                  directions: list[Direction], out_dir: Path) -> tuple[Path, Path]:
    n = len(names)
    latent = rng.normal(0.0, 1.0, n)
    columns = []
    for direction in directions:
        strength = rng.uniform(0.45, 0.85)
        z = strength * latent + rng.normal(0.0, float(np.sqrt(1.0 - strength**2)), n)
        if direction is Direction.NEGATIVE:
            z = -z
        columns.append(rng.uniform(20.0, 80.0) + rng.uniform(5.0, 20.0) * z)
    data = out_dir / "observations.csv"
    _write_csv(data, ["state", *ids],
               ([name, *(f"{col[i]:.3f}" for col in columns)] for i, name in enumerate(names)))

    gini = np.clip(0.30 - 0.04 * latent + rng.normal(0.0, 0.03, n), 0.15, 0.60)
    missing = set(rng.permutation(n)[:round(GINI_MISSING_SHARE * n)].tolist())
    gini_path = out_dir / "gini.csv"
    _write_csv(gini_path, ["state", "gini"],
               ([name, f"{gini[i]:.3f}"] for i, name in enumerate(names) if i not in missing))
    return data, gini_path


def counties(root: Path, seed: int, out_dir: Path) -> Inputs:
    """COUNTIES_ROWS rows over the shipped 31-indicator registry."""
    meta = root / "data" / "indicators.csv"
    registry = load_indicator_metadata(meta)
    names = [f"County {i:04d}" for i in range(1, COUNTIES_ROWS + 1)]
    data, gini = _latent_table(np.random.default_rng(seed), names, list(registry.ids),
                               list(registry.directions), out_dir)
    return Inputs(data, meta, gini, COUNTIES_ROWS, len(registry))


def wide(root: Path, seed: int, out_dir: Path) -> Inputs:
    """WIDE_ROWS rows over a synthetic WIDE_INDICATORS-indicator registry on every pillar."""
    rng = np.random.default_rng(seed)
    ids = [f"w{j:03d}" for j in range(1, WIDE_INDICATORS + 1)]
    directions = [Direction.NEGATIVE if rng.random() < WIDE_NEGATIVE_SHARE else Direction.POSITIVE
                  for _ in ids]
    meta = out_dir / "indicators.csv"
    _write_csv(meta, ["indicator_id", "name", "pillar", "direction"],
               ([ind_id, f"Synthetic indicator {j + 1}", PILLARS[j % len(PILLARS)], d.value]
                for j, (ind_id, d) in enumerate(zip(ids, directions))))
    names = [f"State {i:02d}" for i in range(1, WIDE_ROWS + 1)]
    data, gini = _latent_table(rng, names, ids, directions, out_dir)
    return Inputs(data, meta, gini, WIDE_ROWS, WIDE_INDICATORS)


def fixture(root: Path, seed: int, out_dir: Path) -> Inputs:
    """The shipped 22 x 31 data/ files as they are; the seed does not change them."""
    data = root / "data"
    with open(data / "observations_synthetic.csv", encoding="utf-8") as fh:
        rows = sum(1 for line in fh if line.strip()) - 1
    return Inputs(data / "observations_synthetic.csv", data / "indicators.csv",
                  data / "gini.csv", rows, len(load_indicator_metadata(data / "indicators.csv")))


GENERATORS = {"fixture": fixture, "counties": counties, "wide": wide}
