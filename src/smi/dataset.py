"""The input layer: domain model, CSV reading and the input rules.

Three CSV inputs drive a run: indicator metadata (id, name, pillar,
direction), the state-by-indicator observation matrix, and an optional
table of per-state Gini coefficients. Every CSV the program reads is
opened by _read_rows, which turns a missing, unreadable, non-UTF-8 or
empty file into an InputError naming it. Loaders collect every problem
they find and raise a single InputError listing all of them, with
1-based row numbers (the header is row 1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InputError

PILLARS: tuple[str, ...] = (
    "Health",
    "Education Access",
    "Education Quality and Equity",
    "Lifelong Learning",
    "Technology Access",
    "Work Opportunities",
    "Fair Wages",
    "Working Conditions",
    "Social Protection",
    "Inclusive Institutions",
)

INDICATORS_HEADER = ["indicator_id", "name", "pillar", "direction"]
GINI_HEADER = ["state", "gini"]

# fewest states that give a sample correlation with a non-degenerate spread
MIN_STATES = 3


class Direction(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"

    @classmethod
    def parse(cls, text: str) -> "Direction":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown direction {text!r} (expected positive or negative)") from None


@dataclass(frozen=True)
class IndicatorSpec:
    """One indicator: machine id, human label, pillar membership, direction."""

    id: str
    name: str
    pillar: str
    direction: Direction


@dataclass(frozen=True)
class IndicatorRegistry:
    """Ordered indicator list; its order is the canonical column order downstream."""

    specs: tuple[IndicatorSpec, ...]

    def __post_init__(self):
        if not self.specs:
            raise InputError("indicator registry is empty")
        seen: dict[str, int] = {}
        problems = []
        for pos, spec in enumerate(self.specs):
            if not spec.id:
                problems.append(f"indicator at position {pos} has an empty id")
            if spec.id in seen:
                problems.append(f"duplicate indicator id {spec.id!r}")
            seen.setdefault(spec.id, pos)
            if spec.pillar not in PILLARS:
                problems.append(f"indicator {spec.id!r} has unknown pillar {spec.pillar!r}")
        if problems:
            raise InputError(problems)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.specs)

    @property
    def directions(self) -> tuple[Direction, ...]:
        return tuple(s.direction for s in self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __getitem__(self, i: int) -> IndicatorSpec:
        return self.specs[i]


@dataclass
class DataMatrix:
    """State-by-indicator values, raw or rescaled, rows ordered as loaded."""

    states: tuple[str, ...]
    values: np.ndarray
    registry: IndicatorRegistry

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise InputError("observation values must be a 2-D matrix")
        n, p = self.values.shape
        if len(self.states) != n:
            raise InputError(f"{len(self.states)} state labels for {n} rows")
        if p != len(self.registry):
            raise InputError(f"{p} columns for a registry of {len(self.registry)} indicators")
        if not np.all(np.isfinite(self.values)):
            raise InputError("observation values must all be finite")

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    @property
    def n_indicators(self) -> int:
        return self.values.shape[1]


# state name -> Gini coefficient in [0, 1]
GiniTable = dict[str, float]

# what an empty, and what a repeated, first field is called in messages
_INDICATOR_KEY = ("indicator id", "indicator id")
_STATE_KEY = ("state name", "state")


def _read_rows(path: str | Path) -> list[list[str]]:
    """Every row of a CSV file, header first; the file must exist, be UTF-8 text and not be empty."""
    path = Path(path)
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports put first
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise InputError(f"file not found: {path}") from None
    except OSError as exc:
        raise InputError(f"{path}: cannot read file ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except csv.Error as exc:
        raise InputError(f"{path}: not a CSV file ({exc})") from None
    if not rows:
        raise InputError(f"{path}: file is empty")
    return rows


def _keyed_rows(rows: list[list[str]], width: int, key: tuple[str, str], problems: list[str]):
    """Yield (lineno, name, row) for each body row that passes the rules every loader shares.

    Blank rows are skipped. A row with other than `width` fields, an empty
    first field, or a first field seen on an earlier row is reported in
    problems and skipped; name is the stripped first field.
    """
    empty, repeated = key
    first_row: dict[str, int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            problems.append(f"row {lineno}: expected {width} fields, got {len(row)}")
            continue
        name = row[0].strip()
        if not name:
            problems.append(f"row {lineno}: empty {empty}")
            continue
        if name in first_row:
            problems.append(
                f"row {lineno}: duplicate {repeated} {name!r} (first seen at row {first_row[name]})")
            continue
        first_row[name] = lineno
        yield lineno, name, row


def _check_header(path, rows: list[list[str]], header: list[str]) -> None:
    if [c.strip() for c in rows[0]] != header:
        raise InputError(f"{path}: header must be {','.join(header)!r}, got {','.join(rows[0])!r}")


def load_indicator_metadata(path: str | Path) -> IndicatorRegistry:
    """Read indicators.csv (indicator_id,name,pillar,direction) into a registry."""
    rows = _read_rows(path)
    _check_header(path, rows, INDICATORS_HEADER)

    problems: list[str] = []
    specs: list[IndicatorSpec] = []
    for lineno, ind_id, row in _keyed_rows(rows, len(INDICATORS_HEADER), _INDICATOR_KEY, problems):
        _, name, pillar, direction_text = (c.strip() for c in row)
        if pillar not in PILLARS:
            problems.append(f"row {lineno}: unknown pillar {pillar!r}")
            continue
        try:
            direction = Direction.parse(direction_text)
        except ValueError as exc:
            problems.append(f"row {lineno}: {exc}")
            continue
        specs.append(IndicatorSpec(id=ind_id, name=name, pillar=pillar, direction=direction))

    if problems:
        raise InputError(problems)
    if not specs:
        raise InputError(f"{path}: no indicator rows")
    return IndicatorRegistry(specs=tuple(specs))


def load_observations(path: str | Path, registry: IndicatorRegistry) -> DataMatrix:
    """Read observations.csv, whose header must be 'state' plus the registry ids in order.

    The file needs at least MIN_STATES states, and the registry at least 2 indicators.
    """
    if len(registry) < 2:
        raise InputError("at least 2 indicators are required to load observations")
    rows = _read_rows(path)

    header = [c.strip() for c in rows[0]]
    ids = registry.ids
    expected = ["state", *ids]
    if header != expected:
        problems = []
        got_cols = set(header[1:]) if header and header[0] == "state" else set(header)
        missing = [i for i in registry.ids if i not in got_cols]
        extra = [c for c in header[1:] if c not in set(registry.ids)] if header and header[0] == "state" else header
        if header and header[0] != "state":
            problems.append(f"first header column must be 'state', got {header[0]!r}")
        if missing:
            problems.append(f"missing indicator columns: {', '.join(missing)}")
        if extra:
            problems.append(f"unexpected columns: {', '.join(extra)}")
        if not missing and not extra and header and header[0] == "state":
            problems.append("indicator columns are not in registry order")
        raise InputError([f"{path}: {p}" for p in problems])

    problems = []
    states: list[str] = []
    data: list[list[float]] = []
    for lineno, state, row in _keyed_rows(rows, len(expected), _STATE_KEY, problems):
        values = []
        bad = False
        for ind_id, cell in zip(ids, row[1:]):
            try:
                v = float(cell)
            except ValueError:
                problems.append(f"row {lineno}: non-numeric value {cell!r} for ({state}, {ind_id})")
                bad = True
                continue
            if not math.isfinite(v):
                problems.append(f"row {lineno}: non-finite value {cell!r} for ({state}, {ind_id})")
                bad = True
                continue
            values.append(v)
        if not bad:
            states.append(state)
            data.append(values)

    if not problems and len(states) < MIN_STATES:
        problems.append(f"{path}: found {len(states)} states, need at least {MIN_STATES}")
    if problems:
        raise InputError(problems)
    return DataMatrix(states=tuple(states), values=np.array(data, dtype=np.float64), registry=registry)


def load_gini(path: str | Path) -> GiniTable:
    """Read gini.csv (state,gini) into a mapping; values must lie in [0, 1]."""
    rows = _read_rows(path)
    _check_header(path, rows, GINI_HEADER)

    problems: list[str] = []
    table: GiniTable = {}
    for lineno, state, row in _keyed_rows(rows, len(GINI_HEADER), _STATE_KEY, problems):
        try:
            value = float(row[1])
        except ValueError:
            problems.append(f"row {lineno}: non-numeric gini {row[1]!r} for {state}")
            continue
        if not (0.0 <= value <= 1.0):
            problems.append(f"row {lineno}: gini {value} for {state} outside [0, 1]")
            continue
        table[state] = value

    if problems:
        raise InputError(problems)
    return table


def validate_matrix(matrix: DataMatrix) -> dict[str, tuple[float, float]]:
    """Each indicator's (min, max), in registry order.

    A constant column has no min-max rescaling: InputError lists every
    constant column at once.
    """
    ranges = {}
    for j, ind_id in enumerate(matrix.registry.ids):
        col = matrix.values[:, j]
        ranges[ind_id] = (float(np.min(col)), float(np.max(col)))
    constant = [ind_id for ind_id, (lo, hi) in ranges.items() if lo == hi]
    if constant:
        raise InputError([
            f"indicator {ind_id!r} is constant, min-max rescaling is undefined"
            for ind_id in constant
        ])
    return ranges


def write_observations(matrix, path: str | Path) -> None:
    """Write a DataMatrix, raw or rescaled, in the observations.csv layout.

    Values keep full precision: repr round-trips floats exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", *matrix.registry.ids])
        for state, row in zip(matrix.states, matrix.values):
            writer.writerow([state, *(repr(float(v)) for v in row)])
