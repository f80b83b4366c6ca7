"""The input layer: domain model, the one CSV reader, and the input rules.

Three CSV inputs drive a run: indicator metadata (id, name, pillar,
direction), the state-by-indicator observation matrix, and an optional
table of per-state Gini coefficients. Every CSV the program reads is
opened by _read_rows, which turns a missing, unreadable, non-UTF-8 or
empty file into an InputError naming it. Every reader, the pca stage's
handoff readers included, applies the rules kept here: _check_header,
_keyed_rows (the row rule) and _numeric_rows (the cell rule, the only
code that parses a cell into a float and holds it to its range: finite
by default, [0, 1] for gini.csv and normalized.csv). Every CSV
it writes is opened by _write_rows, which writes lines each writer has
already formatted, with labels quoted by _field. Loaders collect every
problem they find and raise a single InputError listing all of them,
each naming the file, with 1-based row numbers (the header is row 1).
validate_matrix is the one column rule every stage calls.
"""

from __future__ import annotations

import csv
import math
import sys
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


def bare_matrix(values, ids) -> DataMatrix:
    """A bare 2-D array as a DataMatrix with unnamed rows and positive indicator columns ids."""
    specs = tuple(IndicatorSpec(i, i, PILLARS[0], Direction.POSITIVE) for i in ids)
    return DataMatrix(("",) * len(values), values, IndicatorRegistry(specs))


# state name -> Gini coefficient in [0, 1]
GiniTable = dict[str, float]

# the range of every finite float: the cell rule's default, so that only nan and +-inf fail it
_FINITE = (-sys.float_info.max, sys.float_info.max)

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
        raise InputError(f"cannot read file ({exc.strerror})", path) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"not UTF-8 text (byte {exc.start})", path) from None
    except csv.Error as exc:
        raise InputError(f"not a CSV file ({exc})", path) from None
    if not rows:
        raise InputError("file is empty", path)
    return rows


def _field(text: str) -> str:
    """A label as csv.writer writes it: quoted, inner quotes doubled, if it holds , " CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_rows(path: str | Path, header: list[str], lines) -> None:
    """Write a CSV file: the header cells, then lines the caller has formatted.

    Each line is one row of comma-joined cells, without its line end;
    labels in it must already have gone through _field. Lines end in
    CRLF, as csv.writer ends them. Writers give a full-precision float
    cell as repr(float), the shortest text that reads back to the same
    float, so handoff files round-trip exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_field, header)) + "\r\n")
        fh.writelines(line + "\r\n" for line in lines)


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


def _numeric_rows(rows: list[list[str]], columns, key: tuple[str, str], problems: list[str],
                  within: tuple[float, float] = _FINITE):
    """(names, values) of the _keyed_rows of a table whose key column is followed by columns.

    The cell rule: each cell after the key must be a float in the closed
    range within, finite by default. One that is not is reported in
    problems, naming its row, key and column.
    """
    low, high = within
    names: list[str] = []
    values: list[list[float]] = []
    for lineno, name, row in _keyed_rows(rows, 1 + len(columns), key, problems):
        cells = []
        for column, cell in zip(columns, row[1:]):
            try:
                v = float(cell)
            except ValueError:
                problems.append(f"row {lineno}: non-numeric value {cell!r} for ({name}, {column})")
                continue
            # one comparison for a cell that passes; it fails on nan and on +-inf too
            if not low <= v <= high:
                where = f"{cell!r} for ({name}, {column})"
                problems.append(f"row {lineno}: value {where} outside [{low:g}, {high:g}]"
                                if math.isfinite(v) else f"row {lineno}: non-finite value {where}")
                continue
            cells.append(v)
        names.append(name)
        values.append(cells)
    return names, values


def _check_header(path, rows: list[list[str]], header: list[str]) -> None:
    if [c.strip() for c in rows[0]] != header:
        raise InputError(f"header must be {','.join(header)!r}, got {','.join(rows[0])!r}", path)


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
            direction = Direction(direction_text.lower())
        except ValueError:
            problems.append(f"row {lineno}: unknown direction {direction_text!r} "
                            "(expected positive or negative)")
            continue
        specs.append(IndicatorSpec(id=ind_id, name=name, pillar=pillar, direction=direction))

    if problems:
        raise InputError(problems, path)
    # a correlation needs two columns
    if len(specs) < 2:
        raise InputError(f"need at least 2 indicators, got {len(specs)}", path)
    return IndicatorRegistry(specs=tuple(specs))


def load_observations(path: str | Path, registry: IndicatorRegistry) -> DataMatrix:
    """Read observations.csv, whose header must be 'state' plus the registry ids in order.

    The file needs at least MIN_STATES states; the cell rule holds every
    value to a finite float.
    """
    return _load_matrix(path, registry, _FINITE)


def _load_matrix(path, registry: IndicatorRegistry, within: tuple[float, float]) -> DataMatrix:
    """load_observations with the cells held to the closed range within by the cell rule."""
    rows = _read_rows(path)

    header = [c.strip() for c in rows[0]]
    ids = registry.ids
    expected = ["state", *ids]
    if header != expected:
        problems = []
        # the indicator columns follow the state column whatever it is called
        columns = header[1:]
        missing = [i for i in ids if i not in columns]
        extra = [c for c in columns if c not in ids]
        repeated = [c for c in dict.fromkeys(columns) if columns.count(c) > 1]
        if header and header[0] != "state":
            problems.append(f"first header column must be 'state', got {header[0]!r}")
        if missing:
            problems.append(f"missing indicator columns: {', '.join(missing)}")
        if extra:
            problems.append(f"unexpected columns: {', '.join(extra)}")
        if repeated:
            problems.append(f"duplicate columns: {', '.join(repeated)}")
        if not problems:
            problems.append("indicator columns are not in registry order")
        raise InputError(problems, path)

    problems = []
    states, data = _numeric_rows(rows, ids, _STATE_KEY, problems, within)
    if not problems and len(states) < MIN_STATES:
        problems.append(f"found {len(states)} states, need at least {MIN_STATES}")
    if problems:
        raise InputError(problems, path)
    return DataMatrix(states=tuple(states), values=np.array(data, dtype=np.float64), registry=registry)


def load_gini(path: str | Path) -> GiniTable:
    """Read gini.csv (state,gini) into a mapping; the cell rule holds each value to [0, 1]."""
    rows = _read_rows(path)
    _check_header(path, rows, GINI_HEADER)
    problems: list[str] = []
    states, values = _numeric_rows(rows, GINI_HEADER[1:], _STATE_KEY, problems, (0.0, 1.0))
    if problems:
        raise InputError(problems, path)
    return {state: value for state, (value,) in zip(states, values)}


def validate_matrix(matrix: DataMatrix, path=None) -> dict[str, tuple[float, float]]:
    """Each indicator's (min, max), in registry order: the one column rule.

    A column whose min equals its max has no min-max rescaling and no
    correlation, and one whose max - min overflows to inf has no finite
    rescaling: InputError lists every such column at once, in registry
    order, naming path, the file the matrix was read from, when one is given.
    """
    values = matrix.values
    ranges = dict(zip(matrix.registry.ids,
                      zip(values.min(axis=0).tolist(), values.max(axis=0).tolist())))
    problems = []
    for ind_id, (lo, hi) in ranges.items():
        if lo == hi:
            problems.append(f"indicator {ind_id!r} is constant, min-max rescaling is undefined")
        elif hi - lo == math.inf:
            problems.append(f"indicator {ind_id!r} range {lo!r} to {hi!r} overflows, "
                            "min-max rescaling is undefined")
    if problems:
        raise InputError(problems, path)
    return ranges


def write_observations(matrix, path: str | Path) -> None:
    """Write a DataMatrix, raw or rescaled, in the observations.csv layout.

    Values keep full precision and read back bit for bit. Rows are
    converted one at a time, so no second copy of the matrix is held.
    """
    _write_rows(path, ["state", *matrix.registry.ids],
                (_field(state) + "," + ",".join(map(repr, row.tolist()))
                 for state, row in zip(matrix.states, matrix.values)))
