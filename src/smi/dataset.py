"""The input layer: domain model, the one CSV reader, and the input rules.

Three CSV inputs drive a run: indicator metadata (id, name, pillar,
direction), the state-by-indicator observation matrix, and an optional
table of per-state Gini coefficients. Every CSV the program reads is
opened by _read_rows, which streams it one row at a time and turns a
missing, unreadable, non-UTF-8 or empty file into an InputError naming
it. Every reader, the pca stage's handoff readers included, applies the
rules kept here: _check_header (the header rule, the only code that
compares a header row; a header that differs is reported by how it
differs, after the rest of the file is read, so a read error anywhere
in it is reported instead), _keyed_rows (the row rule) and _numeric_rows
(the cell rule, which parses a cell into a float and holds it to its range:
finite by default, [0, 1] for gini.csv and normalized.csv; passing
cells go straight into one float buffer). _read_table is the one reader
of every numeric file: after the header rule it parses a clean unquoted
body in one np.loadtxt call (_bulk_table), which takes only bodies the
row and cell rules accept and reads the same floats, and leaves every
other body to those rules, so they alone decide what is accepted and
name every problem. Every CSV the program writes is one _write_rows
call: a header, a row template and its columns, filled one bounded
block of rows per %, labels quoted by _field.
Loaders collect every problem they find and raise a single InputError
listing all of them, each naming the file, with 1-based row numbers
(the header is row 1). validate_matrix is the one column rule every stage calls.
Only the loaders and normalize_matrix make an IndicatorRegistry or a
DataMatrix, which do not check themselves: each rule has one body, in a loader.
"""

from __future__ import annotations

import csv
import math
import sys
from array import array
from collections.abc import Iterator
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
# fewest indicators that give a correlation between two columns
MIN_INDICATORS = 2


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
    """Indicators in the canonical column order, as load_indicator_metadata checked them."""

    specs: tuple[IndicatorSpec, ...]

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


@dataclass
class DataMatrix:
    """State-by-indicator values (finite float64, n x p), raw or rescaled, rows as loaded."""

    states: tuple[str, ...]
    values: np.ndarray
    registry: IndicatorRegistry

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    @property
    def n_indicators(self) -> int:
        return self.values.shape[1]


# state name -> Gini coefficient in [0, 1]
GiniTable = dict[str, float]

# the range of every finite float: the cell rule's default, so that only nan and +-inf fail it
_FINITE = (-sys.float_info.max, sys.float_info.max)

# what an empty, and what a repeated, first field is called in messages
_INDICATOR_KEY = ("indicator id", "indicator id")
_STATE_KEY = ("state name", "state")


def _read_rows(path: str | Path) -> Iterator[list[str]]:
    """Each row of a CSV file, header first, read one row at a time.

    The file must exist, be UTF-8 text and not be empty, or an InputError
    naming it is raised when reading reaches the fault; _check_header
    reads to the end first, so a read error wins over a header error.
    """
    path = Path(path)
    empty = True
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports put first
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for row in csv.reader(fh):
                empty = False
                yield row
    except FileNotFoundError:
        raise InputError(f"file not found: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read file ({exc.strerror})", path) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"not UTF-8 text (byte {_undecodable_byte(path, exc)})", path) from None
    except csv.Error as exc:
        raise InputError(f"not a CSV file ({exc})", path) from None
    if empty:
        raise InputError("file is empty", path)


def _undecodable_byte(path: Path, exc: UnicodeDecodeError) -> int:
    """The offset in path, byte-order mark counted, of the byte that is not UTF-8.

    exc counts from the start of the decoder's read chunk, so the whole
    file is decoded again; if it now decodes, exc's offset is all there is.
    """
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as whole:
        return whole.start
    return exc.start


def _field(text: str) -> str:
    """A label as csv.writer writes it: quoted, inner quotes doubled, if it holds , " CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# cells in one block of rows (at least one row): each block is filled by one %,
# so a writer holds about this many cells, and their text, at a time
_BLOCK_CELLS = 8192


def _write_rows(path: str | Path, header: list[str], row: str, columns) -> None:
    """Write a CSV file: the header cells, then row, a %-template, per entry of columns.

    columns are equal-length sequences, an ndarray one made Python floats
    a block at a time, so a %r cell is repr(float), which reads back to
    the same float. Labels must have gone through _field and fill only %s.
    Each block of _BLOCK_CELLS cells (or one wider row) is one % over the
    CRLF-joined templates; rows end in CRLF, as csv.writer ends them.
    """
    width = len(columns)
    step = max(1, _BLOCK_CELLS // width)
    line = row + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_field, header)) + "\r\n")
        for start in range(0, len(columns[0]), step):
            block = [column[start:start + step] for column in columns]
            cells = [None] * (len(block[0]) * width)
            for k, part in enumerate(block):
                cells[k::width] = part.tolist() if isinstance(part, np.ndarray) else part
            fh.write((line * len(block[0])) % tuple(cells))


def _keyed_rows(rows: Iterator[list[str]], width: int, key: tuple[str, str],
                problems: list[str]):
    """Yield (lineno, name, row) for each body row that passes the rules every loader shares.

    rows are the rows after the header. Blank rows are skipped. A row
    with other than `width` fields, an empty first field, or a first
    field seen on an earlier row is reported in problems and skipped;
    name is the stripped first field.
    """
    empty, repeated = key
    first_row: dict[str, int] = {}
    for lineno, row in enumerate(rows, start=2):
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


def _numeric_rows(path, rows: Iterator[list[str]], columns, key: tuple[str, str],
                  within: tuple[float, float] = _FINITE) -> tuple[list[str], np.ndarray]:
    """(names, values) of the _keyed_rows of a table whose key column is followed by columns.

    The cell rule: each cell after the key must be a float in the closed
    range within, finite by default. InputError names path and lists
    every cell that is not, by its row, key and column, with every row
    the row rule rejects. Passing cells go into one float buffer, which
    values, an n x len(columns) array, shares.
    """
    low, high = within
    problems: list[str] = []
    names: list[str] = []
    cells = array("d")
    for lineno, name, row in _keyed_rows(rows, 1 + len(columns), key, problems):
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
    if problems:
        raise InputError(problems, path)
    # every kept row put all its cells in cells, or a problem was raised above
    return names, np.frombuffer(cells, dtype=np.float64).reshape(len(names), len(columns))


def _check_header(path, rows: Iterator[list[str]], header: list[str]) -> None:
    """The header rule: the first row of rows, cells stripped, must be header.

    Otherwise InputError lists how it differs: a misnamed first column, then
    missing, unexpected or repeated columns, or else their order, once
    the rest of rows is read, so that a read error in the file wins.
    """
    # a blank first line reads as no cells: report it as an empty first column
    got = [c.strip() for c in next(rows)] or [""]
    if got == header:
        return
    first, *expected = header
    # the columns after the first are held to expected whatever the first is called
    columns = got[1:]
    missing = [c for c in expected if c not in columns]
    extra = [c for c in columns if c not in expected]
    repeated = [c for c in dict.fromkeys(columns) if columns.count(c) > 1]
    problems = [] if got[0] == first else [f"first header column must be {first!r}, got {got[0]!r}"]
    if missing:
        problems.append(f"missing columns: {', '.join(missing)}")
    if extra:
        problems.append(f"unexpected columns: {', '.join(extra)}")
    if repeated:
        problems.append(f"duplicate columns: {', '.join(repeated)}")
    for _ in rows:
        pass
    raise InputError(problems or [f"columns are not in the order {','.join(header)!r}"], path)


def _bulk_table(path, width: int, within: tuple[float, float]):
    """(names, values) of a body plain enough for one np.loadtxt call, or None.

    Streams path once for the names, then once through loadtxt. It gives
    up, returning None, on a body line that holds " or one of the ASCII
    separators U+001C to U+001F (which the C parse strips around a number
    and float() refuses), has other than width commas (so a blank line too)
    or is longer than csv's field limit, on an empty or repeated name,
    and on a value outside the closed range within, nan included. So a
    body it returns is one the row and cell rules accept, with the same
    names, and the same float bits, since float() and the C parse both
    end in PyOS_string_to_double. ValueError or OSError from reading
    also leaves the file to the rules.
    """
    limit = csv.field_size_limit()
    names: list[str] = []
    # universal newlines end lines exactly where csv.reader ends unquoted rows; a
    # quoted header field that spans lines ends in a body line holding "
    with open(path, encoding="utf-8-sig") as fh:
        fh.readline()
        body = fh.tell()
        for line in fh:
            if (line.count(",") != width or len(line) > limit or '"' in line or "\x1c" in line
                    or "\x1d" in line or "\x1e" in line or "\x1f" in line):
                return None
            names.append(line.partition(",")[0].strip())
        if not names or "" in names or len(set(names)) != len(names):
            return None
        fh.seek(body)
        values = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None,
                            usecols=range(1, width + 1), ndmin=2)
    low, high = within
    return (names, values) if np.all((low <= values) & (values <= high)) else None


def _read_table(path, header: list[str], key: tuple[str, str],
                within: tuple[float, float] = _FINITE):
    """(names, values) of a numeric CSV file under header: the one reader of every such file.

    The header rule, then one C parse of the body by _bulk_table, which
    takes only bodies the row and cell rules accept. Any other body goes
    to the row rule (key names the first column) and the cell rule,
    which decide what is accepted and name every problem.
    """
    rows = _read_rows(path)
    _check_header(path, rows, header)
    try:
        table = _bulk_table(path, len(header) - 1, within)
    except (ValueError, OSError):  # UnicodeDecodeError is a ValueError
        table = None
    if table is None:
        return _numeric_rows(path, rows, header[1:], key, within)
    rows.close()
    return table


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
    if len(specs) < MIN_INDICATORS:
        raise InputError(f"need at least {MIN_INDICATORS} indicators, got {len(specs)}", path)
    return IndicatorRegistry(specs=tuple(specs))


def load_observations(path: str | Path, registry: IndicatorRegistry) -> DataMatrix:
    """Read observations.csv, whose header must be 'state' plus the registry ids in order.

    The file needs at least MIN_STATES states; the cell rule holds every
    value to a finite float.
    """
    return _load_matrix(path, registry, _FINITE)


def _load_matrix(path, registry: IndicatorRegistry, within: tuple[float, float]) -> DataMatrix:
    """load_observations with the cells held to the closed range within by the cell rule."""
    states, data = _read_table(path, ["state", *registry.ids], _STATE_KEY, within)
    if len(states) < MIN_STATES:
        raise InputError(f"found {len(states)} states, need at least {MIN_STATES}", path)
    return DataMatrix(states=tuple(states), values=data, registry=registry)


def load_gini(path: str | Path) -> GiniTable:
    """Read gini.csv (state,gini) into a mapping; the cell rule holds each value to [0, 1]."""
    states, values = _read_table(path, GINI_HEADER, _STATE_KEY, (0.0, 1.0))
    return dict(zip(states, values[:, 0].tolist()))


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

    Values keep full precision and read back bit for bit. _write_rows
    converts one block of rows at a time, so no copy of the matrix is held.
    """
    _write_rows(path, ["state", *matrix.registry.ids], "%s" + ",%r" * matrix.n_indicators,
                [list(map(_field, matrix.states)), *matrix.values.T])
