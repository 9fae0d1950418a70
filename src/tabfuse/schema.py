"""Tabular data model: column schema, CSV I/O, and table validation.

A :class:`TableSchema` declares ordered columns (numerical or categorical),
the categorical target column, and the ordered label set. A
:class:`DataTable` holds raw text cells against a schema; every cell is
either a string or ``None`` (missing). Numeric parsing is deferred to
preprocessing so that stray text in numeric columns never kills ingestion.
A loaded categorical column, the target included, holds each repeated
value as one string, as a column store's dictionary does; numerical cells
are mostly distinct and are not shared.

Schema files are JSON documents::

    {
      "columns": [{"name": "temperature", "kind": "numerical"},
                  {"name": "complaint", "kind": "categorical"},
                  {"name": "outcome", "kind": "categorical"}],
      "target": "outcome",
      "class_labels": ["home", "admitted", "transfer"]
    }

It holds exactly these three fields, and each column its name and kind.
Every column but the target is a feature. The schema's
``numeric_feature_names`` and ``categorical_feature_names`` are the one
record of which features are which kind: preprocessing, the models and
``tabfuse inspect`` all read them.

CSV files are RFC 4180: comma separated, first row is the header, UTF-8,
quoted fields where needed. Header order does not have to match schema
order. The missing sentinels are fixed: a cell of ``""`` or ``"NA"``
(``DEFAULT_MISSING_VALUES``) loads as missing, so no class label may be one,
and a missing cell is written as ``""``. Files are written a block of rows
at a time, each block formatted column by column and joined into one
string, with the bytes ``csv.writer``'s default dialect would write.
"""

from __future__ import annotations

import csv
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .packed import fields

DEFAULT_MISSING_VALUES = ("", "NA")

# Rows load_csv parses before moving their cells into its columns. Each
# block's row lists reuse the memory the last block's freed; 4096-row
# blocks left 3 MiB more resident after loading 20k rows of 11 columns.
_CSV_BLOCK_ROWS = 256

# Rows that write_csv and the predictions write format, column by column,
# and write as one string. Per block, not per table, so no string of the
# whole file is built. Writing 20k predictions took the same time with
# 1024- and 4096-row blocks, and peaked (tracemalloc) at 1 and 3.2 MiB.
_WRITE_BLOCK_ROWS = 1024

# A cell holding one of these is quoted, as csv.QUOTE_MINIMAL quotes it.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


class ColumnKind(str, Enum):
    NUMERICAL = "numerical"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class ColumnSpec:
    """One column: a non-empty name and a kind."""

    name: str
    kind: ColumnKind

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise DataError(f"column name {self.name!r} must be a string")
        if not self.name:
            raise DataError("column name must be non-empty")
        if not isinstance(self.kind, ColumnKind):
            object.__setattr__(self, "kind", ColumnKind(self.kind))


@dataclass(frozen=True)
class TableSchema:
    """Ordered column specs plus the target column and its label set.

    The target must name exactly one categorical column; class labels are
    distinct strings, none a missing sentinel, and there are at least two
    of them. Feature columns are all columns except the target:
    ``numeric_feature_names`` and ``categorical_feature_names`` name them by
    kind, in schema order, and are computed once, when the schema is built.
    """

    columns: tuple[ColumnSpec, ...]
    target: str
    class_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "class_labels", tuple(self.class_labels))
        names = [c.name for c in self.columns]
        # Not fields: no part of equality, repr or the JSON form.
        object.__setattr__(self, "_positions", {n: i for i, n in enumerate(names)})
        for attr, kind in (("numeric_feature_names", ColumnKind.NUMERICAL),
                           ("categorical_feature_names", ColumnKind.CATEGORICAL)):
            features = (c.name for c in self.columns if c.kind is kind and c.name != self.target)
            object.__setattr__(self, attr, tuple(features))
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate column names: {dupes}")
        targets = [c for c in self.columns if c.name == self.target]
        if len(targets) != 1:
            raise DataError(f"target column {self.target!r} not found in schema")
        if targets[0].kind is not ColumnKind.CATEGORICAL:
            raise DataError(f"target column {self.target!r} must be categorical")
        for label in self.class_labels:
            if not isinstance(label, str):
                raise DataError(f"class label {label!r} must be a string")
            if label in DEFAULT_MISSING_VALUES:
                raise DataError(f"class label {label!r} reads as a missing cell in a CSV")
        if len(self.class_labels) < 2:
            raise DataError("schema needs at least 2 class labels")
        if len(set(self.class_labels)) != len(self.class_labels):
            raise DataError("class labels must be distinct")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    def column_index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise DataError(f"no column named {name!r}") from None

    def to_json_dict(self) -> dict:
        return {
            "columns": [{"name": c.name, "kind": c.kind.value} for c in self.columns],
            "target": self.target,
            "class_labels": list(self.class_labels),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TableSchema":
        columns, target, class_labels = fields(doc, ("columns", "target", "class_labels"), "schema")
        if type(class_labels) is not list:
            raise DataError(f"schema class_labels {class_labels!r} must be a list")
        try:
            cols = tuple(ColumnSpec(*fields(c, ("name", "kind"), "schema column")) for c in columns)
            return cls(cols, target, tuple(class_labels))
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed schema document: {exc}") from exc


@dataclass(frozen=True, init=False)
class DataTable:
    """Immutable grid of optional text cells conforming to a schema.

    The table stores one tuple per schema column (schema order), all of one
    length; ``None`` marks a missing value. Non-missing target cells must be
    members of the schema's class labels. ``DataTable(schema, rows)`` takes
    rows of one cell per column; :meth:`from_columns` takes the columns.
    """

    schema: TableSchema
    columns: tuple[tuple[str | None, ...], ...]

    def __init__(self, schema: TableSchema, cells: Iterable[Sequence[str | None]] = ()):
        rows = [tuple(row) for row in cells]
        width = len(schema.columns)
        target = schema.column_index(schema.target)
        allowed = {*schema.class_labels, None}
        for r, row in enumerate(rows):
            if len(row) != width:
                raise DataError(f"row {r + 1}: expected {width} cells, got {len(row)}")
            if row[target] not in allowed:
                raise _target_error(r, row[target])
        self._store(schema, tuple(zip(*rows)) if rows else ((),) * width)

    @classmethod
    def from_columns(
        cls, schema: TableSchema, columns: Sequence[Sequence[str | None]]
    ) -> "DataTable":
        """A table from one sequence of cells per schema column, in schema order."""
        columns = tuple(c if type(c) is tuple else tuple(c) for c in columns)
        if len(columns) != len(schema.columns):
            raise DataError(f"expected {len(schema.columns)} columns, got {len(columns)}")
        if len({len(c) for c in columns}) > 1:
            raise DataError("columns differ in length")
        target = columns[schema.column_index(schema.target)]
        allowed = {*schema.class_labels, None}
        if set(target).difference(allowed):
            raise _target_error(*next((r, c) for r, c in enumerate(target) if c not in allowed))
        table = cls.__new__(cls)
        table._store(schema, columns)
        return table

    def _store(self, schema: TableSchema, columns: tuple) -> None:
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "columns", columns)

    @property
    def row_count(self) -> int:
        return len(self.columns[0])

    @property
    def cells(self) -> tuple[tuple[str | None, ...], ...]:
        """The rows, built from the columns on every access."""
        return tuple(zip(*self.columns))

    def column(self, name: str) -> tuple[str | None, ...]:
        return self.columns[self.schema.column_index(name)]

    def subset(self, indices: Iterable[int]) -> "DataTable":
        """The rows at ``indices``, in that order; an index may repeat.

        Raises:
            DataError: an index outside [0, row_count); a negative index
                does not count from the end.
        """
        pick = list(indices)
        n = self.row_count
        if pick and (min(pick) < 0 or max(pick) >= n):
            bad = next(i for i in pick if not 0 <= i < n)
            raise DataError(f"row index {bad} is outside a table of {n} rows")
        return DataTable.from_columns(
            self.schema, [tuple(map(c.__getitem__, pick)) for c in self.columns]
        )


def _target_error(r: int, cell: str) -> DataError:
    return DataError(
        f"row {r + 1}: target value {cell!r} is not one of the schema class labels"
    )


@contextmanager
def open_input(path: str | Path, kind: str):
    """Open a UTF-8 input; a missing, unreadable or non-UTF-8 file is a DataError.

    A leading byte-order mark, as spreadsheet programs write in "CSV UTF-8",
    is dropped; a file without one decodes as plain UTF-8.
    """
    p = Path(path)
    if not p.exists():
        raise DataError(f"{kind} file not found: {p}")
    try:
        with open(p, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {kind} file {p}: {exc}") from None


def load_json(path: str | Path, kind: str):
    """Parse a JSON input file; every way it can fail is a DataError."""
    with open_input(path, kind) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{kind} file {path} is not valid JSON: {exc}") from None
        except RecursionError:
            raise DataError(f"{kind} file {path} is nested too deeply to parse") from None


def load_schema(path: str | Path) -> TableSchema:
    """Read a JSON schema document. Raises DataError naming a missing path."""
    return TableSchema.from_json_dict(load_json(path, "schema"))


def save_schema(schema: TableSchema, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(schema.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )


def load_csv(path: str | Path, schema: TableSchema) -> DataTable:
    """Read a CSV file against a schema.

    The header must contain exactly the schema's column names, in any order;
    cells are re-ordered to schema order. Cells equal to a missing sentinel
    of ``DEFAULT_MISSING_VALUES`` become missing. In a categorical column,
    the target included, every cell of one value is the same string object,
    the first read with it; numerical cells are not shared.

    Raises:
        DataError: missing, unreadable or non-UTF-8 file, header mismatch
            (lists missing, extra and repeated columns), row arity mismatch
            (reports the 1-based data row), a line ``csv.reader`` cannot
            parse, such as one with a cell past its field size limit (reports
            the line), or a target cell outside the schema's class labels.
    """
    p = Path(path)
    with open_input(p, "CSV") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{p}: empty file, expected a header row")
            expected = set(schema.column_names)
            got = set(header)
            if got != expected or len(header) != len(set(header)):
                lacking = sorted(expected - got)
                extra = sorted(got - expected)
                repeated = sorted(name for name in got if header.count(name) > 1)
                raise DataError(
                    f"{p}: header mismatch; missing columns {lacking}, "
                    f"unexpected columns {extra}, repeated columns {repeated}"
                )
            width = len(header)
            # Each column's dict maps the missing sentinels to None. Through
            # setdefault, a categorical cell becomes the string first read
            # with its value, so each block's copies are freed; numerical
            # cells are mostly distinct, so get leaves them their own.
            readers = []
            for name in header:
                seen = dict.fromkeys(DEFAULT_MISSING_VALUES)
                kind = schema.columns[schema.column_index(name)].kind
                readers.append(seen.setdefault if kind is ColumnKind.CATEGORICAL else seen.get)
            by_header: list[list | None] = [[] for _ in header]
            start = 1
            while rows := list(islice(reader, _CSV_BLOCK_ROWS)):
                for r, raw in enumerate(rows, start=start):
                    if len(raw) != width:
                        raise DataError(f"{p}: row {r} has {len(raw)} cells, expected {width}")
                for cells, read, block in zip(by_header, readers, zip(*rows)):
                    cells.extend(map(read, block, block))
                start += len(rows)
            del readers
        except csv.Error as exc:
            # A cell past the reader's field size limit, or (before Python
            # 3.11) a NUL byte.
            raise DataError(f"{p}: line {reader.line_num}: {exc}") from None
    columns = []
    for name in schema.column_names:
        i = header.index(name)
        cells, by_header[i] = by_header[i], None  # freed once its tuple is built
        columns.append(tuple(cells))
    return DataTable.from_columns(schema, columns)


def write_csv(table: DataTable, path: str | Path) -> None:
    """Write a table as CSV in schema column order.

    Missing cells are written as ``""``. A data cell of ``"NA"`` is written
    as itself and so loads back as missing.
    """
    _write_csv_rows(path, table.schema.column_names, table.columns)


def _write_csv_rows(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[Sequence[str | None] | np.ndarray],
) -> None:
    """Write ``header`` and then the rows of ``columns`` as csv.writer would.

    A column is a sequence of text cells, where ``None`` is written as
    ``""``, or a 1-D float array, whose numbers are written as
    their ``repr``. Each block of ``_WRITE_BLOCK_ROWS`` rows is formatted
    column by column and written as one string.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_lines([_quoted([name]) for name in header]))
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            rows = slice(start, start + _WRITE_BLOCK_ROWS)
            fh.write(_csv_lines([_column_text(column[rows]) for column in columns]))


def _column_text(cells: Sequence[str | None] | np.ndarray) -> list[str]:
    if isinstance(cells, np.ndarray):
        return list(map(repr, cells.tolist()))  # no float's repr needs quotes
    return _quoted(["" if c is None else c for c in cells])


def _quoted(cells: list[str]) -> list[str]:
    """``cells`` as csv.QUOTE_MINIMAL writes them.

    A cell holding a comma, a quote or a line break is quoted, its quotes
    doubled. A check of the joined cells skips the per-cell test where no
    cell needs it.
    """
    text = "".join(cells)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells]
    return cells


def _csv_lines(columns: list[list[str]]) -> str:
    """The rows across ``columns`` as CSV lines, each ending in CRLF.

    Like csv.writer, a row that is one empty cell is written ``""``.
    """
    if len(columns) == 1:
        columns = [['""' if c == "" else c for c in columns[0]]]
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"
