"""Fit/transform pipeline for mixed numeric and categorical columns.

Fitting learns, per column, everything needed to turn unseen raw rows into
model-ready arrays:

* numeric columns: mean and population standard deviation over non-missing
  parsed values (missing cells impute to the mean, then z-score; a constant
  column maps to 0 instead of dividing by zero),
* categorical columns: the modal raw value (imputation), a vocabulary of
  lowercase tokens, and the maximum token count seen (pad length).

Tokenization is lowercase followed by splitting on any run of characters
that is not a letter or a digit (underscore counts as a delimiter). A cell
is first split on whitespace; a cell with anything but letters, digits and
whitespace falls back to the regular expression, with the same tokens
either way. Index 0 is reserved for padding and index 1 for tokens unseen
at fit time, so vocabulary indices start at 2. At transform time each
column's indices are shifted by a per-column offset, giving disjoint index
ranges across columns so a single embedding table can serve every column;
padding stays index 0 globally. Cells longer than the fitted pad length are truncated to the
first ``pad_length`` tokens.

A state's JSON form holds only what its schema does not give: a
``numeric_stats`` object of the means and standard deviations, in the order
of the schema's ``numeric_feature_names``, and per categorical column its
token list (indices 2..n+1 in list order), pad length and mode. Which
columns are numeric and which categorical is read from the schema alone.
Class indices follow the schema's class labels. Building a state checks
every fact the schema does not give.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, SchemaMismatchError
from .packed import digest, fields
from .schema import DataTable, TableSchema

logger = logging.getLogger(__name__)

PAD_INDEX = 0
UNKNOWN_INDEX = 1

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase, then split on runs of non-letter/non-digit characters.

    ``re`` defines ``[^\\W_]`` by ``str.isalnum``, and no whitespace is
    alphanumeric, so whitespace-split parts that are all alphanumeric are
    the regular expression's tokens; the split is several times cheaper.
    """
    low = text.lower()
    parts = low.split()
    return parts if all(map(str.isalnum, parts)) else _TOKEN_RE.findall(low)


def _parse_float(text: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def _parse_cells(columns: list[tuple[str | None, ...]]) -> np.ndarray:
    """``_parse_float`` of each cell, NaN where a cell is None; shape (columns, rows).

    ``float`` parses every cell in one pass. It rejects some text that
    ``str.strip`` makes parseable, such as a number after ``"\\x1c"``; when
    it rejects a cell, every cell is parsed by ``_parse_float``. Where
    ``float`` accepts a cell, it gives what ``_parse_float`` would.
    """
    n_rows = len(columns[0]) if columns else 0
    try:
        parsed = np.array(
            [math.nan if c is None else float(c) for col in columns for c in col],
            dtype=np.float64,
        )
    except ValueError:
        parsed = np.array(
            [math.nan if c is None else _parse_float(c) for col in columns for c in col],
            dtype=np.float64,
        )
    parsed = parsed.reshape(len(columns), n_rows)
    parsed[~np.isfinite(parsed)] = math.nan  # as _parse_float, -nan and inf included
    return parsed


def _parse_numeric(table: DataTable, names: tuple[str, ...], outcome: str) -> np.ndarray:
    """Columns ``names`` as floats, shape (columns, rows), NaN where a cell
    is missing or unparseable.

    Unparseable (or non-finite) cells are counted in one warning per column
    that ends with ``outcome``, what the caller does with them.
    """
    raws = [table.column(name) for name in names]
    parsed = _parse_cells(raws).reshape(len(names), table.row_count)  # names may be empty
    n_nan = np.count_nonzero(np.isnan(parsed), axis=1).tolist()
    for name, raw, nan_count in zip(names, raws, n_nan):
        bad = nan_count - raw.count(None)
        if bad:
            logger.warning("column %r: %d non-numeric cell(s) %s", name, bad, outcome)
    return parsed


@dataclass(frozen=True)
class ColumnVocabulary:
    """Per categorical column: token list, pad length, and mode.

    Token ``tokens[i]`` has local index i + 2; 0 is padding and 1 means
    unknown. ``pad_length`` is the maximum token count observed in a cell
    at fit time, at least 1.

    Raises:
        DataError: tokens that are not distinct strings, a pad length that
            is not an integer of at least 1, or a mode that is not a string.
    """

    tokens: tuple[str, ...]
    pad_length: int
    mode_value: str

    def __post_init__(self):
        tokens = self.tokens
        if not all(type(t) is str for t in tokens) or len(set(tokens)) != len(tokens):
            raise DataError("vocabulary tokens must be distinct strings")
        if type(self.pad_length) is not int or self.pad_length < 1:
            raise DataError(f"vocabulary pad length {self.pad_length!r} must be an integer >= 1")
        if type(self.mode_value) is not str:
            raise DataError(f"vocabulary mode {self.mode_value!r} must be a string")

    @cached_property
    def token_to_index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tokens, start=2)}

    @property
    def size(self) -> int:
        """Local index range: pad + unknown + vocabulary."""
        return len(self.tokens) + 2


@dataclass(frozen=True)
class PreprocessState:
    """Everything needed to transform unseen rows of a fitted schema.

    ``means`` and ``stds`` hold each numeric feature's fitted mean and
    population standard deviation, and ``vocabularies`` is keyed by the
    categorical features, each in the order of the schema, whose
    ``numeric_feature_names`` and ``categorical_feature_names`` name them.

    Raises:
        DataError: means or stds that are not one finite number per numeric
            column, a negative std, or vocabularies not keyed by the
            categorical features in schema order.
    """

    schema: TableSchema
    means: tuple[float, ...]
    stds: tuple[float, ...]
    vocabularies: dict[str, ColumnVocabulary]

    def __post_init__(self):
        n = len(self.schema.numeric_feature_names)
        for name, values in (("means", self.means), ("stds", self.stds)):
            finite = all(type(v) in (int, float) and math.isfinite(v) for v in values)
            if len(values) != n or not finite:
                raise DataError(f"preprocess state needs {n} finite {name}, one per numeric column")
        if any(s < 0 for s in self.stds):
            raise DataError("preprocess state holds a negative standard deviation")
        if list(self.vocabularies) != list(self.schema.categorical_feature_names):
            raise DataError("preprocess state vocabularies must follow the categorical features")

    @property
    def total_padded_width(self) -> int:
        return sum(v.pad_length for v in self.vocabularies.values())

    @property
    def total_vocab_size(self) -> int:
        return sum(v.size for v in self.vocabularies.values())

    def view_width(self, view: str) -> int:
        """Columns of the flat feature matrix of ``view``: the numerics, then
        every token position, one frequency per categorical column, or nothing."""
        extra = {"numeric": 0, "numeric+tokens": self.total_padded_width,
                 "numeric+frequency": len(self.schema.categorical_feature_names)}
        return len(self.schema.numeric_feature_names) + extra[view]

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema.to_json_dict(),
            "numeric_stats": {"means": list(self.means), "stds": list(self.stds)},
            "vocabularies": {
                name: {
                    "tokens": list(voc.tokens),
                    "pad_length": voc.pad_length,
                    "mode_value": voc.mode_value,
                }
                for name, voc in self.vocabularies.items()
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PreprocessState":
        schema, stats, vocabularies = fields(
            doc, ("schema", "numeric_stats", "vocabularies"), "preprocess state"
        )
        means, stds = fields(stats, ("means", "stds"), "preprocess numeric_stats")
        decoded = {}
        for name, voc in vocabularies.items():
            what = f"vocabulary {name!r}"
            tokens, pad_length, mode = fields(voc, ("tokens", "pad_length", "mode_value"), what)
            if type(tokens) is not list:
                raise DataError(f"{what} tokens must be a list")
            decoded[name] = ColumnVocabulary(tuple(tokens), pad_length, mode)
        return cls(TableSchema.from_json_dict(schema), tuple(means), tuple(stds), decoded)

    def fingerprint(self) -> str:
        return digest(self.to_json_dict())


@dataclass(frozen=True)
class EncodedDataset:
    """Model-ready arrays: standardized numerics, padded token indices, labels.

    ``labels`` holds class indices; -1 marks a row whose target cell was
    missing (prediction-only input). ``row_indices`` point back into the
    table the arrays came from, so raw-value views (e.g. frequency encoding)
    can be built for the same rows.
    """

    numeric: np.ndarray
    tokens: np.ndarray
    labels: np.ndarray
    row_indices: np.ndarray

    def __post_init__(self):
        if self.numeric.shape[0] != self.tokens.shape[0] or self.numeric.shape[
            0
        ] != len(self.labels):
            raise DataError("encoded arrays disagree on row count")

    @property
    def n_rows(self) -> int:
        return self.numeric.shape[0]

    def subset(self, indices: np.ndarray) -> "EncodedDataset":
        idx = np.asarray(indices)
        return EncodedDataset(
            self.numeric[idx],
            self.tokens[idx],
            self.labels[idx],
            self.row_indices[idx],
        )


def fit(table: DataTable) -> PreprocessState:
    """Learn imputation, scaling, and vocabulary state from a table.

    Every column must contain at least one non-missing value, and each
    numeric column's mean and standard deviation must be finite (a column
    of values near the float64 limit overflows them). Numeric cells that
    fail to parse (or parse non-finite) count as missing and are reported
    in a warning. Mode ties break to the lexicographically smallest
    value so fitting is deterministic.
    """
    schema = table.schema
    means = []
    stds = []
    parsed = _parse_numeric(table, schema.numeric_feature_names, "treated as missing")
    for name, col in zip(schema.numeric_feature_names, parsed):
        values = col[~np.isnan(col)]
        if not values.size:
            raise DataError(f"column {name!r} has no usable values to fit on")
        with np.errstate(over="ignore", invalid="ignore"):  # checked below instead
            mean, std = float(values.mean()), float(values.std())
        if not (math.isfinite(mean) and math.isfinite(std)):
            raise DataError(f"column {name!r} holds values too large for a finite mean and std")
        means.append(mean)
        stds.append(std)

    vocabularies: dict[str, ColumnVocabulary] = {}
    for name in schema.categorical_feature_names:
        counts = Counter(table.column(name))
        counts.pop(None, None)
        if not counts:
            raise DataError(f"column {name!r} has no usable values to fit on")
        top = max(counts.values())
        mode_value = min(v for v, n in counts.items() if n == top)
        tokens: set[str] = set()
        pad_length = 1
        for cell in counts:
            cell_tokens = tokenize(cell)
            tokens.update(cell_tokens)
            pad_length = max(pad_length, len(cell_tokens))
        vocabularies[name] = ColumnVocabulary(tuple(sorted(tokens)), pad_length, mode_value)

    if all(c is None for c in table.column(schema.target)):
        raise DataError(f"target column {schema.target!r} is entirely missing")

    return PreprocessState(schema, tuple(means), tuple(stds), vocabularies)


def _encode_column(
    cells: tuple[str | None, ...], voc: ColumnVocabulary, base: int
) -> np.ndarray:
    """Padded global codes of each cell, shape (rows, pad_length): column
    ``base`` + local index, truncated to the pad length.

    A missing cell is the mode. Each distinct cell is tokenized once.
    """
    mode = voc.mode_value
    pad = voc.pad_length
    position: dict[str, int] = {}
    rows = [position.setdefault(mode if c is None else c, len(position)) for c in cells]
    lookup = voc.token_to_index.get
    codes = [PAD_INDEX] * (len(position) * pad)
    for start, cell in zip(range(0, len(codes), pad), position):
        for i, token in enumerate(tokenize(cell)[:pad], start):
            codes[i] = base + lookup(token, UNKNOWN_INDEX)
    return np.array(codes, dtype=np.int64).reshape(len(position), pad).take(rows, axis=0)


def transform(table: DataTable, state: PreprocessState) -> EncodedDataset:
    """Apply a fitted state to a table; rows are processed independently.

    Missing numerics impute to the fitted mean and standardize to 0;
    constant columns standardize to 0 everywhere. Missing categoricals
    impute to the fitted mode; unseen tokens map to the unknown index.
    Each distinct cell of a column is encoded once per call. Rows whose
    target cell is missing get label -1. Each call reads the state's fields
    afresh; nothing is cached on the state.
    """
    if table.schema != state.schema:
        raise SchemaMismatchError(
            "table schema differs from the schema the state was fitted on"
        )
    n_rows = table.row_count

    names = state.schema.numeric_feature_names
    means = np.array(state.means, dtype=np.float64)
    stds = np.array(state.stds, dtype=np.float64)
    parsed = _parse_numeric(table, names, "imputed to the mean").T.copy()
    parsed = np.where(np.isnan(parsed), means, parsed)
    numeric = np.zeros_like(parsed)  # constant columns stay 0
    np.divide(parsed - means, stds, out=numeric, where=stds > 0.0)

    blocks = []
    base = 0  # each column's codes are a disjoint block of the global index range
    for name, voc in state.vocabularies.items():
        blocks.append(_encode_column(table.column(name), voc, base))
        base += voc.size
    tokens = (
        np.concatenate(blocks, axis=1) if blocks else np.zeros((n_rows, 0), np.int64)
    )

    target = table.column(state.schema.target)
    index = {label: i for i, label in enumerate(state.schema.class_labels)}
    labels = np.array([-1 if c is None else index[c] for c in target], dtype=np.int64)
    return EncodedDataset(numeric, tokens, labels, np.arange(n_rows, dtype=np.int64))


def _largest_remainder(total: int, share: np.ndarray) -> np.ndarray:
    """Counts summing to ``total``, each the floor or ceil of its ``share``:
    the rows the floors leave go to the largest remainders, the lowest index
    first on a tie. Shares are used as given, not renormalised, since split
    fractions such as 0.7/0.2/0.1 sum to 0.9999999999999999."""
    counts = np.floor(share).astype(np.int64)
    deficit = total - int(counts.sum())
    order = np.lexsort((np.arange(len(share)), -(share - counts)))
    counts[order[:deficit]] += 1
    return counts


def stratified_split(
    data: EncodedDataset,
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[EncodedDataset, EncodedDataset, EncodedDataset]:
    """Partition rows into train/val/test preserving class proportions.

    Per class, ``_largest_remainder`` allocates the shares ``len(members) *
    fractions``, so each split's class count is the floor or ceil of the
    exact proportional share. The three splits are disjoint and exhaustive,
    and the result depends only on the data and the seed. A class needs at
    least 3 members, but that does not put one in every split: 3 members at
    0.8/0.1/0.1 land 3/0/0, so a split can come back empty, or hold one
    class, and the caller decides whether it may.

    Raises:
        DataError: fractions not positive (NaN included) or not summing to 1,
            rows with missing labels, or a present class with fewer than 3 members.
    """
    fr = np.asarray(fractions, dtype=np.float64)
    if len(fr) != 3:
        raise DataError("fractions must be (train, val, test)")
    if not np.all(fr > 0):  # written so that NaN fails too
        raise DataError("split fractions must all be positive")
    if abs(float(fr.sum()) - 1.0) > 1e-9:
        raise DataError(f"split fractions sum to {float(fr.sum())}, expected 1")
    labels = data.labels
    if np.any(labels < 0):
        raise DataError("cannot split rows with missing labels")

    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[], [], []]
    for cls in np.unique(labels):
        members = np.nonzero(labels == cls)[0]
        if len(members) < 3:
            raise DataError(
                f"class index {int(cls)} has only {len(members)} member(s); "
                f"a class needs at least 3 to be split"
            )
        members = rng.permutation(members)
        stops = np.cumsum(_largest_remainder(len(members), len(members) * fr))
        parts[0].append(members[: stops[0]])
        parts[1].append(members[stops[0] : stops[1]])
        parts[2].append(members[stops[1] :])

    splits = []
    for chunks in parts:
        idx = np.sort(np.concatenate(chunks)) if chunks else np.empty(0, np.int64)
        splits.append(data.subset(idx))
    return splits[0], splits[1], splits[2]
