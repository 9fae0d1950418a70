"""Deterministic synthetic dataset generator.

Every cell is a pure function of ``(seed, row, column, purpose)`` through a
64-bit SplitMix64 mix, so generation is bitwise reproducible across runs,
platforms, and row subsets. No global RNG state is involved. Cells are built
column by column: a column's text is made from its whole hash arrays at once.

Signal structure, so that models can actually learn from the output:

* numerical columns get a per-(column, class) center plus unit noise; the
  ``numeric_signal`` knob scales how far class centers sit apart,
* categorical columns draw from a per-column word pool partitioned into
  contiguous per-class blocks; the first token of a cell picks from the
  row's class block with probability ``token_signal``, remaining tokens are
  uniform noise. Cells carry 1 to 3 tokens depending on the column, which
  exercises tokenization and padding downstream.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .preprocess import _largest_remainder
from .schema import ColumnKind, DataTable, TableSchema

# Alphabetically ordered word roots; per-class pool blocks stay contiguous
# under the sorted vocabulary built at preprocessing time.
_WORDS = (
    "acker", "bellum", "cedar", "dolor", "ember", "fenum", "gale", "harrow",
    "iris", "jasper", "kelp", "lumen", "marrow", "nimbus", "ochre", "pallor",
    "quartz", "rime", "saffron", "tamar", "umber", "vellum", "willow",
    "xenon", "yarrow", "zephyr", "zinnia", "zircon", "zonal", "zydec",
    "zygote", "zymase", "zymoid", "zymurgy", "zyphid", "zyrtec", "zyzzyva",
    "zzaleph", "zzberyl", "zzcoral",
)

# Purpose tags keep the hash streams for unrelated decisions disjoint.
_TAG_LABEL = 1
_TAG_CENTER = 2
_TAG_NUM = 3
_TAG_OFFSET = 4
_TAG_WIDTH = 5
_TAG_SIG = 6
_TAG_PICK = 7
_TAG_NOISE = 8
_TAG_MISS = 9

_U64 = np.uint64


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over uint64 arrays (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (x + _U64(0x9E3779B97F4A7C15)).astype(_U64)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def _hash(seed: int, tag: int, a, b=0, c=0) -> np.ndarray:
    """Hash (seed, tag, a, b, c) to uint64; array arguments broadcast."""
    a = np.asarray(a, dtype=_U64)
    b = np.asarray(b, dtype=_U64)
    c = np.asarray(c, dtype=_U64)
    h = _mix(np.asarray(seed & 0xFFFFFFFFFFFFFFFF, dtype=_U64))
    h = _mix(h ^ _mix(np.asarray(tag, dtype=_U64)))
    h = _mix(h ^ a)
    h = _mix(h ^ b)
    h = _mix(h ^ c)
    return h


def _u01(h: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to floats in [0, 1) using the top 53 bits."""
    return (h >> _U64(11)).astype(np.float64) * (2.0**-53)


def _gauss(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Standard normal via Box-Muller from two hash streams."""
    u1 = np.maximum(_u01(h1), 2.0**-53)
    u2 = _u01(h2)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _shuffled_labels(rows: int, counts: np.ndarray, seed: int) -> np.ndarray:
    labels = np.repeat(np.arange(len(counts)), counts)
    # Fisher-Yates keyed off the hash stream; 64-bit modulo bias is
    # negligible at any realistic row count. Swap targets are hashed in one
    # call; the swaps themselves must stay sequential.
    positions = np.arange(rows - 1, 0, -1, dtype=_U64)
    targets = _hash(seed, _TAG_LABEL, positions) % (positions + _U64(1))
    for i, j in zip(positions.tolist(), targets.tolist()):
        labels[i], labels[j] = labels[j], labels[i]
    return labels


def _four_decimals(values: np.ndarray) -> list[str]:
    """``f"{v:.4f}"`` of every value, by one %-format over the whole array."""
    return ("%.4f\x00" * len(values) % tuple(values.tolist())).split("\x00")[:-1]


def generate_synthetic(
    schema: TableSchema,
    rows: int,
    seed: int,
    imbalance: list[float] | None = None,
    missing_fraction: float = 0.05,
    numeric_signal: float = 2.0,
    token_signal: float = 0.8,
) -> DataTable:
    """Generate a schema-compatible table with class-correlated features.

    Args:
        schema: target table schema; its class labels define K.
        rows: number of rows, must be >= K.
        seed: any integer; output is a pure function of the arguments.
        imbalance: K positive finite class weights (default uniform); class
            counts follow the weights within rounding. Weights whose shares
            ``rows * w / sum(w)`` overflow are refused.
        missing_fraction: probability a non-target cell is missing.
        numeric_signal: spread of per-class numeric centers, in units of the
            cell noise standard deviation. 0 removes numeric signal.
        token_signal: probability the first token of a categorical cell is
            drawn from the row's class block instead of the whole pool.

    Returns:
        A DataTable with exactly `rows` rows.
    """
    k = schema.n_classes
    if rows < k:
        raise DataError(f"rows ({rows}) must be at least the class count ({k})")
    if imbalance is None:
        weights = np.ones(k)
    else:
        if len(imbalance) != k:
            raise DataError(
                f"imbalance needs {k} weights, got {len(imbalance)}"
            )
        weights = np.asarray(imbalance, dtype=np.float64)
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise DataError("imbalance weights must be positive and finite")
    if not 0.0 <= missing_fraction < 1.0:
        raise DataError("missing_fraction must be in [0, 1)")
    if len(_WORDS) < 2 * k:
        raise DataError(f"generator supports at most {len(_WORDS) // 2} classes")

    with np.errstate(over="ignore", invalid="ignore"):
        shares = rows * weights / weights.sum()
    if not np.all(np.isfinite(shares)):
        raise DataError(
            f"imbalance weights {weights.tolist()} overflow: their class shares are not finite"
        )
    counts = _largest_remainder(rows, shares)
    labels = _shuffled_labels(rows, counts, seed)
    row_ids = np.arange(rows)

    target_idx = schema.column_index(schema.target)
    columns: list[list[str | None]] = []
    for j, col in enumerate(schema.columns):
        if j == target_idx:
            columns.append([schema.class_labels[k_] for k_ in labels.tolist()])
            continue
        if col.kind is ColumnKind.NUMERICAL:
            offset = 10.0 * (_u01(_hash(seed, _TAG_OFFSET, j)) - 0.5)
            # Evenly spaced class centers, not sampled ones: adjacent classes
            # always sit scale*numeric_signal noise units apart, so the
            # signal knob is a real separability guarantee per column.
            sign = 1.0 if int(_hash(seed, _TAG_CENTER, j) % _U64(2)) == 0 else -1.0
            scale = 0.5 + _u01(_hash(seed, _TAG_CENTER, j, 1))
            ladder = np.arange(k, dtype=np.float64) - (k - 1) / 2.0
            centers = sign * scale * numeric_signal * ladder
            noise = _gauss(
                _hash(seed, _TAG_NUM, row_ids, j),
                _hash(seed, _TAG_NUM, row_ids, j, 1),
            )
            values = offset + centers[labels] + noise
            cells = _four_decimals(values)
        else:
            pool_size = min(max(12, 2 * k), len(_WORDS))
            block = pool_size // k
            width = 1 + int(_hash(seed, _TAG_WIDTH, j) % _U64(3))
            first = np.where(
                _u01(_hash(seed, _TAG_SIG, row_ids, j)) < token_signal,
                labels * block
                + (_hash(seed, _TAG_PICK, row_ids, j) % _U64(block)).astype(np.int64),
                (_hash(seed, _TAG_PICK, row_ids, j, 1) % _U64(pool_size)).astype(
                    np.int64
                ),
            )
            slots = [first]
            for s in range(1, width):
                slots.append(
                    (_hash(seed, _TAG_NOISE, row_ids, j, s) % _U64(pool_size)).astype(
                        np.int64
                    )
                )
            words = [f"{w}{j}" for w in _WORDS]
            picked = [list(map(words.__getitem__, slot.tolist())) for slot in slots]
            cells = list(map(" ".join, zip(*picked)))
        if missing_fraction > 0.0:
            drop = _u01(_hash(seed, _TAG_MISS, row_ids, j)) < missing_fraction
            cells = [None if d else c for d, c in zip(drop.tolist(), cells)]
        columns.append(cells)

    return DataTable.from_columns(schema, columns)
