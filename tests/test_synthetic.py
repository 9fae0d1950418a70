import numpy as np
import pytest

from tabfuse.errors import DataError
from tabfuse.preprocess import _largest_remainder
from tabfuse.schema import ColumnKind, ColumnSpec, TableSchema
from tabfuse.synthetic import (
    _TAG_CENTER,
    _TAG_LABEL,
    _TAG_MISS,
    _TAG_NOISE,
    _TAG_NUM,
    _TAG_OFFSET,
    _TAG_PICK,
    _TAG_SIG,
    _TAG_WIDTH,
    _U64,
    _WORDS,
    _four_decimals,
    _gauss,
    _hash,
    _shuffled_labels,
    _u01,
    generate_synthetic,
)


def schema_k(k=3, numeric=2, categorical=2):
    cols = [ColumnSpec(f"num{i}", ColumnKind.NUMERICAL) for i in range(numeric)]
    cols += [ColumnSpec(f"cat{i}", ColumnKind.CATEGORICAL) for i in range(categorical)]
    cols.append(ColumnSpec("label", ColumnKind.CATEGORICAL))
    return TableSchema(
        tuple(cols), target="label", class_labels=tuple(f"c{i}" for i in range(k))
    )


def test_bitwise_reproducible():
    s = schema_k()
    a = generate_synthetic(s, 150, seed=7)
    b = generate_synthetic(s, 150, seed=7)
    assert a == b


def test_different_seeds_differ():
    s = schema_k()
    a = generate_synthetic(s, 150, seed=7)
    b = generate_synthetic(s, 150, seed=8)
    assert a != b


def test_row_count_and_width():
    s = schema_k(numeric=3, categorical=1)
    t = generate_synthetic(s, 57, seed=0)
    assert t.row_count == 57
    assert all(len(row) == 5 for row in t.cells)


def test_uniform_class_counts_within_one():
    s = schema_k(k=3)
    t = generate_synthetic(s, 100, seed=1, missing_fraction=0.0)
    labels = t.column("label")
    counts = sorted(labels.count(f"c{i}") for i in range(3))
    # 100/3 split by largest remainder: 33, 33, 34
    assert counts == [33, 33, 34]


def test_imbalance_respected():
    s = schema_k(k=2)
    t = generate_synthetic(s, 100, seed=2, imbalance=[3, 1], missing_fraction=0.0)
    labels = t.column("label")
    assert labels.count("c0") == 75
    assert labels.count("c1") == 25


def test_target_never_missing():
    s = schema_k()
    t = generate_synthetic(s, 200, seed=3, missing_fraction=0.5)
    assert all(v is not None for v in t.column("label"))


def test_missing_fraction_roughly_honored():
    s = schema_k(numeric=4, categorical=0)
    t = generate_synthetic(s, 500, seed=4, missing_fraction=0.2)
    cells = [c for name in ("num0", "num1", "num2", "num3") for c in t.column(name)]
    frac = sum(c is None for c in cells) / len(cells)
    assert 0.15 < frac < 0.25


def test_zero_missing_fraction_means_no_missing():
    s = schema_k()
    t = generate_synthetic(s, 80, seed=5, missing_fraction=0.0)
    assert all(c is not None for row in t.cells for c in row)


def test_numeric_cells_parse():
    s = schema_k(numeric=2, categorical=0)
    t = generate_synthetic(s, 60, seed=6, missing_fraction=0.0)
    for name in ("num0", "num1"):
        for cell in t.column(name):
            float(cell)


def test_numeric_signal_separates_class_means():
    """Class-conditional means must differ when the signal knob is up.

    The generator spaces class centers at least 0.5 * numeric_signal noise
    units apart in every numeric column, for every seed.
    """
    for seed in range(10):
        s = schema_k(k=2, numeric=1, categorical=0)
        t = generate_synthetic(
            s, 400, seed=seed, missing_fraction=0.0, numeric_signal=4.0
        )
        values = np.array([float(v) for v in t.column("num0")])
        labels = np.array(t.column("label"))
        gap = abs(values[labels == "c0"].mean() - values[labels == "c1"].mean())
        assert gap > 1.0, f"seed {seed}: gap {gap}"


def test_rows_below_class_count_rejected():
    with pytest.raises(DataError, match="at least"):
        generate_synthetic(schema_k(k=3), 2, seed=0)


def test_bad_imbalance_length():
    with pytest.raises(DataError, match="3 weights"):
        generate_synthetic(schema_k(k=3), 50, seed=0, imbalance=[1, 2])


def test_nonpositive_imbalance_rejected():
    with pytest.raises(DataError, match="positive"):
        generate_synthetic(schema_k(k=2), 50, seed=0, imbalance=[1, 0])


def test_bad_missing_fraction():
    with pytest.raises(DataError, match="missing_fraction"):
        generate_synthetic(schema_k(), 50, seed=0, missing_fraction=1.0)


class TestLargestRemainder:
    def test_exact_shares(self):
        counts = _largest_remainder(100, np.array([80.0, 10.0, 10.0]))
        assert counts.tolist() == [80, 10, 10]

    def test_within_one_of_share(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(1, 8))
            w = rng.uniform(0.1, 5.0, size=k)
            share = n * w / w.sum()
            counts = _largest_remainder(n, share)
            assert counts.sum() == n
            assert np.all(np.abs(counts - share) < 1.0)

    def test_remainder_tie_goes_to_lowest_index(self):
        # shares 1.5, 1.5, 1.0: one leftover unit, equal remainders
        counts = _largest_remainder(4, np.array([1.5, 1.5, 1.0]))
        assert counts.tolist() == [2, 1, 1]


def _shuffled_labels_per_row(rows, counts, seed):
    """Fisher-Yates with one hash call per row: the reference order."""
    labels = np.repeat(np.arange(len(counts)), counts)
    for i in range(rows - 1, 0, -1):
        j = int(_hash(seed, _TAG_LABEL, i) % np.uint64(i + 1))
        labels[i], labels[j] = labels[j], labels[i]
    return labels


@pytest.mark.parametrize("rows", [1, 2, 57, 5000])
@pytest.mark.parametrize("seed", [0, 7, -7, 2**63 + 5])
def test_shuffled_labels_match_per_row_reference(rows, seed):
    counts = _largest_remainder(rows, rows * np.array([3.0, 1.0, 1.0]) / 5.0)
    got = _shuffled_labels(rows, counts, seed)
    want = _shuffled_labels_per_row(rows, counts, seed)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _generate_per_row(
    schema, rows, seed, imbalance=None, missing_fraction=0.05,
    numeric_signal=2.0, token_signal=0.8,
):
    """The generator with its cell text built row by row: the reference cells."""
    k = schema.n_classes
    weights = np.ones(k) if imbalance is None else np.asarray(imbalance, dtype=np.float64)
    counts = _largest_remainder(rows, rows * weights / weights.sum())
    labels = _shuffled_labels(rows, counts, seed)
    row_ids = np.arange(rows)

    target_idx = schema.column_index(schema.target)
    columns = []
    for j, col in enumerate(schema.columns):
        if j == target_idx:
            columns.append([schema.class_labels[k_] for k_ in labels])
            continue
        if col.kind is ColumnKind.NUMERICAL:
            offset = 10.0 * (_u01(_hash(seed, _TAG_OFFSET, j)) - 0.5)
            sign = 1.0 if int(_hash(seed, _TAG_CENTER, j) % _U64(2)) == 0 else -1.0
            scale = 0.5 + _u01(_hash(seed, _TAG_CENTER, j, 1))
            ladder = np.arange(k, dtype=np.float64) - (k - 1) / 2.0
            centers = sign * scale * numeric_signal * ladder
            noise = _gauss(
                _hash(seed, _TAG_NUM, row_ids, j),
                _hash(seed, _TAG_NUM, row_ids, j, 1),
            )
            values = offset + centers[labels] + noise
            cells = [f"{v:.4f}" for v in values]
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
            cells = [
                " ".join(f"{_WORDS[slot[r]]}{j}" for slot in slots)
                for r in range(rows)
            ]
        if missing_fraction > 0.0:
            drop = _u01(_hash(seed, _TAG_MISS, row_ids, j)) < missing_fraction
            cells = [None if drop[r] else cells[r] for r in range(rows)]
        columns.append(cells)
    return columns


def schema_with_target_inside(k, numeric, categorical):
    """Features on both sides of the target, so its index is not the last."""
    cols = [ColumnSpec(f"num{i}", ColumnKind.NUMERICAL) for i in range(numeric)]
    cols += [ColumnSpec(f"cat{i}", ColumnKind.CATEGORICAL) for i in range(categorical)]
    cols.insert(len(cols) // 2, ColumnSpec("label", ColumnKind.CATEGORICAL))
    return TableSchema(
        tuple(cols), target="label", class_labels=tuple(f"c{i}" for i in range(k))
    )


@pytest.mark.parametrize("seed", [0, 7, -7, 2**63 + 5])
@pytest.mark.parametrize("numeric,categorical", [(2, 4), (3, 0), (0, 4)])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_columns_match_per_row_reference(seed, numeric, categorical, k):
    schema = schema_with_target_inside(k, numeric, categorical)
    uneven = [float(i + 1) ** 2 for i in range(k)]
    for rows in (k, 1000):
        for missing_fraction, imbalance in ((0.0, uneven), (0.05, None), (0.9, uneven)):
            got = generate_synthetic(
                schema, rows, seed, imbalance=imbalance, missing_fraction=missing_fraction
            ).columns
            want = _generate_per_row(
                schema, rows, seed, imbalance=imbalance, missing_fraction=missing_fraction
            )
            assert got == tuple(map(tuple, want))
            assert {type(c) for col in got for c in col} <= {str, type(None)}


@pytest.mark.parametrize(
    "value",
    [-0.0, -4e-5, 5e-5, 1.5e-4, -123.45675, 1e15, np.nextafter(0.0, 1.0)],
)
def test_four_decimals_matches_format_spec(value):
    values = np.array([value, -value, value])
    assert _four_decimals(values) == [f"{v:.4f}" for v in values]
