import numpy as np
import pytest

from tabfuse.errors import DataError
from tabfuse.schema import ColumnKind, ColumnSpec, TableSchema
from tabfuse.synthetic import (
    _TAG_LABEL,
    _hash,
    _largest_remainder,
    _shuffled_labels,
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
        counts = _largest_remainder(100, np.array([0.8, 0.1, 0.1]))
        assert counts.tolist() == [80, 10, 10]

    def test_within_one_of_share(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(1, 8))
            w = rng.uniform(0.1, 5.0, size=k)
            counts = _largest_remainder(n, w)
            share = n * w / w.sum()
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
    counts = _largest_remainder(rows, np.array([3.0, 1.0, 1.0]))
    got = _shuffled_labels(rows, counts, seed)
    want = _shuffled_labels_per_row(rows, counts, seed)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
