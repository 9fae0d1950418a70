import heapq
import json
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from bundle_docs import pack, unpacked, write_doc
from hypothesis import given, settings
from hypothesis import strategies as st
from split_search import binned_split

from tabfuse import gbdt
from tabfuse.bundle import load_bundle, save_bundle
from tabfuse.errors import DataError
from tabfuse.gbdt import (
    _ROW_BLOCK,
    GbdtConfig,
    _Bins,
    GbdtModel,
    Tree,
    find_best_split,
    train_gbdt,
)
from tabfuse.nn import softmax
from tabfuse.pipeline import RunConfig, run_training
from tabfuse.schema import ColumnKind, ColumnSpec, TableSchema, save_schema


def brute_force_split(x, g, h, l2_reg, min_child_hessian):
    """Independent oracle: try every feature and midpoint with plain masks.

    Returns (gain, feature, threshold, sorted_gains) or None; ties keep the
    first candidate scanned (features ascending, thresholds ascending).
    """
    n_total = g.sum()
    h_total = h.sum()
    parent = n_total * n_total / (h_total + l2_reg)
    best = None
    all_gains = []
    for j in range(x.shape[1]):
        values = sorted(set(float(v) for v in x[:, j]))
        for lo, hi in zip(values, values[1:]):
            t = (lo + hi) / 2.0
            mask = x[:, j] < t
            hl = float(h[mask].sum())
            hr = float(h[~mask].sum())
            if hl < min_child_hessian or hr < min_child_hessian:
                continue
            gl = float(g[mask].sum())
            gr = float(g[~mask].sum())
            gain = 0.5 * (gl * gl / (hl + l2_reg) + gr * gr / (hr + l2_reg) - parent)
            if gain <= 0.0:
                continue
            all_gains.append(gain)
            if best is None or gain > best[0]:
                best = (gain, j, t)
    if best is None:
        return None
    return best[0], best[1], best[2], sorted(all_gains, reverse=True)


class TestFindBestSplit:
    def test_hand_computed_gain(self):
        x = np.array([[0.0], [1.0]])
        g = np.array([-1.0, 1.0])
        h = np.array([1.0, 1.0])
        found = binned_split(x, g, h, l2_reg=1.0, min_child_hessian=1e-3)
        gain, feature, threshold = found
        # parent 0/(2+1); each child 1/(1+1); gain = 0.5*(0.5+0.5-0)
        assert gain == 0.5
        assert feature == 0
        assert threshold == 0.5

    def test_min_child_hessian_blocks_split(self):
        x = np.array([[0.0], [1.0]])
        g = np.array([-1.0, 1.0])
        h = np.array([1.0, 1.0])
        assert binned_split(x, g, h, 1.0, min_child_hessian=1.5) is None

    def test_constant_feature_has_no_split(self):
        x = np.full((4, 1), 3.0)
        g = np.array([-1.0, 1.0, -1.0, 1.0])
        h = np.ones(4)
        assert binned_split(x, g, h, 1.0, 1e-3) is None

    def test_single_row_has_no_split(self):
        assert binned_split(np.zeros((1, 2)), np.ones(1), np.ones(1), 1.0, 1e-3) is None

    def test_zero_gain_not_taken(self):
        # identical gradient everywhere: any split scores exactly 0
        x = np.array([[0.0], [1.0]])
        g = np.array([1.0, 1.0])
        h = np.array([1.0, 1.0])
        assert binned_split(x, g, h, 1.0, 1e-3) is None

    def test_threshold_tie_breaks_low(self):
        x = np.array([[0.0], [1.0], [2.0]])
        g = np.array([1.0, -2.0, 1.0])
        h = np.ones(3)
        gain, feature, threshold = binned_split(x, g, h, 1.0, 1e-3)
        # splits at 0.5 and 1.5 score identically by symmetry
        assert threshold == 0.5
        assert feature == 0
        assert abs(gain - 5.0 / 12.0) < 1e-12

    def test_feature_tie_breaks_low(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        g = np.array([-1.0, 1.0])
        h = np.ones(2)
        _, feature, _ = binned_split(x, g, h, 1.0, 1e-3)
        assert feature == 0

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_brute_force_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 5))
        if seed % 3 == 0:
            x = rng.integers(0, 4, size=(n, m)).astype(np.float64)  # forces ties
        else:
            x = rng.normal(size=(n, m))
        g = rng.normal(size=n)
        h = rng.uniform(0.05, 2.0, size=n)
        l2 = float(rng.choice([0.5, 1.0, 2.0]))
        minh = float(rng.choice([1e-3, 0.4]))
        found = binned_split(x, g, h, l2, minh)
        oracle = brute_force_split(x, g, h, l2, minh)
        if oracle is None:
            assert found is None
            return
        best_gain, feature, threshold, ranked = oracle
        assert found is not None
        assert abs(found[0] - best_gain) < 1e-9
        # location must match whenever the optimum is unique by a clear margin
        if len(ranked) == 1 or ranked[0] - ranked[1] > 1e-6:
            assert (found[1], found[2]) == (feature, threshold)


def make_tree(feature, value, left) -> Tree:
    """A tree of node arrays in the dtypes a bundle stores them in."""
    fields = (feature, value, left)
    return Tree(*(np.array(v, dtype) for v, dtype in zip(fields, gbdt._TREE_DTYPES.values())))


def grow(root_weight, splits) -> Tree:
    """A root leaf of ``root_weight``, then each split of ``splits`` in order.

    A split ``(node, feature, threshold, left_weight, right_weight)`` turns
    leaf ``node`` into a split node and appends its left and right leaves,
    so its right child is its left plus one.
    """
    feature, value, left = [-1], [root_weight], [-1]
    for node, f, t, left_weight, right_weight in splits:
        feature[node], value[node], left[node] = f, t, len(feature)
        feature += [-1, -1]
        value += [left_weight, right_weight]
        left += [-1, -1]
    return make_tree(feature, value, left)


def forest(*trees: Tree):
    """The node arrays and sizes of ``trees`` end to end, as GbdtModel takes them."""
    nodes = {
        name: np.concatenate([np.empty(0, dtype), *(getattr(t, name) for t in trees)])
        for name, dtype in gbdt._TREE_DTYPES.items()
    }
    return nodes, np.array([len(t.feature) for t in trees], dtype=np.int32)


def leaves_per_tree(model: GbdtModel) -> np.ndarray:
    """Each tree's leaf count, from the node arrays."""
    starts = np.cumsum(model.sizes) - model.sizes
    return np.add.reduceat(model.nodes["feature"] == -1, starts)


class TestTreeStructure:
    def test_depth_and_leaf_budgets_respected(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 3))
        y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
        cfg = GbdtConfig(rounds=3, max_depth=2, max_leaves=4)
        model, _ = train_gbdt(x, y, 2, cfg)
        assert model._packed.steps <= 2
        assert leaves_per_tree(model).max() <= 4

    def test_depth_one_gives_stumps(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 2))
        y = (x[:, 0] > 0).astype(np.int64)
        cfg = GbdtConfig(rounds=2, max_depth=1, max_leaves=100)
        model, _ = train_gbdt(x, y, 2, cfg)
        assert model._packed.steps <= 1
        assert leaves_per_tree(model).max() <= 2

    def test_predict_routes_strictly_less_than_left(self):
        tree = grow(0.0, [(0, 0, 1.5, -1.0, 2.0)])
        # value equal to the threshold goes right
        out = tree.predict(np.array([[1.0], [1.5], [2.0]]))
        assert np.array_equal(out, [-1.0, 2.0, 2.0])


class TestTrainGbdt:
    def test_one_round_stump_hand_oracle(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        cfg = GbdtConfig(rounds=1, max_depth=1, max_leaves=2, shrinkage=0.1)
        model, losses = train_gbdt(x, y, 2, cfg)
        tree0 = model.trees[0]  # class 0: g=[-0.5, 0.5], h=[0.25, 0.25]
        assert tree0.feature[0] == 0
        assert tree0.value[0] == 0.5
        assert tree0.value[1] == 0.4  # -(-0.5)/(0.25+1)
        assert tree0.value[2] == -0.4
        expected_loss = -math.log(1.0 / (1.0 + math.exp(-0.08)))
        assert abs(losses[0] - expected_loss) < 1e-12

    @pytest.mark.parametrize("shrinkage", [0.1, 0.3])
    def test_training_loss_non_increasing(self, shrinkage):
        rng = np.random.default_rng(2)
        centers = np.array([[-2.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        y = rng.integers(0, 3, size=90)
        x = centers[y] + rng.normal(scale=0.8, size=(90, 2))
        cfg = GbdtConfig(rounds=15, max_depth=3, max_leaves=8, shrinkage=shrinkage)
        _, losses = train_gbdt(x, y, 3, cfg)
        assert len(losses) == 15
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_separable_data_fits_exactly(self):
        x = np.array([[-1.0], [-0.5], [0.5], [1.0]])
        y = np.array([0, 0, 1, 1])
        cfg = GbdtConfig(rounds=50, max_depth=2, max_leaves=4)
        model, losses = train_gbdt(x, y, 2, cfg)
        assert (model.predict_proba(x).argmax(axis=1) == y).all()
        assert losses[-1] < losses[0] / 5

    def test_constant_features_yield_leaf_only_trees(self):
        x = np.full((6, 2), 2.5)
        y = np.array([0, 1, 0, 1, 0, 1])
        cfg = GbdtConfig(rounds=2, max_depth=3, max_leaves=8)
        model, losses = train_gbdt(x, y, 2, cfg)
        assert leaves_per_tree(model).tolist() == [1] * 4
        assert all(np.isfinite(l) for l in losses)

    def test_zero_columns_give_single_leaf_trees(self):
        """With no feature to split on, each tree is one leaf of weight -G/(H+lambda)."""
        y = np.array([0, 1, 2, 1, 1, 0, 2])
        cfg = GbdtConfig(rounds=3, shrinkage=0.3, l2_reg=0.5)
        model, losses = train_gbdt(np.empty((len(y), 0)), y, 3, cfg)
        margins, weights, expected_losses = np.zeros((len(y), 3)), [], []
        for _ in range(cfg.rounds):
            p = softmax(margins)
            for k in range(3):
                g, h = p[:, k] - (y == k), p[:, k] * (1.0 - p[:, k])
                weights.append(float(-g.sum() / (h.sum() + cfg.l2_reg)))
                margins[:, k] += cfg.shrinkage * weights[-1]
            expected_losses.append(float(-np.log(softmax(margins)[np.arange(len(y)), y]).mean()))
        assert model.feature_count == 0 and model.sizes.tolist() == [1] * 9
        assert model.nodes["feature"].tolist() == model.nodes["left"].tolist() == [-1] * 9
        assert repr(model.nodes["value"].tolist()) == repr(weights)
        assert repr(losses) == repr(expected_losses)
        assert np.array_equal(model.margins(np.empty((len(y), 0))), margins)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 3))
        y = rng.integers(0, 3, size=50)
        cfg = GbdtConfig(rounds=4, max_depth=3, max_leaves=6)
        a, la = train_gbdt(x, y, 3, cfg)
        b, lb = train_gbdt(x, y, 3, cfg)
        assert a.to_json_dict() == b.to_json_dict()
        assert la == lb

    def test_round_major_tree_layout(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 2))
        y = rng.integers(0, 3, size=30)
        cfg = GbdtConfig(rounds=4, max_depth=2, max_leaves=4)
        model, _ = train_gbdt(x, y, 3, cfg)
        assert len(model.trees) == 12
        assert model.rounds == 4

    def test_trained_node_arrays_are_read_only(self):
        """The model walks a packed copy, so an edit of its arrays would not be predicted with."""
        x = np.array([[0.0], [1.0]])
        model, _ = train_gbdt(x, np.array([0, 1]), 2, GbdtConfig(rounds=1, max_depth=1))
        with pytest.raises(ValueError, match="read-only"):
            model.nodes["value"][1] += 1.0
        for array in (*model.nodes.values(), model.sizes):
            assert not array.flags.writeable

    def test_rejects_bad_inputs(self):
        cfg = GbdtConfig(rounds=1, max_depth=1, max_leaves=2)
        with pytest.raises(DataError, match="row count"):
            train_gbdt(np.zeros((3, 1)), np.zeros(2, dtype=np.int64), 2, cfg)
        with pytest.raises(DataError, match="at least 2 rows"):
            train_gbdt(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), 2, cfg)
        with pytest.raises(DataError, match="out of range"):
            train_gbdt(np.zeros((2, 1)), np.array([0, 2]), 2, cfg)
        with pytest.raises(DataError, match="distinct classes"):
            train_gbdt(np.zeros((2, 1)), np.array([1, 1]), 2, cfg)


def reloaded(model: GbdtModel) -> GbdtModel:
    """``model`` through its JSON payload, decoded against a state that gives its sizes."""
    state = SimpleNamespace(
        schema=SimpleNamespace(n_classes=model.n_classes),
        view_width=lambda view: model.feature_count,
    )
    doc = json.loads(json.dumps(model.to_json_dict()))
    return GbdtModel.from_json_dict(doc, state, "numeric")


class TestSplitThresholds:
    """A threshold is finite and sends the lower value of its pair left, the upper right."""

    ONE_UP = float(np.nextafter(1.0, 2.0))

    @staticmethod
    def train_and_reload(column):
        x = np.array(column)[:, None]
        model, _ = train_gbdt(x, np.array([0, 0, 1, 1]), 2, GbdtConfig(rounds=2))
        again = reloaded(model)
        assert again.predict_proba(x).tobytes() == model.predict_proba(x).tobytes()
        return x, model

    @pytest.mark.parametrize(
        "column",
        [
            pytest.param([-math.inf, -math.inf, 1.0, 2.0], id="minus-inf-below-finite"),
            pytest.param([1.0, 1.0, ONE_UP, ONE_UP], id="adjacent-floats"),
            pytest.param([1e308, 1e308, 1.7e308, 1.7e308], id="midpoint-overflows"),
            pytest.param([1.0, 1.0, math.inf, math.inf], id="finite-below-plus-inf"),
            pytest.param([-math.inf, -math.inf, math.inf, math.inf], id="minus-inf-below-plus-inf"),
        ],
    )
    def test_every_tree_splits_its_rows_two_and_two(self, column):
        x, model = self.train_and_reload(column)
        for tree in model.trees:
            assert tree.feature[0] == 0 and math.isfinite(tree.value[0])
            assert (x[:, 0] < tree.value[0]).tolist() == [True, True, False, False]
            out = tree.predict(x)
            assert out[0] == out[1] != out[2] == out[3]


class TestGbdtModel:
    def test_zero_round_model_is_uniform(self):
        model = GbdtModel(*forest(), n_classes=3, feature_count=2, shrinkage=0.1, base_score=0.25)
        assert (model.rounds, model.trees) == (0, [])
        assert np.all(model.margins(np.zeros((4, 2))) == 0.25)
        p = model.predict_proba(np.zeros((4, 2)))
        assert np.all(p == np.float64(1.0) / 3.0)

    def test_feature_width_checked(self):
        model = GbdtModel(*forest(), n_classes=2, feature_count=3, shrinkage=0.1)
        with pytest.raises(DataError, match="expected 3 features"):
            model.predict_proba(np.zeros((1, 2)))

    def test_json_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 2))
        y = (x[:, 0] * x[:, 1] > 0).astype(np.int64)
        cfg = GbdtConfig(rounds=5, max_depth=3, max_leaves=6)
        model, _ = train_gbdt(x, y, 2, cfg)
        again = reloaded(model)
        assert np.array_equal(model.predict_proba(x), again.predict_proba(x))

    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(25, 2))
        y = rng.integers(0, 3, size=25)
        cfg = GbdtConfig(rounds=3, max_depth=2, max_leaves=4)
        model, _ = train_gbdt(x, y, 3, cfg)
        p = model.predict_proba(x)
        assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)


class TestGbdtConfig:
    def test_defaults(self):
        cfg = GbdtConfig()
        assert cfg.rounds == 100
        assert cfg.max_depth == 8
        assert cfg.max_leaves == 100
        assert cfg.shrinkage == 0.1
        assert cfg.l2_reg == 1.0
        assert cfg.min_child_hessian == 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            GbdtConfig(rounds=0)
        with pytest.raises(ValueError):
            GbdtConfig(max_leaves=1)
        with pytest.raises(ValueError):
            GbdtConfig(shrinkage=0.0)
        with pytest.raises(ValueError):
            GbdtConfig(l2_reg=-1.0)
        for counts in ({"rounds": 2.5}, {"max_depth": 3.0}, {"max_leaves": "8"}):
            with pytest.raises(ValueError, match="integers"):
                GbdtConfig(**counts)

    @pytest.mark.parametrize("key", ["rounds", "max_depth", "max_leaves"])
    def test_counts_must_not_be_bools(self, key):
        with pytest.raises(ValueError, match="integers"):
            GbdtConfig(**{key: True})

    @pytest.mark.parametrize("key", ["shrinkage", "l2_reg", "min_child_hessian"])
    @pytest.mark.parametrize("value", [True, math.inf, math.nan])
    def test_rates_must_be_finite_positive_numbers(self, key, value):
        with pytest.raises(ValueError, match="finite and positive"):
            GbdtConfig(**{key: value})


def reference_leaf(tree: Tree, row) -> float:
    """Per-row walk: feature < value goes to the left child, anything else
    (NaN too) to the right one, which is stored just after the left."""
    node = 0
    while tree.feature[node] != -1:
        goes_left = row[tree.feature[node]] < tree.value[node]
        node = tree.left[node] if goes_left else tree.left[node] + 1
    return tree.value[node]


def reference_margins(model: GbdtModel, x: np.ndarray) -> np.ndarray:
    """One row, one tree at a time, adding each round's trees in order."""
    out = np.full((len(x), model.n_classes), model.base_score, dtype=np.float64)
    for i, row in enumerate(x):
        for t, tree in enumerate(model.trees):
            out[i, t % model.n_classes] += model.shrinkage * reference_leaf(tree, row)
    return out


FEATURES = 3
# Edge values sit beside plain ones; thresholds reuse some so ties occur.
EDGE_CELLS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, -1.0]
CELLS = st.sampled_from(EDGE_CELLS) | st.floats(-4, 4)
ROWS = st.lists(CELLS, min_size=FEATURES, max_size=FEATURES)
THRESHOLDS = st.sampled_from([-0.0, 0.0, 1.0, -1.0]) | st.floats(-4, 4)
WEIGHTS = st.floats(-5, 5)


@st.composite
def trees(draw):
    """Grow a random tree by splitting leaves; children follow their parent."""
    root_weight, leaves, splits = draw(WEIGHTS), [0], []
    for _ in range(draw(st.integers(0, 7))):
        node = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        feature, threshold = draw(st.integers(0, FEATURES - 1)), draw(THRESHOLDS)
        splits.append((node, feature, threshold, draw(WEIGHTS), draw(WEIGHTS)))
        leaves += [2 * len(splits) - 1, 2 * len(splits)]
    return grow(root_weight, splits)


@st.composite
def models_and_inputs(draw):
    n_classes = draw(st.integers(1, 3))
    drawn = draw(st.lists(trees(), min_size=0, max_size=3 * n_classes))
    model = GbdtModel(
        *forest(*drawn[: len(drawn) - len(drawn) % n_classes]),
        n_classes,
        FEATURES,
        shrinkage=draw(st.floats(0.01, 1.0)),
        base_score=draw(st.floats(-1, 1)),
    )
    pool = np.array(draw(st.lists(ROWS, min_size=1, max_size=6)))
    # Row counts cover empty and one-row inputs and straddle block boundaries.
    sizes = [0, 1, 2, 16, _ROW_BLOCK - 1, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 5]
    n_rows = draw(st.sampled_from(sizes))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, len(pool), n_rows)
    return model, pool, picks


class TestPackedWalk:
    """The packed level-by-level walk against a per-row reference, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(case=models_and_inputs())
    def test_margins_match_reference(self, case):
        model, pool, picks = case
        # Each distinct row is walked once by the reference; x repeats them.
        expected = reference_margins(model, pool)[picks]
        got = model.margins(pool[picks])
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(tree=trees(), rows=st.lists(ROWS, max_size=8))
    def test_tree_predict_matches_reference(self, tree, rows):
        x = np.array(rows, dtype=np.float64).reshape(len(rows), FEATURES)
        expected = np.array([reference_leaf(tree, row) for row in x], dtype=np.float64)
        assert tree.predict(x).tobytes() == expected.tobytes()

    def test_small_slices_equal_bulk_rows(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(300, 4))
        y = rng.integers(0, 3, size=300)
        model, _ = train_gbdt(x, y, 3, GbdtConfig(rounds=6, max_depth=5, max_leaves=12))
        heldout = rng.normal(size=(2 * _ROW_BLOCK + 40, 4))
        heldout[rng.random(heldout.shape) < 0.1] = np.nan
        bulk = model.margins(heldout)
        for start in (0, 5, _ROW_BLOCK - 8, _ROW_BLOCK, 2 * _ROW_BLOCK + 24):
            rows = slice(start, start + 16)
            assert model.margins(heldout[rows]).tobytes() == bulk[rows].tobytes()

    @pytest.mark.parametrize("n_rows", [0, 1, _ROW_BLOCK + 3])
    def test_margins_equal_the_per_round_loop(self, n_rows):
        """One accumulate over (rows, rounds + 1, classes) against adding round by round."""
        rng = np.random.default_rng(n_rows)
        x = rng.normal(size=(200, 3))
        y = rng.integers(0, 3, size=200)
        model, _ = train_gbdt(x, y, 3, GbdtConfig(rounds=7, max_depth=4, max_leaves=8))
        model.base_score = 0.3
        rows = rng.normal(size=(n_rows, 3))
        rows[rng.random(rows.shape) < 0.1] = np.nan
        expected = np.full((n_rows, 3), model.base_score)
        scaled = model.shrinkage * np.column_stack([t.predict(rows) for t in model.trees])
        for r in range(model.rounds):
            expected += scaled[:, 3 * r : 3 * (r + 1)]
        assert model.margins(rows).tobytes() == expected.tobytes()

    def test_trees_reading_missing_features_are_rejected(self):
        tree = grow(0.0, [(0, 2, 0.5, 1.0, 2.0)])
        with pytest.raises(DataError, match="feature 2"):
            tree.predict(np.zeros((3, 2)))


def split_tree() -> Tree:
    """Root splits on feature 0 at 0.5 into leaves 1 and 2."""
    return grow(0.0, [(0, 0, 0.5, 1.0, 2.0)])


def set_at(name: str, node: int, value):
    """Set ``node`` of the second tree, which follows the first tree's 3 nodes."""
    return lambda fields: fields[name].__setitem__(3 + node, value)


def replace(name: str, edit):
    return lambda fields: fields.update({name: edit(fields[name])})


# Each edits the node arrays or sizes of two split trees of a one-feature
# model into ones the walk cannot trust.
TREE_FAULTS = {
    "cycle": (set_at("left", 0, 0), "tree 1: node 0 .* has a child not after it"),
    "left-not-after": (set_at("left", 0, -1), "tree 1: node 0 .* has a child not after it"),
    "left-last-in-tree": (set_at("left", 0, 2), "tree 1: node 0 .* has a child not after it"),
    "child-past-end": (set_at("left", 0, 3), "tree 1: node 0 .* has a child not after it"),
    "leaf-with-child": (set_at("left", 1, 2), "tree 1: node 1 .* has a leaf with children"),
    "feature-minus-2": (set_at("feature", 0, -2), "tree 1: node 0 .* has a feature below -1"),
    "threshold-nan": (set_at("value", 0, math.nan), "tree 1: node 0 .* has a non-finite value"),
    "weight-inf": (set_at("value", 1, math.inf), "tree 1: node 1 .* has a non-finite value"),
    "feature-past-count": (set_at("feature", 0, 1), "trees read feature 1; the model has 1"),
    "feature-float": (
        replace("feature", lambda a: a.astype(float)),
        "tree feature must be a 1-d array of integers",
    ),
    "value-text": (
        replace("value", lambda a: a.astype(str)), "tree value must be a 1-d array of numbers"
    ),
    "value-nested": (replace("value", lambda a: a[:, None]), "tree value must be a 1-d array"),
    "sizes-float": (
        replace("sizes", lambda a: a.astype(float)), "tree sizes must be a 1-d array of integers"
    ),
    "lists-unequal": (
        replace("left", lambda a: a[:-1]), "tree left holds 5 nodes; the tree sizes add up to 6"
    ),
    "size-zero": (
        replace("sizes", lambda a: np.insert(a, 1, 0)),
        "tree 1 has 0 nodes; a tree needs at least 1",
    ),
    "sizes-short": (
        replace("sizes", lambda a: a - [0, 1]),
        "tree feature holds 6 nodes; the tree sizes add up to 5",
    ),
}


@pytest.fixture(scope="module")
def gbdt_bundle(tmp_path_factory):
    """A small trained gbdt bundle's text, a file to load edits of it from, and rows to score."""
    schema = TableSchema(
        (
            ColumnSpec("a", ColumnKind.NUMERICAL),
            ColumnSpec("b", ColumnKind.NUMERICAL),
            ColumnSpec("tag", ColumnKind.CATEGORICAL),
            ColumnSpec("y", ColumnKind.CATEGORICAL),
        ),
        target="y",
        class_labels=("low", "high"),
    )
    root = tmp_path_factory.mktemp("gbdt_bundle")
    save_schema(schema, root / "schema.json")
    config = RunConfig(
        schema=str(root / "schema.json"),
        model="gbdt",
        rows=80,
        seed=5,
        gbdt=GbdtConfig(rounds=3, max_depth=3, max_leaves=5),
    )
    path = root / "bundle.json"
    bundle = run_training(config).bundle
    save_bundle(bundle, path)
    width = bundle.members[0].feature_count
    rng = np.random.default_rng(0)
    x = rng.normal(scale=2.0, size=(64, width))
    x[32:] = rng.integers(0, 6, size=(32, width))  # token codes
    x[rng.random(x.shape) < 0.1] = np.nan
    return path.read_text(), root / "edited.json", x


class TestTreeChecks:
    """Every model, built or loaded, walks only trees the pack has checked."""

    @pytest.mark.parametrize("fault", TREE_FAULTS)
    def test_built_model_rejects_a_faulty_tree(self, fault):
        edit, message = TREE_FAULTS[fault]
        nodes, sizes = forest(split_tree(), split_tree())
        fields = {**nodes, "sizes": sizes}
        edit(fields)
        nodes = {name: fields[name] for name in gbdt._TREE_DTYPES}
        with pytest.raises(DataError, match=f"gbdt {message}"):
            GbdtModel(nodes, fields["sizes"], 2, 1, 0.1)

    @pytest.mark.parametrize(
        "n_classes, shrinkage, base_score, message",
        [
            (2, 0.1, 0.0, "1 trees; expected a multiple of its 2 classes"),
            (0, 0.1, 0.0, "expected a multiple of its 0 classes"),
            (1, math.nan, 0.0, "shrinkage nan must be finite and positive"),
            (1, 0.0, 0.0, "shrinkage 0.0 must be finite and positive"),
            (1, 0.1, math.inf, "base score inf finite"),
        ],
        ids=["tree-count-not-multiple", "no-classes", "shrinkage-nan", "shrinkage-zero", "base-inf"],
    )
    def test_built_model_rejects_what_it_cannot_predict_with(
        self, n_classes, shrinkage, base_score, message
    ):
        with pytest.raises(DataError, match=message):
            GbdtModel(*forest(split_tree()), n_classes, 1, shrinkage, base_score)

    def test_model_rejects_a_view_it_cannot_read(self):
        """A model records the view it reads, so it checks it when it is built."""
        message = "gbdt member has feature view 'wavelets'; pick one of numeric[+]tokens, "
        with pytest.raises(DataError, match=message):
            GbdtModel(*forest(split_tree()), 1, 1, 0.1, feature_view="wavelets")
        with pytest.raises(DataError, match=message):
            train_gbdt(np.eye(2), np.arange(2), 2, GbdtConfig(rounds=1), feature_view="wavelets")
        model, _ = train_gbdt(np.eye(2), np.arange(2), 2, GbdtConfig(rounds=1))
        assert model.feature_view == "numeric+tokens"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_what_loads_walks_like_the_reference(self, gbdt_bundle, data):
        """Any one edit of the packed trees, fingerprint recomputed, loads and
        walks like the reference walk, or ends in DataError."""
        text, path, x = gbdt_bundle
        doc = json.loads(text)
        trees = doc["members"][0]["payload"]["trees"]
        name = data.draw(st.sampled_from(["sizes", *gbdt._TREE_DTYPES]), label="field")
        values = unpacked(trees[name])
        n = len(values)
        i = data.draw(st.integers(0, n - 1), label="node")
        # Another node's index, -2, past the end, the non-finite floats or a drop.
        edits = [-2, n, "drop"]
        if values.dtype.kind == "f":
            edits += [math.nan, math.inf, -math.inf]
        edit = data.draw(st.integers(0, n - 1) | st.sampled_from(edits), label="edit")
        if edit == "drop":
            values = np.delete(values, i)
        else:
            values[i] = edit
        trees[name] = pack(values, trees[name]["dtype"])
        write_doc(path, doc)
        try:
            model = load_bundle(path).members[0]
        except DataError:
            return
        assert model.margins(x).tobytes() == reference_margins(model, x).tobytes()


def midpoint_rule(lo, hi):
    """The threshold of neighbouring values lo < hi, or None where none is finite."""
    if hi == math.inf:
        t = math.nextafter(lo, math.inf)
    else:
        mid = (lo + hi) / 2.0
        t = mid if lo < mid <= hi else hi
    return t + 0.0 if math.isfinite(t) else None


def reference_pairs(column):
    """A column's sorted distinct values and the index in them of each boundary pair's upper value.

    Up to 255 distinct values every neighbouring pair is one. Past that, for
    each k in 1..254 the pair below the value at row rank k * rows // 255 of
    the sorted rows is one, unless that value is the lowest.
    """
    rows = sorted(float(v) for v in column if not math.isnan(v))
    values = sorted(set(rows))
    if len(values) <= 255:
        return values, range(1, len(values))
    uppers = {values.index(rows[k * len(rows) // 255]) for k in range(1, 255)}
    return values, sorted(u for u in uppers if u > 0)


def reference_bins(x):
    """Each feature's thresholds, one per boundary pair, and every cell's bin.

    A cell's bin is the count of thresholds at or below it; NaN gets the bin
    above the top value bin.
    """
    thresholds = []
    for column in x.T:
        values, uppers = reference_pairs(column)
        pairs = (midpoint_rule(values[u - 1], values[u]) for u in uppers)
        thresholds.append([t for t in pairs if t is not None])
    def bin_of(v, ts):
        return len(ts) + 1 if math.isnan(v) else sum(t <= v for t in ts)

    bins = np.array(
        [[bin_of(v, ts) for v, ts in zip(row, thresholds)] for row in x], dtype=np.intp
    ).reshape(x.shape)
    return thresholds, bins


def reference_histograms(bins, thresholds, rows, g, h):
    """Per feature, sums of g, h and rows per bin, added one row at a time in row order."""
    hists = [np.zeros((3, len(ts) + 2)) for ts in thresholds]
    for i in rows:
        for j, hist in enumerate(hists):
            b = bins[i, j]
            hist[0, b] += g[i]
            hist[1, b] += h[i]
            hist[2, b] += 1
    return hists


def reference_split(hists, thresholds, g, h, l2_reg, min_child_hessian):
    """Scan each feature's boundaries in order; keep the first strictly best gain.

    A boundary is a candidate where the bin below it holds rows, rows remain
    above it, and each side keeps at least min_child_hessian.
    """
    n = len(g)
    if n < 2:
        return None
    g_total, h_total = g.sum(), h.sum()
    parent_score = g_total * g_total / (h_total + l2_reg)
    best = None
    for j, (hist, ts) in enumerate(zip(hists, thresholds)):
        gl, hl, nl = (np.cumsum(sums) for sums in hist)
        for b, t in enumerate(ts):
            hr = h_total - hl[b]
            if hist[2, b] == 0 or nl[b] == n or hl[b] < min_child_hessian or hr < min_child_hessian:
                continue
            gr = g_total - gl[b]
            gain = 0.5 * (gl[b] * gl[b] / (hl[b] + l2_reg) + gr * gr / (hr + l2_reg) - parent_score)
            if gain > 0.0 and (best is None or gain > best[0]):
                best = (float(gain), j, t)
    return best


def reference_tree(x, thresholds, bins, g, h, config, searches):
    """Best-first growth; the child with fewer rows is summed, the other is parent - sibling.

    Children of the split that spends the leaf budget are not searched.
    Appends each node's split search result to ``searches``.
    """
    def weight(idx):
        return float(-g[idx].sum() / (h[idx].sum() + config.l2_reg))

    heap = []

    def consider(node, idx, hists, depth):
        found = reference_split(
            hists, thresholds, g[idx], h[idx], config.l2_reg, config.min_child_hessian
        )
        searches.append(found)
        if found is not None:
            # Nodes are numbered as they are found, so equal gains pop the earlier.
            heapq.heappush(heap, (-found[0], node, *found[1:], idx, hists, depth))

    rows = np.arange(len(x))
    root_hists = reference_histograms(bins, thresholds, rows, g, h)
    consider(0, rows, root_hists, 0)
    splits = []  # for grow; split k adds leaves 2k + 1 and 2k + 2
    while heap and len(splits) + 1 < config.max_leaves:
        _, node, feature, threshold, idx, hists, depth = heapq.heappop(heap)
        goes_left = x[idx, feature] < threshold
        left_rows, right_rows = idx[goes_left], idx[~goes_left]
        left, right = 2 * len(splits) + 1, 2 * len(splits) + 2
        splits.append((node, feature, threshold, weight(left_rows), weight(right_rows)))
        n_leaves = len(splits) + 1
        if depth + 1 < config.max_depth and n_leaves < config.max_leaves:
            left_smaller = len(left_rows) <= len(right_rows)
            small = reference_histograms(
                bins, thresholds, left_rows if left_smaller else right_rows, g, h
            )
            large = [parent - sibling for parent, sibling in zip(hists, small)]
            consider(left, left_rows, small if left_smaller else large, depth + 1)
            consider(right, right_rows, large if left_smaller else small, depth + 1)
    return grow(weight(rows), splits)


def reference_boost(x, y, n_classes, config):
    """Boosting with reference_tree, adding each row's leaf by the per-row walk.

    Returns the trees and every split search result, in order.
    """
    thresholds, bins = reference_bins(x)
    margins = np.zeros((len(y), n_classes))
    trees, searches = [], []
    for _ in range(config.rounds):
        p = softmax(margins)
        for k in range(n_classes):
            g = p[:, k] - (y == k)
            h = p[:, k] * (1.0 - p[:, k])
            tree = reference_tree(x, thresholds, bins, g, h, config, searches)
            trees.append(tree)
            leaves = np.array([reference_leaf(tree, row) for row in x], dtype=np.float64)
            margins[:, k] += config.shrinkage * leaves
    return trees, searches


# Few distinct values, so duplicates and -0.0 beside 0.0 are common.
TRAIN_CELLS = st.sampled_from([*EDGE_CELLS, 2.0, 2.0, 0.5]) | st.floats(-4, 4)


@st.composite
def training_sets(draw):
    n_features = draw(st.integers(1, 3))
    n_rows = draw(st.integers(2, 24))
    row = st.lists(TRAIN_CELLS, min_size=n_features, max_size=n_features)
    x = np.array(draw(st.lists(row, min_size=n_rows, max_size=n_rows)), dtype=np.float64)
    if draw(st.booleans()):
        x[:, draw(st.integers(0, n_features - 1))] = x[0, 0]
    n_classes = draw(st.integers(2, 3))
    labels = st.lists(st.integers(0, n_classes - 1), min_size=n_rows, max_size=n_rows)
    y = np.array(draw(labels.filter(lambda v: len(set(v)) > 1)))
    config = GbdtConfig(
        rounds=draw(st.integers(1, 3)),
        max_depth=draw(st.integers(1, 4)),
        max_leaves=draw(st.integers(2, 8)),
        min_child_hessian=draw(st.sampled_from([1e-3, 0.05])),
    )
    return x, y, n_classes, config


@st.composite
def wide_training_sets(draw):
    """Up to 6 wide, narrow and constant features in any order, with NaN and infinite cells.

    A wide feature has a distinct value per row, so past 255 rows it is cut
    by rank and its bins fall in a wider group than a narrow feature's.
    """
    n_rows = draw(st.sampled_from([300, 256]) | st.integers(2, 300))
    kinds = draw(st.lists(st.sampled_from(["wide", "narrow", "constant"]), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge_fraction = draw(st.sampled_from([0.0, 0.05, 0.2]))
    x = np.empty((n_rows, len(kinds)))
    for j, kind in enumerate(kinds):
        if kind == "constant":
            x[:, j] = 2.0
            continue
        if kind == "wide":
            x[:, j] = rng.normal(scale=3.0, size=n_rows)
        else:
            x[:, j] = rng.integers(0, draw(st.integers(2, 12)), size=n_rows)
        edge = rng.random(n_rows) < edge_fraction
        x[edge, j] = rng.choice([math.nan, math.inf, -math.inf], size=np.count_nonzero(edge))
    n_classes = draw(st.integers(2, 3))
    y = rng.integers(0, n_classes, size=n_rows)
    y[:2] = [0, 1]
    config = GbdtConfig(
        rounds=draw(st.integers(1, 2)),
        max_depth=draw(st.integers(1, 4)),
        max_leaves=draw(st.integers(2, 8)),
        min_child_hessian=draw(st.sampled_from([1e-3, 0.05])),
    )
    return x, y, n_classes, config


def node_lists(tree: Tree) -> str:
    """The repr of each field's ``.tolist()``: every bit of a float, and -0.0 apart from 0.0."""
    return repr([getattr(tree, name).tolist() for name in gbdt._TREE_DTYPES])


class TestHistogramTraining:
    """Histogram split search against a reference that sums every bin in a Python loop."""

    @settings(max_examples=200, deadline=None)
    @given(case=training_sets())
    def test_trees_match_reference_booster_bit_for_bit(self, case):
        self.check_against_reference_booster(case)

    @settings(max_examples=20, deadline=None)
    @given(case=wide_training_sets())
    def test_wide_and_narrow_trees_match_reference_booster_bit_for_bit(self, case):
        self.check_against_reference_booster(case)

    @staticmethod
    def check_against_reference_booster(case):
        x, y, n_classes, config = case
        searches = []

        def recorded(*args, **kwargs):
            searches.append(find_best_split(*args, **kwargs))
            return searches[-1]

        # Gains are in no tree, so the search results are compared too.
        with mock.patch.object(gbdt, "find_best_split", recorded):
            model, _ = train_gbdt(x, y, n_classes, config)
        expected, expected_searches = reference_boost(x, y, n_classes, config)
        assert [node_lists(t) for t in model.trees] == [node_lists(t) for t in expected]
        assert repr(searches) == repr(expected_searches)

    @settings(max_examples=20, deadline=None)
    @given(case=wide_training_sets())
    def test_search_leaves_its_histogram_bit_unchanged(self, case):
        """The heap keeps a searched node's histogram and later subtracts the
        smaller child from it, so a search must not write to it."""
        x, y, n_classes, config = case
        calls = []

        def checked(*args, hist, **kwargs):
            before = hist.copy()
            found = find_best_split(*args, hist=hist, **kwargs)
            calls.append(hist.tobytes() == before.tobytes())
            return found

        with mock.patch.object(gbdt, "find_best_split", checked):
            train_gbdt(x, y, n_classes, config)
        assert calls and all(calls)

    @pytest.mark.parametrize(
        "x",
        [
            np.empty((5, 0)),
            np.column_stack([np.full(6, math.nan), np.arange(6.0)]),
            np.column_stack([np.arange(6.0), np.full(6, 2.0)]),
            np.array([[1.0, math.nan, -0.0]]),
            np.random.default_rng(3).normal(size=(300, 4)).round(1),
        ],
        ids=["no-columns", "all-nan-column", "constant-column", "one-row", "wide-and-narrow"],
    )
    def test_root_histogram_from_kept_arrays_equals_gathered_one(self, x):
        """The root's histogram, from the cells and counts ``fit`` keeps, has the
        bits of ``histogram`` over every row, which gathers and counts; the
        kept columns are x column by column."""
        rng = np.random.default_rng(len(x))
        g, h = rng.normal(size=len(x)), rng.uniform(0.01, 0.3, size=len(x))
        bins = _Bins.fit(x)
        root = bins.histogram(None, g, h)
        gathered = bins.histogram(np.arange(len(x)), g, h)
        assert root.shape == gathered.shape == (3, len(bins.feature))
        assert root.tobytes() == gathered.tobytes()
        assert bins.columns.flags.c_contiguous and bins.columns.shape == x.T.shape
        assert bins.columns.tobytes() == np.ascontiguousarray(x.T).tobytes()

    def test_lower_wide_feature_wins_an_exact_tie_with_a_higher_narrow_one(self):
        """Feature 0 has 400 values, so it is cut by rank and its cells come after
        feature 1's two-value group; both split the rows 200/200 with equal sums."""
        n = 400
        x = np.column_stack([np.arange(n, dtype=np.float64), np.arange(n) >= 200])
        g, h = np.where(np.arange(n) < 200, -1.0, 1.0), np.ones(n)
        bins = _Bins.fit(x)
        assert bins.feature[0] == 1 and bins.feature[-1] == 0
        hist = bins.histogram(np.arange(n), g, h)
        found = find_best_split(n, 1.0, 1e-3, bins=bins, hist=hist, totals=(g.sum(), h.sum()))
        thresholds, ref_bins = reference_bins(x)
        ref_hists = reference_histograms(ref_bins, thresholds, range(n), g, h)
        expected = reference_split(ref_hists, thresholds, g, h, 1.0, 1e-3)
        assert repr(found) == repr(expected)
        assert found[1:] == (0, 199.5)

    @settings(max_examples=200, deadline=None)
    @given(case=training_sets(), seed=st.integers(0, 2**32 - 1))
    def test_node_split_matches_reference(self, case, seed):
        """A node's split from the training's bins and a subtracted histogram."""
        x, _, _, config = case
        rng = np.random.default_rng(seed)
        g, h = rng.normal(size=len(x)), rng.uniform(0.01, 0.3, size=len(x))
        goes_left = rng.random(len(x)) < 0.5
        bins = _Bins.fit(x)
        thresholds, ref_bins = reference_bins(x)
        every = np.arange(len(x))
        args = (config.l2_reg, config.min_child_hessian)
        for side in (goes_left, ~goes_left):
            rows, others = every[side], every[~side]
            hist = bins.histogram(every, g, h) - bins.histogram(others, g[others], h[others])
            totals = (g[rows].sum(), h[rows].sum())
            found = find_best_split(len(rows), *args, bins=bins, hist=hist, totals=totals)
            ref_hists = [
                parent - sibling
                for parent, sibling in zip(
                    reference_histograms(ref_bins, thresholds, every, g, h),
                    reference_histograms(ref_bins, thresholds, others, g, h),
                )
            ]
            expected = reference_split(ref_hists, thresholds, g[rows], h[rows], *args)
            assert repr(found) == repr(expected)


def thresholds_of(bins, j):
    """Threshold of each cell in feature j's row, in bin order; NaN past its boundaries."""
    return bins.threshold[bins.feature == j]


# Columns with duplicates, NaN, both infinities, -0.0 beside 0.0 and
# neighbouring floats.
COLUMN_CELLS = (
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, float(np.nextafter(1.0, 2.0))])
    | st.floats(allow_nan=False)
)


class TestBinning:
    @settings(max_examples=300, deadline=None)
    @given(column=st.lists(COLUMN_CELLS, min_size=1, max_size=60))
    def test_few_values_keep_the_midpoint_rule(self, column):
        """Each neighbouring pair gets midpoint_rule's threshold.

        Below a finite value that is the old midpoint rule.
        """
        x = np.array(column)[:, None]
        got = thresholds_of(_Bins.fit(x), 0)
        got = got[~np.isnan(got)]
        assert np.isfinite(got).all()
        assert repr(got.tolist()) == repr(reference_bins(x)[0][0])

    def test_residue_in_an_empty_bin_does_not_move_the_threshold(self):
        """Parent - sibling can leave a rounding residue in a bin the node has no rows in."""
        bins = _Bins.fit(np.array([[0.0], [1.0], [2.0]]))
        # The node holds one row in bin 0 and one in bin 2; bin 1's g is a
        # residue that makes the higher boundary score a hair better.
        hist = np.array([[-1.0, -1e-15, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0]])
        g, h = np.array([-1.0, 1.0]), np.array([1.0, 1.0])
        totals = (g.sum(), h.sum())
        found = find_best_split(len(g), 1.0, 1e-3, bins=bins, hist=hist, totals=totals)
        _, feature, threshold = found
        assert (feature, threshold) == (0, 0.5)

    def test_255_values_get_a_bin_each_and_256_are_cut_by_rank(self):
        thresholds = thresholds_of(_Bins.fit(np.arange(255.0)[:, None]), 0)
        assert thresholds[:254].tolist() == (np.arange(254) + 0.5).tolist()
        assert np.isnan(thresholds[254:]).all()
        thresholds = thresholds_of(_Bins.fit(np.arange(256.0)[:, None]), 0)
        assert np.count_nonzero(~np.isnan(thresholds)) <= 254

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_4000_values_get_at_most_255_bins(self, duplicates):
        column = np.random.default_rng(0).normal(size=4000)
        if duplicates:
            extra = [*[0.25] * 900, *[math.nan] * 50, math.inf, -math.inf]
            column = np.concatenate([column, extra])
        values = np.unique(column[~np.isnan(column)])
        assert len(values) >= 4000
        bins = _Bins.fit(column[:, None])
        thresholds = thresholds_of(bins, 0)
        thresholds = thresholds[~np.isnan(thresholds)]
        assert 200 <= len(thresholds) <= 254  # so at most 255 value bins
        assert np.isfinite(thresholds).all()
        # Each threshold sits in (lo, hi] of a neighbouring pair, so lo goes left, hi right.
        upper = np.searchsorted(values, thresholds)
        assert (upper >= 1).all() and (upper < len(values)).all()
        assert (values[upper - 1] < thresholds).all() and (thresholds <= values[upper]).all()
        if not duplicates:
            # Boundary k (from 1) has floor(k * rows / 255) rows below it.
            below = np.searchsorted(np.sort(column), thresholds)
            assert below.tolist() == (np.arange(1, 255) * 4000 // 255).tolist()
        # Cut by row ranks: every value bin but the one holding the 900
        # duplicates gets at most twice its share of the rows.
        finite_rows = np.count_nonzero(~np.isnan(column))
        counts = np.sort(np.bincount(bins.cells[~np.isnan(column), 0]))
        assert counts[-1 - duplicates] <= 2 * finite_rows // 255
        assert counts.sum() == finite_rows
