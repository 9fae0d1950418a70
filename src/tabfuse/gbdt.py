"""Second-order gradient-boosted trees with a multiclass softmax objective.

Each boosting round fits one regression tree per class to the gradient
g = p - y and diagonal hessian h = p(1 - p) of softmax cross-entropy at
the current margins. Split finding is exact greedy over sorted feature
values with midpoint thresholds; rows with feature < threshold go left.
Trees grow best-first (highest gain next) under a leaf budget and a depth
cap. There is no subsampling, so training is fully deterministic.

Split gain, with L2 penalty lambda on leaf weights:

    gain = 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam))

and a leaf's weight is -G/(H+lam). Ties in gain break to the lowest
feature index, then the lowest threshold.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError
from .nn import softmax

_NO_CHILD = -1


@dataclass(frozen=True)
class GbdtConfig:
    rounds: int = 100
    max_depth: int = 8
    max_leaves: int = 100
    shrinkage: float = 0.1
    l2_reg: float = 1.0
    min_child_hessian: float = 1e-3

    def __post_init__(self):
        if self.rounds < 1 or self.max_depth < 1 or self.max_leaves < 2:
            raise ValueError("rounds and max_depth must be >= 1, max_leaves >= 2")
        if self.shrinkage <= 0 or self.l2_reg <= 0 or self.min_child_hessian <= 0:
            raise ValueError(
                "shrinkage, l2_reg, and min_child_hessian must be positive"
            )

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class Tree:
    """Flat-array binary tree; node 0 is the root.

    A leaf has feature -1 and carries its value in ``weight``; an internal
    node routes feature < threshold to ``left``, the rest to ``right``.
    """

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    weight: list[float] = field(default_factory=list)

    def add_leaf(self, weight: float) -> int:
        self.feature.append(_NO_CHILD)
        self.threshold.append(0.0)
        self.left.append(_NO_CHILD)
        self.right.append(_NO_CHILD)
        self.weight.append(weight)
        return len(self.feature) - 1

    def make_split(self, node: int, feature: int, threshold: float, left: int, right: int):
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right
        self.weight[node] = 0.0

    @property
    def n_leaves(self) -> int:
        return sum(1 for f in self.feature if f == _NO_CHILD)

    def depth(self) -> int:
        depths = {0: 0}
        deepest = 0
        for node in range(len(self.feature)):
            d = depths[node]
            if self.feature[node] != _NO_CHILD:
                depths[self.left[node]] = d + 1
                depths[self.right[node]] = d + 1
                deepest = max(deepest, d + 1)
        return deepest

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(len(x), dtype=np.float64)
        stack = [(0, np.arange(len(x)))]
        while stack:
            node, idx = stack.pop()
            if len(idx) == 0:
                continue
            if self.feature[node] == _NO_CHILD:
                out[idx] = self.weight[node]
                continue
            goes_left = x[idx, self.feature[node]] < self.threshold[node]
            stack.append((self.left[node], idx[goes_left]))
            stack.append((self.right[node], idx[~goes_left]))
        return out

    def to_json_dict(self) -> dict:
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
            "weight": self.weight,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Tree":
        return cls(
            list(doc["feature"]),
            [float(t) for t in doc["threshold"]],
            list(doc["left"]),
            list(doc["right"]),
            [float(w) for w in doc["weight"]],
        )


def find_best_split(
    x: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    l2_reg: float,
    min_child_hessian: float,
):
    """Exact greedy split over all features and midpoint thresholds.

    Returns (gain, feature, threshold) for the best positive-gain split,
    or None when no candidate is valid. Ties break to the lowest feature
    index, then the lowest threshold (features scanned in order; within a
    feature the first argmax is the lowest threshold).
    """
    n, n_features = x.shape
    if n < 2:
        return None
    g_total = g.sum()
    h_total = h.sum()
    parent_score = g_total * g_total / (h_total + l2_reg)
    best = None
    for j in range(n_features):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        gl = np.cumsum(g[order])[:-1]
        hl = np.cumsum(h[order])[:-1]
        gr = g_total - gl
        hr = h_total - hl
        valid = (xs[:-1] < xs[1:]) & (hl >= min_child_hessian) & (hr >= min_child_hessian)
        if not valid.any():
            continue
        gains = 0.5 * (
            gl * gl / (hl + l2_reg) + gr * gr / (hr + l2_reg) - parent_score
        )
        gains[~valid] = -np.inf
        i = int(np.argmax(gains))
        gain = float(gains[i])
        if gain > 0.0 and (best is None or gain > best[0]):
            best = (gain, j, float((xs[i] + xs[i + 1]) / 2.0))
    return best


def _grow_tree(
    x: np.ndarray, g: np.ndarray, h: np.ndarray, config: GbdtConfig
) -> Tree:
    """Best-first growth: always expand the pending node with highest gain."""
    tree = Tree()

    def leaf_weight(idx):
        return float(-g[idx].sum() / (h[idx].sum() + config.l2_reg))

    all_rows = np.arange(len(x))
    root = tree.add_leaf(leaf_weight(all_rows))
    heap = []
    tick = 0  # heap tiebreak: earlier-discovered node first

    def consider(node: int, idx: np.ndarray, depth: int):
        nonlocal tick
        if depth >= config.max_depth:
            return
        found = find_best_split(
            x[idx], g[idx], h[idx], config.l2_reg, config.min_child_hessian
        )
        if found is not None:
            gain, feature, threshold = found
            heapq.heappush(heap, (-gain, tick, node, feature, threshold, idx, depth))
            tick += 1

    consider(root, all_rows, 0)
    n_leaves = 1
    while heap and n_leaves < config.max_leaves:
        _, _, node, feature, threshold, idx, depth = heapq.heappop(heap)
        goes_left = x[idx, feature] < threshold
        left_idx = idx[goes_left]
        right_idx = idx[~goes_left]
        left = tree.add_leaf(leaf_weight(left_idx))
        right = tree.add_leaf(leaf_weight(right_idx))
        tree.make_split(node, feature, threshold, left, right)
        n_leaves += 1
        consider(left, left_idx, depth + 1)
        consider(right, right_idx, depth + 1)
    return tree


@dataclass
class GbdtModel:
    """Round-major list of trees: trees[r * n_classes + k] is round r, class k."""

    kind = "gbdt"
    feature_views = ("numeric+tokens", "numeric+frequency", "numeric")

    trees: list[Tree]
    n_classes: int
    feature_count: int
    shrinkage: float
    base_score: float = 0.0
    preprocess_fingerprint: str = ""

    @property
    def rounds(self) -> int:
        return len(self.trees) // self.n_classes

    def margins(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.feature_count:
            raise DataError(
                f"expected {self.feature_count} features, got shape {x.shape}"
            )
        out = np.full((len(x), self.n_classes), self.base_score, dtype=np.float64)
        for r in range(self.rounds):
            for k in range(self.n_classes):
                out[:, k] += self.shrinkage * self.trees[r * self.n_classes + k].predict(x)
        return out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.margins(x))

    def describe(self) -> str:
        return f"{self.rounds} rounds x {self.n_classes} classes"

    def to_json_dict(self) -> dict:
        return {
            "n_classes": self.n_classes,
            "feature_count": self.feature_count,
            "shrinkage": self.shrinkage,
            "base_score": self.base_score,
            "preprocess_fingerprint": self.preprocess_fingerprint,
            "trees": [t.to_json_dict() for t in self.trees],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GbdtModel":
        return cls(
            [Tree.from_json_dict(t) for t in doc["trees"]],
            int(doc["n_classes"]),
            int(doc["feature_count"]),
            float(doc["shrinkage"]),
            float(doc["base_score"]),
            doc.get("preprocess_fingerprint", ""),
        )


def train_gbdt(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    config: GbdtConfig,
) -> tuple[GbdtModel, list[float]]:
    """Boost for config.rounds rounds; returns the model and per-round log-loss.

    Exact greedy split finding with no subsampling takes no seed.

    Raises:
        DataError: fewer than 2 rows, labels out of range, or fewer than
            2 distinct classes present.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or len(x) != len(y):
        raise DataError("features and labels disagree on row count")
    if len(x) < 2:
        raise DataError("need at least 2 rows to boost")
    if y.min() < 0 or y.max() >= n_classes:
        raise DataError(f"label out of range for {n_classes} classes")
    if len(np.unique(y)) < 2:
        raise DataError("need at least 2 distinct classes present")

    onehot = np.zeros((len(y), n_classes), dtype=np.float64)
    onehot[np.arange(len(y)), y] = 1.0
    margins = np.zeros((len(y), n_classes), dtype=np.float64)
    trees: list[Tree] = []
    losses: list[float] = []
    rows = np.arange(len(y))
    for _ in range(config.rounds):
        p = softmax(margins)
        for k in range(n_classes):
            g = p[:, k] - onehot[:, k]
            h = p[:, k] * (1.0 - p[:, k])
            tree = _grow_tree(x, g, h, config)
            trees.append(tree)
            margins[:, k] += config.shrinkage * tree.predict(x)
        p = softmax(margins)
        losses.append(float(-np.log(p[rows, y]).mean()))
    model = GbdtModel(trees, n_classes, x.shape[1], config.shrinkage)
    return model, losses
