"""Second-order gradient-boosted trees with a multiclass softmax objective.

Each boosting round fits one regression tree per class to the gradient
g = p - y and diagonal hessian h = p(1 - p) of softmax cross-entropy at
the current margins. Trees grow best-first (highest gain next) under a leaf
budget and a depth cap. There is no subsampling, so training is fully
deterministic.

Split search runs on histograms. Training bins each feature once, at most
255 value bins per feature (``_bin_thresholds``), and NaN rows get a top
bin of their own. Rows with feature < threshold go left, so NaN goes
right. A histogram is one flat row of cells: features are grouped by the
power-of-two class of their bin count, and each group pads its features
only to its own widest, so a 12-bin feature does not take 256 cells. A
node's gradient, hessian and row count per cell come from ``np.bincount``
over its rows, in row order. When a node splits, the child with fewer rows
is counted and the other child's histogram is its parent's minus its
sibling's. A node scans every boundary of every feature at once: one
running sum per feature, taken by one ``np.add.accumulate`` per group.

A training keeps, next to the bins, every row's cells, their row count per
cell and the features column by column, and every tree reuses them. So a
root's histogram is two weighted ``bincount`` calls, with no gather and no
count pass, and a split partitions its rows from one contiguous column.
Each child's g and h are gathered once, for its sums and, for the smaller
child, its histogram. Most searched nodes hold a few dozen rows, so fixed
per-call costs, not per-row work, dominate: the search builds its mask and
gains in place and calls numpy's ufuncs directly. Every sum still adds
its terms in row order, so none of this moves a bit of any tree.

Split gain, with L2 penalty lambda on leaf weights:

    gain = 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam))

and a leaf's weight is -G/(H+lam). Ties in gain break to the lowest
feature index, then the lowest threshold, whatever group the features sit in.

A model holds its trees as a bundle stores them: one array per node field
with every tree's nodes end to end, and each tree's size. A node is its
feature (-1 for a leaf), its value (a split's threshold or a leaf's
weight) and its left child; a split's two children are added together, so
the right child is always ``left + 1`` and is not stored. Training grows a
tree in Python lists and joins all trees once, at the end, into read-only
arrays. When a model is built, trained, built in code or loaded, its
arrays are checked in one pass over all nodes and laid out for the walk.
It predicts by walking every tree for a block of rows at once, one level
per step, with no per-node Python work.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError
from .nn import softmax
from .packed import FLOAT, INT, fields, pack, unpack

_NO_CHILD = -1
# Each node field of a tree and the dtype it is stored with.
_TREE_DTYPES = {"feature": INT, "value": FLOAT, "left": INT}


@dataclass(frozen=True)
class GbdtConfig:
    rounds: int = 100
    max_depth: int = 8
    max_leaves: int = 100
    shrinkage: float = 0.1
    l2_reg: float = 1.0
    min_child_hessian: float = 1e-3

    def __post_init__(self):
        counts = (self.rounds, self.max_depth, self.max_leaves)
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in counts):
            raise ValueError("rounds, max_depth, and max_leaves must be integers")
        if self.rounds < 1 or self.max_depth < 1 or self.max_leaves < 2:
            raise ValueError("rounds and max_depth must be >= 1, max_leaves >= 2")
        rates = (self.shrinkage, self.l2_reg, self.min_child_hessian)
        if not all(not isinstance(r, bool) and math.isfinite(r) and r > 0 for r in rates):
            raise ValueError(
                "shrinkage, l2_reg, and min_child_hessian must be finite and positive"
            )


@dataclass(frozen=True)
class Tree:
    """One tree's three node arrays, views into its model's; node 0 is the root.

    A leaf has feature -1 and left -1, and its ``value`` is its weight; an
    internal node routes feature < value to ``left``, the rest to
    ``left + 1``. Children are node indices within the tree.
    """

    feature: np.ndarray
    value: np.ndarray
    left: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        return _PackedTrees.pack(vars(self), [len(self.feature)]).leaf_values(x)[:, 0]


# Rows per block in GbdtModel.margins: enough to amortise each numpy call
# over all trees, few enough that a block's node indices stay in cache. The
# walk is per row, so its bits do not depend on the block size. It stays at
# 512, not the networks' 1,024 (models._ROW_BLOCK): at 1,024 a 20,000-row
# walk took about 2% longer in median and 10% at best.
_ROW_BLOCK = 512


@dataclass(frozen=True)
class _PackedTrees:
    """Trees laid end to end in flat node arrays, walked level by level.

    Tree t's node i is packed node n = ``roots[t] // 2 + i``, held at index
    2n of every array. From index k = 2n a row moves to
    ``child[k + (x[feature[k]] < value[k])]``: ``child[k]`` is the right
    child's index and ``child[k + 1]`` the left's, so NaN goes right. A leaf
    points at itself both ways and reads feature 0, so steps past a leaf
    leave it in place whatever the compare gives, and ``steps`` (the
    deepest tree's depth) steps reach every leaf, where ``value`` is read
    once more as the leaf's weight. ``width`` is one more than the highest
    feature an internal node reads.
    """

    feature: np.ndarray
    value: np.ndarray
    child: np.ndarray
    roots: np.ndarray
    steps: int
    width: int

    @classmethod
    def pack(cls, nodes: dict[str, np.ndarray], sizes: np.ndarray) -> "_PackedTrees":
        """Lay out the trees that ``nodes`` holds end to end, ``sizes[t]`` nodes
        for tree t, rejecting any structure the walk cannot trust.

        Raises:
            DataError: ``sizes`` or a node field that is not 1-d; a size,
                feature or left that is not an integer; a value that is not
                a number; a size below 1; a field whose length is not the
                sum of the sizes; a value that is not finite; a feature
                below -1; a leaf whose left is not -1; an internal node
                whose left is not after it or whose right (left + 1) is not
                inside its tree (so children come after their parent, and
                no tree has a cycle).
        """
        fields = {"sizes": sizes, **{name: nodes[name] for name in _TREE_DTYPES}}
        for name, values in fields.items():
            array = np.asarray(values)
            numbers = _TREE_DTYPES.get(name) == FLOAT
            if array.ndim != 1 or array.dtype.kind not in ("fi" if numbers else "i"):
                what = "numbers" if numbers else "integers"
                raise DataError(f"gbdt tree {name} must be a 1-d array of {what}")
            fields[name] = array.astype(np.float64 if numbers else np.intp)
        sizes, feature, value, left = fields.values()
        if (sizes < 1).any():
            t = int(np.argmax(sizes < 1))
            raise DataError(f"gbdt tree {t} has {sizes[t]} nodes; a tree needs at least 1")
        total = int(sizes.sum())
        for name in _TREE_DTYPES:
            if len(fields[name]) != total:
                raise DataError(
                    f"gbdt tree {name} holds {len(fields[name])} nodes; "
                    f"the tree sizes add up to {total}"
                )
        roots = np.cumsum(sizes) - sizes
        tree_of = np.repeat(np.arange(len(sizes)), sizes)
        offsets = roots[tree_of]
        own = np.arange(len(feature), dtype=np.intp)
        node = own - offsets  # index within its tree
        size = sizes[tree_of]  # of its tree
        is_leaf = feature == _NO_CHILD
        faults = (
            (~np.isfinite(value), "a non-finite value"),
            (feature < _NO_CHILD, "a feature below -1 (a leaf)"),
            (is_leaf & (left != _NO_CHILD), "a leaf with children"),
            (
                ~is_leaf & ((left <= node) | (left + 1 >= size)),
                "a child not after it and inside its tree",
            ),
        )
        bad = np.logical_or.reduce([fault for fault, _ in faults])
        if bad.any():
            i = int(np.argmax(bad))
            problem = next(problem for fault, problem in faults if fault[i])
            raise DataError(
                f"gbdt tree {tree_of[i]}: node {node[i]} (feature {feature[i]}, left "
                f"{left[i]}) has {problem}"
            )
        left = np.where(is_leaf, own, left + offsets)
        right = np.where(is_leaf, own, left + 1)
        width = int(feature.max(initial=_NO_CHILD)) + 1
        feature[is_leaf] = 0
        # Count the levels of split nodes. A mask holds each level, so a node
        # that two parents share is walked once.
        steps, level = 0, roots[~is_leaf[roots]]
        while len(level):
            steps += 1
            reached = np.zeros(len(feature), dtype=bool)
            reached[left[level]] = reached[right[level]] = True
            level = np.flatnonzero(reached & ~is_leaf)
        child = 2 * np.column_stack((right, left)).reshape(-1)
        return cls(np.repeat(feature, 2), np.repeat(value, 2), child, 2 * roots, steps, width)

    def leaf_values(self, x: np.ndarray) -> np.ndarray:
        """Value of the leaf each row of ``x`` reaches in each tree, shape (rows, trees).

        ``x`` must be C-contiguous float64: each step gathers from it flat.
        """
        n_rows, n_features = x.shape
        if n_features < self.width:
            raise DataError(f"trees read feature {self.width - 1}; x has {n_features}")
        flat = x.reshape(-1)
        row_start = (np.arange(n_rows, dtype=np.intp) * n_features)[:, None]
        node = np.repeat(self.roots[None, :], n_rows, axis=0)
        for _ in range(self.steps):
            value = flat.take(row_start + self.feature.take(node))
            node = self.child.take(node + (value < self.value.take(node)))
        return self.value.take(node)


# A feature has at most this many value bins; its NaN rows get one more.
_MAX_BINS = 255


def _bin_thresholds(column: np.ndarray) -> np.ndarray:
    """Ascending, finite thresholds of one feature's bin boundaries.

    Each boundary sits between two neighbouring distinct non-NaN values lo
    and hi. With at most _MAX_BINS distinct values every neighbouring pair
    gets one; otherwise the pairs are picked under evenly spaced integer row
    ranks, at most _MAX_BINS - 1 of them. A boundary's threshold is the
    midpoint of lo and hi, or hi where the midpoint rounds onto lo or
    overflows, or the next float above lo where hi is +inf; a pair with no
    finite threshold gets no boundary.
    """
    values, counts = np.unique(column[~np.isnan(column)], return_counts=True)
    if len(values) <= _MAX_BINS:
        upper = np.arange(1, len(values))
    else:
        ranks = np.arange(1, _MAX_BINS) * counts.sum() // _MAX_BINS
        upper = np.unique(np.searchsorted(np.cumsum(counts), ranks, side="right"))
        upper = upper[upper > 0]
    lo, hi = values[upper - 1], values[upper]
    # Overflows and -inf + inf give non-finite values that are not used.
    with np.errstate(over="ignore", invalid="ignore"):
        mid = (lo + hi) / 2.0
        above_lo = np.nextafter(lo, np.inf)
    threshold = np.where((lo < mid) & (mid <= hi), mid, hi)
    threshold = np.where(hi == np.inf, above_lo, threshold)
    # -0.0 and 0.0 are one value; + 0.0 stores every zero threshold as 0.0.
    return threshold[np.isfinite(threshold)] + 0.0


@dataclass(frozen=True)
class _Bins:
    """Every feature's bin boundaries, fit once per training, and each row's bins.

    Histograms are flat: feature j owns one row of cells, value bin k of j
    at cell ``offset_j + k`` and its NaN bin just above its value bins.
    Features are grouped by the power-of-two class of their width (value
    bins plus the NaN bin). A group pads each of its features' rows to its
    own widest feature, and the groups lie end to end, so a narrow feature
    is not padded to the widest one. ``groups`` holds each group's
    ``(start, stop, features, width)``.

    Cell c holds boundary b of feature ``feature[c]`` when c is that
    feature's value bin b: its threshold is ``threshold[c]``, and rows with
    x < threshold[c] are below it. So a split at boundary b sends value
    bins 0..b left, exactly as the threshold routes rows in prediction.
    NaN rows sit above every boundary, so they go right. Cells without a
    boundary hold NaN in ``threshold`` and False in ``has_threshold``.
    ``rank[c]`` orders the cells by (feature, boundary), whatever their
    group. ``cells[i, j]`` is row i's cell of feature j.

    Every tree of a training reuses what ``fit`` keeps: ``cells``, whose
    flat view is every row's cells in row order; ``counts``, each cell's
    row count over all rows; and ``columns``, the features stored column
    by column (``columns[j]`` is x[:, j]), from which a split partitions
    its rows.
    """

    cells: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    has_threshold: np.ndarray
    rank: np.ndarray
    groups: tuple[tuple[int, int, int, int], ...]
    counts: np.ndarray
    columns: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "_Bins":
        per_feature = [_bin_thresholds(column) for column in x.T]
        widths = np.array([len(t) + 2 for t in per_feature], dtype=np.intp)
        # Class c holds the widths in (2**(c - 1), 2**c].
        width_class = np.array([int(w - 1).bit_length() for w in widths], dtype=np.intp)
        offsets = np.empty(len(widths), dtype=np.intp)
        feature, groups, start = [np.empty(0, dtype=np.intp)], [], 0
        for c in np.unique(width_class):
            members = np.flatnonzero(width_class == c)
            width = int(widths[members].max())
            stop = start + width * len(members)
            offsets[members] = np.arange(start, stop, width)
            feature.append(np.repeat(members, width))
            groups.append((start, stop, len(members), width))
            start = stop
        feature = np.concatenate(feature)
        threshold = np.full(start, np.nan)
        cells = np.empty(x.shape, dtype=np.intp)
        for j, (column, t) in enumerate(zip(x.T, per_feature)):
            threshold[offsets[j] : offsets[j] + len(t)] = t
            bin_of = np.searchsorted(t, column, side="right")
            cells[:, j] = np.where(np.isnan(column), len(t) + 1, bin_of) + offsets[j]
        # Orders the cells by feature, then by position in the feature's row.
        rank = feature * widths.max(initial=0) + (np.arange(start) - offsets[feature])
        counts = np.bincount(cells.reshape(-1), minlength=start).astype(np.float64)
        return cls(
            cells, feature, threshold, ~np.isnan(threshold), rank, tuple(groups),
            counts, np.ascontiguousarray(x.T),
        )

    def histogram(self, rows: np.ndarray | None, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Sums of g, of h and of rows per cell, shape (3, cells).

        ``g`` and ``h`` hold the values of ``rows``, gathered by the caller.
        ``bincount`` adds in the order of ``rows``, so ascending rows give
        every cell its sums in row order. ``rows`` None stands for every
        row, in order: its sums come from the kept cells and counts, with no
        gather and no count pass, and have the bits that ``np.arange`` of
        every row gives.
        """
        cells = self.cells if rows is None else self.cells.take(rows, axis=0)
        n_features, size = cells.shape[1], len(self.feature)
        cells = cells.reshape(-1)
        hist = np.empty((3, size))
        hist[0] = np.bincount(cells, weights=np.repeat(g, n_features), minlength=size)
        hist[1] = np.bincount(cells, weights=np.repeat(h, n_features), minlength=size)
        hist[2] = self.counts if rows is None else np.bincount(cells, minlength=size)
        return hist


def find_best_split(
    n_rows: int,
    l2_reg: float,
    min_child_hessian: float,
    *,
    bins: _Bins,
    hist: np.ndarray,
    totals: tuple[float, float],
):
    """Best split of a node of ``n_rows`` rows over all features and bin boundaries.

    ``totals`` is the sums ``(g, h)`` over the node's rows. ``bins`` is fit
    on all training rows, and ``hist`` is the node's histogram:
    ``bins.histogram`` of its rows, or its parent's minus its sibling's. The
    search reads no row's gradients; the histogram holds all it needs. A
    boundary is a candidate where it has a threshold, the bin just below it
    holds rows of this node (so of the boundaries that split the node alike
    only the lowest is one), and each side keeps at least
    ``min_child_hessian``.

    The running sums take one ``np.add.accumulate`` per width group, along
    each feature's row of cells; the mask then runs once over all cells and
    the gains once over the candidates. Both are built in place, in
    buffers the search allocates; ``hist`` is only read, as the heap keeps
    it to derive a child's histogram from. Most searched nodes are small,
    so the search calls the ufuncs themselves, not numpy's Python wrappers
    around them.

    Returns (gain, feature, threshold) for the best positive-gain split,
    or None when no candidate is valid. Ties break to the lowest feature
    index, then the lowest threshold, through ``bins.rank``.
    """
    if n_rows < 2:
        return None
    g_total, h_total = totals
    parent_score = g_total * g_total / (h_total + l2_reg)
    # Each feature's running sum starts at 0 and adds its bins in order.
    sums = np.empty_like(hist)
    for start, stop, n_features, width in bins.groups:
        block = (3, n_features, width)
        out = sums[:, start:stop].reshape(block)  # a view: sums is C-contiguous
        np.add.accumulate(hist[:, start:stop].reshape(block), axis=-1, out=out)
    gl, hl, nl = sums
    hr = np.subtract(h_total, hl)
    valid = np.greater(hist[2], 0.0)
    valid &= bins.has_threshold
    term = np.less(nl, n_rows)
    valid &= term
    valid &= np.greater_equal(hl, min_child_hessian, out=term)
    valid &= np.greater_equal(hr, min_child_hessian, out=term)
    at = valid.nonzero()[0]
    if not len(at):
        return None
    # gains = 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - parent_score), one step at a time.
    gains, hl, hr = gl.take(at), hl.take(at), hr.take(at)
    gr = np.subtract(g_total, gains)
    gains *= gains
    gains /= np.add(hl, l2_reg, out=hl)
    gr *= gr
    gr /= np.add(hr, l2_reg, out=hr)
    gains += gr
    gains -= parent_score
    gains *= 0.5
    best = np.maximum.reduce(gains)
    if not best > 0.0:
        return None
    ties = at[gains == best]
    cell = ties[bins.rank.take(ties).argmin()]
    return float(best), int(bins.feature[cell]), float(bins.threshold[cell])


def _grow_tree(
    bins: _Bins, g: np.ndarray, h: np.ndarray, config: GbdtConfig
) -> tuple[tuple[list, ...], np.ndarray]:
    """Best-first growth: always expand the pending node with highest gain.

    ``bins`` is ``_Bins.fit`` of the training rows. Returns the tree's node
    lists, one per field in ``_TREE_DTYPES`` order, and the weight of the
    leaf each row ends in. A split's two children are added together, left
    then right. A leaf keeps its rows, and a leaf on the heap its
    histogram; its g and h sums give its weight and its search, and are not
    kept.

    The root's histogram comes from the cells and counts ``bins`` keeps. A
    split reads its feature from ``bins.columns``, and each child's g and h
    are gathered once: for its sums and, if it is the smaller child, its
    histogram.
    """
    features, values, lefts = tree = [], [], []

    def add_node(idx):
        """A leaf for rows ``idx``; returns it, ``(idx, g[idx], h[idx])`` and
        the sums ``(g, h)`` over ``idx``."""
        g_rows, h_rows = g[idx], h[idx]
        totals = np.add.reduce(g_rows), np.add.reduce(h_rows)
        node = len(values)
        features.append(_NO_CHILD)
        values.append(float(-totals[0] / (totals[1] + config.l2_reg)))
        lefts.append(_NO_CHILD)
        leaf_rows[node] = idx  # ascending, so sums keep their order
        return node, (idx, g_rows, h_rows), totals

    leaf_rows = {}
    heap = []

    def consider(node: int, totals, hist: np.ndarray, depth: int):
        found = find_best_split(
            len(leaf_rows[node]), config.l2_reg, config.min_child_hessian,
            bins=bins, hist=hist, totals=totals,
        )
        if found is not None:
            gain, feature, threshold = found
            # Nodes are numbered as they are found: equal gains pop the earlier.
            heapq.heappush(heap, (-gain, node, feature, threshold, hist, depth))

    root, _, root_totals = add_node(np.arange(len(g)))
    consider(root, root_totals, bins.histogram(None, g, h), 0)
    n_leaves = 1
    while heap and n_leaves < config.max_leaves:
        _, node, feature, threshold, hist, depth = heapq.heappop(heap)
        idx = leaf_rows.pop(node)
        goes_left = bins.columns[feature].take(idx) < threshold
        left, left_part, left_totals = add_node(idx[goes_left])
        right, right_part, right_totals = add_node(idx[~goes_left])
        features[node], values[node], lefts[node] = feature, threshold, left
        n_leaves += 1
        # Children that the depth cap or the spent leaf budget keep as leaves
        # are not searched.
        if depth + 1 < config.max_depth and n_leaves < config.max_leaves:
            # Sum the child with fewer rows (left on a tie); the parent's
            # buffer becomes the other child's, parent minus sibling.
            left_smaller = len(left_part[0]) <= len(right_part[0])
            small = bins.histogram(*(left_part if left_smaller else right_part))
            hist -= small
            consider(left, left_totals, small if left_smaller else hist, depth + 1)
            consider(right, right_totals, hist if left_smaller else small, depth + 1)
    row_values = np.empty(len(g))
    for node, idx in leaf_rows.items():
        row_values[idx] = values[node]
    return tree, row_values


def _checked_view(view: str) -> str:
    """``view``, once it is one a GBDT can read."""
    if view not in GbdtModel.feature_views:
        raise DataError(
            f"gbdt member has feature view {view!r}; "
            f"pick one of {', '.join(GbdtModel.feature_views)}"
        )
    return view


@dataclass(eq=False)
class GbdtModel:
    """Trees as a bundle stores them: ``nodes`` maps each ``_TREE_DTYPES``
    field to one 1-d array holding every tree's nodes end to end, and tree
    t holds ``sizes[t]`` of them. Trees are round-major: tree
    r * n_classes + k is round r, class k. ``feature_view`` is the one of
    ``feature_views`` its features come from; a bundle records it.

    Building a model checks it once, trained, built in code or loaded.

    Raises:
        DataError: a feature view outside ``feature_views``; a shrinkage
            that is not finite and positive; a non-finite base score; trees
            that ``_PackedTrees.pack`` rejects; a tree count that is not a
            multiple of ``n_classes`` (no trees is allowed); a tree that
            reads a feature past ``feature_count``.
    """

    kind = "gbdt"
    feature_views = ("numeric+tokens", "numeric+frequency", "numeric")

    nodes: dict[str, np.ndarray]
    sizes: np.ndarray
    n_classes: int
    feature_count: int
    shrinkage: float
    base_score: float = 0.0
    feature_view: str = feature_views[0]
    # Packed and checked from ``nodes`` when the model is built; edit no node after.
    _packed: _PackedTrees = field(init=False, repr=False)

    def __post_init__(self):
        _checked_view(self.feature_view)
        shrinkage, base_score = self.shrinkage, self.base_score
        if not (math.isfinite(shrinkage) and shrinkage > 0 and math.isfinite(base_score)):
            raise DataError(
                f"gbdt shrinkage {shrinkage} must be finite and positive, "
                f"base score {base_score} finite"
            )
        self._packed = _PackedTrees.pack(self.nodes, self.sizes)
        if self.n_classes < 1 or len(self.sizes) % self.n_classes:
            raise DataError(
                f"gbdt holds {len(self.sizes)} trees; expected a multiple "
                f"of its {self.n_classes} classes"
            )
        if self._packed.width > self.feature_count:
            raise DataError(
                f"gbdt trees read feature {self._packed.width - 1}; "
                f"the model has {self.feature_count} features"
            )

    @property
    def rounds(self) -> int:
        return len(self.sizes) // self.n_classes

    @property
    def trees(self) -> list[Tree]:
        """Each tree as views of its slice of ``nodes``, in model order."""
        ends = np.cumsum(self.sizes).tolist()
        return [
            Tree(*(self.nodes[name][start:end] for name in _TREE_DTYPES))
            for start, end in zip([0, *ends[:-1]], ends)
        ]

    def margins(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.feature_count:
            raise DataError(
                f"expected {self.feature_count} features, got shape {x.shape}"
            )
        out = np.empty((len(x), self.n_classes), dtype=np.float64)
        for start in range(0, len(x), _ROW_BLOCK):
            block = x[start : start + _ROW_BLOCK]
            # Slot 0 holds the base score and slot r + 1 round r's leaves. The
            # accumulate adds them left to right, as one tree at a time would,
            # for the same bits.
            sums = np.empty((len(block), self.rounds + 1, self.n_classes), dtype=np.float64)
            sums[:, 0] = self.base_score
            np.multiply(
                self.shrinkage,
                self._packed.leaf_values(block).reshape(len(block), self.rounds, self.n_classes),
                out=sums[:, 1:],
            )
            np.add.accumulate(sums, axis=1, out=sums)
            out[start : start + _ROW_BLOCK] = sums[:, -1]
        return out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.margins(x))

    def describe(self) -> str:
        return f"{self.rounds} rounds x {self.n_classes} classes, feature view {self.feature_view}"

    def to_json_dict(self) -> dict:
        """Each tree's size and the node fields, packed as the model holds them."""
        trees = {"sizes": pack(self.sizes, INT)}
        trees.update((name, pack(self.nodes[name], dtype)) for name, dtype in _TREE_DTYPES.items())
        return {"shrinkage": self.shrinkage, "base_score": self.base_score, "trees": trees}

    @classmethod
    def from_json_dict(cls, doc: dict, state, view: str) -> "GbdtModel":
        """Decode a model reading ``view`` of the preprocessing ``state``,
        which gives its class count and feature count.

        Raises:
            DataError: a view a GBDT cannot read, what ``fields`` or
                ``unpack`` refuses, a shrinkage or base score that is not a
                number, no trees, or what building the model rejects.
        """
        feature_count = state.view_width(_checked_view(view))
        shrinkage, base, trees = fields(doc, ("shrinkage", "base_score", "trees"), "gbdt payload")
        if not all(type(v) in (int, float) for v in (shrinkage, base)):
            raise DataError(f"gbdt shrinkage {shrinkage!r} and base score {base!r} must be numbers")
        sizes, *arrays = fields(trees, ("sizes", *_TREE_DTYPES), "gbdt trees")
        sizes = unpack(sizes, INT, "gbdt tree sizes", ndim=1)
        if not len(sizes):
            raise DataError("gbdt holds no trees")
        nodes = {
            name: unpack(array, dtype, f"gbdt tree {name}", ndim=1)
            for (name, dtype), array in zip(_TREE_DTYPES.items(), arrays)
        }
        return cls(
            nodes, sizes, state.schema.n_classes, feature_count, float(shrinkage), float(base), view
        )


def train_gbdt(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    config: GbdtConfig,
    *,
    feature_view: str = GbdtModel.feature_views[0],
) -> tuple[GbdtModel, list[float]]:
    """Boost for config.rounds rounds; returns the model and per-round log-loss.

    ``features`` is the ``feature_view`` matrix, which the model records.

    Each feature is binned once, and every tree's split search runs on
    histograms of those bins. Each round softmaxes the margins once: the
    probabilities p give that round's loss and the next round's class-k
    gradients g = p_k - (y == k) and h = p_k (1 - p_k). Training has no
    subsampling, so it takes no seed.

    Raises:
        DataError: fewer than 2 rows, labels out of range, or fewer than
            2 distinct classes present.
        NumericError: a round's loss is not finite, as a shrinkage at the
            edge of float range can make it.
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

    margins = np.zeros((len(y), n_classes), dtype=np.float64)
    p = softmax(margins)
    nodes: dict[str, list] = {name: [] for name in _TREE_DTYPES}
    sizes: list[int] = []
    losses: list[float] = []
    rows = np.arange(len(y))
    bins = _Bins.fit(x)  # x is the same for every tree
    for round_ in range(1, config.rounds + 1):
        # A diverging round overflows its margins; the loss check refuses it,
        # so numpy's warnings would only repeat the error.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k in range(n_classes):
                g = p[:, k] - (y == k)
                h = p[:, k] * (1.0 - p[:, k])
                tree, values = _grow_tree(bins, g, h, config)
                for column, part in zip(nodes.values(), tree):
                    column.extend(part)
                sizes.append(len(tree[0]))
                margins[:, k] += config.shrinkage * values
            # The round's probabilities: its loss, and the next round's gradients.
            p = softmax(margins)
            loss = float(-np.log(p[rows, y]).mean())
        if not math.isfinite(loss):
            raise NumericError(f"gbdt training loss became non-finite at round {round_}")
        losses.append(loss)
    # All trees are joined once, into the arrays a bundle stores, read-only
    # as loaded ones are: the model walks its packed copy, not these.
    arrays = {name: np.array(nodes[name], dtype) for name, dtype in _TREE_DTYPES.items()}
    tree_sizes = np.array(sizes, INT)
    for array in (*arrays.values(), tree_sizes):
        array.flags.writeable = False
    model = GbdtModel(
        arrays, tree_sizes, n_classes, x.shape[1], config.shrinkage, feature_view=feature_view
    )
    return model, losses
