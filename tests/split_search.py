"""The GBDT split search over every row of a feature matrix, as training runs it at a root."""

import numpy as np

from tabfuse.gbdt import _Bins, find_best_split


def binned_split(x, g, h, l2_reg, min_child_hessian):
    """``find_best_split`` for the node holding every row of ``x``, binned as training bins it."""
    bins = _Bins.fit(x)
    hist = bins.histogram(np.arange(len(x)), g, h)
    return find_best_split(
        len(x), l2_reg, min_child_hessian, bins=bins, hist=hist, totals=(g.sum(), h.sum())
    )
