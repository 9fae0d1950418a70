"""Classification metrics: confusion matrix, PRF averages, one-vs-rest AUROC.

Conventions, applied uniformly:

* predicted class is the argmax of the probability row, ties to the
  lowest index;
* confusion matrix rows are true classes, columns predicted;
* any 0/0 rate (e.g. precision of a never-predicted class) is 0;
* macro averages are unweighted means over all K classes, weighted
  averages are support-weighted means;
* AUROC is computed per class one-vs-rest by the rank formula (ties count
  half); a class without both a positive and a negative sample has no
  AUROC and drops out of the macro mean.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError
from .schema import _quoted


def confusion_matrix(
    y_true: np.ndarray, y_pred: np.ndarray, n_classes: int
) -> np.ndarray:
    """K x K counts; rows are true classes, columns predicted classes."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise DataError("true and predicted labels disagree on length")
    for name, arr in (("true", y_true), ("predicted", y_pred)):
        if len(arr) and (arr.min() < 0 or arr.max() >= n_classes):
            raise DataError(f"{name} label out of range for {n_classes} classes")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def auroc_ovr(scores: np.ndarray, binary_labels: np.ndarray) -> float | None:
    """Probability a random positive outranks a random negative, ties half.

    Computed from average ranks (Mann-Whitney). Returns None when the
    labels contain only one class, where the quantity is undefined.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(binary_labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # average 1-based rank within each tie group
    starts = np.r_[0, np.nonzero(sorted_scores[1:] != sorted_scores[:-1])[0] + 1]
    ends = np.r_[starts[1:], len(scores)]
    group_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat(group_rank, ends - starts)
    rank_sum = ranks[labels].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass(frozen=True)
class PerClassMetrics:
    label: str
    support: int
    precision: float
    recall: float
    f1: float
    auroc: float | None


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    precision_macro: float
    recall_macro: float
    f1_macro: float
    precision_weighted: float
    recall_weighted: float
    f1_weighted: float
    auroc_macro: float | None
    per_class: tuple[PerClassMetrics, ...]
    confusion: np.ndarray
    n_samples: int

    @property
    def class_labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.per_class)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "confusion": self.confusion.tolist()}

    def to_text(self) -> str:
        lines = [
            f"samples:             {self.n_samples}",
            f"accuracy:            {self.accuracy:.6f}",
            f"precision (weighted): {self.precision_weighted:.6f}",
            f"recall (weighted):    {self.recall_weighted:.6f}",
            f"f1 (weighted):        {self.f1_weighted:.6f}",
            f"precision (macro):    {self.precision_macro:.6f}",
            f"recall (macro):       {self.recall_macro:.6f}",
            f"f1 (macro):           {self.f1_macro:.6f}",
        ]
        if self.auroc_macro is None:
            lines.append("auroc (ovr macro):    undefined")
        else:
            lines.append(f"auroc (ovr macro):    {self.auroc_macro:.6f}")
        lines.append("")
        lines.append("per class:")
        header = f"  {'label':<16} {'support':>7} {'precision':>10} {'recall':>10} {'f1':>10} {'auroc':>10}"
        lines.append(header)
        for c in self.per_class:
            auroc = "-" if c.auroc is None else f"{c.auroc:.6f}"
            lines.append(
                f"  {c.label:<16} {c.support:>7} {c.precision:>10.6f} "
                f"{c.recall:>10.6f} {c.f1:>10.6f} {auroc:>10}"
            )
        return "\n".join(lines) + "\n"

    def confusion_csv_text(self) -> str:
        """The matrix as CSV lines ending in ``\\n``, each label quoted as
        csv.writer quotes it."""
        labels = _quoted(list(self.class_labels))
        lines = ["true\\predicted," + ",".join(labels)]
        for i, label in enumerate(labels):
            row = ",".join(str(int(v)) for v in self.confusion[i])
            lines.append(f"{label},{row}")
        return "\n".join(lines) + "\n"


def evaluate(
    probas: np.ndarray, labels: np.ndarray, class_labels=None
) -> EvalReport:
    """Score probability predictions against integer labels.

    Args:
        probas: (B, K) class probabilities.
        labels: (B,) true class indices in [0, K).
        class_labels: optional K display names; defaults to class_0..K-1.

    Raises:
        DataError: empty input or labels out of range.
    """
    probas = np.asarray(probas, dtype=np.float64)
    labels = np.asarray(labels)
    if probas.ndim != 2 or len(probas) == 0:
        raise DataError("need a non-empty (rows, classes) probability matrix")
    if len(labels) != len(probas):
        raise DataError("probabilities and labels disagree on row count")
    n_classes = probas.shape[1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DataError(f"label out of range for {n_classes} classes")
    if class_labels is None:
        class_labels = tuple(f"class_{k}" for k in range(n_classes))
    class_labels = tuple(str(c) for c in class_labels)
    if len(class_labels) != n_classes:
        raise DataError("class label count does not match probability width")

    predicted = probas.argmax(axis=1)
    cm = confusion_matrix(labels, predicted, n_classes)
    total = int(cm.sum())
    accuracy = float(np.trace(cm) / total)

    support = cm.sum(axis=1)
    predicted_count = cm.sum(axis=0)
    diag = np.diag(cm)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted_count > 0, diag / predicted_count, 0.0)
        recall = np.where(support > 0, diag / support, 0.0)
        pr_sum = precision + recall
        f1 = np.where(pr_sum > 0, 2.0 * precision * recall / pr_sum, 0.0)

    per_class = []
    aurocs = []
    for k in range(n_classes):
        roc = auroc_ovr(probas[:, k], labels == k)
        if roc is not None:
            aurocs.append(roc)
        per_class.append(
            PerClassMetrics(
                class_labels[k],
                int(support[k]),
                float(precision[k]),
                float(recall[k]),
                float(f1[k]),
                roc,
            )
        )

    weight = support / total
    return EvalReport(
        accuracy=accuracy,
        precision_macro=float(precision.mean()),
        recall_macro=float(recall.mean()),
        f1_macro=float(f1.mean()),
        precision_weighted=float((precision * weight).sum()),
        recall_weighted=float((recall * weight).sum()),
        f1_weighted=float((f1 * weight).sum()),
        auroc_macro=float(np.mean(aurocs)) if aurocs else None,
        per_class=tuple(per_class),
        confusion=cm,
        n_samples=total,
    )
