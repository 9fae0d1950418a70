import csv
import io
import json

import numpy as np
import pytest

from tabfuse.errors import DataError
from tabfuse.metrics import auroc_ovr, confusion_matrix, evaluate


def auroc_by_pair_counting(scores, labels):
    """Independent oracle: count concordant pairs, ties worth half."""
    labels = np.asarray(labels).astype(bool)
    pos = np.asarray(scores, dtype=np.float64)[labels]
    neg = np.asarray(scores, dtype=np.float64)[~labels]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def oracle_dataset():
    """20 rows engineered to produce the confusion matrix [[8,2],[3,7]]."""
    y_true = np.array([0] * 10 + [1] * 10)
    y_pred = [0] * 8 + [1] * 2 + [0] * 3 + [1] * 7
    probas = np.array([[0.9, 0.1] if p == 0 else [0.2, 0.8] for p in y_pred])
    return probas, y_true


class TestConfusionMatrix:
    def test_hand_oracle(self):
        probas, y_true = oracle_dataset()
        cm = confusion_matrix(y_true, probas.argmax(axis=1), 2)
        assert np.array_equal(cm, [[8, 2], [3, 7]])

    def test_rows_are_true_classes(self):
        cm = confusion_matrix(np.array([0, 0, 1]), np.array([1, 1, 1]), 2)
        assert np.array_equal(cm, [[0, 2], [0, 1]])

    def test_empty_input_gives_zeros(self):
        cm = confusion_matrix(np.array([], dtype=int), np.array([], dtype=int), 3)
        assert np.array_equal(cm, np.zeros((3, 3)))

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length"):
            confusion_matrix(np.array([0]), np.array([0, 1]), 2)

    def test_label_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            confusion_matrix(np.array([0, 2]), np.array([0, 1]), 2)


class TestAurocOvr:
    def test_perfect_separation(self):
        assert auroc_ovr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_perfectly_wrong(self):
        assert auroc_ovr([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_hand_computed_three_quarters(self):
        assert auroc_ovr([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.75

    def test_all_scores_tied_is_half(self):
        assert auroc_ovr([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_undefined(self):
        assert auroc_ovr([0.5, 0.6], [1, 1]) is None
        assert auroc_ovr([0.5, 0.6], [0, 0]) is None

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        if seed % 3 == 0:
            scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)  # forces ties
        else:
            scores = rng.uniform(size=n)
        labels = rng.integers(0, 2, size=n)
        labels[0] = 0
        labels[-1] = 1
        assert abs(auroc_ovr(scores, labels) - auroc_by_pair_counting(scores, labels)) < 1e-12


class TestEvaluate:
    def test_confusion_oracle_metrics(self):
        probas, y_true = oracle_dataset()
        report = evaluate(probas, y_true)
        assert np.array_equal(report.confusion, [[8, 2], [3, 7]])
        assert report.n_samples == 20
        assert report.accuracy == 0.75
        c0, c1 = report.per_class
        assert c0.support == 10 and c1.support == 10
        assert c0.precision == 8 / 11
        assert c0.recall == 8 / 10
        assert c0.f1 == 2 * (8 / 11) * (8 / 10) / (8 / 11 + 8 / 10)
        assert c1.precision == 7 / 9
        assert c1.recall == 7 / 10
        assert report.precision_macro == (8 / 11 + 7 / 9) / 2

    def test_weighted_versus_macro_with_unequal_support(self):
        # confusion [[2,1],[0,5]]: supports 3 and 5
        y_true = np.array([0, 0, 0, 1, 1, 1, 1, 1])
        y_pred = [0, 0, 1, 1, 1, 1, 1, 1]
        probas = np.array([[0.8, 0.2] if p == 0 else [0.3, 0.7] for p in y_pred])
        report = evaluate(probas, y_true)
        assert report.precision_macro == (1.0 + 5 / 6) / 2
        assert report.precision_weighted == (1.0 * 3 + (5 / 6) * 5) / 8
        assert report.recall_macro == (2 / 3 + 1.0) / 2
        assert report.recall_weighted == ((2 / 3) * 3 + 1.0 * 5) / 8

    def test_argmax_tie_predicts_lowest_index(self):
        report = evaluate(np.array([[0.5, 0.5]]), np.array([0]))
        assert report.accuracy == 1.0
        assert np.array_equal(report.confusion, [[1, 0], [0, 0]])

    def test_never_predicted_class_scores_zero(self):
        probas = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]])
        report = evaluate(probas, np.array([0, 0, 1]))
        c1 = report.per_class[1]
        assert c1.precision == 0.0
        assert c1.recall == 0.0
        assert c1.f1 == 0.0

    def test_perfect_predictions(self):
        probas = np.array([[0.9, 0.1], [0.1, 0.9], [0.8, 0.2]])
        report = evaluate(probas, np.array([0, 1, 0]))
        assert report.accuracy == 1.0
        assert report.f1_macro == 1.0
        assert report.auroc_macro == 1.0

    def test_absent_class_excluded_from_auroc_macro(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0.1, 1.0, size=(12, 3))
        probas = raw / raw.sum(axis=1, keepdims=True)
        labels = np.array([0, 1] * 6)  # class 2 never appears
        report = evaluate(probas, labels)
        assert report.per_class[2].auroc is None
        roc0 = report.per_class[0].auroc
        roc1 = report.per_class[1].auroc
        assert report.auroc_macro == np.mean([roc0, roc1])

    def test_single_class_auroc_undefined_overall(self):
        probas = np.array([[0.9, 0.1], [0.8, 0.2]])
        report = evaluate(probas, np.array([0, 0]))
        assert report.auroc_macro is None
        assert "undefined" in report.to_text()

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(0.1, 1.0, size=(30, 3))
        probas = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=30)
        perm = rng.permutation(30)
        a = evaluate(probas, labels)
        b = evaluate(probas[perm], labels[perm])
        assert a.accuracy == b.accuracy
        assert a.f1_macro == b.f1_macro
        assert a.auroc_macro == b.auroc_macro
        assert np.array_equal(a.confusion, b.confusion)

    def test_custom_class_labels(self):
        probas, y_true = oracle_dataset()
        report = evaluate(probas, y_true, class_labels=("no", "yes"))
        assert report.class_labels == ("no", "yes")

    def test_validation_errors(self):
        with pytest.raises(DataError, match="non-empty"):
            evaluate(np.zeros((0, 2)), np.array([], dtype=int))
        with pytest.raises(DataError, match="row count"):
            evaluate(np.full((2, 2), 0.5), np.array([0]))
        with pytest.raises(DataError, match="out of range"):
            evaluate(np.full((2, 2), 0.5), np.array([0, 2]))
        with pytest.raises(DataError, match="label count"):
            evaluate(np.full((2, 2), 0.5), np.array([0, 1]), class_labels=("a",))


class TestReportRendering:
    def test_json_dict_is_serializable(self):
        probas, y_true = oracle_dataset()
        doc = evaluate(probas, y_true).to_json_dict()
        text = json.dumps(doc)
        assert json.loads(text)["accuracy"] == 0.75
        assert json.loads(text)["confusion"] == [[8, 2], [3, 7]]

    def test_text_contains_fixed_point_metrics(self):
        probas, y_true = oracle_dataset()
        text = evaluate(probas, y_true).to_text()
        assert "accuracy:            0.750000" in text
        assert "per class:" in text
        assert "class_0" in text and "class_1" in text

    def test_confusion_csv_snapshot(self):
        probas, y_true = oracle_dataset()
        csv = evaluate(probas, y_true).confusion_csv_text()
        assert csv == (
            "true\\predicted,class_0,class_1\n"
            "class_0,8,2\n"
            "class_1,3,7\n"
        )

    def test_confusion_csv_quotes_labels_that_need_it(self):
        probas, y_true = oracle_dataset()
        labels = ("home, discharged", 'admitted "ICU"')
        text = evaluate(probas, y_true, labels).confusion_csv_text()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows == [
            ["true\\predicted", *labels],
            [labels[0], "8", "2"],
            [labels[1], "3", "7"],
        ]
        assert text.count("\n") == 3 and "\r" not in text
