import contextlib
import csv
import errno
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from bundle_docs import edit_packed, pack, refingerprint, unpacked, write_doc
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tabfuse
import tabfuse.cli
import tabfuse.pipeline
import tabfuse.schema
from tabfuse.bundle import load_bundle
from tabfuse.cli import build_run_config, main, make_parser
from tabfuse.errors import ToolkitError
from tabfuse.pipeline import predict_on_table
from tabfuse.schema import (
    ColumnKind,
    ColumnSpec,
    TableSchema,
    load_csv,
    load_schema,
    save_schema,
)


def save_schema_to(path: Path) -> Path:
    schema = TableSchema(
        (
            ColumnSpec("age", ColumnKind.NUMERICAL),
            ColumnSpec("score", ColumnKind.NUMERICAL),
            ColumnSpec("note", ColumnKind.CATEGORICAL),
            ColumnSpec("outcome", ColumnKind.CATEGORICAL),
        ),
        target="outcome",
        class_labels=("no", "yes"),
    )
    save_schema(schema, path)
    return path


@pytest.fixture
def schema_path(tmp_path):
    return save_schema_to(tmp_path / "schema.json")


@pytest.fixture
def data_path(tmp_path, schema_path):
    path = tmp_path / "data.csv"
    code = main(
        [
            "generate",
            "--schema", str(schema_path),
            "--rows", "80",
            "--seed", "11",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


def quick_config(tmp_path, **extra):
    doc = {
        "train": {"max_epochs": 4, "patience": 3, "batch_size": 16},
        "gbdt": {"rounds": 5, "max_depth": 3, "max_leaves": 6},
    }
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def train_quick(tmp_path, schema_path, data_path, model="fusion", seed="3", out="run"):
    cfg = quick_config(tmp_path)
    out_dir = tmp_path / out
    code = main(
        [
            "train",
            "--config", str(cfg),
            "--schema", str(schema_path),
            "--data", str(data_path),
            "--model", model,
            "--seed", seed,
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    return out_dir


class TestGenerate:
    def test_writes_expected_row_count(self, tmp_path, schema_path, capsys):
        out = tmp_path / "synth.csv"
        code = main(
            ["generate", "--schema", str(schema_path), "--rows", "25", "--out", str(out)]
        )
        assert code == 0
        assert "wrote 25 rows" in capsys.readouterr().out
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 26  # header + rows

    def test_same_seed_is_byte_identical(self, tmp_path, schema_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            args = [
                "generate",
                "--schema", str(schema_path),
                "--rows", "30",
                "--seed", "7",
                "--out", str(out),
            ]
            assert main(args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_imbalance_is_usage_error(self, tmp_path, schema_path, capsys):
        code = main(
            [
                "generate",
                "--schema", str(schema_path),
                "--rows", "10",
                "--imbalance", "a,b",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error[usage]:")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(class_labels=[1, 2]), "class label 1 must be a string"),
            (lambda doc: doc["columns"][0].update(name=5), "column name 5 must be a string"),
        ],
        ids=["class-label", "column-name"],
    )
    def test_schema_value_that_is_not_text_is_data_error(
        self, tmp_path, schema_path, capsys, edit, message
    ):
        doc = json.loads(schema_path.read_text())
        edit(doc)
        schema_path.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        argv = ["generate", "--schema", str(schema_path), "--rows", "50", "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error[data]: {message}\n"
        assert not out.exists()


class TestTrain:
    def test_fusion_writes_bundle_and_reports(self, tmp_path, schema_path, data_path, capsys):
        out_dir = train_quick(tmp_path, schema_path, data_path)
        for name in ("bundle.json", "train_log.csv", "report.txt", "report.json", "confusion.csv"):
            assert (out_dir / name).exists(), name
        stdout = capsys.readouterr().out
        assert "trained fusion" in stdout
        assert "test accuracy:" in stdout

    def test_gbdt_model_kind(self, tmp_path, schema_path, data_path):
        out_dir = train_quick(tmp_path, schema_path, data_path, model="gbdt")
        bundle = load_bundle(out_dir / "bundle.json")
        assert bundle.kind == "gbdt"
        assert bundle.members[0].feature_view == "numeric+tokens"

    def test_ensemble_reports_each_member(self, tmp_path, schema_path, data_path):
        out_dir = train_quick(tmp_path, schema_path, data_path, model="ensemble")
        report = (out_dir / "report.txt").read_text()
        assert "member fusion:" in report
        assert "member gbdt:" in report
        bundle = load_bundle(out_dir / "bundle.json")
        assert [m.kind for m in bundle.members] == ["fusion", "gbdt"]
        log_names = {p.name for p in out_dir.glob("*.csv")}
        assert "train_log_0_fusion.csv" in log_names
        assert "train_log_1_gbdt.csv" in log_names

    def test_flag_overrides_config_key(self, tmp_path, schema_path, data_path):
        cfg = quick_config(tmp_path, seed=5)
        out_dir = tmp_path / "override"
        code = main(
            [
                "train",
                "--config", str(cfg),
                "--schema", str(schema_path),
                "--data", str(data_path),
                "--seed", "9",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        bundle = load_bundle(out_dir / "bundle.json")
        assert bundle.run_summary["seed"] == 9

    def test_config_supplies_training_section(self, tmp_path, schema_path, data_path):
        out_dir = train_quick(tmp_path, schema_path, data_path)
        bundle = load_bundle(out_dir / "bundle.json")
        assert bundle.run_summary["train"]["max_epochs"] == 4

    def test_reports_byte_identical_across_reruns(self, tmp_path, schema_path, data_path):
        dir_a = train_quick(tmp_path, schema_path, data_path, out="run_a")
        dir_b = train_quick(tmp_path, schema_path, data_path, out="run_b")
        for name in ("report.txt", "report.json", "confusion.csv", "train_log.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_schema_required(self, capsys):
        assert main(["train", "--rows", "40"]) == 2
        assert "schema" in capsys.readouterr().err

    def test_rows_and_data_both_given_is_usage_error(
        self, tmp_path, schema_path, data_path, capsys
    ):
        code = main(
            [
                "train",
                "--schema", str(schema_path),
                "--data", str(data_path),
                "--rows", "40",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error[usage]:")

    def test_unknown_config_key_is_usage_error(self, tmp_path, schema_path, data_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"train": {"max_epoch": 4}}))
        code = main(
            [
                "train",
                "--config", str(cfg),
                "--schema", str(schema_path),
                "--data", str(data_path),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "config section 'train' has unknown key 'max_epoch'; valid: " in err
        assert err.endswith("valid: learning_rate, batch_size, max_epochs, patience, min_improvement\n")

    @pytest.mark.parametrize("train", [{"seed": 5}, {"max_epochs": 4, "seed": 99}])
    def test_train_section_seed_is_usage_error(
        self, tmp_path, schema_path, data_path, capsys, train
    ):
        """Each member trains at the run seed, so a section seed would be ignored."""
        cfg = tmp_path / "seeded.json"
        cfg.write_text(json.dumps({"train": train}))
        argv = ["--schema", str(schema_path), "--data", str(data_path), "--out", str(tmp_path / "x")]
        assert main(["train", "--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(
            "error[usage]: config section 'train' has unknown key 'seed'; valid: learning_rate, "
        )
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("doc", [{"seeds": 3}, {"seed": 3, "parallel_members": True}])
    def test_unknown_top_level_config_key_is_usage_error(
        self, tmp_path, schema_path, data_path, capsys, doc
    ):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps(doc))
        argv = ["--schema", str(schema_path), "--data", str(data_path), "--out", str(tmp_path / "x")]
        assert main(["train", "--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        key = next(k for k in doc if k != "seed")
        assert err.count("\n") == 1
        assert err.startswith(f"error[usage]: config file has unknown key {key!r}; ")
        assert "valid: schema, model, data, fractions, seed," in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "min_improvement", math.nan),
            ("train", "min_improvement", -1.0),
            ("train", "learning_rate", math.inf),
            ("train", "learning_rate", True),
            ("train", "batch_size", True),
            ("gbdt", "rounds", True),
            ("gbdt", "max_leaves", False),
            ("gbdt", "shrinkage", True),
            ("gbdt", "l2_reg", math.inf),
        ],
    )
    def test_config_value_out_of_range_is_usage_error(
        self, tmp_path, schema_path, data_path, capsys, section, key, value
    ):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        argv = ["--schema", str(schema_path), "--data", str(data_path), "--out", str(tmp_path / "x")]
        assert main(["train", "--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error[usage]: invalid {section} value {{{key!r}: ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "doc, flags, message",
        [
            ({}, ["--seed", "-1"], "seed -1 must be a non-negative integer"),
            ({"seed": -3}, [], "seed -3 must be a non-negative integer"),
            ({"seed": 1.5}, [], "invalid seed value 1.5: must be an integer"),
            ({"seed": True}, [], "invalid seed value True: must be an integer"),
            ({"seed": "7"}, [], "invalid seed value '7': must be an integer"),
            ({"rows": 300.7}, [], "invalid rows value 300.7: must be an integer"),
        ],
        ids=["flag-negative", "negative", "fraction", "bool", "text", "rows-fraction"],
    )
    def test_seed_and_rows_take_only_integers(self, tmp_path, schema_path, capsys, doc, flags, message):
        """A seed or row count is a JSON integer, and the train seed is non-negative."""
        cfg = tmp_path / "seeded.json"
        cfg.write_text(json.dumps({"rows": 40, **doc}))
        argv = ["--config", str(cfg), "--schema", str(schema_path), "--out", str(tmp_path / "x")]
        assert main(["train", *argv, *flags]) == 2
        assert capsys.readouterr().err == f"error[usage]: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "doc, flags, key",
        [
            ({}, ["--imbalance", "1,2"], "imbalance"),
            ({"missing_fraction": 0.1}, [], "missing_fraction"),
        ],
        ids=["imbalance-flag", "missing-fraction-key"],
    )
    def test_generator_setting_with_data_is_usage_error(
        self, tmp_path, schema_path, data_path, capsys, doc, flags, key
    ):
        """A CSV is read as it is, so a setting that shapes generated rows has nothing to shape."""
        cfg = quick_config(tmp_path, **doc)
        argv = ["--config", str(cfg), "--schema", str(schema_path), "--data", str(data_path)]
        assert main(["train", *argv, *flags, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error[usage]: {key} applies only to --rows, not to --data\n"
        assert not (tmp_path / "x").exists()

    def test_failure_discards_partial_outputs(
        self, tmp_path, schema_path, data_path, monkeypatch
    ):
        def boom(*_args, **_kwargs):
            raise RuntimeError("disk gremlin")

        monkeypatch.setattr("tabfuse.cli._report_json", boom)
        out_dir = tmp_path / "partial"
        with pytest.raises(RuntimeError):
            main(
                [
                    "train",
                    "--config", str(quick_config(tmp_path)),
                    "--schema", str(schema_path),
                    "--data", str(data_path),
                    "--out", str(out_dir),
                ]
            )
        leftovers = list(out_dir.glob("*")) if out_dir.exists() else []
        assert leftovers == []


# A schema with only numeric features, only categorical ones, or only its target.
SCHEMA_SHAPES = {
    "numeric-only": (ColumnSpec("age", ColumnKind.NUMERICAL),),
    "categorical-only": (ColumnSpec("note", ColumnKind.CATEGORICAL),),
    "target-only": (),
}
# The feature column kind a model's error names where the shape lacks what a
# member of it needs; every pair not listed trains.
MISSING_COLUMN_KIND = {
    ("numeric-only", "fusion"): "categorical",
    ("numeric-only", "ensemble"): "categorical",
    ("categorical-only", "fusion"): "numeric",
    ("categorical-only", "ensemble"): "numeric",
    ("target-only", "fusion"): "numeric",
    ("target-only", "baseline"): "numeric or categorical",
    ("target-only", "ensemble"): "numeric",
}


@pytest.mark.parametrize("model", ["fusion", "baseline", "gbdt", "ensemble"])
@pytest.mark.parametrize("shape", SCHEMA_SHAPES)
def test_every_schema_shape_trains_or_fails_cleanly(tmp_path, capsys, monkeypatch, shape, model):
    """A member that needs a column kind the schema lacks is a data error,
    raised before any member trains; every other pair trains."""
    schema = TableSchema(
        (*SCHEMA_SHAPES[shape], ColumnSpec("outcome", ColumnKind.CATEGORICAL)),
        target="outcome",
        class_labels=("no", "yes"),
    )
    schema_path = tmp_path / "schema.json"
    save_schema(schema, schema_path)
    trained = []
    train_member = tabfuse.pipeline._train_member
    monkeypatch.setattr(
        tabfuse.pipeline, "_train_member",
        lambda cls, *args: trained.append(cls.kind) or train_member(cls, *args),
    )
    out = tmp_path / "run"
    argv = ["train", "--config", str(quick_config(tmp_path)), "--schema", str(schema_path)]
    code = main([*argv, "--rows", "120", "--model", model, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 3)
    assert err.count("error[") <= 1 and "Traceback" not in err
    missing = MISSING_COLUMN_KIND.get((shape, model))
    if missing is None:
        assert code == 0 and err == ""
        assert (out / "bundle.json").exists()
    else:
        assert code == 3
        assert err.startswith(f"error[data]: {model if model != 'ensemble' else 'fusion'} needs a ")
        assert f"needs a {missing} feature column; the schema has" in err
        assert err.count("\n") == 1
        assert trained == [] and not out.exists()



def schema_doc(names, labels) -> dict:
    """A schema of a numeric column, a categorical one and the target, named ``names``."""
    kinds = ("numerical", "categorical", "categorical")
    return {
        "columns": [{"name": n, "kind": k} for n, k in zip(names, kinds)],
        "target": names[2],
        "class_labels": list(labels),
    }


def run_cli(argv) -> tuple[int, str]:
    """Exit code and standard error of ``main(argv)``; standard output is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("label", ["NA", ""])
def test_class_label_that_reads_as_missing_is_refused(tmp_path, label):
    """A CSV loads a cell of "" or "NA" as missing, so a schema with such a
    class label could write rows that read back unlabeled."""
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(schema_doc(("temp", "complaint", "outcome"), ("home", label))))
    out = tmp_path / "rows.csv"
    code, err = run_cli(["generate", "--schema", schema, "--rows", 300, "--seed", 1, "--out", out])
    assert code == 3
    assert err == f"error[data]: class label {label!r} reads as a missing cell in a CSV\n"
    assert not out.exists()


@pytest.mark.parametrize("model", ["fusion", "gbdt"])
@pytest.mark.parametrize("cells", [("1e308", None), ("1e200", "-1e200")], ids=["sum", "square"])
def test_numeric_column_whose_mean_or_std_overflows(tmp_path, model, cells):
    """Every other temp cell at 1e308 overflows the mean's sum, and cells of
    +-1e200 the variance's squares: one error line names the column, and
    numpy prints no warning first."""
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(schema_doc(("temp", "complaint", "outcome"), ("home", "admitted"))))
    data = tmp_path / "train.csv"
    assert run_cli(["generate", "--schema", schema, "--rows", 200, "--seed", 1, "--out", data])[0] == 0
    with open(data, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    for i, row in enumerate(rows):
        cell = cells[i % 2]
        if cell is not None:
            row[header.index("temp")] = cell
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    out = tmp_path / "run"
    argv = ["train", "--schema", schema, "--data", data, "--model", model, "--out", out]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_cli(argv)
    assert code == 3
    assert err.startswith("error[data]: column 'temp' ") and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


@pytest.mark.parametrize(
    "model, doc, labels, message",
    [
        ("fusion", {"train": {"learning_rate": 1e308}}, ("home", "admitted"),
         "validation loss became non-finite at epoch 1"),
        ("baseline", {"train": {"learning_rate": 1e300}}, ("home", "admitted"),
         "validation loss became non-finite at epoch 1"),
        ("gbdt", {"gbdt": {"shrinkage": 1e308, "rounds": 2}}, ("home", "admitted", "transferred"),
         "gbdt training loss became non-finite at round 1"),
    ],
)
def test_diverging_training_is_one_numeric_error(tmp_path, model, doc, labels, message):
    """A learning rate or shrinkage at the edge of float range overflows the
    first steps: one error[numeric] line names where the loss stopped being
    finite, numpy prints no warning first, and nothing is written."""
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(schema_doc(("temp", "complaint", "outcome"), labels)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "run"
    argv = ["train", "--config", config, "--schema", schema, "--rows", 60, "--model", model,
            "--out", out]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_cli(argv)
    assert code == 4
    assert err == f"error[numeric]: {message}\n"
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "train"])
def test_imbalance_whose_shares_overflow_is_refused(tmp_path, command):
    """Weights of 1e308 overflow rows * w / sum(w) to NaN: one error[data]
    line names the weights, and nothing is written."""
    schema = tmp_path / "schema.json"
    labels = ("home", "admitted", "transferred")
    schema.write_text(json.dumps(schema_doc(("temp", "complaint", "outcome"), labels)))
    out = tmp_path / "out"
    argv = [command, "--schema", schema, "--rows", 60, "--imbalance", "1e308,1e308,1",
            "--out", out]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_cli(argv)
    assert code == 3
    assert err == (
        "error[data]: imbalance weights [1e+308, 1e+308, 1.0] overflow: "
        "their class shares are not finite\n"
    )
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, model, members, split",
    [
        (9, "fusion", None, "test"),
        (9, "gbdt", None, "test"),
        (9, "ensemble", None, "test"),
        (6, "ensemble", ["gbdt", "fusion"], "validation"),
    ],
)
def test_empty_split_is_refused_before_any_member_trains(
    tmp_path, schema_path, monkeypatch, rows, model, members, split
):
    """9 rows of two classes at 0.8/0.1/0.1 leave no test row, and 6 no
    validation row, which a network needs: one error line names the split,
    and no member trains."""
    trained = []
    monkeypatch.setattr(tabfuse.pipeline, "train_gbdt", lambda *a, **k: trained.append(a))
    monkeypatch.setattr(tabfuse.pipeline, "train", lambda *a, **k: trained.append(a))
    extra = {} if members is None else {"ensemble_members": members}
    out = tmp_path / "run"
    argv = ["train", "--config", quick_config(tmp_path, **extra), "--schema", schema_path,
            "--rows", rows, "--model", model, "--out", out]
    code, err = run_cli(argv)
    assert code == 3
    assert err == (
        f"error[data]: the {split} split is empty: {rows} rows split at fractions "
        f"0.8/0.1/0.1; give more rows or a larger {split} fraction\n"
    )
    assert trained == [] and not out.exists()


@pytest.mark.parametrize("model", ["fusion", "baseline", "gbdt", "ensemble"])
def test_train_split_of_one_class_is_refused_before_any_member_trains(tmp_path, monkeypatch, model):
    """3 admitted and 20 home rows at 0.1/0.45/0.45 leave a train split of 2
    home rows: one error line names the split and its class, and no member
    trains on it."""
    trained = []
    monkeypatch.setattr(tabfuse.pipeline, "train_gbdt", lambda *a, **k: trained.append(a))
    monkeypatch.setattr(tabfuse.pipeline, "train", lambda *a, **k: trained.append(a))
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(schema_doc(("temp", "complaint", "outcome"), ("admitted", "home"))))
    data = tmp_path / "rows.csv"
    rows = [f"{36 + i / 10},{'fall' if i % 2 else 'chest pain'},{'admitted' if i < 3 else 'home'}"
            for i in range(23)]
    data.write_text("\n".join(["temp,complaint,outcome", *rows]) + "\n")
    out = tmp_path / "run"
    argv = ["train", "--config", quick_config(tmp_path, fractions=[0.1, 0.45, 0.45]),
            "--schema", schema, "--data", data, "--model", model, "--out", out]
    code, err = run_cli(argv)
    assert code == 3
    assert err == (
        "error[data]: the train split holds only class 'home' (2 rows): 23 rows split at "
        "fractions 0.1/0.45/0.45; a model needs at least 2 classes to train on\n"
    )
    assert trained == [] and not out.exists()


def test_inputs_with_a_byte_order_mark_read_as_without(tmp_path, schema_path, data_path):
    """Spreadsheet programs save "CSV UTF-8" with a leading byte-order mark."""
    bom_data, bom_schema = tmp_path / "bom.csv", tmp_path / "bom_schema.json"
    bom_data.write_bytes(b"\xef\xbb\xbf" + data_path.read_bytes())
    bom_schema.write_bytes(b"\xef\xbb\xbf" + schema_path.read_bytes())
    assert load_schema(bom_schema) == load_schema(schema_path)
    runs = [
        train_quick(tmp_path, schema_path, data_path, model="ensemble", out="plain"),
        train_quick(tmp_path, bom_schema, bom_data, model="ensemble", out="bom"),
    ]
    # Each bundle's run summary holds its own paths; its models are compared
    # through the predictions below.
    plain, bom = (
        {p.name: p.read_bytes() for p in run.iterdir() if p.name != "bundle.json"} for run in runs
    )
    assert plain == bom
    predicted = set()
    pairs = [(runs[0], data_path), (runs[0], bom_data), (runs[1], bom_data)]
    for i, (run, data) in enumerate(pairs):
        out = tmp_path / f"predictions_{i}.csv"
        argv = ["predict", "--model", run / "bundle.json", "--data", data, "--out", out]
        assert run_cli(argv) == (0, "")
        predicted.add(out.read_bytes())
    assert len(predicted) == 1


# Text a CSV, the schema reader or the prediction file treats specially, and
# plain words; "x" makes "prob_x" a prediction column's name.
SCHEMA_TEXT = st.sampled_from(["home", "ward", "x", ",", '"', "\n", "prob_x", "predicted", "NA", ""])


@settings(max_examples=60, deadline=None)
@given(names=st.lists(SCHEMA_TEXT, min_size=3, max_size=3, unique=True),
       labels=st.lists(SCHEMA_TEXT, min_size=2, max_size=3, unique=True))
@example(names=["x", "home", "ward"], labels=["home", "NA"])
def test_schema_text_ends_in_a_result_or_one_error_line(names, labels):
    """generate, train, predict and evaluate each exit 0, or 3 with one
    error[data] line; a CSV that generate wrote never fails train on a
    missing label."""
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        schema, data, run = root / "schema.json", root / "rows.csv", root / "run"
        schema.write_text(json.dumps(schema_doc(names, labels)))
        config = root / "config.json"
        config.write_text(json.dumps({"gbdt": {"rounds": 2, "max_depth": 2}}))
        steps = [
            ["generate", "--schema", schema, "--rows", 60, "--seed", 1, "--out", data],
            ["train", "--config", config, "--schema", schema, "--data", data,
             "--model", "gbdt", "--out", run],
            ["predict", "--model", run / "bundle.json", "--data", data,
             "--out", root / "predictions.csv"],
            ["evaluate", "--model", run / "bundle.json", "--data", data],
        ]
        for argv in steps:
            code, err = run_cli(argv)
            assert code in (0, 3), (argv[0], err)
            if code == 0:
                assert "error[" not in err, (argv[0], err)
                continue
            assert err.startswith("error[data]: ") and err.count("\n") == 1, (argv[0], err)
            if argv[0] == "train":
                assert "missing" not in err, err
            if argv[0] in ("generate", "train"):
                break


class TestConfigListKeys:
    """A list key given as comma-separated text, as imbalance may be, reads as its list."""

    @pytest.mark.parametrize(
        "key, text, items, model",
        [
            ("ensemble_members", "gbdt,baseline", ["gbdt", "baseline"], "ensemble"),
            ("ensemble_members", "fusion", ["fusion"], "ensemble"),
            ("fractions", "0.6,0.2,0.2", [0.6, 0.2, 0.2], "gbdt"),
            ("ensemble_members", "fusion, gbdt", ["fusion", "gbdt"], "ensemble"),
            ("fractions", "0.8, 0.1, 0.1", [0.8, 0.1, 0.1], "gbdt"),
        ],
    )
    def test_text_trains_what_the_list_trains(
        self, tmp_path, schema_path, data_path, key, text, items, model
    ):
        runs = []
        for form, value in (("text", text), ("list", items)):
            out = tmp_path / form
            argv = ["--schema", str(schema_path), "--data", str(data_path), "--out", str(out)]
            cfg = quick_config(tmp_path, **{key: value})
            assert main(["train", "--config", str(cfg), *argv, "--model", model]) == 0
            doc = json.loads((out / "bundle.json").read_text())
            assert doc["run_summary"].pop("out") == str(out)
            runs.append((doc["members"], doc["run_summary"], (out / "report.json").read_text()))
        assert runs[0] == runs[1]
        members, summary, _ = runs[0]
        assert summary[key] == items
        if key == "ensemble_members":
            assert [m["kind"] for m in members] == items

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"fractions": "0.8"}, "invalid fractions value '0.8': must be [train, val, test]"),
            ({"model": "ensemble", "ensemble_members": "fusion,knn"},
             "invalid ensemble members: 'knn'; pick from fusion, baseline, gbdt"),
        ],
    )
    def test_text_of_a_bad_list_is_usage_error(self, tmp_path, schema_path, capsys, doc, message):
        cfg = quick_config(tmp_path, **doc)
        argv = ["train", "--config", str(cfg), "--schema", str(schema_path), "--rows", "40"]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error[usage]: {message}\n"
        assert not (tmp_path / "run").exists()


TEXT_KEYS = ["schema", "model", "data", "out", "gbdt_feature_view", "ensemble_members"]
NOT_TEXT = {"number": 5, "bool": True, "list": ["x", 1], "object": {"fusion": "gbdt"}}
BOOL_NUMBERS = [
    ("missing_fraction", True),
    ("missing_fraction", False),
    ("imbalance", [True, 2]),
    ("imbalance", [1, False]),
    ("fractions", [0.8, 0.1, True]),
    ("fractions", [False, 0.5, 0.5]),
]


@pytest.mark.parametrize(
    "key, value",
    [pytest.param(k, v, id=f"{k}-{name}") for k in TEXT_KEYS for name, v in NOT_TEXT.items()]
    + [pytest.param(k, v, id=f"{k}-{v}") for k, v in BOOL_NUMBERS],
)
def test_config_value_of_the_wrong_json_type_is_usage_error(
    tmp_path, schema_path, capsys, monkeypatch, key, value
):
    """A text key takes only a JSON string, and no number key takes a bool."""
    monkeypatch.chdir(tmp_path)  # the default or a relative output directory would land here
    cfg = quick_config(tmp_path, **{"schema": str(schema_path), "rows": 40, key: value})
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[usage]: invalid {key} value {value!r}: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "schema.json"]


def tree_bytes(root: Path) -> dict:
    """The bytes of every file under ``root``, by relative path."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestRunSummaryReplay:
    """A bundle's run summary is the run's config: trained from again, it writes the same bytes."""

    @pytest.mark.parametrize(
        "extra, flags, recorded",
        [
            (
                {"ensemble_members": ["fusion", "gbdt", "baseline"]},
                ["--data", "{data}", "--model", "ensemble", "--seed", "11"],
                {"data"},
            ),
            (
                {"missing_fraction": 0.1},
                ["--rows", "60", "--imbalance", "1,2", "--seed", "7"],
                {"rows", "imbalance", "missing_fraction"},
            ),
        ],
        ids=["data-ensemble", "rows-fusion"],
    )
    def test_summary_retrains_the_same_bytes(
        self, tmp_path, schema_path, data_path, extra, flags, recorded
    ):
        run = tmp_path / "run"
        argv = ["--config", str(quick_config(tmp_path, **extra)), "--schema", str(schema_path)]
        flags = [flag.format(data=data_path) for flag in flags]
        assert main(["train", *argv, *flags, "--out", str(run)]) == 0
        summary = json.loads((run / "bundle.json").read_text())["run_summary"]
        # Only the settings the run used: its one data source, no train seed.
        assert set(summary) & {"data", "rows", "imbalance", "missing_fraction"} == recorded
        assert "seed" not in summary["train"]
        first = tmp_path / "first"
        run.rename(first)
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        assert main(["train", "--config", str(tmp_path / "summary.json")]) == 0
        assert tree_bytes(run) == tree_bytes(first)


class TestEvaluate:
    def test_prints_report_and_writes_files(
        self, tmp_path, schema_path, data_path, capsys
    ):
        out_dir = train_quick(tmp_path, schema_path, data_path)
        eval_dir = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--model", str(out_dir / "bundle.json"),
                "--data", str(data_path),
                "--out", str(eval_dir),
            ]
        )
        assert code == 0
        assert "accuracy:" in capsys.readouterr().out
        for name in ("report.txt", "report.json", "confusion.csv"):
            assert (eval_dir / name).exists(), name

    def test_missing_bundle_is_data_error(self, tmp_path, data_path, capsys):
        code = main(
            ["evaluate", "--model", str(tmp_path / "nope.json"), "--data", str(data_path)]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error[data]:")

    def test_unlabeled_rows_rejected(self, tmp_path, schema_path, data_path, capsys):
        out_dir = train_quick(tmp_path, schema_path, data_path)
        bare = tmp_path / "unlabeled.csv"
        bare.write_text("age,score,note,outcome\n1.0,2.0,word1,\n")
        code = main(
            ["evaluate", "--model", str(out_dir / "bundle.json"), "--data", str(bare)]
        )
        assert code == 3
        assert "no target label" in capsys.readouterr().err

    def test_wrong_columns_is_data_error(self, tmp_path, schema_path, data_path, capsys):
        out_dir = train_quick(tmp_path, schema_path, data_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("age,wrong\n1.0,2.0\n")
        code = main(
            ["evaluate", "--model", str(out_dir / "bundle.json"), "--data", str(bad)]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error[data]:")


class TestPredict:
    def test_writes_probabilities_and_labels(self, tmp_path, schema_path, data_path, capsys):
        out_dir = train_quick(tmp_path, schema_path, data_path)
        pred_path = tmp_path / "preds.csv"
        code = main(
            [
                "predict",
                "--model", str(out_dir / "bundle.json"),
                "--data", str(data_path),
                "--out", str(pred_path),
            ]
        )
        assert code == 0
        assert "wrote 80 predictions" in capsys.readouterr().out
        lines = pred_path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == [
            "age", "score", "note", "outcome", "prob_no", "prob_yes", "predicted",
        ]
        assert len(lines) == 81
        first = lines[1].split(",")
        p_no, p_yes = float(first[4]), float(first[5])
        assert abs(p_no + p_yes - 1.0) < 1e-9
        assert first[6] in ("no", "yes")

    def test_accepts_unlabeled_rows(self, tmp_path, schema_path, data_path):
        out_dir = train_quick(tmp_path, schema_path, data_path)
        bare = tmp_path / "unlabeled.csv"
        bare.write_text("age,score,note,outcome\n0.5,1.5,word1 word2,\n")
        pred_path = tmp_path / "p.csv"
        code = main(
            [
                "predict",
                "--model", str(out_dir / "bundle.json"),
                "--data", str(bare),
                "--out", str(pred_path),
            ]
        )
        assert code == 0
        assert len(pred_path.read_text().strip().split("\n")) == 2

    @pytest.mark.parametrize("column", ["predicted", "prob_yes"])
    def test_column_named_like_a_prediction_column_is_refused(self, tmp_path, capsys, column):
        """A prediction file cannot hold two columns of one name, so predict
        refuses the bundle before it reads the CSV, and writes nothing."""
        schema = TableSchema(
            (
                ColumnSpec("age", ColumnKind.NUMERICAL),
                ColumnSpec(column, ColumnKind.CATEGORICAL),
                ColumnSpec("outcome", ColumnKind.CATEGORICAL),
            ),
            target="outcome",
            class_labels=("no", "yes"),
        )
        schema_path = tmp_path / "schema.json"
        save_schema(schema, schema_path)
        data = tmp_path / "data.csv"
        generate = ["generate", "--schema", str(schema_path), "--rows", "60", "--out", str(data)]
        assert main(generate) == 0
        run = train_quick(tmp_path, schema_path, data, model="gbdt")
        pred_path = tmp_path / "p.csv"
        capsys.readouterr()
        for source in (data, tmp_path / "absent.csv"):
            argv = ["--model", str(run / "bundle.json"), "--data", str(source)]
            assert main(["predict", *argv, "--out", str(pred_path)]) == 3
            assert capsys.readouterr().err == (
                f"error[data]: schema column {column!r} has the name of a prediction "
                "column; rename it and retrain to predict\n"
            )
            assert not pred_path.exists()

    @pytest.mark.parametrize("model", ["fusion", "gbdt", "ensemble"])
    def test_header_only_csv(self, tmp_path, schema_path, data_path, capsys, model):
        """predict writes only the header; evaluate has nothing to score, says
        so in one line naming the file, exits 3 and writes no report."""
        out_dir = train_quick(tmp_path, schema_path, data_path, model=model)
        empty = tmp_path / "empty.csv"
        empty.write_text(data_path.read_text().split("\n")[0] + "\n")
        pred_path = tmp_path / "p.csv"
        argv = ["--model", str(out_dir / "bundle.json"), "--data", str(empty)]
        assert main(["predict", *argv, "--out", str(pred_path)]) == 0
        assert pred_path.read_text().split("\n") == [
            "age,score,note,outcome,prob_no,prob_yes,predicted", ""
        ]
        capsys.readouterr()
        assert main(["evaluate", *argv, "--out", str(tmp_path / "eval")]) == 3
        assert capsys.readouterr().err == (
            f"error[data]: {empty} holds no rows; evaluate needs labeled rows\n"
        )
        assert not (tmp_path / "eval").exists()

    def test_blocks_write_what_one_row_at_a_time_wrote(self, tmp_path, schema_path, monkeypatch):
        # A class label and some note cells that csv must quote.
        schema = load_schema(schema_path)
        schema = TableSchema(schema.columns, schema.target, ("no", 'yes, "sure"'))
        save_schema(schema, schema_path)
        data_path = tmp_path / "quoted.csv"
        generated = tmp_path / "generated.csv"
        argv = ["generate", "--schema", str(schema_path), "--rows", "80", "--out", str(generated)]
        assert main(argv) == 0
        with open(generated, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        note = header.index("note")
        for r, row in enumerate(rows[::5]):
            row[note] = ['say "ah"', "a, b", "line\r\nbreak", '"'][r % 4] + " " + row[note]
        with open(data_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
        out_dir = train_quick(tmp_path, schema_path, data_path, model="ensemble")
        monkeypatch.setattr(tabfuse.schema, "_WRITE_BLOCK_ROWS", 7)
        pred_path = tmp_path / "preds.csv"
        bundle_path = out_dir / "bundle.json"
        argv = ["predict", "--model", str(bundle_path), "--data", str(data_path)]
        assert main(argv + ["--out", str(pred_path)]) == 0
        # The row loop this writer replaced.
        bundle = load_bundle(bundle_path)
        table = load_csv(data_path, schema)
        probas = predict_on_table(bundle, table)
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(
            [*schema.column_names, *(f"prob_{c}" for c in schema.class_labels), "predicted"]
        )
        for r, row in enumerate(table.cells):
            cells = ["" if c is None else c for c in row]
            cells += [repr(float(p)) for p in probas[r]]
            cells.append(schema.class_labels[int(probas[r].argmax())])
            writer.writerow(cells)
        assert any(c is None for row in table.cells for c in row)
        written = pred_path.read_bytes()
        assert written == text.getvalue().encode("utf-8")
        assert b'"yes, ""sure"""' in written and b'"line\r\nbreak' in written


class TestInspect:
    def test_prints_bundle_summary(self, tmp_path, schema_path, data_path, capsys):
        out_dir = train_quick(tmp_path, schema_path, data_path)
        code = main(["inspect", "--model", str(out_dir / "bundle.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "format version: 5" in out
        assert "model kind: fusion" in out
        assert "target: outcome" in out
        assert "classes (2): no, yes" in out
        assert "preprocess fingerprint:" in out
        assert "training seed: 3" in out

    def test_closed_stdout_exits_1_without_a_message(self, tmp_path, schema_path, data_path):
        out_dir = train_quick(tmp_path, schema_path, data_path, model="ensemble")
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout now fails with EPIPE
        src = str(Path(tabfuse.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "tabfuse.cli", "inspect", "--model", str(out_dir / "bundle.json")],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == b""


class TestMalformedBundle:
    # Each case is an edit of the document, the kind of bundle it edits, and a
    # fragment of the message of the check it targets.
    @pytest.mark.parametrize(
        "corrupt, model, fragment",
        [
            pytest.param(
                lambda doc: doc["members"][0].pop("kind"), "gbdt", "unknown member kind None",
                id="no-kind",
            ),
            pytest.param(
                lambda doc: doc["members"][0].update(feature_view="wavelets"),
                "gbdt", "gbdt member has feature view 'wavelets'",
                id="bad-view",
            ),
            pytest.param(
                lambda doc: doc["members"][0].pop("feature_view"),
                "gbdt", "gbdt member fields: unknown [], missing ['feature_view']",
                id="no-view",
            ),
            # A kind with one feature view records none.
            pytest.param(
                lambda doc: doc["members"][0].update(feature_view="numeric,tokens"),
                "fusion", "fusion member fields: unknown ['feature_view'], missing []",
                id="single-view-recorded",
            ),
            pytest.param(
                lambda doc: doc.update(kind="fusion"), "gbdt", "exactly one fusion member",
                id="kind-mismatch",
            ),
            pytest.param(
                lambda doc: doc.update(members={}), "gbdt", "'members' must be a non-empty list",
                id="members-not-list",
            ),
            pytest.param(
                lambda doc: doc.update(weights=[1.0]), "gbdt", "fields: unknown ['weights']",
                id="weights",
            ),
            pytest.param(
                lambda doc: doc.update(format_version=1), "gbdt", "unsupported bundle version 1;",
                id="format-version-1",
            ),
            pytest.param(
                lambda doc: doc.update(format_version=2), "fusion", "unsupported bundle version 2;",
                id="format-version-2",
            ),
            pytest.param(
                lambda doc: doc.update(format_version=4), "gbdt",
                "unsupported bundle version 4; this build reads version 5, so retrain",
                id="format-version-4",
            ),
            pytest.param(
                lambda doc: doc.update(run_summary=5), "gbdt", "'run_summary' must be an object",
                id="run-summary-not-object",
            ),
            # The class count comes from the state's class labels: a payload
            # that does not fit them fails the parameter shape check.
            pytest.param(
                lambda doc: edit_state(doc, lambda s: s["schema"]["class_labels"].append("maybe")),
                "fusion", "parameter 'classifier.weight' has shape (2, 16), expected (3, 16)",
                id="state-class-label-added",
            ),
            pytest.param(
                lambda doc: doc.update(members=["gbdt"]), "gbdt", "bundle member must be an object",
                id="member-not-object",
            ),
            pytest.param(
                lambda doc: [doc], "gbdt", "error[data]: bundle must be an object",
                id="top-level-list",
            ),
            pytest.param(
                lambda doc: doc.update(preprocess=[doc["preprocess"]]),
                "gbdt", "preprocess state must be an object",
                id="state-not-object",
            ),
            pytest.param(
                lambda doc: doc.pop("preprocess"), "gbdt", "missing ['preprocess']",
                id="no-preprocess",
            ),
            # The frequency tables must be keyed by the state's categorical
            # columns, and the encoder reads each column's mode from the state.
            pytest.param(
                lambda doc: doc["frequency_encoder"]["tables"].pop("note"),
                "baseline", "frequency tables must follow the state's categorical columns",
                id="encoder-without-table",
            ),
            pytest.param(
                lambda doc: edit_state(doc, lambda s: s["vocabularies"]["note"].pop("mode_value")),
                "baseline", "vocabulary 'note' fields: unknown [], missing ['mode_value']",
                id="encoder-without-mode",
            ),
            pytest.param(
                lambda doc: rename_encoder_table(doc["frequency_encoder"], "note", "memo"),
                "baseline", "frequency tables must follow the state's categorical columns",
                id="encoder-column-renamed",
            ),
            pytest.param(
                lambda doc: doc["frequency_encoder"]["tables"].update(age={"1.0": 1.0}),
                "baseline", "frequency tables must follow the state's categorical columns",
                id="encoder-column-added",
            ),
            pytest.param(
                lambda doc: encoder_table(doc).update(values="abc"),
                "baseline", "frequency table 'note' packed array must be an object",
                id="encoder-frequency-text",
            ),
            pytest.param(
                lambda doc: edit_packed(encoder_values(doc), lambda v: v.__setitem__(0, math.nan)),
                "baseline", "frequency table 'note' holds a value that is not finite",
                id="encoder-frequency-nan",
            ),
            pytest.param(
                lambda doc: encoder_table(doc)["keys"].append("new"),
                "baseline", "frequency table 'note' needs distinct keys, one per value",
                id="encoder-key-without-value",
            ),
            # A bundle holds a frequency encoder exactly when a member reads
            # numeric+frequency.
            pytest.param(
                lambda doc: doc.update(frequency_encoder=None),
                "baseline", "a member reads numeric+frequency but the bundle has no frequency encoder",
                id="encoder-missing",
            ),
            pytest.param(
                lambda doc: doc.update(
                    frequency_encoder={"tables": {"note": {"keys": ["a"], "values": pack([1.0])}}}
                ),
                "gbdt", "the bundle has a frequency encoder but no member reads numeric+frequency",
                id="encoder-unread",
            ),
            # Trees must be safe to walk: the packed walk trusts every index.
            pytest.param(
                lambda doc: edit_packed(tree_field(doc, "value"), lambda v: v[:-1]),
                "gbdt", "gbdt tree value holds 85 nodes; the tree sizes add up to 86",
                id="tree-lists-unequal",
            ),
            pytest.param(
                lambda doc: edit_packed(tree_field(doc, "sizes"), lambda v: v.__setitem__(0, 0)),
                "gbdt", "gbdt tree 0 has 0 nodes; a tree needs at least 1",
                id="tree-lists-empty",
            ),
            pytest.param(
                lambda doc: edit_packed(tree_field(doc, "value"), lambda v: v[:, None]),
                "gbdt", "gbdt tree value has shape [86, 1]; expected a list of 1 whole numbers",
                id="tree-lists-nested",
            ),
            pytest.param(
                lambda doc: edit_split_tree(doc, "feature", gbdt_feature_count(doc)),
                "gbdt", "gbdt trees read feature 5; the model has 5 features",
                id="tree-feature-too-high",
            ),
            pytest.param(
                lambda doc: edit_split_tree(doc, "feature", -2), "gbdt", "has a feature below -1",
                id="tree-feature-below-leaf",
            ),
            pytest.param(
                lambda doc: tree_field(doc, "feature").update(dtype="<U1"),
                "gbdt", "gbdt tree feature has dtype '<U1', expected '<i4'",
                id="tree-feature-text",
            ),
            pytest.param(
                lambda doc: edit_split_tree(doc, "left", 0), "gbdt", "has a child not after it",
                id="tree-child-cycle",
            ),
            pytest.param(
                lambda doc: edit_split_tree(doc, "left", lambda size: size),
                "gbdt", "has a child not after it",
                id="tree-child-past-end",
            ),
            pytest.param(
                lambda doc: edit_split_tree(doc, "left", lambda size: size - 1),
                "gbdt", "has a child not after it",
                id="tree-left-last-in-tree",
            ),
            pytest.param(
                lambda doc: edit_split_tree(doc, "left", 0, at="leaf"),
                "gbdt", "has a leaf with children",
                id="tree-leaf-with-child",
            ),
            pytest.param(
                lambda doc: edit_split_tree(doc, "value", math.nan),
                "gbdt", "gbdt tree value holds a value that is not finite",
                id="tree-threshold-nan",
            ),
            pytest.param(
                lambda doc: edit_split_tree(doc, "value", math.inf, at="leaf"),
                "gbdt", "gbdt tree value holds a value that is not finite",
                id="tree-weight-inf",
            ),
            pytest.param(
                lambda doc: drop_last_tree(doc),
                "gbdt", "gbdt holds 9 trees; expected a multiple of its 2 classes",
                id="tree-count-not-multiple",
            ),
            pytest.param(
                lambda doc: member_payload(doc)["trees"].update(sizes=pack([], "<i4")),
                "gbdt", "gbdt holds no trees",
                id="no-trees",
            ),
            pytest.param(
                lambda doc: member_payload(doc)["trees"].pop("left"),
                "gbdt", "gbdt trees fields: unknown [], missing ['left']",
                id="tree-field-missing",
            ),
            # Values keep their JSON types: numbers are not read from text or
            # booleans, and lists are not read from text.
            pytest.param(
                lambda doc: member_payload(doc).update(shrinkage="0.1"),
                "gbdt", "gbdt shrinkage '0.1' and base score ",
                id="shrinkage-text",
            ),
            pytest.param(
                lambda doc: member_payload(doc).update(shrinkage=True),
                "gbdt", "gbdt shrinkage True and base score ",
                id="shrinkage-bool",
            ),
            pytest.param(
                lambda doc: member_payload(doc).update(base_score=" 0.5 "),
                "gbdt", "and base score ' 0.5 ' must be numbers",
                id="base-score-text",
            ),
            pytest.param(
                lambda doc: edit_state(doc, lambda s: vocab_of(s).update(tokens="xyz")),
                "gbdt", "vocabulary 'note' tokens must be a list",
                id="state-tokens-text",
            ),
            pytest.param(
                lambda doc: edit_state(doc, lambda s: s["schema"].update(class_labels="noyes")),
                "gbdt", "schema class_labels 'noyes' must be a list",
                id="state-class-labels-text",
            ),
            pytest.param(
                lambda doc: member_payload(doc).update(shrinkage=math.nan),
                "gbdt", "gbdt shrinkage nan must be finite and positive",
                id="shrinkage-nan",
            ),
            pytest.param(
                lambda doc: member_payload(doc).update(shrinkage=0.0),
                "gbdt", "gbdt shrinkage 0.0 must be finite and positive",
                id="shrinkage-zero",
            ),
            # A payload holds no size the state gives, and must fit the state.
            pytest.param(
                lambda doc: member_payload(doc).update(n_classes=math.inf),
                "gbdt", "gbdt payload fields: unknown ['n_classes']",
                id="n-classes-infinite",
            ),
            pytest.param(
                lambda doc: member_payload(doc).update(n_classes=1),
                "gbdt", "gbdt payload fields: unknown ['n_classes']",
                id="gbdt-n-classes-1",
            ),
            pytest.param(
                lambda doc: add_embedding_row(doc),
                "fusion", "parameter 'embedding.weight' has shape (15, 16)",
                id="fusion-vocab-size-grown",
            ),
            # What the schema does not give is checked, with the fingerprint
            # recomputed so that the edit reaches the state's own checks.
            pytest.param(
                lambda doc: edit_state(doc, lambda s: s["numeric_stats"]["means"].append(0.0)),
                "gbdt", "preprocess state needs 2 finite means",
                id="state-extra-mean",
            ),
            pytest.param(
                lambda doc: edit_state(doc, lambda s: set_stat(s, "means", math.nan)),
                "gbdt", "preprocess state needs 2 finite means",
                id="state-mean-nan",
            ),
            pytest.param(
                lambda doc: edit_state(doc, lambda s: set_stat(s, "stds", -1.0)),
                "gbdt", "preprocess state holds a negative standard deviation",
                id="state-std-negative",
            ),
            pytest.param(
                lambda doc: edit_state(doc, lambda s: s["vocabularies"]["note"].update(mode_value=7)),
                "baseline", "vocabulary mode 7 must be a string",
                id="state-mode-not-text",
            ),
            # A pad length far past any memory: the stored first categorical
            # weight does not fit it, so no net is built.
            pytest.param(
                lambda doc: edit_state(doc, lambda s: vocab_of(s).update(pad_length=10**15)),
                "fusion", "parameter 'cat1.weight' has shape (32, 48)",
                id="state-pad-length-past-memory",
            ),
            # The state, its numeric stats and each vocabulary hold only the
            # fields the format defines.
            pytest.param(
                lambda doc: edit_state(doc, lambda s: s.update(extra=1)),
                "gbdt", "preprocess state fields: unknown ['extra'], missing []",
                id="state-unknown-field",
            ),
            pytest.param(
                lambda doc: edit_state(doc, lambda s: s["numeric_stats"].update(extra=1)),
                "gbdt", "preprocess numeric_stats fields: unknown ['extra'], missing []",
                id="state-stats-unknown-field",
            ),
            pytest.param(
                lambda doc: edit_state(doc, lambda s: vocab_of(s).update(extra=1)),
                "gbdt", "vocabulary 'note' fields: unknown ['extra'], missing []",
                id="state-vocabulary-unknown-field",
            ),
            pytest.param(
                lambda doc: strip_fingerprints(doc), "gbdt", "missing ['fingerprint']",
                id="fingerprints-stripped",
            ),
            # A member payload is only its parameters or trees: no fingerprint
            # and no layer width, as version 2 stored.
            pytest.param(
                lambda doc: member_payload(doc).update(fingerprint=doc["fingerprint"]),
                "gbdt", "gbdt payload fields: unknown ['fingerprint']",
                id="member-fingerprint-blank",
            ),
            pytest.param(
                lambda doc: member_payload(doc).update(hidden_width=32),
                "fusion", "fusion payload fields: unknown ['hidden_width']",
                id="net-payload-width",
            ),
            pytest.param(
                lambda doc: nn_params(doc).update({"hidden_width": pack([[0.5]] * 3)}),
                "fusion", "fusion payload holds unknown parameters ['hidden_width']",
                id="net-param-unknown",
            ),
            # NN parameters must be finite, or every probability is NaN.
            pytest.param(
                lambda doc: edit_param(doc, "classifier.bias", lambda v: v.fill(math.nan)),
                "fusion", "parameter 'classifier.bias' holds a value that is not finite",
                id="fusion-param-nan",
            ),
            pytest.param(
                lambda doc: edit_param(doc, "mlp1.weight", lambda v: v.__setitem__(0, math.inf)),
                "baseline", "parameter 'mlp1.weight' holds a value that is not finite",
                id="baseline-param-inf",
            ),
            # A packed array has its field's dtype, strict base64 data, whole
            # values and a shape that holds them all.
            pytest.param(
                lambda doc: nn_params(doc)["classifier.bias"].update(dtype=">f8"),
                "fusion", "parameter 'classifier.bias' has dtype '>f8', expected '<f8'",
                id="packed-dtype-big-endian",
            ),
            pytest.param(
                lambda doc: nn_params(doc)["classifier.bias"].update(pack([0.5] * 4, "<f4")),
                "fusion", "parameter 'classifier.bias' has dtype '<f4', expected '<f8'",
                id="packed-dtype-float32",
            ),
            pytest.param(
                lambda doc: nn_params(doc)["classifier.bias"].update(
                    data="\n" + nn_params(doc)["classifier.bias"]["data"]
                ),
                "fusion", "parameter 'classifier.bias' data is not strict base64",
                id="packed-base64-not-strict",
            ),
            pytest.param(
                lambda doc: nn_params(doc)["classifier.bias"].update(data="AAAAAAAAAAAAAAAA"),
                "fusion", "parameter 'classifier.bias' holds 12 bytes, not a whole number of 8-byte",
                id="packed-bytes-not-whole-values",
            ),
            pytest.param(
                lambda doc: nn_params(doc)["classifier.bias"].update(shape=[3]),
                "fusion", "parameter 'classifier.bias' has shape [3] but holds 2 values",
                id="packed-shape-product",
            ),
            pytest.param(
                lambda doc: edit_packed(encoder_values(doc), lambda v: v[None, :]),
                "baseline", "frequency table 'note' has shape [1, ",
                id="packed-shape-ndim",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["inspect", "predict"])
    def test_exits_3_without_traceback(
        self, tmp_path, schema_path, data_path, capsys, corrupt, model, fragment, command
    ):
        run = train_quick(tmp_path, schema_path, data_path, model=model)
        bundle_path = run / "bundle.json"
        doc = json.loads(bundle_path.read_text())
        # A corruption edits the document in place or returns a new top level.
        # The fingerprint is recomputed, so the edit reaches the check it targets.
        replaced = corrupt(doc)
        write_doc(bundle_path, replaced if isinstance(replaced, list) else doc)
        capsys.readouterr()
        argv = [command, "--model", str(bundle_path)]
        if command == "predict":
            argv += ["--data", str(data_path), "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]:") and err.count("\n") == 1
        assert fragment in err
        assert not (tmp_path / "p.csv").exists()


def test_pad_length_past_memory_fails_predict_like_bad_data(
    tmp_path, schema_path, data_path, capsys
):
    """A gbdt bundle loads with any pad length; its token matrix cannot be built."""
    run = train_quick(tmp_path, schema_path, data_path, model="gbdt")
    doc = json.loads((run / "bundle.json").read_text())
    edit_state(doc, lambda s: vocab_of(s).update(pad_length=10**15))
    write_doc(run / "bundle.json", doc)
    capsys.readouterr()
    argv = ["predict", "--model", str(run / "bundle.json"), "--data", str(data_path)]
    assert main([*argv, "--out", str(tmp_path / "p.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]: not enough memory") and err.count("\n") == 1
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("model, weight", [("fusion", "cat1.weight"), ("baseline", "mlp1.weight")])
def test_stored_weight_wider_than_the_state_builds_no_net(
    tmp_path, schema_path, data_path, capsys, model, weight
):
    """A layer width is read from a weight whose other axis is checked first,
    so 200,000 one-value rows are refused before a net that wide is built."""
    run = train_quick(tmp_path, schema_path, data_path, model=model)
    doc = json.loads((run / "bundle.json").read_text())
    nn_params(doc)[weight] = pack(np.full((200_000, 1), 0.5))
    write_doc(run / "bundle.json", doc)
    capsys.readouterr()
    argv = ["predict", "--model", str(run / "bundle.json"), "--data", str(data_path)]
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(tmp_path / "p.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error[data]: parameter '{weight}' has shape (200000, 1)")
    assert err.count("\n") == 1
    assert peak < 64 * 2**20
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(
            lambda doc: edit_param(doc, "num.weight", lambda w: w.fill(1e308)), id="weights-1e308"
        ),
        pytest.param(
            lambda doc: edit_state(doc, lambda s: set_stat(s, "stds", 5e-324)), id="std-subnormal"
        ),
    ],
)
@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_probabilities_past_float_range_exit_4(
    tmp_path, schema_path, data_path, capsys, edit, command
):
    """Finite numbers at the edge of float range give no NaN probabilities and no
    numpy warning: one error[numeric] line, and nothing written."""
    run = train_quick(tmp_path, schema_path, data_path, model="fusion")
    doc = json.loads((run / "bundle.json").read_text())
    edit(doc)
    write_doc(run / "bundle.json", doc)
    capsys.readouterr()
    out = tmp_path / ("p.csv" if command == "predict" else "report")
    argv = [command, "--model", str(run / "bundle.json"), "--data", str(data_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error[numeric]: ") and captured.err.count("\n") == 1
    assert "not finite" in captured.err
    assert captured.out == ""
    assert not out.exists()


def member_payload(doc: dict) -> dict:
    return doc["members"][0]["payload"]


def tree_field(doc: dict, name: str) -> dict:
    """The packed array of one node field of every tree, or of the tree sizes."""
    return member_payload(doc)["trees"][name]


def edit_split_tree(doc: dict, field: str, value, at: str = "root"):
    """Set one field of the first tree that splits, at its root or its first leaf.

    A callable value is called with the tree's size to get the value, which
    is an index within the tree for ``left``.
    """
    sizes, feature = unpacked(tree_field(doc, "sizes")), unpacked(tree_field(doc, "feature"))
    roots = np.cumsum(sizes) - sizes
    t = next(t for t, root in enumerate(roots) if feature[root] >= 0)
    tree_nodes = feature[roots[t] : roots[t] + sizes[t]].tolist()
    node = roots[t] + (0 if at == "root" else tree_nodes.index(-1))
    value = value(sizes[t]) if callable(value) else value
    edit_packed(tree_field(doc, field), lambda v: v.__setitem__(node, value))


def drop_last_tree(doc: dict):
    """Remove the last tree's size and nodes."""
    last = int(unpacked(tree_field(doc, "sizes"))[-1])
    edit_packed(tree_field(doc, "sizes"), lambda v: v[:-1])
    for name in ("feature", "value", "left"):
        edit_packed(tree_field(doc, name), lambda v: v[:-last])


def nn_params(doc: dict) -> dict:
    return member_payload(doc)["params"]


def edit_param(doc: dict, name: str, edit):
    edit_packed(nn_params(doc)[name], edit)


def encoder_table(doc: dict) -> dict:
    return doc["frequency_encoder"]["tables"]["note"]


def encoder_values(doc: dict) -> dict:
    return encoder_table(doc)["values"]


def gbdt_feature_count(doc: dict) -> int:
    """The width of the default gbdt view, numeric+tokens, that the state gives."""
    state = doc["preprocess"]
    pads = [v["pad_length"] for v in state["vocabularies"].values()]
    return len(state["numeric_stats"]["means"]) + sum(pads)


def add_embedding_row(doc: dict):
    """One more embedding row than the state's vocabulary has."""
    edit_param(doc, "embedding.weight", lambda w: np.vstack([w, np.zeros_like(w[:1])]))


def rename_encoder_table(encoder: dict, old: str, new: str):
    encoder["tables"][new] = encoder["tables"].pop(old)


def edit_state(doc: dict, edit):
    """Apply ``edit`` to the preprocessing state."""
    edit(doc["preprocess"])


def vocab_of(state: dict) -> dict:
    return state["vocabularies"]["note"]


def set_stat(state: dict, name: str, value: float):
    state["numeric_stats"][name][0] = value


def strip_fingerprints(doc: dict):
    del doc["fingerprint"]


NOT_UTF8 = b"\xff\xfe"

# Each case is its exit code and either an argv template, whose fields name
# the paths below, or the keys of a config document for `train --config`.
BAD_INPUTS = {
    "schema-is-directory": (3, "generate --schema {dir} --rows 9 --out {tmp}/g.csv"),
    "config-is-directory": (3, "train --config {dir} --schema {schema} --data {data}"),
    "bundle-is-directory": (3, "inspect --model {dir}"),
    "csv-is-directory": (3, "predict --model {bundle} --data {dir} --out {tmp}/p.csv"),
    "schema-not-utf8": (3, "generate --schema {bad_json} --rows 9 --out {tmp}/g.csv"),
    "config-not-utf8": (3, "train --config {bad_json} --schema {schema} --rows 40"),
    "bundle-not-utf8": (3, "inspect --model {bad_json}"),
    "csv-not-utf8": (3, "predict --model {bundle} --data {bad_csv} --out {tmp}/p.csv"),
    "csv-cell-past-reader-limit": (3, "predict --model {bundle} --data {long_csv} --out {tmp}/p.csv"),
    "predict-out-is-directory": (3, "predict --model {bundle} --data {data} --out {dir}"),
    "generate-out-is-directory": (3, "generate --schema {schema} --rows 9 --out {dir}"),
    "fractions-number": (2, {"fractions": 0.8}),
    "fractions-text": (2, {"fractions": ["a", "b", "c"]}),
    "rows-text": (2, {"rows": "many"}),
    "seed-text": (2, {"seed": "x"}),
    "ensemble-members-number": (2, {"model": "ensemble", "ensemble_members": 3}),
    "missing-fraction-text": (2, {"missing_fraction": "lots"}),
    "imbalance-text-weight": (2, {"imbalance": ["x", 1]}),
    "rounds-fraction": (2, {"gbdt": {"rounds": 2.5}}),
    "max-epochs-fraction": (2, {"train": {"max_epochs": 2.5, "patience": 1}}),
    "batch-size-fraction": (2, {"train": {"batch_size": 1.5}}),
    "fractions-nan": (3, {"fractions": [0.8, 0.1, math.nan]}),
    "shrinkage-nan": (2, {"gbdt": {"shrinkage": math.nan}}),
}


def files_under(root: Path) -> list[Path]:
    return sorted(root.rglob("*"))


class TestBadInputs:
    """Inputs that must end in one error line, with nothing left behind."""

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_one_error_line_and_no_output(
        self, tmp_path, schema_path, data_path, capsys, case
    ):
        code, template = BAD_INPUTS[case]
        run = train_quick(tmp_path, schema_path, data_path, model="gbdt")
        paths = {
            "tmp": tmp_path,
            "schema": schema_path,
            "data": data_path,
            "bundle": run / "bundle.json",
            "dir": tmp_path / "a_directory",
            "bad_json": tmp_path / "bad.json",
            "bad_csv": tmp_path / "bad.csv",
            "long_csv": tmp_path / "long.csv",
        }
        paths["dir"].mkdir()
        paths["bad_json"].write_bytes(b'{"columns": "' + NOT_UTF8 + b'"}')
        # Valid rows first, so the bad bytes sit well past the first read.
        header, *rows = data_path.read_bytes().splitlines(keepends=True)
        paths["bad_csv"].write_bytes(header + b"".join(rows) * 40 + NOT_UTF8)
        # csv.reader refuses a cell of more than 131,072 characters.
        paths["long_csv"].write_bytes(header + b"x" * 200_000 + rows[0])
        if isinstance(template, dict):
            doc = {"schema": str(schema_path), "rows": 40, "out": str(tmp_path / "run2")}
            (tmp_path / "cfg.json").write_text(json.dumps({**doc, **template}))
            template = "train --config {tmp}/cfg.json"
        argv = [part.format(**paths) for part in template.split()]
        before = files_under(tmp_path)
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error[{'usage' if code == 2 else 'data'}]:")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert files_under(tmp_path) == before

    @pytest.mark.parametrize("command", ["predict", "generate"])
    def test_writer_failing_partway_leaves_nothing(
        self, tmp_path, schema_path, data_path, capsys, monkeypatch, command
    ):
        run = train_quick(tmp_path, schema_path, data_path, model="gbdt")
        argv = {
            "predict": ["predict", "--model", str(run / "bundle.json"), "--data", str(data_path)],
            "generate": ["generate", "--schema", str(schema_path), "--rows", "30"],
        }[command]
        monkeypatch.setattr(tabfuse.schema, "_WRITE_BLOCK_ROWS", 7)
        opened = []

        def full_disk_open(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            if mode == "r":
                return fh
            opened.append(FullDiskFile(fh))
            return opened[-1]

        monkeypatch.setattr(tabfuse.schema, "open", full_disk_open, raising=False)
        before = [p for p in files_under(tmp_path) if p.is_file()]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "new_dir" / "rows.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]:") and err.count("\n") == 1
        assert [p for p in files_under(tmp_path) if p.is_file()] == before
        assert [f.writes for f in opened] == [3]

    @pytest.mark.parametrize(
        "kind,template",
        [
            ("bundle", "inspect --model {deep}"),
            ("bundle", "predict --model {deep} --data {data} --out {tmp}/p.csv"),
            ("config", "train --config {deep} --schema {schema} --data {data}"),
            ("schema", "generate --schema {deep} --rows 9 --out {tmp}/g.csv"),
        ],
    )
    def test_json_nested_past_recursion_limit(
        self, tmp_path, schema_path, data_path, capsys, kind, template
    ):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        argv = template.format(deep=deep, data=data_path, schema=schema_path, tmp=tmp_path)
        before = files_under(tmp_path)
        capsys.readouterr()
        assert main(argv.split()) == 3
        err = capsys.readouterr().err
        assert err == f"error[data]: {kind} file {deep} is nested too deeply to parse\n"
        assert files_under(tmp_path) == before


class FullDiskFile:
    """An output file whose writes fail, as on a full disk, after the header and one block."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
TRAIN_KEYS = ["learning_rate", "batch_size", "max_epochs", "patience", "max_epoch", "seed"]
GBDT_KEYS = ["rounds", "max_depth", "max_leaves", "shrinkage", "l2_reg", "round"]
# Values each config key takes in real documents; any JSON value may stand in.
CONFIG_KEYS = {
    "schema": st.just("schema.json"),
    "model": st.sampled_from(["fusion", "baseline", "gbdt", "ensemble", "forest"]),
    "data": st.just("data.csv"),
    "rows": st.integers(0, 500),
    "seed": st.integers(),
    "out": st.just("run"),
    "imbalance": st.lists(st.floats(0.1, 9), max_size=4) | st.just("1,2"),
    "missing_fraction": st.floats(0, 1),
    "fractions": st.lists(st.floats(0, 1), max_size=4)
    | st.sampled_from(["0.8,0.1,0.1", "0.8", "0.8,x,0.1"]),
    "ensemble_members": st.lists(
        st.sampled_from(["fusion", "gbdt", "baseline", "knn"]), max_size=3
    )
    | st.sampled_from(["fusion", "fusion,gbdt", "fusion, gbdt", "gbdt,knn", ""]),
    "gbdt_feature_view": st.sampled_from(
        ["numeric", "numeric+tokens", "numeric+frequency", "raw"]
    ),
    "train": st.dictionaries(st.sampled_from(TRAIN_KEYS), JSON_VALUES | st.integers(1, 9)),
    "gbdt": st.dictionaries(st.sampled_from(GBDT_KEYS), JSON_VALUES | st.integers(1, 9)),
}
CONFIG_DOCS = st.fixed_dictionaries(
    {}, optional={key: typical | JSON_VALUES for key, typical in CONFIG_KEYS.items()}
)


class TestConfigDocuments:
    @settings(max_examples=300, deadline=None)
    @given(doc=CONFIG_DOCS)
    def test_any_document_converts_or_fails_cleanly(self, doc):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "config.json"
            path.write_text(json.dumps(doc))
            args = make_parser().parse_args(["train", "--config", str(path)])
            try:
                config = build_run_config(args)
                config.validate()
            except ToolkitError as e:
                assert e.exit_code in (2, 3)
                return
            # A valid config written as its document converts to the same config.
            # repr, not ==: NaN is unequal to itself, and repr tells 1 from 1.0.
            path.write_text(json.dumps(config.to_json_dict()))
            assert repr(build_run_config(args)) == repr(config)


@pytest.fixture(scope="module")
def ensemble_run(tmp_path_factory):
    """A trained fusion+gbdt+baseline bundle, so every section is present, and rows to score."""
    root = tmp_path_factory.mktemp("bundle_edits")
    schema = save_schema_to(root / "schema.json")
    data = root / "data.csv"
    assert main(["generate", "--schema", str(schema), "--rows", "80", "--seed", "11", "--out", str(data)]) == 0
    config = quick_config(root, ensemble_members=["fusion", "gbdt", "baseline"])
    argv = ["--config", str(config), "--schema", str(schema), "--data", str(data)]
    assert main(["train", *argv, "--model", "ensemble", "--out", str(root / "run")]) == 0
    return json.loads((root / "run" / "bundle.json").read_text()), data, root


def paths_in(value, path: tuple):
    """The path of ``value`` and of every value nested in it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, inner in value.items() if isinstance(value, dict) else enumerate(value):
            yield from paths_in(inner, (*path, key))


BASE64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


@st.composite
def bundle_edits(draw, doc: dict) -> dict:
    """A copy of ``doc`` with one field of one section replaced or removed, or
    one base64 character of a packed array changed."""
    doc = json.loads(json.dumps(doc))
    section = draw(st.sampled_from(list(doc)), label="section")
    path = draw(st.sampled_from(list(paths_in(doc[section], (section,)))), label="path")
    *parents, key = path
    parent = doc
    for step in parents:
        parent = parent[step]
    value = parent[key]
    edits = ["replace", "remove"] + (["flip"] if key == "data" and isinstance(value, str) else [])
    edit = draw(st.sampled_from(edits), label="edit")
    if edit == "remove":
        del parent[key]
    elif edit == "flip" and value:
        i = draw(st.integers(0, len(value) - 1), label="character")
        others = BASE64_ALPHABET.replace(value[i], "")
        parent[key] = value[:i] + draw(st.sampled_from(others)) + value[i + 1 :]
    else:
        parent[key] = draw(JSON_VALUES, label="value")
    return doc


def predict_with(doc: dict, data: Path, root: Path) -> tuple[int, str, Path]:
    """Exit code and standard error of ``predict`` with ``doc`` as the bundle."""
    bundle, out = root / "edited.json", root / "predictions.csv"
    bundle.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    code, err = run_cli(["predict", "--model", bundle, "--data", data, "--out", out])
    return code, err, out


def value_at(doc, path: tuple):
    for step in path:
        doc = doc[step]
    return doc


def test_every_object_refuses_an_unknown_field(ensemble_run):
    """Every object the format defines, signed again with an added field, is refused
    with one error line that names the field. The free-form run summary, and the maps
    keyed by parameter or column name, are not objects of the format; their values are."""
    doc, rows, root = ensemble_run
    name_keyed = [("params",), ("tables",), ("vocabularies",)]
    objects = [
        path
        for path in paths_in(doc, ())
        if isinstance(value_at(doc, path), dict)
        and path[:1] != ("run_summary",)
        and path[-1:] not in name_keyed
    ]
    assert len(objects) == 44
    for path in objects:
        edited = json.loads(json.dumps(doc))
        value_at(edited, path)["extra"] = 1
        code, err, out = predict_with(refingerprint(edited), rows, root)
        assert code == 3, (path, err)
        assert err.startswith("error[data]: ") and err.count("\n") == 1, (path, err)
        assert "unknown ['extra']" in err, (path, err)
        assert not out.exists()


class TestBundleEdits:
    """One edit of a bundle through ``tabfuse predict``: the fingerprint turns any
    edit into one error line, and an edit signed again reaches the deeper checks,
    which end in a result or one error line, never in a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_an_edit_without_its_fingerprint_exits_3(self, ensemble_run, data):
        doc, rows, root = ensemble_run
        edited = data.draw(bundle_edits(doc))
        assume(json.dumps(edited, sort_keys=True) != json.dumps(doc, sort_keys=True))
        code, err, out = predict_with(edited, rows, root)
        assert code == 3, err
        assert err.startswith("error[data]: ") and err.count("\n") == 1, err
        assert not out.exists()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_signed_edit_exits_0_3_or_4(self, ensemble_run, data):
        doc, rows, root = ensemble_run
        code, err, out = predict_with(refingerprint(data.draw(bundle_edits(doc))), rows, root)
        assert code in (0, 3, 4), err
        if code:
            assert err.startswith(f"error[{'data' if code == 3 else 'numeric'}]: "), err
            assert err.count("\n") == 1, err
            assert not out.exists()
        else:
            assert err == "" and out.exists()


def assert_clean_exit(argv, outputs):
    """``argv`` exits 0 and writes every one of ``outputs``, or exits 2, 3 or
    4 with one error line and leaves none of them."""
    code, err = run_cli(argv)
    assert code in (0, 2, 3, 4), (argv[0], err)
    assert "Traceback" not in err, (argv[0], err)
    if code:
        assert err.startswith("error[") and err.count("\n") == 1, (argv[0], err)
        assert not any(path.exists() for path in outputs), (argv[0], err)
    else:
        assert "error[" not in err and all(path.exists() for path in outputs), (argv[0], err)


# Bytes a CSV reader treats specially: NUL, line ends, quotes, separators, a
# byte-order mark, bytes that are not UTF-8, and numbers at or past float range.
CSV_BYTES = st.sampled_from(
    [b"\x00", b"\r", b"\n", b'"', b",", b"\xef\xbb\xbf", b"\xff", b"\xc3", b"nan", b"inf",
     b"-inf", b"1e400", b"NA", b" "]
) | st.binary(min_size=1, max_size=3)


@st.composite
def csv_edits(draw, data: bytes) -> bytes:
    """``data`` with 1 to 3 spans of bytes inserted, deleted or replaced."""
    for _ in range(draw(st.integers(1, 3), label="edits")):
        at = draw(st.integers(0, len(data)), label="at")
        cut = draw(st.integers(0, 3), label="cut")
        data = data[:at] + draw(st.just(b"") | CSV_BYTES, label="insert") + data[at + cut :]
    return data


class TestCsvEdits:
    """Byte edits of a 12-row CSV through ``predict`` and ``evaluate`` end in a
    result or one error line."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_an_edited_csv_exits_cleanly(self, ensemble_run, data):
        doc, rows, root = ensemble_run
        header, *lines = rows.read_bytes().splitlines(keepends=True)
        edited = root / "edited.csv"
        edited.write_bytes(data.draw(csv_edits(header + b"".join(lines[:12]))))
        bundle = root / "run" / "bundle.json"
        predictions, reports = root / "edited_predictions.csv", root / "edited_reports"
        predictions.unlink(missing_ok=True)
        shutil.rmtree(reports, ignore_errors=True)
        assert_clean_exit(["predict", "--model", bundle, "--data", edited, "--out", predictions],
                          [predictions])
        assert_clean_exit(["evaluate", "--model", bundle, "--data", edited, "--out", reports],
                          [reports])


@st.composite
def schema_edits(draw) -> dict:
    """A schema document with one or two structural edits: a field replaced or
    removed, or a column dropped, repeated, moved or added."""
    doc = schema_doc(("temp", "complaint", "outcome"), ("home", "admitted", "ward"))
    for _ in range(draw(st.integers(1, 2), label="edits")):
        columns = doc.get("columns")
        edit = draw(st.sampled_from(["field", "drop", "repeat", "move", "add"]), label="edit")
        if edit == "field" or not isinstance(columns, list) or not columns:
            doc = draw(bundle_edits(doc))
            continue
        i = draw(st.integers(0, len(columns) - 1), label="column")
        if edit == "drop":
            del columns[i]
        elif edit == "repeat":
            columns.insert(i, columns[i])
        elif edit == "move":
            columns.append(columns.pop(i))
        else:
            kind = draw(st.sampled_from(["numerical", "categorical"]), label="kind")
            columns.insert(i, {"name": draw(SCHEMA_TEXT, label="name"), "kind": kind})
    return doc


class TestSchemaEdits:
    """Structural edits of a schema document through ``generate`` and an
    ensemble ``train`` end in a result or one error line."""

    @settings(max_examples=60, deadline=None)
    @given(doc=schema_edits())
    def test_an_edited_schema_exits_cleanly(self, doc):
        with tempfile.TemporaryDirectory() as directory:
            root = Path(directory)
            schema, rows, run = root / "schema.json", root / "rows.csv", root / "run"
            schema.write_text(json.dumps(doc))
            config = root / "config.json"
            config.write_text(json.dumps({
                "train": {"max_epochs": 2, "patience": 1, "batch_size": 16},
                "gbdt": {"rounds": 2, "max_depth": 2, "max_leaves": 3},
            }))
            assert_clean_exit(["generate", "--schema", schema, "--rows", 60, "--seed", 1,
                               "--out", rows], [rows])
            assert_clean_exit(["train", "--config", config, "--schema", schema, "--rows", 60,
                               "--model", "ensemble", "--out", run], [run])


class TestParsing:
    def test_unknown_command(self, capsys):
        assert main(["toast"]) == 2
        assert capsys.readouterr().err.startswith("error[usage]:")

    def test_unknown_flag(self, schema_path, capsys):
        code = main(["generate", "--schema", str(schema_path), "--rows", "5", "--bogus"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[usage]:")

    def test_missing_config_file_is_data_error(self, tmp_path, schema_path, capsys):
        code = main(
            [
                "train",
                "--config", str(tmp_path / "ghost.json"),
                "--schema", str(schema_path),
                "--rows", "40",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 3
        assert "config file not found" in capsys.readouterr().err
