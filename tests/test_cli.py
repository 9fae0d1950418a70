import json

import pytest

from tabfuse.bundle import load_bundle
from tabfuse.cli import main
from tabfuse.schema import ColumnKind, ColumnSpec, TableSchema, save_schema


@pytest.fixture
def schema_path(tmp_path):
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
    path = tmp_path / "schema.json"
    save_schema(schema, path)
    return path


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
        assert "config section 'train'" in err

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


class TestInspect:
    def test_prints_bundle_summary(self, tmp_path, schema_path, data_path, capsys):
        out_dir = train_quick(tmp_path, schema_path, data_path)
        code = main(["inspect", "--model", str(out_dir / "bundle.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "format version: 1" in out
        assert "model kind: fusion" in out
        assert "target: outcome" in out
        assert "classes (2): no, yes" in out
        assert "preprocess fingerprint:" in out
        assert "training seed: 3" in out


class TestMalformedBundle:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["members"][0].pop("kind"),
            lambda doc: doc["members"][0].update(feature_view="wavelets"),
            lambda doc: doc["members"][0].pop("feature_view"),
            lambda doc: doc.update(kind="fusion"),
            lambda doc: doc.update(members={}),
            lambda doc: doc.update(weights=[1.0]),
            lambda doc: doc["members"][0]["payload"].pop("n_classes"),
            lambda doc: doc.update(members=["gbdt"]),
            lambda doc: [doc],
            lambda doc: doc.pop("preprocess"),
        ],
        ids=[
            "no-kind", "bad-view", "no-view", "kind-mismatch", "members-not-list",
            "weights", "payload-without-n-classes", "member-not-object",
            "top-level-list", "no-preprocess",
        ],
    )
    @pytest.mark.parametrize("command", ["inspect", "predict"])
    def test_exits_3_without_traceback(
        self, tmp_path, schema_path, data_path, capsys, corrupt, command
    ):
        bundle_path = train_quick(tmp_path, schema_path, data_path, model="gbdt") / "bundle.json"
        doc = json.loads(bundle_path.read_text())
        # A corruption edits the document in place or returns a new top level.
        replaced = corrupt(doc)
        bundle_path.write_text(json.dumps(replaced if isinstance(replaced, list) else doc))
        capsys.readouterr()
        argv = [command, "--model", str(bundle_path)]
        if command == "predict":
            argv += ["--data", str(data_path), "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]:") and err.count("\n") == 1
        assert not (tmp_path / "p.csv").exists()


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
