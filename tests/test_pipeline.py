import numpy as np
import pytest

import tabfuse.pipeline
from tabfuse.errors import DataError, UsageError
from tabfuse.gbdt import GbdtConfig
from tabfuse.models import TrainConfig
from tabfuse.pipeline import (
    MEMBER_SEED_STRIDE,
    RunConfig,
    build_features,
    load_training_table,
    predict_on_table,
    run_training,
)
from tabfuse.preprocess import EncodedDataset
from tabfuse.schema import ColumnKind, ColumnSpec, TableSchema, save_schema


@pytest.fixture
def schema_path(tmp_path):
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
    path = tmp_path / "schema.json"
    save_schema(schema, path)
    return str(path)


def quick_run_config(schema_path, **overrides):
    defaults = dict(
        schema=schema_path,
        model="fusion",
        rows=60,
        seed=5,
        train=TrainConfig(max_epochs=3, patience=2, batch_size=16),
        gbdt=GbdtConfig(rounds=4, max_depth=2, max_leaves=4),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def tiny_encoded():
    return EncodedDataset(
        numeric=np.array([[1.0, 2.0], [3.0, 4.0]]),
        tokens=np.array([[2, 0], [3, 1]], dtype=np.int64),
        labels=np.array([0, 1], dtype=np.int64),
        row_indices=np.array([2, 0], dtype=np.int64),
    )


class TestBuildFeatures:
    def test_numeric_view_is_identity(self):
        d = tiny_encoded()
        assert build_features("numeric", d, None) is d.numeric

    def test_numeric_plus_tokens(self):
        d = tiny_encoded()
        out = build_features("numeric+tokens", d, None)
        assert out.shape == (2, 4)
        assert np.array_equal(out[:, :2], d.numeric)
        assert np.array_equal(out[:, 2:], [[2.0, 0.0], [3.0, 1.0]])
        assert out.dtype == np.float64

    def test_frequency_rows_follow_row_indices(self):
        d = tiny_encoded()
        freq = np.array([[0.1], [0.2], [0.3]])
        out = build_features("numeric+frequency", d, freq)
        # row_indices (2, 0) select the 0.3 and 0.1 rows, in that order
        assert np.array_equal(out[:, 2], [0.3, 0.1])

    def test_frequency_view_requires_encoder(self):
        with pytest.raises(DataError, match="frequency encoder"):
            build_features("numeric+frequency", tiny_encoded(), None)

    def test_unknown_view(self):
        with pytest.raises(UsageError, match="unknown feature view"):
            build_features("tokens+vibes", tiny_encoded(), None)


class TestRunConfigValidation:
    def test_unknown_model_kind(self, schema_path):
        cfg = quick_run_config(schema_path, model="forest")
        with pytest.raises(UsageError, match="unknown model"):
            cfg.validate()

    def test_exactly_one_data_source(self, schema_path):
        both = quick_run_config(schema_path, data="x.csv")
        with pytest.raises(UsageError, match="exactly one data source"):
            both.validate()
        neither = quick_run_config(schema_path, rows=None)
        with pytest.raises(UsageError, match="exactly one data source"):
            neither.validate()

    def test_unknown_feature_view(self, schema_path):
        cfg = quick_run_config(schema_path, gbdt_feature_view="wavelets")
        with pytest.raises(UsageError, match="feature view"):
            cfg.validate()

    def test_ensemble_member_names_checked(self, schema_path):
        cfg = quick_run_config(
            schema_path, model="ensemble", ensemble_members=("fusion", "ensemble")
        )
        with pytest.raises(UsageError, match="invalid ensemble members"):
            cfg.validate()
        # Members are checked against bundle.MEMBER_CLASSES, the one member table.
        unknown = quick_run_config(schema_path, model="ensemble", ensemble_members=("nope",))
        with pytest.raises(
            UsageError, match="invalid ensemble members: 'nope'; pick from fusion, baseline, gbdt$"
        ):
            unknown.validate()
        empty = quick_run_config(
            schema_path, model="ensemble", ensemble_members=()
        )
        with pytest.raises(UsageError, match="at least one member"):
            empty.validate()
        # report.json keys member metrics by kind, so each kind is listed once.
        repeated = quick_run_config(
            schema_path, model="ensemble", ensemble_members=("gbdt", "baseline", "gbdt", "baseline")
        )
        with pytest.raises(UsageError, match="^ensemble member gbdt, baseline is listed more"):
            repeated.validate()

    def test_member_kinds(self, schema_path):
        assert quick_run_config(schema_path).member_kinds() == ("fusion",)
        ens = quick_run_config(
            schema_path, model="ensemble", ensemble_members=("gbdt", "baseline")
        )
        assert ens.member_kinds() == ("gbdt", "baseline")


class TestRunTraining:
    def test_fusion_outcome_shape(self, schema_path):
        outcome = run_training(quick_run_config(schema_path))
        assert outcome.bundle.kind == "fusion"
        assert outcome.report.n_samples == 6  # 60 rows at 0.8/0.1/0.1
        assert 0.0 <= outcome.report.accuracy <= 1.0
        assert outcome.member_logs[0][0] == "train_log"
        assert outcome.member_reports == []
        assert outcome.bundle.frequency_encoder is None

    def test_baseline_gets_frequency_encoder(self, schema_path):
        outcome = run_training(quick_run_config(schema_path, model="baseline"))
        assert outcome.bundle.frequency_encoder is not None

    def test_gbdt_numeric_view_skips_frequency_encoder(self, schema_path):
        outcome = run_training(
            quick_run_config(schema_path, model="gbdt", gbdt_feature_view="numeric")
        )
        assert outcome.bundle.frequency_encoder is None
        assert outcome.bundle.members[0].feature_view == "numeric"

    def test_gbdt_frequency_view_fits_encoder(self, schema_path):
        outcome = run_training(
            quick_run_config(
                schema_path, model="gbdt", gbdt_feature_view="numeric+frequency"
            )
        )
        assert outcome.bundle.frequency_encoder is not None
        assert outcome.bundle.members[0].feature_view == "numeric+frequency"

    def test_ensemble_member_zero_matches_standalone(self, schema_path):
        standalone = run_training(quick_run_config(schema_path))
        ensemble = run_training(
            quick_run_config(
                schema_path, model="ensemble", ensemble_members=("fusion", "gbdt")
            )
        )
        solo = standalone.bundle.members[0]
        member0 = ensemble.bundle.members[0]
        for p, q in zip(solo.params(), member0.params()):
            assert np.array_equal(p.value, q.value), p.name

    def test_members_train_with_distinct_seeds(self, schema_path, monkeypatch):
        seeds = []
        train_member = tabfuse.pipeline._train_member

        def recorded(cls, view, seed, *args):
            seeds.append(seed)
            return train_member(cls, view, seed, *args)

        monkeypatch.setattr(tabfuse.pipeline, "_train_member", recorded)
        members = ("fusion", "baseline", "gbdt")
        run_training(quick_run_config(schema_path, model="ensemble", ensemble_members=members))
        assert seeds == [5, 5 + MEMBER_SEED_STRIDE, 5 + 2 * MEMBER_SEED_STRIDE]

    def test_ensemble_reports_and_logs_per_member(self, schema_path):
        outcome = run_training(
            quick_run_config(
                schema_path, model="ensemble", ensemble_members=("fusion", "gbdt")
            )
        )
        assert [k for k, _ in outcome.member_reports] == ["fusion", "gbdt"]
        assert [n for n, _ in outcome.member_logs] == [
            "train_log_0_fusion",
            "train_log_1_gbdt",
        ]

    def test_run_is_deterministic(self, schema_path):
        a = run_training(quick_run_config(schema_path))
        b = run_training(quick_run_config(schema_path))
        assert a.bundle.to_json_dict() == b.bundle.to_json_dict()
        assert a.member_logs == b.member_logs

    def test_predict_on_table_covers_all_rows(self, schema_path):
        config = quick_run_config(schema_path)
        outcome = run_training(config)
        table = load_training_table(config)
        probas = predict_on_table(outcome.bundle, table)
        assert probas.shape == (60, 2)
        assert np.all(np.abs(probas.sum(axis=1) - 1.0) < 1e-9)
