import dataclasses
import json

import numpy as np
import pytest
from bundle_docs import fingerprint, pack, unpacked, write_doc

from tabfuse.bundle import (
    BUNDLE_FORMAT_VERSION,
    MEMBER_CLASSES,
    MODEL_KINDS,
    ModelBundle,
    load_bundle,
    save_bundle,
)
from tabfuse.errors import DataError
from tabfuse.gbdt import GbdtConfig, train_gbdt
from tabfuse.models import BaselineMlp, EmbeddingFusionNet, FrequencyEncoder, TrainConfig
from tabfuse.pipeline import (
    RunConfig,
    load_training_table,
    predict_on_table,
    run_training,
)
from tabfuse.preprocess import fit
from tabfuse.schema import ColumnKind, ColumnSpec, DataTable, TableSchema, save_schema


def fitted_state():
    schema = TableSchema(
        (
            ColumnSpec("x", ColumnKind.NUMERICAL),
            ColumnSpec("color", ColumnKind.CATEGORICAL),
            ColumnSpec("label", ColumnKind.CATEGORICAL),
        ),
        target="label",
        class_labels=("no", "yes"),
    )
    table = DataTable(
        schema,
        (
            ("1", "red", "no"),
            ("2", "blue", "yes"),
            ("3", "red green", "no"),
            ("4", "blue", "yes"),
        ),
    )
    return fit(table), table


def fusion_member(state, seed=0):
    return EmbeddingFusionNet(
        vocab_size=state.total_vocab_size,
        token_width=state.total_padded_width,
        n_numeric=len(state.schema.numeric_feature_names),
        n_classes=2,
        embed_dim=4,
        hidden_width=6,
        fused_width=5,
        seed=seed,
    )


def gbdt_member(state, seed=0, view="numeric+tokens"):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(30, state.view_width(view)))
    y = (x[:, 0] > 0).astype(np.int64)
    config = GbdtConfig(rounds=3, max_depth=2, max_leaves=4)
    model, _ = train_gbdt(x, y, 2, config, feature_view=view)
    return model


def saved_doc(tmp_path, bundle):
    path = tmp_path / "b.json"
    save_bundle(bundle, path)
    return path, json.loads(path.read_text())


def load_doc(path, doc):
    """Load ``doc`` with its fingerprint recomputed, so the edit reaches the deeper checks."""
    write_doc(path, doc)
    return load_bundle(path)


# The `inspect` line of each member kind trained by `trained_bundles`, as
# earlier builds printed it.
INSPECT_LINES = {
    "fusion": "fusion: embed dim 16, token width 1, numerics 2",
    "baseline": "baseline: input width 3",
    "gbdt": "gbdt: 3 rounds x 2 classes, feature view numeric+tokens",
}


@pytest.fixture(scope="module")
def trained_bundles(tmp_path_factory):
    """A tiny trained bundle of every model kind, with its training table."""
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
    schema_path = tmp_path_factory.mktemp("kinds") / "schema.json"
    save_schema(schema, schema_path)
    out = {}
    for kind in MODEL_KINDS:
        config = RunConfig(
            schema=str(schema_path),
            model=kind,
            rows=60,
            seed=5,
            train=TrainConfig(max_epochs=3, patience=2, batch_size=16),
            gbdt=GbdtConfig(rounds=3, max_depth=2, max_leaves=4),
            ensemble_members=tuple(MEMBER_CLASSES),
        )
        out[kind] = (run_training(config).bundle, load_training_table(config))
    return out


def test_every_member_kind_has_a_trainer():
    assert MODEL_KINDS == (*MEMBER_CLASSES, "ensemble")
    for kind, cls in MEMBER_CLASSES.items():
        assert cls.kind == kind and cls.feature_views


def test_a_member_is_of_its_models_kind(trained_bundles):
    """A member is its model, whose kind is its class's, so it cannot name another."""
    bundle, _ = trained_bundles["ensemble"]
    assert [m.kind for m in bundle.members] == list(MEMBER_CLASSES)
    for m in bundle.members:
        assert type(m) is MEMBER_CLASSES[m.kind]
        assert "kind" not in vars(m)
        assert m.feature_view in type(m).feature_views
    gbdt = bundle.members[2]
    assert "kind" not in {f.name for f in dataclasses.fields(gbdt)}


@pytest.mark.parametrize("kind", MODEL_KINDS)
class TestEveryKindRoundTrip:
    def test_parameters_and_predictions_bit_exact(self, kind, trained_bundles, tmp_path):
        bundle, table = trained_bundles[kind]
        path = tmp_path / "b.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert [m.kind for m in loaded.members] == [m.kind for m in bundle.members]
        for m, n in zip(bundle.members, loaded.members):
            # repr-level JSON equality is bit equality, -0.0 and subnormals included
            assert json.dumps(m.to_json_dict()) == json.dumps(n.to_json_dict())
            assert n.feature_view == m.feature_view
        assert np.array_equal(predict_on_table(bundle, table), predict_on_table(loaded, table))

    def test_second_save_is_byte_identical(self, kind, trained_bundles, tmp_path):
        bundle, _ = trained_bundles[kind]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        save_bundle(bundle, first)
        save_bundle(load_bundle(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_describe_gives_the_inspect_line(self, kind, trained_bundles):
        bundle, _ = trained_bundles[kind]
        assert [f"{m.kind}: {m.describe()}" for m in bundle.members] == [
            INSPECT_LINES[m.kind] for m in bundle.members
        ]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_payloads_hold_no_size_the_state_gives(kind, trained_bundles):
    bundle, _ = trained_bundles[kind]
    doc = bundle.to_json_dict()
    sizes = {"n_classes", "feature_count", "n_features", "vocab_size", "token_width", "n_numeric"}
    # Nor a layer width, which the stored weights give, nor a fingerprint.
    sizes |= {"embed_dim", "hidden_width", "fused_width", "hidden1", "hidden2"}
    sizes |= {"fingerprint", "preprocess_fingerprint"}
    for member in doc["members"]:
        payload = member["payload"]
        fields = ["shrinkage", "base_score", "trees"] if member["kind"] == "gbdt" else ["params"]
        assert list(payload) == fields
        assert not sizes & set(payload)
    encoder = doc["frequency_encoder"]
    assert encoder is None or list(encoder) == ["tables"]
    assert "label_map" not in doc["preprocess"]
    assert "columns" not in doc["preprocess"]["numeric_stats"]


class TestFormat:
    def test_document_is_compact_json_under_one_fingerprint(self, trained_bundles, tmp_path):
        bundle, _ = trained_bundles["ensemble"]
        path, doc = saved_doc(tmp_path, bundle)
        assert path.read_text() == json.dumps(doc, separators=(",", ":")) + "\n"
        assert doc["format_version"] == 5
        assert doc["fingerprint"] == fingerprint(doc)

    def test_every_member_and_encoder_array_is_packed(self, trained_bundles, tmp_path):
        bundle, _ = trained_bundles["ensemble"]
        _, doc = saved_doc(tmp_path, bundle)
        fusion, baseline, gbdt = bundle.members
        docs = [m["payload"] for m in doc["members"]]
        for net, payload in ((fusion, docs[0]), (baseline, docs[1])):
            for p in net.params():
                assert payload["params"][p.name]["dtype"] == "<f8"
                assert unpacked(payload["params"][p.name]).tobytes() == p.value.tobytes()
        trees = docs[2]["trees"]
        assert unpacked(trees["sizes"]).tolist() == [len(t.feature) for t in gbdt.trees]
        assert list(trees) == ["sizes", "feature", "value", "left"]
        for name in ("feature", "value", "left"):
            assert trees[name]["dtype"] == ("<f8" if name == "value" else "<i4")
            joined = [v for t in gbdt.trees for v in getattr(t, name).tolist()]
            assert repr(unpacked(trees[name]).tolist()) == repr(joined)
        for name, table in doc["frequency_encoder"]["tables"].items():
            assert table["keys"] == list(bundle.frequency_encoder.tables[name])
            expected = list(bundle.frequency_encoder.tables[name].values())
            assert repr(unpacked(table["values"]).tolist()) == repr(expected)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda doc: doc.update(kind="fusion"), id="kind"),
            pytest.param(lambda doc: doc["preprocess"]["numeric_stats"]["means"].pop(), id="state"),
            pytest.param(
                lambda doc: doc["members"][1]["payload"]["params"]["mlp3.bias"].update(
                    pack([0.5, 0.5])
                ),
                id="net-parameter",
            ),
            pytest.param(
                lambda doc: doc["members"][2]["payload"].update(base_score=0.25), id="gbdt-scalar"
            ),
            pytest.param(
                lambda doc: doc["frequency_encoder"]["tables"]["tag"]["keys"].append("new"),
                id="encoder-keys",
            ),
            pytest.param(lambda doc: doc["run_summary"].update(seed=6), id="run-summary"),
        ],
    )
    def test_an_edit_of_any_section_fails_the_fingerprint(self, edit, trained_bundles, tmp_path):
        path, doc = saved_doc(tmp_path, trained_bundles["ensemble"][0])
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="bundle fingerprint does not match its contents"):
            load_bundle(path)


class TestRoundTrip:
    def test_fusion_parameters_bit_exact(self, tmp_path):
        state, _ = fitted_state()
        member = fusion_member(state)
        # plant awkward values: irrational, repeating binary, subnormal, -0.0
        member.classifier.bias.value[...] = [np.pi, 1.0 / 3.0]
        member.cat_act1.slope.value[...] = 5e-324
        member.num_act.slope.value[...] = -0.0
        bundle = ModelBundle("fusion", state, [member])
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        for p, q in zip(member.params(), loaded.members[0].params()):
            assert p.value.tobytes() == q.value.tobytes(), p.name

    def test_fusion_predictions_survive_round_trip(self, tmp_path):
        state, _ = fitted_state()
        member = fusion_member(state, seed=3)
        bundle = ModelBundle("fusion", state, [member])
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        rng = np.random.default_rng(0)
        numeric = rng.normal(size=(5, len(state.schema.numeric_feature_names)))
        tokens = rng.integers(0, state.total_vocab_size, size=(5, state.total_padded_width))
        assert np.array_equal(
            member.predict_proba(numeric, tokens),
            loaded.members[0].predict_proba(numeric, tokens),
        )

    def test_baseline_round_trip(self, tmp_path):
        state, table = fitted_state()
        # One numeric column plus one frequency column per categorical column.
        model = BaselineMlp(2, 2, hidden1=6, hidden2=4, seed=1)
        enc = FrequencyEncoder.fit(table, state, np.arange(4))
        bundle = ModelBundle("baseline", state, [model], frequency_encoder=enc)
        path = tmp_path / "b.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        x = np.random.default_rng(1).normal(size=(4, 2))
        assert np.array_equal(
            model.predict_proba(x), loaded.members[0].predict_proba(x)
        )

    def test_gbdt_round_trip_keeps_feature_view(self, tmp_path):
        state, _ = fitted_state()
        member = gbdt_member(state)
        bundle = ModelBundle("gbdt", state, [member])
        path = tmp_path / "b.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert loaded.members[0].feature_view == "numeric+tokens"
        x = np.random.default_rng(2).normal(size=(6, 3))
        assert np.array_equal(
            member.predict_proba(x), loaded.members[0].predict_proba(x)
        )

    def test_ensemble_bundle_full_round_trip(self, tmp_path):
        state, table = fitted_state()
        enc = FrequencyEncoder.fit(table, state, np.arange(4))
        bundle = ModelBundle(
            "ensemble",
            state,
            [fusion_member(state), gbdt_member(state, view="numeric+frequency")],
            frequency_encoder=enc,
            run_summary={"seed": 3, "rows": 4},
        )
        path = tmp_path / "b.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert loaded.kind == "ensemble"
        assert loaded.frequency_encoder == enc
        assert loaded.run_summary == {"seed": 3, "rows": 4}
        assert [m.kind for m in loaded.members] == ["fusion", "gbdt"]
        assert loaded.members[1].feature_view == "numeric+frequency"

    def test_save_twice_is_byte_identical(self, tmp_path):
        state, _ = fitted_state()
        bundle = ModelBundle("fusion", state, [fusion_member(state)])
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_bundle(bundle, a)
        save_bundle(bundle, b)
        assert a.read_bytes() == b.read_bytes()


class TestValidation:
    def test_tampered_state_rejected_on_load(self, tmp_path):
        state, _ = fitted_state()
        bundle = ModelBundle("fusion", state, [fusion_member(state)])
        path = tmp_path / "b.json"
        save_bundle(bundle, path)
        doc = json.loads(path.read_text())
        doc["preprocess"]["numeric_stats"]["means"] = [99.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="fingerprint"):
            load_bundle(path)

    def test_unsupported_version_rejected(self, tmp_path):
        state, _ = fitted_state()
        bundle = ModelBundle("fusion", state, [fusion_member(state)])
        path = tmp_path / "b.json"
        save_bundle(bundle, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = BUNDLE_FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="unsupported bundle version"):
            load_bundle(path)

    def test_missing_parameter_rejected(self, tmp_path):
        state, _ = fitted_state()
        bundle = ModelBundle("fusion", state, [fusion_member(state)])
        path = tmp_path / "b.json"
        save_bundle(bundle, path)
        doc = json.loads(path.read_text())
        del doc["members"][0]["payload"]["params"]["classifier.bias"]
        with pytest.raises(DataError, match="missing parameter"):
            load_doc(path, doc)

    def test_wrong_parameter_shape_rejected(self, tmp_path):
        state, _ = fitted_state()
        bundle = ModelBundle("fusion", state, [fusion_member(state)])
        path = tmp_path / "b.json"
        save_bundle(bundle, path)
        doc = json.loads(path.read_text())
        doc["members"][0]["payload"]["params"]["classifier.bias"] = pack([1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="shape"):
            load_doc(path, doc)

    def test_unknown_kind_rejected(self):
        state, _ = fitted_state()
        with pytest.raises(DataError, match="unknown model kind"):
            ModelBundle("tree_soup", state, [fusion_member(state)])

    def test_frequency_encoder_exactly_when_a_member_reads_it(self):
        state, table = fitted_state()
        enc = FrequencyEncoder.fit(table, state, np.arange(4))
        with pytest.raises(DataError, match="bundle has no frequency encoder"):
            ModelBundle("gbdt", state, [gbdt_member(state, view="numeric+frequency")])
        with pytest.raises(DataError, match=r"no member reads numeric\+frequency"):
            ModelBundle("gbdt", state, [gbdt_member(state)], frequency_encoder=enc)

    def test_empty_members_rejected(self):
        state, _ = fitted_state()
        with pytest.raises(DataError, match="no members"):
            ModelBundle("fusion", state, [])

    def test_unknown_member_kind_rejected_on_load(self, tmp_path):
        state, _ = fitted_state()
        bundle = ModelBundle("fusion", state, [fusion_member(state)])
        path = tmp_path / "b.json"
        save_bundle(bundle, path)
        doc = json.loads(path.read_text())
        doc["members"][0]["kind"] = "mystery"
        with pytest.raises(DataError, match="unknown member kind"):
            load_doc(path, doc)

    def test_member_without_kind_rejected_on_load(self, tmp_path):
        state, _ = fitted_state()
        path, doc = saved_doc(tmp_path, ModelBundle("fusion", state, [fusion_member(state)]))
        del doc["members"][0]["kind"]
        with pytest.raises(DataError, match="unknown member kind None"):
            load_doc(path, doc)

    @pytest.mark.parametrize(
        "kind, view, message",
        [
            ("gbdt", "wavelets", "gbdt member has feature view 'wavelets'"),
            ("gbdt", None, r"gbdt member fields: unknown \[\], missing \['feature_view'\]"),
            ("fusion", "numeric", r"fusion member fields: unknown \['feature_view'\]"),
        ],
        ids=["gbdt-unknown-view", "gbdt-no-view", "fusion-with-view"],
    )
    def test_unaccepted_feature_view_rejected_on_load(self, tmp_path, kind, view, message):
        """A kind with a choice of views records one; a kind with one view records none."""
        state, _ = fitted_state()
        member = {"fusion": fusion_member, "gbdt": gbdt_member}[kind](state)
        path, doc = saved_doc(tmp_path, ModelBundle(kind, state, [member]))
        doc["members"][0].pop("feature_view", None)
        if view is not None:
            doc["members"][0]["feature_view"] = view
        with pytest.raises(DataError, match=message):
            load_doc(path, doc)

    def test_single_model_bundle_needs_one_member_of_its_kind(self, tmp_path):
        state, _ = fitted_state()
        with pytest.raises(DataError, match="exactly one fusion member"):
            ModelBundle("fusion", state, [gbdt_member(state)])
        with pytest.raises(DataError, match="exactly one fusion member"):
            ModelBundle("fusion", state, [fusion_member(state), fusion_member(state)])
        path, doc = saved_doc(tmp_path, ModelBundle("gbdt", state, [gbdt_member(state)]))
        doc["kind"] = "fusion"
        with pytest.raises(DataError, match="exactly one fusion member"):
            load_doc(path, doc)

    @pytest.mark.parametrize("members", [None, {}, "fusion", []])
    def test_members_must_be_a_non_empty_list(self, tmp_path, members):
        state, _ = fitted_state()
        path, doc = saved_doc(tmp_path, ModelBundle("fusion", state, [fusion_member(state)]))
        doc["members"] = members
        with pytest.raises(DataError, match="non-empty list"):
            load_doc(path, doc)

    def test_weights_rejected_on_load(self, tmp_path):
        state, _ = fitted_state()
        path, doc = saved_doc(tmp_path, ModelBundle("fusion", state, [fusion_member(state)]))
        doc["weights"] = [1.0]
        with pytest.raises(DataError, match="weights"):
            load_doc(path, doc)

    def test_fields_of_earlier_builds_rejected(self, tmp_path):
        """Earlier builds wrote null weights and copies of the run configs."""
        state, _ = fitted_state()
        path, doc = saved_doc(tmp_path, ModelBundle("gbdt", state, [gbdt_member(state)]))
        legacy = {
            "weights": None,
            "train_config": dataclasses.asdict(TrainConfig()),
            "gbdt_config": dataclasses.asdict(GbdtConfig()),
        }
        for name, value in legacy.items():
            with pytest.raises(DataError, match=rf"bundle fields: unknown \['{name}'\]"):
                load_doc(path, {**doc, name: value})

    def test_version_1_document_asks_for_retraining(self, tmp_path):
        state, _ = fitted_state()
        path, doc = saved_doc(tmp_path, ModelBundle("fusion", state, [fusion_member(state)]))
        doc["format_version"] = 1
        with pytest.raises(DataError, match="unsupported bundle version 1; .* retrain"):
            load_doc(path, doc)

    def test_fingerprints_required(self, tmp_path):
        """The document's fingerprint is required at the top level, and nowhere else."""
        state, _ = fitted_state()
        path, doc = saved_doc(tmp_path, ModelBundle("gbdt", state, [gbdt_member(state)]))
        with pytest.raises(DataError, match=r"bundle fields: .*missing \['fingerprint'\]"):
            load_doc(path, {k: v for k, v in doc.items() if k != "fingerprint"})
        doc["members"][0]["payload"]["fingerprint"] = doc["fingerprint"]
        with pytest.raises(DataError, match=r"gbdt payload fields: unknown \['fingerprint'\]"):
            load_doc(path, doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_bundle(tmp_path / "absent.json")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="not valid JSON"):
            load_bundle(path)
