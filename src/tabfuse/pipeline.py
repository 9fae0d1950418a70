"""End-to-end orchestration: data -> preprocessing -> members -> evaluation.

This is the layer the CLI drives. It owns the run configuration, the
features each member's view reads, deterministic per-member seeding, the
training of every member through one function, and the bundle assembly
after training. Member kinds are declared once, in ``bundle.MEMBER_CLASSES``:
``_train_member`` boosts the GBDT and trains every other class as a network,
built with ``from_state`` and fitted with ``models.train``. A bundle's
members are those trained models, and each reads its own ``feature_view``.
A network's ``check_columns`` refuses a schema that lacks a feature column
kind the network needs; every member is checked before any trains.

``RunConfig`` has one field per config key; ``rows``, ``imbalance`` and
``missing_fraction`` are set only to generate the training table. Its
``to_json_dict``, the bundle's run summary, is a config document that
retrains the run byte for byte from the same working directory.

Feature views:

* fusion members read the standardized numeric matrix and the padded
  token-index matrix as two inputs ("numeric,tokens");
* baseline members read numerics concatenated with one frequency-encoded
  column per categorical feature ("numeric+frequency");
* gbdt members read a configurable view: "numeric+tokens" (token indices
  as integer ordinals, the default), "numeric+frequency", or "numeric".

Member i of an ensemble trains with seed = run seed + 7919 * i, so member
0 reproduces the standalone model exactly and members never share a seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .bundle import MEMBER_CLASSES, MODEL_KINDS, ModelBundle
from .ensemble import soft_vote
from .errors import DataError, NumericError, UsageError
from .gbdt import GbdtConfig, GbdtModel, train_gbdt
from .metrics import EvalReport, evaluate
from .models import FrequencyEncoder, TrainConfig, train
from .preprocess import EncodedDataset, PreprocessState, fit, stratified_split, transform
from .schema import DataTable, load_csv, load_schema
from .synthetic import generate_synthetic

MEMBER_SEED_STRIDE = 7919


@dataclass(frozen=True)
class RunConfig:
    schema: str
    model: str = "fusion"
    data: str | None = None
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0
    out: str = "run_out"
    train: TrainConfig = field(default_factory=TrainConfig)
    gbdt: GbdtConfig = field(default_factory=GbdtConfig)
    ensemble_members: tuple[str, ...] = ("fusion", "gbdt")
    gbdt_feature_view: str = GbdtModel.feature_views[0]
    rows: int | None = None
    imbalance: tuple[float, ...] | None = None
    missing_fraction: float | None = None

    def validate(self) -> None:
        """Refuse a config that no run can take, before any data is read.

        Raises:
            UsageError: an unknown model or feature view; both data sources or
                neither; a generator setting with ``data``; a negative seed; an
                ensemble with no member, an unknown member kind, or a kind
                listed twice. ``report.json`` keys member metrics by kind, and
                a second GBDT would copy the first, as boosting takes no seed.
        """
        if self.model not in MODEL_KINDS:
            raise UsageError(
                f"unknown model {self.model!r}; pick one of {', '.join(MODEL_KINDS)}"
            )
        if (self.data is None) == (self.rows is None):
            raise UsageError("provide exactly one data source: --data or --rows")
        if self.data is not None:
            for key in ("imbalance", "missing_fraction"):
                if getattr(self, key) is not None:
                    raise UsageError(f"{key} applies only to --rows, not to --data")
        if self.seed < 0:
            raise UsageError(f"seed {self.seed} must be a non-negative integer")
        if self.gbdt_feature_view not in GbdtModel.feature_views:
            raise UsageError(
                f"unknown feature view {self.gbdt_feature_view!r}; "
                f"pick one of {', '.join(GbdtModel.feature_views)}"
            )
        if self.model == "ensemble":
            if not self.ensemble_members:
                raise UsageError("ensemble needs at least one member")
            bad = [m for m in self.ensemble_members if m not in MEMBER_CLASSES]
            if bad:
                raise UsageError(
                    f"invalid ensemble members: {', '.join(map(repr, bad))}; "
                    f"pick from {', '.join(MEMBER_CLASSES)}"
                )
            members = self.ensemble_members
            repeated = [m for m in dict.fromkeys(members) if members.count(m) > 1]
            if repeated:
                raise UsageError(
                    f"ensemble member {', '.join(repeated)} is listed more than once; "
                    "list each kind once"
                )

    def member_kinds(self) -> tuple[str, ...]:
        if self.model == "ensemble":
            return tuple(self.ensemble_members)
        return (self.model,)

    def to_json_dict(self) -> dict:
        """The config document of this run: each set setting under its key,
        tuples as lists and sections as objects. A None setting is left out."""
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(self).items()
            if value is not None
        }


def build_features(
    view: str, encoded: EncodedDataset, frequency_matrix: np.ndarray | None
) -> np.ndarray:
    """Assemble the flat feature matrix a tree/MLP member consumes.

    ``frequency_matrix`` is aligned to the original table; rows are picked
    out by ``encoded.row_indices`` so split subsets stay consistent.
    """
    if view == "numeric":
        return encoded.numeric
    if view == "numeric+tokens":
        return np.hstack([encoded.numeric, encoded.tokens.astype(np.float64)])
    if view == "numeric+frequency":
        if frequency_matrix is None:
            raise DataError("feature view needs a fitted frequency encoder")
        return np.hstack([encoded.numeric, frequency_matrix[encoded.row_indices]])
    raise UsageError(f"unknown feature view {view!r}")


def member_inputs(
    view: str, encoded: EncodedDataset, frequency_matrix: np.ndarray | None
) -> tuple[np.ndarray, ...]:
    """The arrays a member reading ``view`` takes, in ``predict_proba`` order."""
    if view == "numeric,tokens":
        return encoded.numeric, encoded.tokens
    return (build_features(view, encoded, frequency_matrix),)


def load_training_table(config: RunConfig) -> DataTable:
    schema = load_schema(config.schema)
    if config.data is not None:
        return load_csv(config.data, schema)
    shape = {"imbalance": config.imbalance, "missing_fraction": config.missing_fraction}
    shape = {key: value for key, value in shape.items() if value is not None}
    return generate_synthetic(schema, config.rows, config.seed, **shape)


def _train_member(
    cls: type,
    view: str,
    seed: int,
    state: PreprocessState,
    train_d: EncodedDataset,
    val_d: EncodedDataset,
    frequency_matrix: np.ndarray | None,
    config: RunConfig,
) -> tuple[object, str]:
    """Build and train one member of model class ``cls`` on feature ``view``.

    The GBDT boosts on its one feature matrix and logs its per-round loss.
    Every other member class is a network: built from the state with the
    member's seed, then trained with the run's train config at that seed.

    Returns:
        (model, train log CSV text)
    """
    x_train = member_inputs(view, train_d, frequency_matrix)
    if cls is GbdtModel:
        model, losses = train_gbdt(
            x_train[0], train_d.labels, state.schema.n_classes, config.gbdt, feature_view=view
        )
        lines = ["round,train_loss"]
        lines.extend(f"{r},{loss!r}" for r, loss in enumerate(losses, start=1))
        return model, "\n".join(lines) + "\n"
    model = cls.from_state(state, seed=seed)
    x_val = member_inputs(view, val_d, frequency_matrix)
    _, log = train(model, x_train, train_d.labels, x_val, val_d.labels, config.train, seed)
    return model, log.to_csv_text()


@dataclass
class TrainOutcome:
    """What a run gives the CLI to write: the bundle, the test-split report
    (``report.n_samples`` is the test row count), each ensemble member's
    report by kind, and each member's train log as (file stem, CSV text)."""

    bundle: ModelBundle
    report: EvalReport
    member_reports: list[tuple[str, EvalReport]]
    member_logs: list[tuple[str, str]]


def member_probabilities(
    bundle: ModelBundle,
    encoded: EncodedDataset,
    frequency_matrix: np.ndarray | None,
) -> list[np.ndarray]:
    return [
        m.predict_proba(*member_inputs(m.feature_view, encoded, frequency_matrix))
        for m in bundle.members
    ]


def combined_probabilities(
    bundle: ModelBundle, encoded: EncodedDataset, table: DataTable
) -> np.ndarray:
    """Soft-voted probabilities for ``encoded``, the transform of ``table``.

    Raises:
        NumericError: a probability that is not finite, as finite parameters
            or inputs at the edge of float range can give.
    """
    freq = (
        bundle.frequency_encoder.encode(table)
        if bundle.frequency_encoder is not None
        else None
    )
    probas = soft_vote(member_probabilities(bundle, encoded, freq))
    finite = np.isfinite(probas)
    if not finite.all():
        bad = int((~finite.all(axis=1)).sum())
        raise NumericError(f"probabilities are not finite in {bad} of {len(probas)} rows")
    return probas


def predict_on_table(bundle: ModelBundle, table: DataTable) -> np.ndarray:
    """Probabilities for every row of a raw table under a loaded bundle."""
    return combined_probabilities(bundle, transform(table, bundle.state), table)


def run_training(config: RunConfig) -> TrainOutcome:
    """Execute a full training run and return everything the CLI writes.

    Deterministic for a fixed config: data generation/loading, splitting,
    member seeding, and training contain no unseeded randomness.

    Raises:
        DataError: besides what loading, fitting and training raise, an empty
            train or test split, an empty validation split when a member is a
            network, or a train split that holds one class; each is raised
            before any member trains.
    """
    config.validate()
    table = load_training_table(config)
    classes = [MEMBER_CLASSES[kind] for kind in config.member_kinds()]
    for cls in classes:
        if cls is not GbdtModel:  # a booster needs no feature column; a net does
            cls.check_columns(table.schema)
    state = fit(table)
    encoded = transform(table, state)
    train_d, val_d, test_d = stratified_split(encoded, config.fractions, config.seed)
    # Every member trains on the train split and is scored on the test split;
    # only a network reads the validation split.
    nets = any(cls is not GbdtModel for cls in classes)
    fractions = "/".join(map(str, config.fractions))
    for name, split in (("train", train_d), ("validation", val_d), ("test", test_d)):
        if split.n_rows == 0 and (nets or name != "validation"):
            raise DataError(
                f"the {name} split is empty: {table.row_count} rows split at fractions "
                f"{fractions}; give more rows or a larger {name} fraction"
            )
    present = np.unique(train_d.labels)
    if len(present) < 2:
        raise DataError(
            f"the train split holds only class {table.schema.class_labels[present[0]]!r} "
            f"({train_d.n_rows} rows): {table.row_count} rows split at fractions "
            f"{fractions}; a model needs at least 2 classes to train on"
        )

    # Only the GBDT offers a choice of view; every other class reads its one view.
    views = [
        config.gbdt_feature_view if cls is GbdtModel else cls.feature_views[0]
        for cls in classes
    ]
    frequency_encoder = None
    frequency_matrix = None
    if "numeric+frequency" in views:
        frequency_encoder = FrequencyEncoder.fit(table, state, train_d.row_indices)
        frequency_matrix = frequency_encoder.encode(table)

    trained = []
    for index, (cls, view) in enumerate(zip(classes, views)):
        seed = config.seed + MEMBER_SEED_STRIDE * index
        trained.append(
            _train_member(cls, view, seed, state, train_d, val_d, frequency_matrix, config)
        )
    members = [model for model, _ in trained]

    bundle = ModelBundle(
        kind=config.model,
        state=state,
        members=members,
        frequency_encoder=frequency_encoder,
        run_summary=config.to_json_dict(),
    )

    class_labels = table.schema.class_labels
    member_probas = member_probabilities(bundle, test_d, frequency_matrix)
    report = evaluate(soft_vote(member_probas), test_d.labels, class_labels)
    member_reports = []
    if bundle.kind == "ensemble":
        member_reports = [
            (m.kind, evaluate(p, test_d.labels, class_labels))
            for m, p in zip(members, member_probas)
        ]

    logs = [
        (f"train_log_{i}_{m.kind}" if len(trained) > 1 else "train_log", log)
        for i, (m, log) in enumerate(trained)
    ]

    return TrainOutcome(bundle, report, member_reports, logs)
