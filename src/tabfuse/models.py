"""Network assemblies and the training loop.

Two classifiers share one training interface, and ``_Net`` runs both. Each
lists its branches, ``(input position, chain)`` pairs whose outputs are
summed, and a head chain run on the sum; a chain is a tuple of layers.

* EmbeddingFusionNet: a token branch (the embedding's flat rows through two
  PReLU-activated dense layers to a 16-wide vector), a numeric branch
  (standardized numerics through one PReLU-activated dense layer to the same
  width), and a head of a final PReLU and the classifier.
* BaselineMlp: one branch of three dense layers with PReLU after the first
  two, over the standardized numerics and one frequency-encoded value per
  categorical column, and an empty head.

Both nets are sized from the preprocessing state by ``from_state``, for
training and for decoding. A payload holds only their parameters: each
layer width is read from the shape of a stored weight.

Training is mini-batch Adam with a seeded shuffle per epoch, epoch-level
validation, and early stopping that restores the best-epoch snapshot. A
diverging run ends in one ``NumericError``: numpy's overflow and invalid
warnings are off inside the loop, as its finite loss checks report them.
Scoring and the validation pass run in row blocks of 1,024 to 2,047 rows
(``_Net._blocked``), so their activations are bounded by one block, not by
the table; a pass of fewer than 2,048 rows is one block of the same loop.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError
from .nn import Adam, Embedding, Linear, Param, PReLU, softmax, softmax_cross_entropy
from .packed import FLOAT, fields, pack, unpack
from .preprocess import PreprocessState
from .schema import DataTable, TableSchema


def _param(params: dict, name: str) -> np.ndarray:
    if name not in params:
        raise DataError(f"bundle is missing parameter {name!r}")
    return params[name]


# Rows per block of a pass without a tape. On the OpenBLAS build this was
# sized on, products of 1,024 rows or more gave the same bits as one
# whole-table product, and 512-row blocks did not; see README "Predict output".
_ROW_BLOCK = 1024


def _run(chain: tuple, x: np.ndarray, tape: dict | None) -> np.ndarray:
    """``x`` through each layer of ``chain``, each handed ``tape``."""
    for layer in chain:
        x = layer.forward(x, tape)
    return x


def _back(chain: tuple, tape: dict, grad: np.ndarray) -> np.ndarray:
    """``grad`` back through ``chain`` in reverse, each layer handed its entry from ``tape``."""
    for layer in reversed(chain):
        grad = layer.backward(tape[layer], grad)
    return grad


def _width(params: dict, name: str, axis: int, size: int) -> int:
    """The other axis of 2-d weight ``name``, once its ``axis`` is checked to be ``size``."""
    shape = _param(params, name).shape
    if len(shape) != 2 or shape[axis] != size:
        raise DataError(
            f"parameter {name!r} has shape {shape}, expected 2 axes with {size} along axis {axis}"
        )
    return shape[1 - axis]


def _rows(arrays, what: str) -> int:
    """The row count ``arrays`` share; a ``DataError`` naming the counts if they differ."""
    rows = len(arrays[0])
    for a in arrays:
        if len(a) != rows:
            raise DataError(f"{what} must have equal row counts, got {[len(a) for a in arrays]}")
    return rows


class _Net:
    """What both networks share: their only ``forward`` and ``backward``,
    parameters, softmax probabilities, and a payload of those parameters.

    ``forward(*inputs, tape=None)`` runs each of ``branches`` on its input,
    adds their outputs in order, and runs ``head`` on the sum, each layer
    putting what its backward reads on ``tape`` (a dict keyed by layer) when
    given one; inputs of unequal row counts are refused. ``backward(tape,
    grad)`` runs the head back, then every branch from the same gradient.
    Only a training step passes a tape, and it is never split. A pass without
    one goes through ``_blocked``: one ``forward`` per row block, each
    activation freed once the next layer has read it, so ``predict_proba``
    holds about one layer's input and output for at most 2,047 rows at a
    time and leaves no activations behind.

    A payload gives no width: each is read from a stored weight whose other
    axis the state or an earlier width fixes (``widths_from``), so a net is
    never built larger than the weights the document holds. Each subclass
    names ``predict_proba`` in its own namespace, so a profiler that wraps
    class attributes can time each kind.

    A net reads one feature view, its class's only one, so a bundle records
    no view for it.
    """

    @property
    def feature_view(self) -> str:
        return self.feature_views[0]

    @property
    def layers(self) -> tuple:
        return (*(layer for _, chain in self.branches for layer in chain), *self.head)

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, *inputs: np.ndarray, tape: dict | None = None) -> np.ndarray:
        _rows(inputs, "network inputs")
        (first, chain), *rest = self.branches
        x = _run(chain, inputs[first], tape)
        # each branch ends in a layer whose output no tape holds, so the sum reuses it
        for position, chain in rest:
            x += _run(chain, inputs[position], tape)
        return _run(self.head, x, tape)

    def backward(self, tape: dict, grad: np.ndarray) -> None:
        grad = _back(self.head, tape, grad)
        for _, chain in self.branches:
            _back(chain, tape, grad)

    def predict_proba(self, *inputs: np.ndarray) -> np.ndarray:
        return self._blocked(inputs, softmax)

    def _blocked(self, inputs: tuple[np.ndarray, ...], finish) -> np.ndarray:
        """``finish`` of the logits of ``inputs``, run without a tape in blocks
        of ``_ROW_BLOCK`` rows and joined in row order. The short tail joins the
        last block, so each holds ``_ROW_BLOCK`` to ``2 * _ROW_BLOCK - 1`` rows,
        and fewer than ``2 * _ROW_BLOCK`` rows, 0 included, are one block."""
        rows = _rows(inputs, "network inputs")
        # each net's last layer is its classifier
        out = np.empty((rows, self.layers[-1].out_dim))
        starts = range(0, max(rows - _ROW_BLOCK, 0) + 1, _ROW_BLOCK)
        for block in map(slice, starts, [*starts[1:], rows]):
            out[block] = finish(self.forward(*(a[block] for a in inputs)))
        return out

    def to_json_dict(self) -> dict:
        return {"params": {p.name: pack(p.value, FLOAT) for p in self.params()}}

    @classmethod
    def from_json_dict(cls, doc: dict, state: PreprocessState):
        """Decode a net of ``state`` from its parameters.

        Raises:
            DataError: what ``fields`` or ``unpack`` refuses, a missing or
                unknown parameter, or a shape that does not fit the state or
                the other weights.
        """
        (params,) = fields(doc, ("params",), f"{cls.kind} payload")
        params = {name: unpack(v, FLOAT, f"parameter {name!r}") for name, v in params.items()}
        model = cls.from_state(state, **cls.widths_from(params, state))
        unknown = sorted(set(params) - {p.name for p in model.params()})
        if unknown:
            raise DataError(f"{cls.kind} payload holds unknown parameters {unknown}")
        for p in model.params():
            arr = _param(params, p.name)
            if arr.shape != p.value.shape:
                raise DataError(
                    f"parameter {p.name!r} has shape {arr.shape}, expected {p.value.shape}"
                )
            p.value[...] = arr
        return model


class EmbeddingFusionNet(_Net):
    """Token-embedding branch fused with a numeric branch by addition.

    Args:
        vocab_size: total offset-combined vocabulary size (embedding rows).
        token_width: number of padded token positions per row (S).
        n_numeric: numeric feature count (N).
        n_classes: output classes (K).
        embed_dim: embedding width d, default 16.
        hidden_width: width of the first categorical dense layer, default 32.
        fused_width: width both branches are projected to, default 16.
        seed: initialization seed.
    """

    kind = "fusion"
    feature_views = ("numeric,tokens",)

    def __init__(
        self,
        vocab_size: int,
        token_width: int,
        n_numeric: int,
        n_classes: int,
        embed_dim: int = 16,
        hidden_width: int = 32,
        fused_width: int = 16,
        seed: int = 0,
    ):
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        rng = np.random.default_rng(seed)
        self.embedding = Embedding(max(vocab_size, 1), embed_dim, rng, "embedding")
        self.cat_linear1 = Linear(token_width * embed_dim, hidden_width, rng, "cat1")
        self.cat_act1 = PReLU("cat1.act")
        self.cat_linear2 = Linear(hidden_width, fused_width, rng, "cat2")
        self.cat_act2 = PReLU("cat2.act")
        self.num_linear = Linear(n_numeric, fused_width, rng, "num")
        self.num_act = PReLU("num.act")
        self.fusion_act = PReLU("fusion.act")
        self.classifier = Linear(fused_width, n_classes, rng, "classifier")
        # inputs are (numeric, tokens); tokens first keeps parameter order and scoring peak
        tokens = (self.embedding, self.cat_linear1, self.cat_act1, self.cat_linear2, self.cat_act2)
        self.branches = ((1, tokens), (0, (self.num_linear, self.num_act)))
        self.head = (self.fusion_act, self.classifier)

    predict_proba = _Net.predict_proba

    @staticmethod
    def check_columns(schema: TableSchema) -> None:
        """Refuse a schema without a feature column for each branch."""
        for kind, names in (
            ("numeric", schema.numeric_feature_names),
            ("categorical", schema.categorical_feature_names),
        ):
            if not names:
                raise DataError(f"fusion needs a {kind} feature column; the schema has none")

    @classmethod
    def from_state(cls, state: PreprocessState, **kwargs) -> "EmbeddingFusionNet":
        """A net sized for ``state``; ``kwargs`` are the other constructor arguments."""
        schema = state.schema
        sizes = state.total_vocab_size, state.total_padded_width, len(schema.numeric_feature_names)
        return cls(*sizes, schema.n_classes, **kwargs)

    @staticmethod
    def widths_from(params: dict, state: PreprocessState) -> dict:
        embed_dim = _width(params, "embedding.weight", 0, max(state.total_vocab_size, 1))
        hidden_width = _width(params, "cat1.weight", 1, state.total_padded_width * embed_dim)
        fused_width = _width(params, "cat2.weight", 1, hidden_width)
        return {"embed_dim": embed_dim, "hidden_width": hidden_width, "fused_width": fused_width}

    def describe(self) -> str:
        dim, width = self.embedding.dim, self.cat_linear1.in_dim
        return f"embed dim {dim}, token width {width // dim}, numerics {self.num_linear.in_dim}"


class BaselineMlp(_Net):
    """Plain MLP over numerics plus per-column frequency-encoded categoricals."""

    kind = "baseline"
    feature_views = ("numeric+frequency",)

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        hidden1: int = 64,
        hidden2: int = 32,
        seed: int = 0,
    ):
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        rng = np.random.default_rng(seed)
        self.linear1 = Linear(n_features, hidden1, rng, "mlp1")
        self.act1 = PReLU("mlp1.act")
        self.linear2 = Linear(hidden1, hidden2, rng, "mlp2")
        self.act2 = PReLU("mlp2.act")
        self.linear3 = Linear(hidden2, n_classes, rng, "mlp3")
        self.branches = ((0, (self.linear1, self.act1, self.linear2, self.act2, self.linear3)),)
        self.head = ()

    predict_proba = _Net.predict_proba

    @staticmethod
    def check_columns(schema: TableSchema) -> None:
        """Refuse a schema without a feature column."""
        if not (schema.numeric_feature_names or schema.categorical_feature_names):
            raise DataError(
                "baseline needs a numeric or categorical feature column; the schema has neither"
            )

    @classmethod
    def from_state(cls, state: PreprocessState, **kwargs) -> "BaselineMlp":
        """An MLP sized for ``state``; ``kwargs`` are the other constructor arguments."""
        return cls(state.view_width(cls.feature_views[0]), state.schema.n_classes, **kwargs)

    @classmethod
    def widths_from(cls, params: dict, state: PreprocessState) -> dict:
        hidden1 = _width(params, "mlp1.weight", 1, state.view_width(cls.feature_views[0]))
        return {"hidden1": hidden1, "hidden2": _width(params, "mlp2.weight", 1, hidden1)}

    def describe(self) -> str:
        return f"input width {self.linear1.in_dim}"


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 64
    max_epochs: int = 50
    patience: int = 5
    min_improvement: float = 1e-6

    def __post_init__(self):
        counts = (self.batch_size, self.max_epochs, self.patience)
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in counts):
            raise ValueError("batch_size, max_epochs, and patience must be integers")
        rates = (self.learning_rate, self.min_improvement)
        if any(isinstance(r, bool) or not math.isfinite(r) for r in rates):
            raise ValueError("learning_rate and min_improvement must be finite numbers")
        if self.learning_rate <= 0 or self.min_improvement < 0:
            raise ValueError("learning_rate must be positive, min_improvement >= 0")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs, and patience must be positive")
        if self.patience >= self.max_epochs:
            raise ValueError("patience must be smaller than max_epochs")


@dataclass
class TrainLog:
    """Per-epoch history; epochs are 1-based."""

    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0

    def to_csv_text(self) -> str:
        lines = ["epoch,train_loss,val_loss,val_accuracy"]
        rows = zip(self.train_losses, self.val_losses, self.val_accuracies)
        for i, (tl, vl, va) in enumerate(rows, start=1):
            lines.append(f"{i},{tl!r},{vl!r},{va!r}")
        return "\n".join(lines) + "\n"


class EarlyStopper:
    """Stop when validation loss fails to improve for `patience` epochs.

    Improvement means a decrease of more than `min_improvement` below the
    best loss seen, which avoids stalling on float jitter.
    """

    def __init__(self, patience: int, min_improvement: float = 1e-6):
        self.patience = patience
        self.min_improvement = min_improvement
        self.best_loss = np.inf
        self.best_epoch = 0
        self.bad_epochs = 0

    def update(self, val_loss: float, epoch: int) -> bool:
        """Record one epoch's validation loss; returns True to stop."""
        if val_loss < self.best_loss - self.min_improvement:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        return self.bad_epochs >= self.patience

    @property
    def improved(self) -> bool:
        return self.bad_epochs == 0


def train(
    model,
    train_inputs: tuple[np.ndarray, ...],
    train_labels: np.ndarray,
    val_inputs: tuple[np.ndarray, ...],
    val_labels: np.ndarray,
    config: TrainConfig,
    seed: int = 0,
):
    """Mini-batch Adam with early stopping; restores the best-epoch snapshot.

    Inputs are tuples of arrays aligned on axis 0 and splatted into
    ``model.forward``. Each mini-batch step passes a fresh tape, which
    ``model.backward`` reads and the step then drops; the per-epoch
    validation pass runs without one, in the row blocks of ``_blocked``, so
    no activations outlive a step or the call. The model is mutated in
    place. The snapshot is one copy of the optimizer's flat parameter
    vector, taken at each epoch that lowers the validation loss; on return
    the parameters hold the last one. ``seed`` seeds the per-epoch shuffle.

    Returns:
        (model, TrainLog)

    Raises:
        DataError: empty data, or inputs and labels of unequal row counts.
        NumericError: loss became non-finite.
    """
    n = _rows((*train_inputs, train_labels), "training inputs and labels")
    if n == 0 or _rows((*val_inputs, val_labels), "validation inputs and labels") == 0:
        raise DataError("training and validation sets must be non-empty")
    optimizer = Adam(model.params(), learning_rate=config.learning_rate)
    stopper = EarlyStopper(config.patience, config.min_improvement)
    rng = np.random.default_rng(seed)
    log = TrainLog()
    best = optimizer.value.copy()

    # A diverging step overflows before its loss does; the finite checks below
    # refuse the result, so numpy's warnings would only repeat them.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            perm = rng.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, config.batch_size):
                idx = perm[start : start + config.batch_size]
                batch = tuple(a.take(idx, axis=0) for a in train_inputs)
                tape = {}
                logits = model.forward(*batch, tape=tape)
                loss, grad = softmax_cross_entropy(logits, train_labels.take(idx))
                if not math.isfinite(loss):
                    raise NumericError(
                        f"training loss became non-finite at epoch {epoch}"
                    )
                optimizer.zero_grad()
                model.backward(tape, grad)
                optimizer.step()
                loss_sum += loss * len(idx)
            log.train_losses.append(loss_sum / n)

            val_logits = model._blocked(val_inputs, lambda logits: logits)
            val_loss, _ = softmax_cross_entropy(val_logits, val_labels)
            if not math.isfinite(val_loss):
                raise NumericError(f"validation loss became non-finite at epoch {epoch}")
            log.val_losses.append(val_loss)
            log.val_accuracies.append(
                float((val_logits.argmax(axis=1) == val_labels).mean())
            )

            should_stop = stopper.update(val_loss, epoch)
            if stopper.improved:
                best = optimizer.value.copy()
            log.stopped_epoch = epoch
            if should_stop:
                break

    optimizer.value[...] = best
    log.best_epoch = stopper.best_epoch
    return model, log


@dataclass(frozen=True)
class FrequencyEncoder:
    """Per categorical column of ``state``, maps a raw value to its training frequency.

    Values are imputed with the state's mode, then lowercased, so casing
    differences collapse to one category. Values unseen in the training
    split encode to 0.0. Frequencies over a fitted column sum to 1.
    """

    state: PreprocessState
    tables: dict[str, dict[str, float]]

    @classmethod
    def fit(
        cls, table: DataTable, state: PreprocessState, row_indices: np.ndarray
    ) -> "FrequencyEncoder":
        """Count value frequencies over the given rows (the training split).

        Each distinct row index counts once, whatever order it comes in.
        """
        rows = np.unique(np.asarray(row_indices, dtype=np.int64)).tolist()
        if not rows:
            raise DataError("frequency encoder needs at least one row")
        tables = {}
        for name in state.schema.categorical_feature_names:
            mode = state.vocabularies[name].mode_value
            cells = table.column(name)
            counts = Counter(
                (mode if cells[r] is None else cells[r]).lower() for r in rows
            )
            tables[name] = {v: c / len(rows) for v, c in counts.items()}
        return cls(state, tables)

    def encode(self, table: DataTable) -> np.ndarray:
        """One column per categorical column of the state, shape (rows, C)."""
        columns = self.state.schema.categorical_feature_names
        out = np.zeros((table.row_count, len(columns)), dtype=np.float64)
        for j, name in enumerate(columns):
            freq, mode = self.tables[name], self.state.vocabularies[name].mode_value
            out[:, j] = [
                freq.get((mode if c is None else c).lower(), 0.0)
                for c in table.column(name)
            ]
        return out

    def to_json_dict(self) -> dict:
        """Each table as its key list and one packed array of frequencies."""
        return {
            "tables": {
                name: {"keys": list(table), "values": pack(list(table.values()), FLOAT)}
                for name, table in self.tables.items()
            }
        }

    @classmethod
    def from_json_dict(cls, doc: dict, state: PreprocessState) -> "FrequencyEncoder":
        """Decode an encoder of ``state``.

        Raises:
            DataError: what ``fields`` or ``unpack`` refuses, tables not keyed
                by the state's categorical columns, keys that are not distinct
                strings, or a key count that is not the value count.
        """
        (tables,) = fields(doc, ("tables",), "frequency encoder")
        if list(tables) != list(state.schema.categorical_feature_names):
            raise DataError("frequency tables must follow the state's categorical columns")
        decoded = {}
        for name, table in tables.items():
            what = f"frequency table {name!r}"
            keys, values = fields(table, ("keys", "values"), what)
            values = unpack(values, FLOAT, what, ndim=1)
            if not (isinstance(keys, list) and set(map(type, keys)) <= {str}):
                raise DataError(f"{what} keys must be a list of strings")
            if len(set(keys)) != len(keys) or len(keys) != len(values):
                raise DataError(f"{what} needs distinct keys, one per value")
            decoded[name] = dict(zip(keys, values.tolist()))
        return cls(state, decoded)
