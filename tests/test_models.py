import math
import tracemalloc

import numpy as np
import pytest
from gradcheck import gradient_check

from tabfuse import models
from tabfuse.errors import DataError, NumericError
from tabfuse.models import (
    BaselineMlp,
    EarlyStopper,
    EmbeddingFusionNet,
    FrequencyEncoder,
    TrainConfig,
    TrainLog,
    train,
)
from tabfuse.nn import Adam, softmax, softmax_cross_entropy
from tabfuse.preprocess import fit
from tabfuse.schema import ColumnKind, ColumnSpec, DataTable, TableSchema


def small_fusion_net(seed=0):
    return EmbeddingFusionNet(
        vocab_size=8,
        token_width=4,
        n_numeric=3,
        n_classes=3,
        embed_dim=4,
        hidden_width=6,
        fused_width=5,
        seed=seed,
    )


class TestEmbeddingFusionNet:
    def test_forward_shape(self):
        net = small_fusion_net()
        rng = np.random.default_rng(0)
        logits = net.forward(rng.normal(size=(7, 3)), rng.integers(0, 8, size=(7, 4)))
        assert logits.shape == (7, 3)

    def test_no_rows_give_no_probabilities(self):
        net = small_fusion_net()
        p = net.predict_proba(np.zeros((0, 3)), np.zeros((0, 4), dtype=np.int64))
        assert p.shape == (0, 3)

    def test_all_zero_params_give_uniform_probabilities(self):
        net = small_fusion_net()
        for p in net.params():
            p.value[...] = 0.0
        probas = net.predict_proba(np.ones((2, 3)), np.full((2, 4), 2))
        assert np.allclose(probas, 1.0 / 3.0)

    def test_numeric_branch_isolated_when_zeroed(self):
        net = small_fusion_net()
        net.num_linear.weight.value[...] = 0.0
        net.num_linear.bias.value[...] = 0.0
        tokens = np.array([[1, 2, 3, 0]])
        a = net.forward(np.array([[5.0, -1.0, 2.0]]), tokens)
        b = net.forward(np.array([[-9.0, 4.0, 0.0]]), tokens)
        assert np.array_equal(a, b)

    def test_token_branch_isolated_when_zeroed(self):
        net = small_fusion_net()
        net.embedding.weight.value[...] = 0.0
        numeric = np.array([[1.0, 2.0, 3.0]])
        a = net.forward(numeric, np.array([[1, 2, 3, 4]]))
        b = net.forward(numeric, np.array([[7, 0, 0, 5]]))
        assert np.array_equal(a, b)

    def test_seed_controls_initialization(self):
        a = small_fusion_net(seed=1)
        b = small_fusion_net(seed=1)
        c = small_fusion_net(seed=2)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa.value, pb.value)
        assert any(
            not np.array_equal(pa.value, pc.value)
            for pa, pc in zip(a.params(), c.params())
        )

    def test_predict_proba_rows_sum_to_one(self):
        net = small_fusion_net()
        rng = np.random.default_rng(1)
        p = net.predict_proba(rng.normal(size=(9, 3)), rng.integers(0, 8, size=(9, 4)))
        assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(p >= 0.0)

    def test_full_model_gradient_check(self):
        net = small_fusion_net()
        rng = np.random.default_rng(2)
        numeric = rng.normal(size=(4, 3))
        tokens = rng.integers(0, 8, size=(4, 4))
        labels = np.array([0, 1, 2, 1])

        def loss_fn():
            for p in net.params():
                p.zero_grad()
            tape = {}
            loss, grad = softmax_cross_entropy(net.forward(numeric, tokens, tape=tape), labels)
            net.backward(tape, grad)
            return loss

        report = gradient_check(loss_fn, net.params())
        assert report.max_rel_error < 1e-4

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="classes"):
            EmbeddingFusionNet(4, 2, 1, 1)


class TestBaselineMlp:
    def test_forward_shape(self):
        net = BaselineMlp(5, 4, hidden1=8, hidden2=6)
        assert net.forward(np.zeros((3, 5))).shape == (3, 4)

    def test_exactly_two_activation_slopes(self):
        net = BaselineMlp(5, 2)
        slopes = [p for p in net.params() if p.name.endswith(".slope")]
        assert len(slopes) == 2
        assert len(net.params()) == 8

    def test_gradient_check(self):
        net = BaselineMlp(3, 2, hidden1=6, hidden2=4, seed=1)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 3))
        y = np.array([0, 1, 0, 1, 1])

        def loss_fn():
            for p in net.params():
                p.zero_grad()
            tape = {}
            loss, grad = softmax_cross_entropy(net.forward(x, tape=tape), y)
            net.backward(tape, grad)
            return loss

        report = gradient_check(loss_fn, net.params())
        assert report.max_rel_error < 1e-6

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="classes"):
            BaselineMlp(3, 1)


def scoring_cases(rows, seed=0):
    """A fusion net and a baseline net of the benchmark's widths, each with ``rows`` inputs."""
    rng = np.random.default_rng(seed)
    fusion = EmbeddingFusionNet(60, 8, 6, 3, seed=seed)
    fusion_inputs = rng.normal(size=(rows, 6)), rng.integers(0, 60, size=(rows, 8))
    baseline = BaselineMlp(10, 3, seed=seed)
    return [(fusion, fusion_inputs), (baseline, (rng.normal(size=(rows, 10)),))]


def peak_bytes_per_row(net):
    """What scoring holds per row at its peak, the first dense layer's step. Fusion:
    that layer's input, the embedding's flat rows, and its output. The baseline: the
    first PReLU's input, the factor its output is written over, and its bool mask.
    Float cells take 8 bytes, bool cells 1."""
    if isinstance(net, EmbeddingFusionNet):
        return 8 * (net.cat_linear1.in_dim + net.cat_linear1.out_dim)
    return net.linear1.out_dim * (2 * 8 + 1)


@pytest.mark.parametrize("case", [0, 1], ids=["fusion", "baseline"])
def test_training_forward_runs_every_layer(case):
    """Every layer in ``layers`` is trained and saved, so each must be in a chain
    that ``forward`` runs: the tape of one training forward holds them all."""
    net, inputs = scoring_cases(10)[case]
    tape = {}
    net.forward(*inputs, tape=tape)
    assert set(tape) == set(net.layers)


class TestScoringReleasesLayerInputs:
    @pytest.mark.parametrize("case", [0, 1], ids=["fusion", "baseline"])
    def test_every_layer_input_is_dropped(self, case):
        """After train, and after scoring, the net and its layers hold no array
        but their parameters: no batch's or validation forward's input is kept."""
        net, inputs = scoring_cases(400)[case]
        labels = np.arange(400) % 3
        config = TrainConfig(batch_size=64, max_epochs=2, patience=1)

        def held():
            return [
                (type(layer).__name__, name, value.shape)
                for layer in (net, *net.layers)
                for name, value in vars(layer).items()
                if isinstance(value, np.ndarray)
            ]

        train(net, inputs, labels, inputs, labels, config)
        assert held() == []
        net.predict_proba(*inputs)
        assert held() == []

    @pytest.mark.parametrize("case", [0, 1], ids=["fusion", "baseline"])
    def test_scoring_retains_nothing_beyond_its_result(self, case):
        net, inputs = scoring_cases(5000)[case]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            probabilities = net.predict_proba(*inputs)
            retained = tracemalloc.get_traced_memory()[0] - before - probabilities.nbytes
        finally:
            tracemalloc.stop()
        assert retained < 2**20, f"{retained / 2**20:.2f} MiB retained"

    @pytest.mark.parametrize("case", [0, 1], ids=["fusion", "baseline"])
    def test_scoring_peak_is_one_layer_at_a_time(self, case):
        """Scoring frees each activation once the next layer has read it, so its
        peak is one layer step of its largest block: 5,000 rows run as blocks of
        1,024, 1,024, 1,024 and 1,928 rows."""
        net, inputs = scoring_cases(5000)[case]
        bound = 1928 * peak_bytes_per_row(net) + 2**18
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net.predict_proba(*inputs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"{peak / 2**20:.2f} MiB peak, bound {bound / 2**20:.2f} MiB"

    @pytest.mark.parametrize("case", [0, 1], ids=["fusion", "baseline"])
    def test_training_after_scoring_is_bit_equal(self, case):
        """forward, backward and Adam steps give the same bits with or without a
        predict_proba before each of them."""
        results = []
        for score_first in (False, True):
            net, inputs = scoring_cases(30, seed=4)[case]
            labels = np.arange(30) % 3
            optimizer = Adam(net.params(), learning_rate=0.01)
            for _ in range(3):
                if score_first:
                    net.predict_proba(*(a[::-1] for a in inputs))
                tape = {}
                _, grad = softmax_cross_entropy(net.forward(*inputs, tape=tape), labels)
                optimizer.zero_grad()
                net.backward(tape, grad)
                optimizer.step()
            results.append(optimizer.value.tobytes())
        assert results[0] == results[1]


def spy_forward(net, monkeypatch):
    """Row counts of each ``net.forward`` call without a tape, in call order."""
    seen, forward = [], net.forward

    def spy(*inputs, tape=None):
        if tape is None:
            seen.append(len(inputs[0]))
        return forward(*inputs, tape=tape)

    monkeypatch.setattr(net, "forward", spy)
    return seen


class TestRowBlocks:
    """A pass without a tape runs in row blocks of 1,024 to 2,047 rows. On the
    BLAS build at hand, products of at least 1,024 rows give the same bits as
    one whole-table product, so a blocked pass equals an unblocked one."""

    @pytest.mark.parametrize(
        "blocks",
        [[0], [1], [16], [1023], [1024], [2047], [1024, 1024], [1024, 1025],
         [1024, 1024, 1024, 1928], [1024, 1024, 1024, 1024 + 320]],
        ids=lambda blocks: str(sum(blocks)),
    )
    @pytest.mark.parametrize("case", [0, 1], ids=["fusion", "baseline"])
    def test_blocked_pass_is_bit_equal_to_one_pass(self, case, blocks, monkeypatch):
        """Each ``forward`` call gets 1,024 rows or more, the short tail joined
        to the last block, unless the whole table is smaller."""
        rows = sum(blocks)
        net, inputs = scoring_cases(rows, seed=rows)[case]
        whole = softmax(net.forward(*inputs))
        seen = spy_forward(net, monkeypatch)
        assert net.predict_proba(*inputs).tobytes() == whole.tobytes()
        assert seen == blocks

    @pytest.mark.parametrize("case", [0, 1], ids=["fusion", "baseline"])
    def test_blocked_validation_trains_the_same_bytes(self, case, monkeypatch):
        """A 5,000-row validation split, run in four blocks, gives the train
        log and parameters of one unblocked validation pass."""
        results = []
        for block in (models._ROW_BLOCK, 10**9):
            monkeypatch.setattr(models, "_ROW_BLOCK", block)
            net, inputs = scoring_cases(5300, seed=5)[case]
            labels = np.random.default_rng(5).integers(0, 3, size=5300)
            fit_rows, val_rows = slice(0, 300), slice(300, None)
            seen = spy_forward(net, monkeypatch)
            config = TrainConfig(learning_rate=0.01, batch_size=64, max_epochs=4, patience=3)
            _, log = train(
                net,
                tuple(a[fit_rows] for a in inputs),
                labels[fit_rows],
                tuple(a[val_rows] for a in inputs),
                labels[val_rows],
                config,
                seed=2,
            )
            blocks = [1024, 1024, 1024, 1928] if block == 1024 else [5000]
            assert seen == blocks * log.stopped_epoch
            params = b"".join(p.value.tobytes() for p in net.params())
            results.append((log.to_csv_text(), log.best_epoch, log.stopped_epoch, params))
        assert results[0] == results[1]

    @pytest.mark.parametrize("case", [0, 1], ids=["fusion", "baseline"])
    def test_scoring_peak_is_one_block(self, case):
        """A 20,000-row pass peaks at about one layer step of its largest
        block, 2,047 rows, plus the joined probabilities: a fraction of the
        whole-table layer step."""
        rows = 20000
        net, inputs = scoring_cases(rows)[case]
        bound = 2047 * peak_bytes_per_row(net) + rows * net.layers[-1].out_dim * 8 + 2**18
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net.predict_proba(*inputs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"{peak / 2**20:.2f} MiB peak, bound {bound / 2**20:.2f} MiB"


class TestUnequalRowCounts:
    """Network inputs of different row counts are one DataError that names the
    counts, not an answer from the rows that happen to line up."""

    def test_forward_refuses_inputs_that_would_broadcast(self):
        net, rng = small_fusion_net(), np.random.default_rng(0)
        with pytest.raises(DataError, match=r"network inputs .* got \[1, 5\]$"):
            net.forward(rng.normal(size=(1, 3)), rng.integers(0, 8, size=(5, 4)))

    def test_predict_proba_refuses_before_slicing_blocks(self):
        net, rng = small_fusion_net(), np.random.default_rng(0)
        with pytest.raises(DataError, match=r"network inputs .* got \[10, 12\]$"):
            net.predict_proba(rng.normal(size=(10, 3)), rng.integers(0, 8, size=(12, 4)))

    @pytest.mark.parametrize(
        "train_rows, val_rows, refused",
        [
            ((20, 20, 18), (10, 10, 10), r"training inputs and labels .* got \[20, 20, 18\]$"),
            ((20, 18, 20), (10, 10, 10), r"training inputs and labels .* got \[20, 18, 20\]$"),
            ((20, 20, 20), (10, 10, 12), r"validation inputs and labels .* got \[10, 10, 12\]$"),
            ((20, 20, 20), (10, 9, 10), r"validation inputs and labels .* got \[10, 9, 10\]$"),
        ],
        ids=["train-labels", "train-tokens", "validation-labels", "validation-tokens"],
    )
    def test_train_refuses_inputs_unlike_their_labels(self, train_rows, val_rows, refused):
        rng = np.random.default_rng(0)

        def split(numeric_rows, token_rows, label_rows):
            inputs = rng.normal(size=(numeric_rows, 3)), rng.integers(0, 8, size=(token_rows, 4))
            return inputs, np.arange(label_rows) % 3

        config = TrainConfig(batch_size=8, max_epochs=2, patience=1)
        with pytest.raises(DataError, match=refused):
            train(small_fusion_net(), *split(*train_rows), *split(*val_rows), config)

    def test_train_refuses_baseline_features_unlike_their_labels(self):
        features, labels = np.zeros((20, 5)), np.arange(18) % 4
        config = TrainConfig(batch_size=8, max_epochs=2, patience=1)
        with pytest.raises(DataError, match=r"training inputs and labels .* got \[20, 18\]$"):
            train(BaselineMlp(5, 4), (features,), labels, (features,), np.arange(20) % 4, config)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.001
        assert cfg.patience < cfg.max_epochs

    def test_patience_must_be_below_max_epochs(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(max_epochs=5, patience=5)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize(
        "counts", [{"batch_size": 1.5}, {"max_epochs": 2.5, "patience": 1}, {"patience": "2"}]
    )
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(ValueError, match="integers"):
            TrainConfig(**counts)

    @pytest.mark.parametrize("key", ["batch_size", "max_epochs", "patience"])
    def test_counts_must_not_be_bools(self, key):
        with pytest.raises(ValueError, match="integers"):
            TrainConfig(**{key: True})

    @pytest.mark.parametrize("key", ["learning_rate", "min_improvement"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True])
    def test_rates_must_be_finite_numbers(self, key, value):
        with pytest.raises(ValueError, match="must be finite numbers"):
            TrainConfig(**{key: value})

    def test_min_improvement_may_be_zero_but_not_negative(self):
        assert TrainConfig(min_improvement=0.0).min_improvement == 0.0
        with pytest.raises(ValueError, match="min_improvement >= 0"):
            TrainConfig(min_improvement=-1e-6)


class TestEarlyStopper:
    def test_stops_after_patience_consecutive_non_improvements(self):
        stopper = EarlyStopper(patience=3)
        losses = [1.0, 0.9, 0.85, 0.86, 0.87, 0.88]
        outcomes = [stopper.update(l, e) for e, l in enumerate(losses, start=1)]
        assert outcomes == [False, False, False, False, False, True]
        assert stopper.best_epoch == 3
        assert stopper.best_loss == 0.85

    def test_counter_resets_on_improvement(self):
        stopper = EarlyStopper(patience=2)
        assert not stopper.update(1.0, 1)
        assert not stopper.update(1.1, 2)
        assert not stopper.update(0.5, 3)
        assert not stopper.update(0.6, 4)
        assert stopper.update(0.7, 5)
        assert stopper.best_epoch == 3

    def test_improvement_must_exceed_threshold(self):
        stopper = EarlyStopper(patience=1, min_improvement=0.1)
        stopper.update(1.0, 1)
        assert stopper.update(0.95, 2)
        assert stopper.best_epoch == 1

    def test_improved_property(self):
        stopper = EarlyStopper(patience=2)
        stopper.update(1.0, 1)
        assert stopper.improved
        stopper.update(1.0, 2)
        assert not stopper.improved


def blob_data(n_per_class=20, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(loc=(-2.0, -2.0), scale=0.5, size=(n_per_class, 2))
    x1 = rng.normal(loc=(2.0, 2.0), scale=0.5, size=(n_per_class, 2))
    x = np.vstack([x0, x1])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return x, y


class TestTrain:
    def test_overfits_separable_blobs(self):
        x, y = blob_data()
        net = BaselineMlp(2, 2, hidden1=16, hidden2=8, seed=0)
        cfg = TrainConfig(
            learning_rate=0.02, batch_size=16, max_epochs=60, patience=59
        )
        net, log = train(net, (x,), y, (x,), y, cfg)
        preds = net.predict_proba(x).argmax(axis=1)
        assert (preds == y).mean() >= 0.95
        assert log.stopped_epoch >= 1
        assert len(log.train_losses) == log.stopped_epoch
        assert len(log.val_losses) == log.stopped_epoch
        assert len(log.val_accuracies) == log.stopped_epoch

    def test_deterministic_given_seeds(self):
        x, y = blob_data(seed=4)

        def run():
            net = BaselineMlp(2, 2, hidden1=8, hidden2=4, seed=5)
            cfg = TrainConfig(
                learning_rate=0.01, batch_size=8, max_epochs=10, patience=9
            )
            net, log = train(net, (x,), y, (x,), y, cfg, 3)
            return log, [p.value.copy() for p in net.params()]

        log_a, params_a = run()
        log_b, params_b = run()
        assert log_a.train_losses == log_b.train_losses
        assert log_a.val_losses == log_b.val_losses
        assert log_a.best_epoch == log_b.best_epoch
        for pa, pb in zip(params_a, params_b):
            assert np.array_equal(pa, pb)

    def test_early_stop_restores_best_epoch(self):
        """Val labels oppose train labels, so epoch 1 is the best epoch."""
        x = np.ones((16, 1))
        train_y = np.ones(16, dtype=np.int64)
        val_y = np.zeros(16, dtype=np.int64)
        net = BaselineMlp(1, 2, hidden1=4, hidden2=4, seed=0)
        cfg = TrainConfig(
            learning_rate=0.05, batch_size=16, max_epochs=30, patience=3
        )
        net, log = train(net, (x,), train_y, (x,), val_y, cfg)
        assert log.best_epoch == 1
        assert log.stopped_epoch == 1 + cfg.patience
        restored_loss, _ = softmax_cross_entropy(net.forward(x), val_y)
        assert restored_loss == log.val_losses[0]

    def test_flat_loss_counts_as_no_improvement(self):
        x, y = blob_data(n_per_class=8, seed=1)
        net = BaselineMlp(2, 2, hidden1=4, hidden2=4, seed=0)
        cfg = TrainConfig(
            learning_rate=1e-12, batch_size=16, max_epochs=20, patience=2
        )
        _, log = train(net, (x,), y, (x,), y, cfg)
        assert log.best_epoch == 1
        assert log.stopped_epoch == 3

    def test_empty_training_data_rejected(self):
        net = BaselineMlp(2, 2)
        cfg = TrainConfig(max_epochs=2, patience=1)
        with pytest.raises(DataError, match="non-empty"):
            train(
                net,
                (np.zeros((0, 2)),),
                np.zeros(0, dtype=np.int64),
                (np.zeros((1, 2)),),
                np.zeros(1, dtype=np.int64),
                cfg,
            )

    def test_non_finite_loss_raises_numeric_error(self):
        x, y = blob_data(n_per_class=4, seed=2)
        net = BaselineMlp(2, 2, hidden1=4, hidden2=4)
        net.linear3.weight.value[...] = np.inf
        cfg = TrainConfig(max_epochs=2, patience=1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite"):
                train(net, (x,), y, (x,), y, cfg)


class TestTrainLog:
    def test_csv_text_round_trips_floats(self):
        log = TrainLog(
            train_losses=[0.6931471805599453, 0.1],
            val_losses=[0.7, 0.2],
            val_accuracies=[0.5, 1.0],
            best_epoch=2,
            stopped_epoch=2,
        )
        lines = log.to_csv_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,val_accuracy"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == 0.6931471805599453


def color_schema():
    return TableSchema(
        (
            ColumnSpec("x", ColumnKind.NUMERICAL),
            ColumnSpec("color", ColumnKind.CATEGORICAL),
            ColumnSpec("label", ColumnKind.CATEGORICAL),
        ),
        target="label",
        class_labels=("no", "yes"),
    )


def color_table():
    return DataTable(
        color_schema(),
        (
            ("1", "red", "no"),
            ("2", "red", "no"),
            ("3", "Red", "yes"),
            ("4", "blue", "yes"),
            ("5", "BLUE", "no"),
            ("6", None, "yes"),
        ),
    )


class TestFrequencyEncoder:
    def test_frequencies_from_training_rows_only(self):
        table = color_table()
        state = fit(table)
        enc = FrequencyEncoder.fit(table, state, np.arange(5))
        # 5 train rows, lowercased: red x3, blue x2
        assert enc.tables["color"]["red"] == 0.6
        assert enc.tables["color"]["blue"] == 0.4

    def test_frequencies_sum_to_one(self):
        table = color_table()
        state = fit(table)
        enc = FrequencyEncoder.fit(table, state, np.arange(6))
        assert abs(sum(enc.tables["color"].values()) - 1.0) < 1e-12

    def test_encode_folds_case_and_imputes_mode(self):
        table = color_table()
        state = fit(table)
        enc = FrequencyEncoder.fit(table, state, np.arange(5))
        out = enc.encode(table)
        assert out.shape == (6, 1)
        assert out[2, 0] == 0.6  # "Red" folds to "red"
        assert out[5, 0] == 0.6  # missing cell imputes to the mode "red"

    def test_unseen_value_encodes_to_zero(self):
        table = color_table()
        state = fit(table)
        enc = FrequencyEncoder.fit(table, state, np.arange(5))
        probe = DataTable(color_schema(), (("1", "green", "no"),))
        assert enc.encode(probe)[0, 0] == 0.0

    def test_row_order_and_repeats_do_not_matter(self):
        table = color_table()
        state = fit(table)
        messy = FrequencyEncoder.fit(table, state, np.array([4, 0, 2, 4, 1, 0]))
        clean = FrequencyEncoder.fit(table, state, np.array([0, 1, 2, 4]))
        assert messy == clean
        assert list(messy.tables["color"].items()) == list(clean.tables["color"].items())

    def test_empty_training_rows_rejected(self):
        table = color_table()
        state = fit(table)
        with pytest.raises(DataError, match="at least one row"):
            FrequencyEncoder.fit(table, state, np.array([], dtype=np.int64))

    def test_json_round_trip(self):
        table = color_table()
        state = fit(table)
        enc = FrequencyEncoder.fit(table, state, np.arange(5))
        again = FrequencyEncoder.from_json_dict(enc.to_json_dict(), state)
        assert again == enc
