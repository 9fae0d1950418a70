"""Acceptance gate: nine end-to-end properties with pinned tolerances.

Each test prints one pass/fail line (collected into the terminal summary)
and then asserts. Tolerances and runtime caps are stated inline next to
each check.
"""

import json
import time

import numpy as np
from gradcheck import gradient_check
from split_search import binned_split

from tabfuse.cli import main
from tabfuse.ensemble import soft_vote
from tabfuse.gbdt import GbdtConfig, train_gbdt
from tabfuse.metrics import auroc_ovr, evaluate
from tabfuse.models import (
    BaselineMlp,
    EmbeddingFusionNet,
    FrequencyEncoder,
    TrainConfig,
    train,
)
from tabfuse.nn import softmax_cross_entropy
from tabfuse.pipeline import (
    RunConfig,
    build_features,
    load_training_table,
    predict_on_table,
    run_training,
)
from tabfuse.preprocess import EncodedDataset, fit, stratified_split, transform
from tabfuse.schema import ColumnKind, ColumnSpec, DataTable, TableSchema, save_schema
from tabfuse.synthetic import generate_synthetic


def record(lines, number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number} ({name}): {status} - {detail}"
    print(line)
    lines.append(line)
    assert ok, line


def feature_schema(n_numeric, n_categorical, n_classes):
    cols = [ColumnSpec(f"num{i}", ColumnKind.NUMERICAL) for i in range(n_numeric)]
    cols += [ColumnSpec(f"cat{i}", ColumnKind.CATEGORICAL) for i in range(n_categorical)]
    cols.append(ColumnSpec("target", ColumnKind.CATEGORICAL))
    return TableSchema(
        tuple(cols),
        target="target",
        class_labels=tuple(f"class{j}" for j in range(n_classes)),
    )


def test_criterion_1_gradient_fidelity(acceptance_lines):
    """Analytic gradients of the full fusion network vs central differences.

    4 rows, embedding width 4, 3 numeric features, two categorical columns;
    relative error below 1e-4; runtime under 10 s.
    """
    schema = TableSchema(
        (
            ColumnSpec("n1", ColumnKind.NUMERICAL),
            ColumnSpec("n2", ColumnKind.NUMERICAL),
            ColumnSpec("n3", ColumnKind.NUMERICAL),
            ColumnSpec("complaint", ColumnKind.CATEGORICAL),
            ColumnSpec("arrival", ColumnKind.CATEGORICAL),
            ColumnSpec("outcome", ColumnKind.CATEGORICAL),
        ),
        target="outcome",
        class_labels=("a", "b"),
    )
    table = DataTable(
        schema,
        (
            ("0.5", "1.0", "-2.0", "chest pain", "walk in", "a"),
            ("1.5", "0.0", "3.0", "short breath", "ambulance", "b"),
            ("-1.0", "2.0", "0.5", "chest tightness pain", "walk in", "a"),
            ("2.5", "-1.0", "1.0", "breath issue", "transfer", "b"),
        ),
    )
    started = time.perf_counter()
    state = fit(table)
    encoded = transform(table, state)
    net = EmbeddingFusionNet(
        vocab_size=state.total_vocab_size,
        token_width=state.total_padded_width,
        n_numeric=3,
        n_classes=2,
        embed_dim=4,
        seed=0,
    )
    # Move parameters off their tiny init so no activation sits within the
    # finite-difference step of a kink, where central differences are invalid
    # for any piecewise-linear unit.
    jitter = np.random.default_rng(3)
    for p in net.params():
        p.value += jitter.normal(scale=0.3, size=p.value.shape)  # in place

    def loss_fn():
        for p in net.params():
            p.zero_grad()
        tape = {}
        loss, grad = softmax_cross_entropy(
            net.forward(encoded.numeric, encoded.tokens, tape=tape), encoded.labels
        )
        net.backward(tape, grad)
        return loss

    report = gradient_check(loss_fn, net.params())  # h = 1e-5 central differences
    elapsed = time.perf_counter() - started
    ok = report.max_rel_error < 1e-4 and elapsed < 10.0
    record(
        acceptance_lines,
        1,
        "gradient fidelity",
        ok,
        f"max rel err {report.max_rel_error:.3e} (tol 1e-4), "
        f"worst {report.worst_param}, {elapsed:.2f}s < 10s",
    )


def test_criterion_2_overfit_oracle(acceptance_lines):
    """Both networks memorize a 200-row separable synthetic set.

    Fusion needs 99% training accuracy, the baseline 95%, each within 200
    epochs and 60 s combined.
    """
    started = time.perf_counter()
    schema = feature_schema(3, 2, 2)
    table = generate_synthetic(
        schema, 200, seed=7, missing_fraction=0.0, numeric_signal=3.0, token_signal=0.9
    )
    state = fit(table)
    encoded = transform(table, state)
    config = TrainConfig(
        learning_rate=0.01, batch_size=32, max_epochs=200, patience=199
    )

    net = EmbeddingFusionNet(
        state.total_vocab_size,
        state.total_padded_width,
        len(state.schema.numeric_feature_names),
        2,
        seed=0,
    )
    net, _ = train(
        net,
        (encoded.numeric, encoded.tokens),
        encoded.labels,
        (encoded.numeric, encoded.tokens),
        encoded.labels,
        config,
    )
    fusion_acc = float(
        (net.predict_proba(encoded.numeric, encoded.tokens).argmax(1) == encoded.labels).mean()
    )

    freq = FrequencyEncoder.fit(table, state, np.arange(table.row_count))
    x = build_features("numeric+frequency", encoded, freq.encode(table))
    mlp = BaselineMlp(x.shape[1], 2, seed=0)
    mlp, _ = train(mlp, (x,), encoded.labels, (x,), encoded.labels, config)
    baseline_acc = float((mlp.predict_proba(x).argmax(1) == encoded.labels).mean())

    elapsed = time.perf_counter() - started
    ok = fusion_acc >= 0.99 and baseline_acc >= 0.95 and elapsed < 60.0
    record(
        acceptance_lines,
        2,
        "overfit oracle",
        ok,
        f"fusion train acc {fusion_acc:.4f} (need 0.99), "
        f"baseline {baseline_acc:.4f} (need 0.95), {elapsed:.1f}s < 60s",
    )


def test_criterion_3_relative_ordering(acceptance_lines):
    """5000-row run: fusion must stay within 2 points of the baseline.

    The trend checks (fusion >= baseline, ensemble >= min of its members)
    are logged but only the 2-point margin gates.
    """
    schema = feature_schema(4, 3, 3)
    table = generate_synthetic(schema, 5000, seed=13)
    state = fit(table)
    encoded = transform(table, state)
    train_d, val_d, test_d = stratified_split(encoded, (0.8, 0.1, 0.1), seed=13)
    config = TrainConfig(
        learning_rate=0.005, batch_size=64, max_epochs=30, patience=8
    )

    net = EmbeddingFusionNet(
        state.total_vocab_size,
        state.total_padded_width,
        len(state.schema.numeric_feature_names),
        3,
        seed=13,
    )
    net, _ = train(
        net,
        (train_d.numeric, train_d.tokens),
        train_d.labels,
        (val_d.numeric, val_d.tokens),
        val_d.labels,
        config,
        13,
    )
    fusion_probas = net.predict_proba(test_d.numeric, test_d.tokens)
    fusion_acc = float((fusion_probas.argmax(1) == test_d.labels).mean())

    freq = FrequencyEncoder.fit(table, state, train_d.row_indices)
    freq_matrix = freq.encode(table)
    mlp = BaselineMlp(
        build_features("numeric+frequency", train_d, freq_matrix).shape[1], 3, seed=13
    )
    mlp, _ = train(
        mlp,
        (build_features("numeric+frequency", train_d, freq_matrix),),
        train_d.labels,
        (build_features("numeric+frequency", val_d, freq_matrix),),
        val_d.labels,
        config,
        13,
    )
    baseline_acc = float(
        (
            mlp.predict_proba(build_features("numeric+frequency", test_d, freq_matrix)).argmax(1)
            == test_d.labels
        ).mean()
    )

    gbdt_model, _ = train_gbdt(
        build_features("numeric+tokens", train_d, None),
        train_d.labels,
        3,
        GbdtConfig(rounds=30, max_depth=3, max_leaves=8),
    )
    gbdt_probas = gbdt_model.predict_proba(build_features("numeric+tokens", test_d, None))
    gbdt_acc = float((gbdt_probas.argmax(1) == test_d.labels).mean())

    ensemble_acc = float(
        (soft_vote([fusion_probas, gbdt_probas]).argmax(1) == test_d.labels).mean()
    )

    trend_fusion = fusion_acc >= baseline_acc
    trend_ensemble = ensemble_acc >= min(fusion_acc, gbdt_acc)
    gate = fusion_acc >= baseline_acc - 0.02
    record(
        acceptance_lines,
        3,
        "relative ordering",
        gate,
        f"fusion {fusion_acc:.4f} vs baseline {baseline_acc:.4f} "
        f"(gate: margin >= -0.02), gbdt {gbdt_acc:.4f}, ensemble {ensemble_acc:.4f}; "
        f"trends (non-gating): fusion>=baseline {trend_fusion}, "
        f"ensemble>=min(members) {trend_ensemble}",
    )


def test_criterion_4_split_fidelity(acceptance_lines):
    """Per-class split counts stay within one sample of the exact shares."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(2, 6))
        class_counts = rng.integers(3, 40, size=k)
        labels = np.repeat(np.arange(k), class_counts)
        n = len(labels)
        data = EncodedDataset(
            numeric=np.zeros((n, 1)),
            tokens=np.zeros((n, 1), dtype=np.int64),
            labels=labels,
            row_indices=np.arange(n),
        )
        raw = rng.uniform(0.1, 0.8, size=3)
        fractions = tuple(raw / raw.sum())
        splits = stratified_split(data, fractions, seed=int(rng.integers(0, 10_000)))
        assert sum(s.n_rows for s in splits) == n
        for cls in range(k):
            members = int(class_counts[cls])
            for frac, part in zip(fractions, splits):
                got = int((part.labels == cls).sum())
                deviation = abs(got - frac * members)
                worst = max(worst, deviation)
    ok = worst <= 1.0
    record(
        acceptance_lines,
        4,
        "split fidelity",
        ok,
        f"100 random class layouts, worst per-class deviation {worst:.3f} samples (cap 1)",
    )


def test_criterion_5_metrics_oracle(acceptance_lines):
    """Hand confusion-matrix values exact; rank AUROC equals pair counting."""
    y_true = np.array([0] * 10 + [1] * 10)
    y_pred = [0] * 8 + [1] * 2 + [0] * 3 + [1] * 7
    probas = np.array([[0.9, 0.1] if p == 0 else [0.2, 0.8] for p in y_pred])
    report = evaluate(probas, y_true)
    oracle_ok = (
        np.array_equal(report.confusion, [[8, 2], [3, 7]])
        and report.accuracy == 0.75
        and report.per_class[0].precision == 8 / 11
        and report.per_class[0].recall == 0.8
    )

    rng = np.random.default_rng(55)
    max_diff = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 201))  # datasets of at most 200 samples
        if trial % 3 == 0:
            scores = rng.choice([0.2, 0.4, 0.6, 0.8], size=n)  # forces rank ties
        else:
            scores = rng.uniform(size=n)
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[-1] = 0, 1
        pos = scores[labels.astype(bool)]
        neg = scores[~labels.astype(bool)]
        wins = sum(
            1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg
        )
        brute = wins / (len(pos) * len(neg))
        max_diff = max(max_diff, abs(auroc_ovr(scores, labels) - brute))

    ok = oracle_ok and max_diff < 1e-12
    record(
        acceptance_lines,
        5,
        "metrics oracle",
        ok,
        f"confusion [[8,2],[3,7]] exact {oracle_ok}; "
        f"auroc vs pair counting over 100 datasets, max diff {max_diff:.2e} (tol 1e-12)",
    )


def test_criterion_6_gbdt_split_oracle(acceptance_lines):
    """Depth-1 roots equal exhaustive gain enumeration; loss never rises.

    With uniform initial probabilities the per-row gradients are exactly
    representable halves, so gains computed by the trainer and by the
    enumeration are bit-identical and the comparison can demand exact
    feature/threshold equality.
    """

    def enumerate_best(x, g, h, l2_reg, min_hessian):
        total_g, total_h = g.sum(), h.sum()
        parent = total_g * total_g / (total_h + l2_reg)
        best = None
        for j in range(x.shape[1]):
            values = sorted(set(float(v) for v in x[:, j]))
            for lo, hi in zip(values, values[1:]):
                t = (lo + hi) / 2.0
                mask = x[:, j] < t
                hl, hr = h[mask].sum(), h[~mask].sum()
                if hl < min_hessian or hr < min_hessian:
                    continue
                gl, gr = g[mask].sum(), g[~mask].sum()
                gain = 0.5 * (
                    gl * gl / (hl + l2_reg) + gr * gr / (hr + l2_reg) - parent
                )
                if gain > 0.0 and (best is None or gain > best[0]):
                    best = (gain, j, t)
        return best

    rng = np.random.default_rng(77)
    cfg = GbdtConfig(rounds=1, max_depth=1, max_leaves=2)
    mismatches = 0
    for trial in range(100):
        n = int(rng.integers(4, 51))  # at most 50 rows
        m = int(rng.integers(1, 4))  # at most 3 features
        x = rng.integers(0, 5, size=(n, m)).astype(np.float64)
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        model, _ = train_gbdt(x, labels, 2, cfg)
        for k, tree in enumerate(model.trees):
            g = np.where(labels == k, 0.5 - 1.0, 0.5)  # softmax at zero margins
            h = np.full(n, 0.25)
            expected = enumerate_best(x, g, h, cfg.l2_reg, cfg.min_child_hessian)
            if expected is None:
                if tree.feature[0] != -1:
                    mismatches += 1
            else:
                chosen = binned_split(x, g, h, cfg.l2_reg, cfg.min_child_hessian)
                if (tree.feature[0], tree.value[0]) != (expected[1], expected[2]):
                    mismatches += 1
                if chosen[0] != expected[0]:
                    mismatches += 1

    centers = np.array([[-2.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    y = np.random.default_rng(78).integers(0, 3, size=90)
    data = centers[y] + np.random.default_rng(79).normal(scale=0.8, size=(90, 2))
    _, losses = train_gbdt(
        data, y, 3, GbdtConfig(rounds=12, max_depth=3, max_leaves=8)
    )
    non_increasing = bool(np.all(np.diff(losses) <= 1e-12))

    ok = mismatches == 0 and non_increasing
    record(
        acceptance_lines,
        6,
        "gbdt split oracle",
        ok,
        f"100 stump trials, {mismatches} split mismatches (need 0); "
        f"12-round log-loss non-increasing {non_increasing}",
    )


def test_criterion_7_soft_vote_algebra(acceptance_lines):
    """Uniform vote is the exact member mean; rows stay normalized; M=1 is identity."""
    rng = np.random.default_rng(5)
    members = []
    for _ in range(5):
        raw = rng.uniform(0.01, 1.0, size=(40, 3))
        members.append(raw / raw.sum(axis=1, keepdims=True))

    expected = np.zeros((40, 3))
    for p in members:
        expected += 1.0 * p
    expected /= 5.0
    uniform_exact = np.array_equal(soft_vote(members), expected)

    row_sum_err = float(np.max(np.abs(soft_vote(members).sum(axis=1) - 1.0)))

    identity = np.array_equal(soft_vote([members[0]]), members[0])

    ok = uniform_exact and row_sum_err < 1e-9 and identity
    record(
        acceptance_lines,
        7,
        "soft-vote algebra",
        ok,
        f"uniform mean bit-exact {uniform_exact}; max row-sum error "
        f"{row_sum_err:.2e} (tol 1e-9); single member identity {identity}",
    )


def test_criterion_8_determinism_and_persistence(acceptance_lines, tmp_path):
    """Reports are byte-stable across reruns; a reloaded bundle predicts identically."""
    schema = feature_schema(3, 2, 2)
    schema_path = tmp_path / "schema.json"
    save_schema(schema, schema_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "train": {"max_epochs": 6, "patience": 5, "batch_size": 16},
                "gbdt": {"rounds": 5, "max_depth": 3, "max_leaves": 6},
            }
        )
    )

    def run(out_name):
        out_dir = tmp_path / out_name
        code = main(
            [
                "train",
                "--config", str(config_path),
                "--schema", str(schema_path),
                "--rows", "120",
                "--model", "fusion",
                "--seed", "21",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        return out_dir

    dir_a = run("run_a")
    dir_b = run("run_b")
    report_names = ("report.txt", "report.json", "confusion.csv", "train_log.csv")
    identical = all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in report_names
    )

    run_config = RunConfig(
        schema=str(schema_path),
        model="fusion",
        rows=120,
        seed=21,
        train=TrainConfig(max_epochs=6, patience=5, batch_size=16),
        gbdt=GbdtConfig(rounds=5, max_depth=3, max_leaves=6),
    )
    outcome = run_training(run_config)
    table = load_training_table(run_config)
    in_memory = predict_on_table(outcome.bundle, table)

    from tabfuse.bundle import load_bundle, save_bundle

    bundle_path = tmp_path / "bundle.json"
    save_bundle(outcome.bundle, bundle_path)
    reloaded = predict_on_table(load_bundle(bundle_path), table)
    round_trip_exact = np.array_equal(in_memory, reloaded)

    ok = identical and round_trip_exact
    record(
        acceptance_lines,
        8,
        "determinism and persistence",
        ok,
        f"rerun reports byte-identical {identical} "
        f"({', '.join(report_names)}); save/load predictions bit-equal "
        f"{round_trip_exact} on all {len(table.cells)} rows",
    )


def test_criterion_9_preprocessing_identities(acceptance_lines):
    """Standardized training numerics are zero-mean unit-std; token width adds up."""
    schema = feature_schema(4, 3, 3)
    table = generate_synthetic(schema, 300, seed=31, missing_fraction=0.0)
    state = fit(table)
    encoded = transform(table, state)

    means = encoded.numeric.mean(axis=0)
    stds = encoded.numeric.std(axis=0)  # population std, matching the fit
    mean_err = float(np.max(np.abs(means)))
    std_err = float(np.max(np.abs(stds - 1.0)))

    pad_sum = sum(v.pad_length for v in state.vocabularies.values())
    width_ok = encoded.tokens.shape[1] == pad_sum == state.total_padded_width

    ok = mean_err < 1e-9 and std_err < 1e-9 and width_ok
    record(
        acceptance_lines,
        9,
        "preprocessing identities",
        ok,
        f"max |mean| {mean_err:.2e}, max |std-1| {std_err:.2e} (tol 1e-9); "
        f"token width {encoded.tokens.shape[1]} == sum of pad lengths {pad_sum}",
    )
