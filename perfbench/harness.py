"""Workloads, set-up, timed operations and correctness checks.

Every workload is a closed loop with one in-process caller: the next
operation starts only after the previous one returns. CLI commands go
through ``tabfuse.cli.main``; small-batch scoring goes through
``tabfuse.pipeline.predict_on_table``. The program receives only the
generated schema, CSV and config files.

One pass of a workload's loop is a *round*:

* ``train_fusion`` / ``train_gbdt``: ``tabfuse train``, then ``tabfuse
  predict`` on the held-out CSV (bulk), then 16-row ``predict_on_table``
  calls with the new bundle loaded once (small);
* ``score_ensemble``: bulk, then small. Its ensemble is trained in set-up.

All workloads share one schema (6 numerical and 4 categorical features, a
3-class target). The workload seed picks the generated population. Cost
depends on the token width (padded tokens per row), which the generator
derives from its seed, so the benchmark pins the width: the generator seed
is the first of a sequence fixed by the workload seed whose tables are
``TOKEN_WIDTH`` tokens wide. Other seeds would change the input size, not
only its values.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import io
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import tabfuse.bundle as tf_bundle
import tabfuse.cli as tf_cli
import tabfuse.gbdt as tf_gbdt
import tabfuse.models as tf_models
import tabfuse.nn as tf_nn
import tabfuse.pipeline as tf_pipeline
import tabfuse.preprocess as tf_preprocess
import tabfuse.schema as tf_schema
import tabfuse.synthetic as tf_synthetic

from hostspeed import HostSpeed
from spans import Target, Tracer

TOKEN_WIDTH = 8
SMALL_ROWS = 16
PROBE_EVERY = 16  # small calls between host-speed probes
# 16-row calls differ from bulk scoring in the last bits only, because BLAS
# blocks matmuls differently by batch size (3.3e-16 measured).
SMALL_TOLERANCE = 1e-12
ROW_SUM_TOLERANCE = 1e-9

# Fixed epoch counts and a leaf cap every tree reaches keep the work per
# operation the same across seeds: early stopping and free tree growth
# vary with the population by more than the benchmark's bounds.
FIXED_EPOCHS = {"max_epochs": 8, "patience": 7}
GBDT = {"rounds": 20, "max_leaves": 31}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str
    train_rows: int
    heldout_rows: int
    sections: dict  # extra train-config keys
    train_each_round: bool  # False: train once per set-up instead
    small_calls: int  # 16-row calls per round
    accuracy_floor: float
    setup_reps: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_fusion",
            "default user path: fusion training on 20k rows, time in nn layers, "
            "the models.train loop and preprocess; gbdt does no work",
            "fusion",
            20_000,
            12_000,
            {"train": FIXED_EPOCHS},
            True,
            64,
            0.95,
        ),
        Workload(
            "train_gbdt",
            "gbdt training on 5k rows, time in find_best_split and Tree.predict; "
            "nn does no work",
            "gbdt",
            5_000,
            12_000,
            {"gbdt": GBDT},
            True,
            64,
            0.95,
        ),
        Workload(
            "score_ensemble",
            "read path: bulk predict of 20k held-out rows and 16-row calls on a "
            "fusion+gbdt+baseline bundle; per-row work vs per-call overhead",
            "ensemble",
            4_000,
            20_000,
            {
                "ensemble_members": ["fusion", "gbdt", "baseline"],
                "train": FIXED_EPOCHS,
                "gbdt": GBDT,
            },
            False,
            64,
            0.95,
            setup_reps=5,  # train_s comes from set-up here, so take more samples
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "score_rows_per_s": "rows/s",
    "score_call_ms_p50": "ms",
    "score_call_ms_p90": "ms",
    "accuracy": "fraction",
    "bundle_bytes": "bytes",
    "peak_rss_mb": "MiB",
}


def make_schema() -> tf_schema.TableSchema:
    columns = [tf_schema.ColumnSpec(f"num{i}", "numerical") for i in range(6)]
    columns += [tf_schema.ColumnSpec(f"cat{i}", "categorical") for i in range(4)]
    columns.append(tf_schema.ColumnSpec("outcome", "categorical"))
    return tf_schema.TableSchema(tuple(columns), "outcome", ("low", "mid", "high"))


def generator_seed(schema: tf_schema.TableSchema, seed: int) -> int:
    """First seed in a sequence fixed by ``seed`` whose tables are TOKEN_WIDTH wide."""
    for k in range(10_000):
        candidate = seed + 1_000_003 * k
        probe = tf_synthetic.generate_synthetic(schema, 64, candidate, missing_fraction=0.0)
        if tf_preprocess.fit(probe).total_padded_width == TOKEN_WIDTH:
            return candidate
    raise RuntimeError(f"no generator seed with token width {TOKEN_WIDTH}")


# --- layer targets -----------------------------------------------------------

_TRAIN_SIGNATURE = inspect.signature(tf_models.train)


def _count_training(tracer, args, kwargs, result):
    bound = _TRAIN_SIGNATURE.bind(*args, **kwargs).arguments
    epochs = len(result[1].train_losses)
    batches = -(-len(bound["train_labels"]) // bound["config"].batch_size)
    tracer.count("models.train_epochs", epochs)
    tracer.count("models.train_steps", epochs * batches)


def _count_split_found(tracer, args, kwargs, result):
    if result is not None:
        tracer.count("gbdt.splits_found")


def _count_internal_nodes(tracer, args, kwargs, result):
    trees = result[0].trees
    tracer.count("gbdt.internal_nodes", sum(int(np.sum(np.asarray(t.feature) >= 0)) for t in trees))


def _count_tree_nodes(tracer, args, kwargs, result):
    tracer.count("gbdt.tree_nodes_walked", len(args[0].feature))


def _count_bundle_bytes(tracer, args, kwargs, result):
    tracer.count("bundle.bytes", os.path.getsize(args[1]))


def layer_targets() -> list[Target]:
    """Public functions and methods of each module, at their lookup names."""
    cli, pipe, models, nn, gbdt = tf_cli, tf_pipeline, tf_models, tf_nn, tf_gbdt
    return [
        Target("cli.main", ((cli, "main"),)),
        Target("pipeline.run_training", ((cli, "run_training"), (pipe, "run_training"))),
        Target("pipeline.predict_on_table", ((pipe, "predict_on_table"),)),
        Target(
            "pipeline.combined_probabilities",
            ((cli, "combined_probabilities"), (pipe, "combined_probabilities")),
        ),
        Target("pipeline.build_features", ((pipe, "build_features"),)),
        Target("synthetic.generate", ((tf_synthetic, "generate_synthetic"),)),
        Target("schema.write_csv", ((tf_schema, "write_csv"),)),
        Target("schema.load_csv", ((cli, "load_csv"), (pipe, "load_csv"))),
        Target("preprocess.fit", ((pipe, "fit"),)),
        Target("preprocess.transform", ((cli, "transform"), (pipe, "transform"))),
        Target("preprocess.stratified_split", ((pipe, "stratified_split"),)),
        Target("models.train", ((pipe, "train"),), _count_training),
        Target("models.FrequencyEncoder.fit", ((models.FrequencyEncoder, "fit"),)),
        Target("models.FrequencyEncoder.encode", ((models.FrequencyEncoder, "encode"),)),
        Target(
            "models.predict_proba",
            ((models.EmbeddingFusionNet, "predict_proba"), (models.BaselineMlp, "predict_proba")),
        ),
        Target("nn.Linear.forward", ((nn.Linear, "forward"),)),
        Target("nn.Linear.backward", ((nn.Linear, "backward"),)),
        Target("nn.PReLU.forward", ((nn.PReLU, "forward"),)),
        Target("nn.PReLU.backward", ((nn.PReLU, "backward"),)),
        Target("nn.Embedding.forward", ((nn.Embedding, "forward"),)),
        Target("nn.Embedding.backward", ((nn.Embedding, "backward"),)),
        Target("nn.softmax_cross_entropy", ((models, "softmax_cross_entropy"),)),
        Target("nn.Adam.zero_grad", ((nn.Adam, "zero_grad"),)),
        Target("nn.Adam.step", ((nn.Adam, "step"),)),
        Target("gbdt.train_gbdt", ((pipe, "train_gbdt"),), _count_internal_nodes),
        Target("gbdt.find_best_split", ((gbdt, "find_best_split"),), _count_split_found),
        Target("gbdt.Tree.predict", ((gbdt.Tree, "predict"),), _count_tree_nodes),
        Target("gbdt.predict_proba", ((gbdt.GbdtModel, "predict_proba"),)),
        Target("ensemble.soft_vote", ((pipe, "soft_vote"),)),
        Target("metrics.evaluate", ((pipe, "evaluate"),)),
        Target("bundle.save_bundle", ((cli, "save_bundle"),), _count_bundle_bytes),
        Target("bundle.load_bundle", ((cli, "load_bundle"), (tf_bundle, "load_bundle"))),
    ]


SETUP_LAYERS = ("synthetic.generate", "schema.write_csv")
CALL_COUNTS = {
    "preprocess.transform_calls": "preprocess.transform",
    "nn.Adam.step_calls": "nn.Adam.step",
    "gbdt.find_best_split_calls": "gbdt.find_best_split",
    "gbdt.Tree.predict_calls": "gbdt.Tree.predict",
}
HOOK_COUNTS = (
    "models.train_steps",
    "models.train_epochs",
    "gbdt.splits_found",
    "gbdt.internal_nodes",
    "bundle.bytes",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {f"{t.name}_s": "s" for t in layer_targets()}
    units.update({name: "count" for name in CALL_COUNTS})
    units.update({name: "count" for name in HOOK_COUNTS})
    units["bundle.bytes"] = "bytes"
    units.update(
        {
            "gbdt.tree_nodes": "count",
            "gbdt.split_found_frac": "fraction",
            "gbdt.split_used_frac": "fraction",
            "trace.spans": "count",
            "trace.overhead_s": "s",
            "trace.overhead_frac": "fraction",
        }
    )
    return units


# --- correctness checks ------------------------------------------------------


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def check_predictions(path: Path, reference: np.ndarray, class_labels) -> str | None:
    """Why a predictions CSV is wrong, or None when it is right.

    Probabilities must equal ``reference`` bit for bit, rows must sum to 1
    and ``predicted`` must be the argmax.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    prob_cols = [header.index(f"prob_{label}") for label in class_labels]
    pred_col = header.index("predicted")
    probs = np.array([[float(row[c]) for c in prob_cols] for row in rows]).reshape(
        len(rows), len(prob_cols)
    )
    if probs.shape != reference.shape or not np.array_equal(_bits(probs), _bits(reference)):
        return "probabilities differ from predict_on_table on the reloaded bundle"
    if np.max(np.abs(probs.sum(axis=1) - 1.0)) > ROW_SUM_TOLERANCE:
        return "probability rows do not sum to 1"
    argmax = [class_labels[i] for i in probs.argmax(axis=1)]
    if argmax != [row[pred_col] for row in rows]:
        return "predicted label is not the argmax"
    return None


def check_small(out, reference: np.ndarray) -> str | None:
    if isinstance(out, Exception):
        return f"predict_on_table raised {out!r}"
    if out.shape != reference.shape:
        return f"shape {out.shape}, expected {reference.shape}"
    err = float(np.max(np.abs(out - reference)))
    if not err <= SMALL_TOLERANCE:
        return f"differs from bulk scoring by {err:.3g}"
    return None


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- runner ------------------------------------------------------------------


class Runner:
    """Set-up, timed rounds and checks for one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, trace: bool):
        self.w = workload
        self.seed = seed
        self.dir = Path(workdir)
        self.schema = make_schema()
        self.tracer = Tracer(layer_targets()) if trace else None
        self.op_phase: list[str] = []  # operation id -> phase
        self.op_round: list[int] = []  # operation id -> round, -1 in set-up
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.speed = HostSpeed()
        # (start, end) perf_counter pairs of every timed operation, by phase
        self.samples = {"setup": [], "train": [], "bulk": [], "small": []}
        self.rounds_timed = {False: [], True: []}  # keyed by "traced"
        self.accuracy = 0.0
        self.bundle_bytes = 0
        self.gen_seed = None
        self._train_digests = None
        self._reference = None
        self._chunks: dict[int, tf_schema.DataTable] = {}
        self._small_start = 0
        self.schema_path = self.dir / "schema.json"
        self.config_path = self.dir / "config.json"
        self.train_csv = self.dir / "train.csv"
        self.heldout_csv = self.dir / "heldout.csv"
        self.out_dir = self.dir / "run"
        self.bundle_path = self.out_dir / "bundle.json"
        self.predictions_csv = self.dir / "predictions.csv"

    # bookkeeping
    def _begin(self, phase: str, round_index: int) -> None:
        if self.tracer is not None:
            self.tracer.op = len(self.op_phase)
        self.op_phase.append(phase)
        self.op_round.append(round_index)

    def _record(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(failure)

    def trace(self, on: bool) -> None:
        if self.tracer is not None:
            if on:
                self.tracer.install()
            else:
                self.tracer.uninstall()

    def _cli(self, phase: str, argv: list[str]):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = tf_cli.main(argv)
            except Exception as e:  # a traceback is a failed operation, not a crash
                rc = f"raised {e!r}"
            self.samples[phase].append((start, time.perf_counter()))
            return rc

    # set-up
    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        tf_schema.save_schema(self.schema, self.schema_path)
        self.gen_seed = generator_seed(self.schema, self.seed)
        config = {
            "schema": str(self.schema_path),
            "data": str(self.train_csv),
            "model": self.w.model,
            "seed": self.seed,
            "out": str(self.out_dir),
            **self.w.sections,
        }
        self.config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        rows = self.w.train_rows + self.w.heldout_rows
        self.speed.probe()
        for _ in range(self.w.setup_reps):
            self.trace(True)
            self._begin("setup", -1)
            start = time.perf_counter()
            table = tf_synthetic.generate_synthetic(self.schema, rows, self.gen_seed)
            tf_schema.write_csv(table.subset(range(self.w.train_rows)), self.train_csv)
            tf_schema.write_csv(table.subset(range(self.w.train_rows, rows)), self.heldout_csv)
            self.samples["setup"].append((start, time.perf_counter()))
            self.speed.probe()
            if not self.w.train_each_round:
                # Set-up time is the data part plus this training, each
                # adjusted by the probes on either side of it.
                rc = self._train()
                self.speed.probe(settle=True)
                self._checked(self._check_train, rc)
            self.trace(False)
        self.heldout = tf_schema.load_csv(self.heldout_csv, self.schema)
        target = self.schema.column_index(self.schema.target)
        self.heldout_labels = [row[target] for row in self.heldout.cells]

    # timed operations
    def _train(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return self._cli("train", ["train", "--config", str(self.config_path)])

    def _chunk(self) -> tuple[int, tf_schema.DataTable]:
        start = self._small_start
        self._small_start = (start + SMALL_ROWS) % (self.w.heldout_rows - SMALL_ROWS + 1)
        if start not in self._chunks:
            self._chunks[start] = self.heldout.subset(range(start, start + SMALL_ROWS))
        return start, self._chunks[start]

    def _round(self, r: int) -> list:
        """Run one round's timed operations; return their pending checks."""
        pending = []
        self.speed.probe()
        if self.w.train_each_round:
            self._begin("train", r)
            pending.append((self._check_train, self._train()))
            self.speed.probe(settle=True)

        self.predictions_csv.unlink(missing_ok=True)
        self._begin("bulk", r)
        rc = self._cli(
            "bulk",
            [
                "predict",
                "--model", str(self.bundle_path),
                "--data", str(self.heldout_csv),
                "--out", str(self.predictions_csv),
            ]
        )
        pending.append((self._check_bulk, rc))
        self.speed.probe(settle=True)

        self._begin("small", r)
        try:
            bundle = tf_bundle.load_bundle(self.bundle_path)
        except Exception as e:
            bundle = e
        for i in range(self.w.small_calls):
            if i and i % PROBE_EVERY == 0:
                self.speed.probe()
            start, chunk = self._chunk()
            self._begin("small", r)
            t0 = time.perf_counter()
            try:
                if isinstance(bundle, Exception):
                    raise bundle
                out = tf_pipeline.predict_on_table(bundle, chunk)
            except Exception as e:
                out = e
            self.samples["small"].append((t0, time.perf_counter()))
            pending.append((self._check_small, (start, out)))
        self.speed.probe()
        return pending

    def run(self, seconds: float) -> None:
        """Run rounds until ``seconds`` have passed; checks sit outside the timing."""
        deadline = time.perf_counter() + seconds
        # Traced runs alternate untraced and traced rounds, so the same process
        # measures its own tracing overhead.
        min_rounds = 1 if self.tracer is None else 2
        r = 0
        while r < min_rounds or time.perf_counter() < deadline:
            traced = self.tracer is not None and r % 2 == 1
            self.trace(traced)
            start = time.perf_counter()
            pending = self._round(r)
            self.rounds_timed[traced].append((start, time.perf_counter()))
            self.trace(False)
            for check, arg in pending:
                self._checked(check, arg)
            r += 1
        self.rounds = r

    # checks
    def _checked(self, check, arg) -> None:
        try:
            failure = check(arg)
        except Exception as e:  # a check that cannot run is a failed operation
            failure = f"{check.__name__} raised {e!r}"
        self._record(failure)

    def _check_train(self, rc) -> str | None:
        if rc != 0:
            return f"train exit code {rc}"
        outputs = [self.out_dir / "report.json", self.bundle_path]
        outputs += sorted(self.out_dir.glob("train_log*.csv"))
        digests = {p.name: _digest(p) for p in outputs}
        if self._train_digests is None:
            self._train_digests = digests
        elif digests != self._train_digests:
            return "train outputs differ from the first training at this seed"
        report = json.loads((self.out_dir / "report.json").read_text(encoding="utf-8"))
        self.bundle_bytes = self.bundle_path.stat().st_size
        if self.w.train_each_round:
            self.accuracy = report["metrics"]["accuracy"]
            if self.accuracy < self.w.accuracy_floor:
                return f"test accuracy {self.accuracy} below {self.w.accuracy_floor}"
        return None

    def reference(self) -> np.ndarray:
        if self._reference is None:
            bundle = tf_bundle.load_bundle(self.bundle_path)
            table = tf_schema.load_csv(self.heldout_csv, bundle.state.schema)
            self._reference = tf_pipeline.predict_on_table(bundle, table)
        return self._reference

    def _check_bulk(self, rc) -> str | None:
        if rc != 0:
            return f"predict exit code {rc}"
        labels = self.schema.class_labels
        failure = check_predictions(self.predictions_csv, self.reference(), labels)
        if failure is None and not self.w.train_each_round:
            predicted = self.reference().argmax(axis=1)
            hits = sum(labels[p] == y for p, y in zip(predicted, self.heldout_labels))
            self.accuracy = hits / len(self.heldout_labels)
            if self.accuracy < self.w.accuracy_floor:
                failure = f"held-out accuracy {self.accuracy} below {self.w.accuracy_floor}"
        return failure

    def _check_small(self, arg) -> str | None:
        start, out = arg
        return check_small(out, self.reference()[start : start + SMALL_ROWS])

    # metrics
    def seconds(self, windows, adjusted: bool = True) -> list[float]:
        if adjusted:
            return [self.speed.adjust(start, end) for start, end in windows]
        return [end - start for start, end in windows]

    def _setup_reps(self, s: dict[str, list[float]]) -> list[float]:
        if self.w.train_each_round:
            return s["setup"]
        return [data + train for data, train in zip(s["setup"], s["train"])]

    def end_to_end(self, import_window, adjusted: bool = True) -> dict[str, tuple[float, str]]:
        """End-to-end metrics; times host-speed adjusted unless ``adjusted`` is False."""
        s = {k: self.seconds(v, adjusted) for k, v in self.samples.items()}
        import_s = self.seconds([import_window], adjusted)[0]
        small_ms = [1000.0 * t for t in s["small"]]
        values = {
            "setup_s": import_s + statistics.median(self._setup_reps(s)),
            "train_s": statistics.median(s["train"]),
            "score_rows_per_s": statistics.median(self.w.heldout_rows / t for t in s["bulk"]),
            "score_call_ms_p50": float(np.percentile(small_ms, 50)),
            "score_call_ms_p90": float(np.percentile(small_ms, 90)),
            "accuracy": float(self.accuracy),
            "bundle_bytes": float(self.bundle_bytes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}

    def sample_counts(self) -> dict[str, int]:
        return {
            "setup_s": len(self.samples["setup"]),
            "train_s": len(self.samples["train"]),
            "score_rows_per_s": len(self.samples["bulk"]),
            "score_call_ms_p50": len(self.samples["small"]),
            "score_call_ms_p90": len(self.samples["small"]),
        }

    def per_layer(self) -> tuple[dict[str, tuple[float, str]], dict]:
        """Per-round layer metrics from traced rounds, and the per-phase split."""
        tracer = self.tracer
        table = tracer.span_table()
        op_round = np.array(self.op_round, dtype=np.int64)
        op_phase = np.array(self.op_phase)
        span_round = op_round[table["op"]]
        traced_rounds = len(self.rounds_timed[True])
        n = max(traced_rounds, 1)
        setup_reps = max(len(self.samples["setup"]), 1)

        values: dict[str, float] = {}
        for code, name in enumerate(tracer.names):
            is_name = table["name"] == code
            if name in SETUP_LAYERS:
                mask, per = is_name & (span_round < 0), setup_reps
            else:
                mask, per = is_name & (span_round >= 0), n
            values[f"{name}_s"] = float(table["self_ns"][mask].sum()) / 1e9 / per
        in_rounds = span_round >= 0
        for metric, span in CALL_COUNTS.items():
            code = tracer.names.index(span)
            values[metric] = float(np.sum(in_rounds & (table["name"] == code))) / n

        totals = dict.fromkeys(HOOK_COUNTS + ("gbdt.tree_nodes_walked", "trace.hook_errors"), 0.0)
        for (op, name), amount in tracer.counts.items():
            if op >= 0 and self.op_round[op] >= 0:
                totals[name] = totals.get(name, 0.0) + amount
        for name in HOOK_COUNTS:
            values[name] = totals[name] / n

        def ratio(a, b):
            return a / b if b else 0.0

        calls = values["gbdt.find_best_split_calls"]
        values["gbdt.split_found_frac"] = ratio(values["gbdt.splits_found"], calls)
        values["gbdt.split_used_frac"] = ratio(
            values["gbdt.internal_nodes"], values["gbdt.splits_found"]
        )
        values["gbdt.tree_nodes"] = ratio(
            totals["gbdt.tree_nodes_walked"], values["gbdt.Tree.predict_calls"] * n
        )
        traced = self.seconds(self.rounds_timed[True])
        untraced = self.seconds(self.rounds_timed[False])
        overhead = statistics.median(traced) - statistics.median(untraced)
        values["trace.spans"] = float(in_rounds.sum()) / n
        values["trace.overhead_s"] = overhead
        values["trace.overhead_frac"] = overhead / statistics.median(untraced)

        self.hook_errors = int(totals["trace.hook_errors"])
        units = per_layer_units()
        metrics = {k: (values[k], units[k]) for k in units}

        split = {}
        for phase in ("train", "bulk", "small"):
            in_phase = in_rounds & (op_phase[table["op"]] == phase)
            total = float(table["self_ns"][in_phase].sum())
            if total == 0:
                continue
            shares = {
                name: float(table["self_ns"][in_phase & (table["name"] == code)].sum()) / total
                for code, name in enumerate(tracer.names)
            }
            split[phase] = {
                "s_per_round": total / 1e9 / n,
                "self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
            }
        return metrics, split
