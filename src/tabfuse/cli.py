"""Command-line interface.

Subcommands: generate, train, evaluate, predict, inspect. Options can come
from a JSON config file (--config); any flag given on the command line
overrides the corresponding config key. Exit codes: 0 success, 2 usage
error, 3 data error, 4 numeric failure. Failures print one line to stderr
in the form ``error[<code>]: <message>``.

Reports written by train/evaluate contain no timestamps or paths, so a
rerun with the same seed and data produces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .bundle import BUNDLE_FORMAT_VERSION, load_bundle, save_bundle
from .errors import DataError, ToolkitError, UsageError
from .gbdt import GbdtConfig
from .metrics import EvalReport, evaluate
from .models import TrainConfig
from .pipeline import (
    RunConfig,
    SyntheticSpec,
    TrainOutcome,
    combined_probabilities,
    run_training,
)
from .preprocess import transform
from .schema import load_csv, load_schema, write_csv
from .synthetic import generate_synthetic


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the error taxonomy."""

    def error(self, message):
        raise UsageError(message)


def _parse_imbalance(text: str) -> tuple[float, ...]:
    try:
        weights = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(
            f"--imbalance must be comma-separated numbers, got {text!r}"
        ) from None
    return weights


def _load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise DataError(f"config file is not valid JSON: {p} ({e})") from None
    if not isinstance(doc, dict):
        raise DataError("config file must hold a JSON object")
    return doc


def _build_sub_config(cls, doc: dict, section: str):
    try:
        return cls(**doc)
    except TypeError:
        valid = ", ".join(cls().to_json_dict())
        raise UsageError(
            f"config section {section!r} has unknown keys; valid: {valid}"
        ) from None
    except ValueError as e:
        raise UsageError(f"config section {section!r}: {e}") from None


def build_run_config(args) -> RunConfig:
    """Merge defaults, the config file, and CLI flags (flags win)."""
    doc = _load_config_file(args.config) if args.config else {}

    def pick(flag, key, default):
        if flag is not None:
            return flag
        return doc.get(key, default)

    schema_path = pick(args.schema, "schema", None)
    if schema_path is None:
        raise UsageError("a schema is required (--schema or config key 'schema')")
    data_path = pick(args.data, "data", None)
    rows = pick(args.rows, "rows", None)
    imbalance = args.imbalance if args.imbalance is not None else doc.get("imbalance")
    if isinstance(imbalance, str):
        imbalance = _parse_imbalance(imbalance)
    elif imbalance is not None:
        imbalance = tuple(float(w) for w in imbalance)

    synthetic = None
    if rows is not None:
        synthetic = SyntheticSpec(
            rows=int(rows),
            imbalance=imbalance,
            missing_fraction=float(doc.get("missing_fraction", 0.05)),
        )

    fractions = doc.get("fractions", (0.8, 0.1, 0.1))
    if len(fractions) != 3:
        raise UsageError("config key 'fractions' must be [train, val, test]")

    train_config = _build_sub_config(TrainConfig, doc.get("train", {}), "train")
    gbdt_config = _build_sub_config(GbdtConfig, doc.get("gbdt", {}), "gbdt")

    return RunConfig(
        schema_path=str(schema_path),
        model_kind=pick(args.model, "model", "fusion"),
        data_path=str(data_path) if data_path is not None else None,
        synthetic=synthetic,
        fractions=tuple(float(f) for f in fractions),
        seed=int(pick(args.seed, "seed", 0)),
        out_dir=str(pick(args.out, "out", "run_out")),
        train_config=train_config,
        gbdt_config=gbdt_config,
        ensemble_members=tuple(doc.get("ensemble_members", ("fusion", "gbdt"))),
        gbdt_feature_view=str(doc.get("gbdt_feature_view", "numeric+tokens")),
    )


class _OutputSet:
    """Tracks files written by one command so failures leave nothing behind."""

    def __init__(self):
        self.paths: list[Path] = []

    def write(self, path: Path, text: str):
        path.write_text(text, encoding="utf-8")
        self.paths.append(path)

    def discard_all(self):
        for p in self.paths:
            try:
                p.unlink()
            except OSError:
                pass


def _report_text(outcome: TrainOutcome) -> str:
    parts = [f"model: {outcome.bundle.kind}", "", outcome.report.to_text()]
    for kind, rep in outcome.member_reports:
        parts.append(f"\nmember {kind}:\n")
        parts.append(rep.to_text())
    return "".join(p if p.endswith("\n") else p + "\n" for p in parts)


def _report_json(kind: str, report: EvalReport, member_reports) -> str:
    doc = {"model": kind, "metrics": report.to_json_dict()}
    if member_reports:
        doc["members"] = {k: r.to_json_dict() for k, r in member_reports}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_generate(args) -> int:
    schema = load_schema(args.schema)
    imbalance = _parse_imbalance(args.imbalance) if args.imbalance else None
    table = generate_synthetic(
        schema,
        args.rows,
        seed=args.seed,
        imbalance=imbalance,
        missing_fraction=args.missing_fraction,
    )
    write_csv(table, args.out)
    print(f"wrote {table.row_count} rows to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = build_run_config(args)
    outcome = run_training(config)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = _OutputSet()
    try:
        bundle_path = out_dir / "bundle.json"
        save_bundle(outcome.bundle, bundle_path)
        outputs.paths.append(bundle_path)
        for name, text in outcome.member_logs:
            outputs.write(out_dir / f"{name}.csv", text)
        outputs.write(out_dir / "report.txt", _report_text(outcome))
        outputs.write(
            out_dir / "report.json",
            _report_json(outcome.bundle.kind, outcome.report, outcome.member_reports),
        )
        outputs.write(out_dir / "confusion.csv", outcome.report.confusion_csv_text())
    except BaseException:
        outputs.discard_all()
        raise
    print(f"trained {outcome.bundle.kind} on {config.schema_path}")
    print(f"test accuracy: {outcome.report.accuracy:.6f} ({outcome.test_rows} rows)")
    print(f"outputs in {out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    bundle = load_bundle(args.model)
    table = load_csv(args.data, bundle.state.schema)
    encoded = transform(table, bundle.state)
    if np.any(encoded.labels < 0):
        n_bad = int((encoded.labels < 0).sum())
        raise DataError(
            f"{n_bad} row(s) have no target label; evaluate needs labeled data"
        )
    probas = combined_probabilities(bundle, encoded, table)
    report = evaluate(probas, encoded.labels, bundle.state.schema.class_labels)
    text = f"model: {bundle.kind}\n\n" + report.to_text()
    print(text, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = _OutputSet()
        try:
            outputs.write(out_dir / "report.txt", text)
            outputs.write(out_dir / "report.json", _report_json(bundle.kind, report, []))
            outputs.write(out_dir / "confusion.csv", report.confusion_csv_text())
        except BaseException:
            outputs.discard_all()
            raise
    return 0


def cmd_predict(args) -> int:
    bundle = load_bundle(args.model)
    schema = bundle.state.schema
    table = load_csv(args.data, schema)
    probas = combined_probabilities(bundle, transform(table, bundle.state), table)
    predicted = [schema.class_labels[i] for i in probas.argmax(axis=1)]

    out_path = Path(args.out)
    header = list(schema.column_names)
    header += [f"prob_{label}" for label in schema.class_labels]
    header.append("predicted")
    try:
        with out_path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for r, row in enumerate(table.cells):
                cells = ["" if c is None else c for c in row]
                cells += [repr(float(p)) for p in probas[r]]
                cells.append(predicted[r])
                writer.writerow(cells)
    except BaseException:
        try:
            out_path.unlink()
        except OSError:
            pass
        raise
    print(f"wrote {table.row_count} predictions to {out_path}")
    return 0


def cmd_inspect(args) -> int:
    bundle = load_bundle(args.model)
    state = bundle.state
    schema = state.schema
    lines = [
        f"bundle: {args.model}",
        f"format version: {BUNDLE_FORMAT_VERSION}",
        f"model kind: {bundle.kind}",
        f"target: {schema.target}",
        f"classes ({schema.n_classes}): {', '.join(schema.class_labels)}",
        f"numeric features: {len(state.numeric_columns)}",
        f"categorical features: {len(state.categorical_columns)}",
        f"token width: {state.total_padded_width}",
        f"vocabulary size: {state.total_vocab_size}",
        f"preprocess fingerprint: {state.fingerprint()}",
        f"members: {', '.join(m.kind for m in bundle.members)}",
    ]
    lines.extend(f"  {m.describe()}" for m in bundle.members)
    seed = bundle.run_summary.get("seed")
    if seed is not None:
        lines.append(f"training seed: {seed}")
    print("\n".join(lines))
    return 0


def _add_common_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--schema", help="schema JSON path")
    p.add_argument("--data", help="training CSV path")
    p.add_argument("--rows", type=int, help="generate a synthetic table this large")
    p.add_argument("--model", help="fusion, baseline, gbdt, or ensemble")
    p.add_argument("--seed", type=int, help="run seed (default 0)")
    p.add_argument("--out", help="output directory (default run_out)")
    p.add_argument("--imbalance", help="comma-separated class weights for --rows")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tabfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="write a synthetic CSV for a schema")
    p.add_argument("--schema", required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--imbalance", help="comma-separated class weights")
    p.add_argument("--missing-fraction", type=float, default=0.05)
    p.add_argument("--out", default="synthetic.csv")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model and write a bundle")
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a bundle against a labeled CSV")
    p.add_argument("--model", required=True, help="bundle.json path")
    p.add_argument("--data", required=True, help="labeled CSV path")
    p.add_argument("--out", help="directory for report files (optional)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="write probabilities for a CSV")
    p.add_argument("--model", required=True, help="bundle.json path")
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--out", default="predictions.csv")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect", help="print bundle metadata")
    p.add_argument("--model", required=True, help="bundle.json path")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ToolkitError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
