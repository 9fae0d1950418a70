"""Command-line interface.

Subcommands: generate, train, evaluate, predict, inspect. Options can come
from a JSON config file (--config); any flag given on the command line
overrides the corresponding config key. Each key is the RunConfig field of
its name, and a bundle's run summary is a config file that trains its run
again. Exit codes: 0 success, 1 standard
output closed early, 2 usage error, 3 data error, 4 numeric failure.
Failures other than 1 print one line to stderr in the form
``error[<code>]: <message>``.

Reports written by train/evaluate contain no timestamps or paths, so a
rerun with the same seed and data produces byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .bundle import BUNDLE_FORMAT_VERSION, load_bundle, save_bundle
from .errors import DataError, ToolkitError, UsageError
from .gbdt import GbdtConfig
from .metrics import EvalReport, evaluate
from .models import TrainConfig
from .pipeline import RunConfig, combined_probabilities, run_training
from .preprocess import transform
from .schema import _write_csv_rows, load_csv, load_json, load_schema, write_csv
from .synthetic import generate_synthetic


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the error taxonomy."""

    def error(self, message):
        raise UsageError(message)


def _check_keys(doc: dict, valid, where: str) -> None:
    """Raise a usage error naming each key of ``doc`` outside ``valid``."""
    unknown = [key for key in doc if key not in valid]
    if unknown:
        keys = "keys" if len(unknown) > 1 else "key"
        names = ", ".join(map(repr, unknown))
        raise UsageError(f"{where} has unknown {keys} {names}; valid: {', '.join(valid)}")


def _section(cls, section: str):
    """Converter that builds ``cls`` from a config section's object."""
    valid = [f.name for f in dataclasses.fields(cls)]

    def convert(doc):
        if isinstance(doc, dict):
            _check_keys(doc, valid, f"config section {section!r}")
        return cls(**doc)

    return convert


def _items(value) -> list:
    """A list as it is, or comma-separated text as its parts, each stripped."""
    if isinstance(value, str):
        return [part.strip() for part in value.split(",")]
    if type(value) is not list:
        raise ValueError("must be a list or comma-separated text")
    return value


def _text(value) -> str:
    """A JSON string as it is: not a number, a bool, a list or an object."""
    if type(value) is not str:
        raise ValueError("must be a string")
    return value


def _integer(value) -> int:
    """A JSON integer as it is: not a bool, a fraction or text."""
    if type(value) is not int:
        raise ValueError("must be an integer")
    return value


def _number(value) -> float:
    """A number, or text that parses as one, as a float; a bool is neither."""
    if type(value) is bool:
        raise ValueError("must be a number, not a bool")
    return float(value)


def _weights(value) -> tuple[float, ...]:
    """Numbers from a list or from comma-separated text."""
    return tuple(map(_number, _items(value)))


def _fractions(value) -> tuple[float, ...]:
    fractions = _weights(value)
    if len(fractions) != 3:
        raise ValueError("must be [train, val, test]")
    return fractions


# Config key -> converter; each key is the RunConfig field of its name. A
# flag overrides the key of its name; a key set by neither is left out, so
# the dataclass default applies.
_RUN_KEYS = {
    "schema": _text,
    "model": _text,
    "data": _text,
    "fractions": _fractions,
    "seed": _integer,
    "out": _text,
    "train": _section(TrainConfig, "train"),
    "gbdt": _section(GbdtConfig, "gbdt"),
    "ensemble_members": lambda v: tuple(map(_text, _items(v))),
    "gbdt_feature_view": _text,
    "rows": _integer,
    "imbalance": _weights,
    "missing_fraction": _number,
}


def _convert(settings: dict, keys=_RUN_KEYS) -> dict:
    """Convert each of ``keys`` that ``settings`` sets to a non-null value."""
    fields = {}
    for key in keys:
        value = settings.get(key)
        if value is not None:
            try:
                fields[key] = _RUN_KEYS[key](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise UsageError(f"invalid {key} value {value!r}: {exc}") from None
    return fields


def build_run_config(args) -> RunConfig:
    """Overlay CLI flags on the config file (flags win) and convert each key.

    A file key outside ``_RUN_KEYS`` is a usage error.
    """
    doc = load_json(args.config, "config") if args.config else {}
    if not isinstance(doc, dict):
        raise DataError("config file must hold a JSON object")
    _check_keys(doc, _RUN_KEYS, "config file")
    settings = {**doc, **{k: v for k, v in vars(args).items() if v is not None}}
    if settings.get("schema") is None:
        raise UsageError("a schema is required (--schema or config key 'schema')")
    return RunConfig(**_convert(settings))


class _OutputSet:
    """Context manager for the files one command writes.

    Register each path before opening it. If the block fails, every
    registered file is removed, and an OSError becomes a DataError.
    """

    def __init__(self):
        self.paths: list[Path] = []

    def path(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.paths.append(path)
        return path

    def write(self, path, text: str):
        self.path(path).write_text(text, encoding="utf-8")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for p in self.paths:
                with contextlib.suppress(OSError):
                    p.unlink()
        if isinstance(exc, OSError):
            raise DataError(f"cannot write output: {exc}") from None


def _report_text(kind: str, report: EvalReport, member_reports) -> str:
    text = f"model: {kind}\n\n{report.to_text()}"
    for member_kind, rep in member_reports:
        text += f"\nmember {member_kind}:\n{rep.to_text()}"
    return text


def _report_json(kind: str, report: EvalReport, member_reports) -> str:
    doc = {"model": kind, "metrics": report.to_json_dict()}
    if member_reports:
        doc["members"] = {k: r.to_json_dict() for k, r in member_reports}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_reports(outputs, out_dir: Path, kind: str, report, member_reports):
    outputs.write(out_dir / "report.txt", _report_text(kind, report, member_reports))
    outputs.write(out_dir / "report.json", _report_json(kind, report, member_reports))
    outputs.write(out_dir / "confusion.csv", report.confusion_csv_text())


def _score(bundle, data):
    """Read the CSV ``data`` against ``bundle`` and score every row."""
    table = load_csv(data, bundle.state.schema)
    # A number past float range ends in the one error[numeric] line, not in
    # numpy warnings first.
    with np.errstate(all="ignore"):
        encoded = transform(table, bundle.state)
        return table, encoded, combined_probabilities(bundle, encoded, table)


def _prediction_header(schema) -> list[str]:
    """The schema's columns, one probability per class, then the predicted label.

    Raises:
        DataError: a schema column with the name of an added one, which a
            reader that looks columns up by name could not tell apart.
    """
    added = [*(f"prob_{c}" for c in schema.class_labels), "predicted"]
    for name in added:
        if name in schema.column_names:
            raise DataError(
                f"schema column {name!r} has the name of a prediction column; "
                "rename it and retrain to predict"
            )
    return [*schema.column_names, *added]


def cmd_generate(args) -> int:
    data_keys = _convert(vars(args), ("rows", "imbalance", "missing_fraction"))
    table = generate_synthetic(load_schema(args.schema), seed=args.seed, **data_keys)
    with _OutputSet() as outputs:
        write_csv(table, outputs.path(args.out))
    print(f"wrote {table.row_count} rows to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = build_run_config(args)
    outcome = run_training(config)
    out_dir = Path(config.out)
    with _OutputSet() as outputs:
        save_bundle(outcome.bundle, outputs.path(out_dir / "bundle.json"))
        for name, text in outcome.member_logs:
            outputs.write(out_dir / f"{name}.csv", text)
        _write_reports(
            outputs, out_dir, outcome.bundle.kind, outcome.report, outcome.member_reports
        )
    print(f"trained {outcome.bundle.kind} on {config.schema}")
    print(f"test accuracy: {outcome.report.accuracy:.6f} ({outcome.report.n_samples} rows)")
    print(f"outputs in {out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    bundle = load_bundle(args.model)
    table, encoded, probas = _score(bundle, args.data)
    if table.row_count == 0:
        raise DataError(f"{args.data} holds no rows; evaluate needs labeled rows")
    n_bad = int((encoded.labels < 0).sum())
    if n_bad:
        raise DataError(f"{n_bad} row(s) have no target label; evaluate needs labeled data")
    report = evaluate(probas, encoded.labels, bundle.state.schema.class_labels)
    if args.out:
        with _OutputSet() as outputs:
            _write_reports(outputs, Path(args.out), bundle.kind, report, [])
    print(_report_text(bundle.kind, report, []), end="")
    return 0


def cmd_predict(args) -> int:
    bundle = load_bundle(args.model)
    schema = bundle.state.schema
    header = _prediction_header(schema)
    table, _, probas = _score(bundle, args.data)
    predicted = [schema.class_labels[i] for i in probas.argmax(axis=1).tolist()]
    with _OutputSet() as outputs:
        _write_csv_rows(outputs.path(args.out), header, [*table.columns, *probas.T, predicted])
    print(f"wrote {table.row_count} predictions to {Path(args.out)}")
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
        f"numeric features: {len(schema.numeric_feature_names)}",
        f"categorical features: {len(schema.categorical_feature_names)}",
        f"token width: {state.total_padded_width}",
        f"vocabulary size: {state.total_vocab_size}",
        f"preprocess fingerprint: {state.fingerprint()}",
        f"members: {', '.join(m.kind for m in bundle.members)}",
    ]
    lines.extend(f"  {m.kind}: {m.describe()}" for m in bundle.members)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ToolkitError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return e.exit_code
    except MemoryError as e:
        # An input that asks for more memory than there is, such as a bundle
        # whose pad length gives a vast token matrix, fails like bad data.
        print(f"error[data]: not enough memory for this input ({e!r})", file=sys.stderr)
        return DataError.exit_code
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, so that the flush at
        # exit cannot fail again, and exit 1 without a message.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
