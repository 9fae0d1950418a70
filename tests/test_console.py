"""The command line as a user meets it: each command is a ``python -m tabfuse.cli`` process,
the ``main`` the ``tabfuse`` script wraps, run in one directory that holds the shared inputs and
the ensemble trained in ``run/``. A refused input exits with its documented code and writes one
``error[<code>]`` line, with no traceback and no output left behind."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from bundle_docs import write_doc

from tabfuse import models
from tabfuse.bundle import load_bundle
from tabfuse.pipeline import predict_on_table
from tabfuse.schema import load_csv

SRC = str(Path(models.__file__).parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.getenv("PYTHONPATH")]))}
RUN = {"capture_output": True, "text": True, "env": ENV, "timeout": 120}  # a hang fails its test
COLUMNS = [{"name": "temp", "kind": "numerical"}, {"name": "complaint", "kind": "categorical"},
           {"name": "outcome", "kind": "categorical"}]
SCHEMA = {"columns": COLUMNS, "target": "outcome", "class_labels": ["home", "admitted"]}
CONFIG = {"train": {"max_epochs": 4, "patience": 2}, "gbdt": {"rounds": 5}}


def tabfuse(command: str) -> list[str]:
    """The argv of a tabfuse command; no word of ``command`` holds a space."""
    return [sys.executable, "-m", "tabfuse.cli", *command.split()]


def cli(command: str, **kwargs) -> str:
    """The standard output of a tabfuse command, which must exit 0."""
    done = subprocess.run(tabfuse(command), **RUN, **kwargs)
    assert done.returncode == 0, done.stderr
    return done.stdout


def refuses(code, pattern, absent, *argv) -> subprocess.CompletedProcess:
    """Run ``argv``: it must exit ``code`` and write exactly one stderr line,
    with no traceback, in which ``re.search`` finds ``pattern``, and the path
    ``absent`` (None names no path) must not exist afterwards."""
    done = subprocess.run(argv, **RUN)
    assert done.returncode == code, f"exit {done.returncode}, not {code}: {done.stderr}"
    one_line = done.stderr.count("\n") == 1 and done.stderr.endswith("\n")
    assert one_line and "Traceback" not in done.stderr, done.stderr
    assert re.search(pattern, done.stderr), f"{pattern!r} not in {done.stderr!r}"
    assert absent is None or not Path(absent).exists(), f"{absent} left behind"
    return done


def write_json(path, doc):
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def tree_bytes(root: Path) -> dict:
    """The bytes of every file under ``root``, by relative path."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module", autouse=True)
def work(tmp_path_factory):
    """The ensemble trained on train.csv in run/ evaluates, predicts and inspects."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("console"))
        write_json("schema.json", SCHEMA)
        write_json("config.json", CONFIG)
        cli("generate --schema schema.json --rows 400 --seed 1 --out train.csv")
        cli("generate --schema schema.json --rows 100 --seed 1 --out holdout.csv")
        cli("train --config config.json --schema schema.json --data train.csv --model ensemble --out run")
        cli("evaluate --model run/bundle.json --data holdout.csv --out eval")
        cli("predict --model run/bundle.json --data holdout.csv --out predictions.csv")
        cli("inspect --model run/bundle.json")
        yield


def test_refuses_fails_on_a_wrong_code_two_lines_no_match_or_a_leftover():
    stand_in = (sys.executable, "-c", "import sys; sys.stderr.write(sys.argv[1]); sys.exit(3)")
    Path("leftover.txt").touch()
    for code, pattern, absent, stderr in [
        (2, "^error", None, "error\n"), (3, "^error", None, "error\nerror\n"),
        (3, r"^error\[data\]", None, "error[usage]\n"), (3, "^error", "leftover.txt", "error\n"),
    ]:
        with pytest.raises(AssertionError):
            refuses(code, pattern, absent, *stand_in, stderr)
    refuses(3, "^error", "absent.txt", *stand_in, "error\n")


def test_generate_writes_the_pinned_bytes():
    digest = hashlib.sha256(Path("train.csv").read_bytes()).hexdigest()
    assert digest == "d6ebe26298d438a87297579ceccc7d41f32457788c72a1eb0af2765276d05442"


def test_members_given_as_comma_separated_text():
    write_json("members.json", {**CONFIG, "ensemble_members": "fusion,gbdt"})
    cli("train --config members.json --schema schema.json --data holdout.csv --model ensemble --out run_text")
    assert "members: fusion, gbdt" in cli("inspect --model run_text/bundle.json").splitlines()


@pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"], ids=["again", "byte-order-mark"])
def test_predict_writes_the_same_bytes(prefix):
    """Again, and behind the byte-order mark of a spreadsheet's "CSV UTF-8"."""
    data = f"holdout_{len(prefix)}.csv"
    Path(data).write_bytes(prefix + Path("holdout.csv").read_bytes())
    cli(f"predict --model run/bundle.json --data {data} --out p_{data}")
    assert Path(f"p_{data}").read_bytes() == Path("predictions.csv").read_bytes()


def test_row_blocks_write_the_bits_of_one_whole_table_pass(monkeypatch):
    """5,000 rows are four blocks, the 904-row tail joined to the last. That
    depends on the BLAS build, so every build checks it."""
    cli("generate --schema schema.json --rows 5000 --seed 2 --out rows_5k.csv")
    cli("predict --model run/bundle.json --data rows_5k.csv --out p_5k.csv")
    bundle = load_bundle("run/bundle.json")
    monkeypatch.setattr(models, "_ROW_BLOCK", 10**9)  # each network runs the whole table at once
    expected = predict_on_table(bundle, load_csv("rows_5k.csv", bundle.state.schema))
    header, *rows = read_rows("p_5k.csv")
    probs = [j for j, name in enumerate(header) if name.startswith("prob_")]
    written = np.array([[float(row[j]) for j in probs] for row in rows])
    assert written.shape == expected.shape == (5000, 2), written.shape
    assert written.tobytes() == expected.tobytes(), f"{(written != expected).any(1).sum()} rows differ"


def test_a_header_only_csv_predicts_only_the_header():
    Path("empty.csv").write_bytes(Path("holdout.csv").read_bytes().split(b"\n")[0] + b"\n")
    cli("predict --model run/bundle.json --data empty.csv --out p_empty.csv")
    assert Path("p_empty.csv").read_bytes().count(b"\n") == 1


def test_a_quoted_cell_reads_back_unchanged():
    """A comma, a doubled quote and a line break; every prob_* field is a float."""
    header, *rows = read_rows("holdout.csv")
    rows[0][header.index("complaint")] = 'cough, "dry"\r\nfever'
    write_rows("quoted.csv", [header, *rows])
    quoted = ',"cough, ""dry""\r\nfever",'
    assert quoted in Path("quoted.csv").read_bytes().decode("utf-8")
    cli("predict --model run/bundle.json --data quoted.csv --out p_quoted.csv")
    text = Path("p_quoted.csv").read_bytes().decode("utf-8")
    assert quoted in text
    out_header, *out_rows = csv.reader(io.StringIO(text))
    assert out_header[: len(header)] == header, out_header
    assert [row[: len(header)] for row in out_rows] == rows
    probs = [j for j, name in enumerate(out_header) if name.startswith("prob_")]
    assert len(probs) == 2 and out_header[-1] == "predicted", out_header
    for row in out_rows:
        [float(row[j]) for j in probs]


@pytest.mark.parametrize("model, view", [("gbdt", "numeric+tokens"), ("gbdt", "numeric+frequency"),
                                         ("fusion", None), ("baseline", None)])
def test_a_second_process_trains_the_same_bytes(model, view):
    """The output directory is recorded in the bundle, so both runs write to one place."""
    out = f"run_{model}_{view}"
    write_json(f"{out}.json", {**CONFIG, **({"gbdt_feature_view": view} if view else {})})
    command = f"train --config {out}.json --schema schema.json --data train.csv --model {model}"
    cli(f"{command} --out {out}")
    first = tree_bytes(Path(out))
    cli(f"{command} --out {out}")
    assert tree_bytes(Path(out)) == first
    if model == "gbdt":
        # The round count, which a model derives from its tree sizes, reaches inspect.
        described = f"  gbdt: 5 rounds x 2 classes, feature view {view}"
        assert described in cli(f"inspect --model {out}/bundle.json").splitlines()
        # A node stores its feature, value and left child; the right one is left + 1.
        trees = json.loads(first[Path("bundle.json")])["members"][0]["payload"]["trees"]
        assert list(trees) == ["sizes", "feature", "value", "left"], list(trees)


def test_a_run_summary_retrains_its_run_where_the_same_inputs_sit(tmp_path):
    for name in ("schema.json", "train.csv"):
        (tmp_path / name).write_bytes(Path(name).read_bytes())
    write_json(tmp_path / "summary.json", json.loads(Path("run/bundle.json").read_text())["run_summary"])
    cli("train --config summary.json", cwd=tmp_path)
    assert tree_bytes(tmp_path / "run") == tree_bytes(Path("run"))


def test_complaint_text_trains_the_vocabulary_of_its_tokens():
    """Punctuation, underscores, final sigma and İ, through the tokenizing regex cell by cell."""
    header, *rows = read_rows("train.csv")
    j = header.index("complaint")
    words = ["Chest-Pain", "left_arm", "ΟΔΟΣ", "İzmir", "fever", "cough spell"]
    for i, row in enumerate(rows):
        row[j] = row[j] and f"{words[i % len(words)]} {row[j]}"
    write_rows("mixed.csv", [header, *rows])
    cli("train --config config.json --schema schema.json --data mixed.csv --model fusion --out run_mixed")
    cells = [row[j] for row in read_rows("mixed.csv")[1:]]
    expected = sorted({t for cell in cells for t in re.findall(r"[^\W_]+", cell.lower())})
    doc = json.loads(Path("run_mixed/bundle.json").read_text(encoding="utf-8"))
    tokens = doc["preprocess"]["vocabularies"]["complaint"]["tokens"]
    assert tokens == expected, (tokens, expected)
    assert {"chest", "pain", "left", "arm", "ΟΔΟΣ".lower(), "zmir"} <= set(tokens), tokens


def test_a_class_label_with_a_comma_is_quoted_in_confusion_csv():
    write_json("comma_label.json", {**SCHEMA, "class_labels": ["home, discharged", "admitted"]})
    cli("train --config config.json --schema comma_label.json --rows 200 --model gbdt --out run_comma")
    rows = read_rows("run_comma/confusion.csv")
    assert [len(row) for row in rows] == [3, 3, 3], rows
    assert rows[0][1:] == [row[0] for row in rows[1:]] == ["home, discharged", "admitted"], rows


def test_evaluate_prints_its_report_only_once_the_files_are_written():
    Path("taken").write_text("kept\n")
    command = "evaluate --model run/bundle.json --data holdout.csv --out taken"
    done = refuses(3, r"^error\[data\]: cannot write output", None, *tabfuse(command))
    assert done.stdout == ""
    assert Path("taken").read_text() == "kept\n"


TRAIN = "train --config config.json"
DATA = "--schema schema.json --data train.csv"
ROWS = "--schema schema.json --rows"
HOLDOUT = "--data holdout.csv"
# The JSON documents the refusals below read, by file name.
JSON_INPUTS = {
    "three": {**SCHEMA, "class_labels": ["home", "admitted", "transferred"]},
    "described": {**SCHEMA, "description": "ED visits"},
    "numeric_only": {**SCHEMA, "columns": [c for c in COLUMNS if c["name"] != "complaint"]},
    "na_label": {**SCHEMA, "class_labels": ["home", "NA"]},
    "clash": {**SCHEMA, "columns": [{"name": "predicted", "kind": "numerical"}, *COLUMNS]},
    "typo": {"seeds": 3}, "bool_rounds": {"gbdt": {"rounds": True}}, "list_out": {"out": ["x", 1]},
    "nan_improvement": {"train": {"min_improvement": float("nan")}}, "seed": {"train": {"seed": 5}},
    "repeated": {"ensemble_members": ["fusion", "fusion", "gbdt"]},
    "empty_member": {"ensemble_members": "fusion,"},
    "one_class": {"train": {"max_epochs": 3, "patience": 2}, "gbdt": {"rounds": 3},
                  "fractions": [0.1, 0.45, 0.45]},
    "lr_1e308": {"train": {"learning_rate": 1e308}},
    "shrinkage_1e308": {"gbdt": {"shrinkage": 1e308, "rounds": 2}},
}


@pytest.fixture(scope="module")
def inputs(work):
    for name, doc in JSON_INPUTS.items():
        write_json(f"{name}.json", doc)
    text = Path("run/bundle.json").read_text(encoding="utf-8")
    for version in (1, 2, 3, 4):  # as every earlier build wrote
        write_json(f"v{version}.json", {**json.loads(text), "format_version": version})
    # One base64 character changed in the first member's first packed parameter.
    doc = json.loads(text)
    packed = next(iter(doc["members"][0]["payload"]["params"].values()))
    packed["data"] = ("B" if packed["data"][0] == "A" else "A") + packed["data"][1:]
    write_json("flipped.json", doc)
    doc = json.loads(text)
    doc["preprocess"]["extra"] = 1
    write_doc(Path("extra.json"), doc)  # under a recomputed fingerprint
    Path("deep.json").write_text("[" * 100_000 + "]" * 100_000)
    header, *rows = read_rows("holdout.csv")
    write_rows("repeated_header.csv", [[*header, "temp"], *([*row, row[0]] for row in rows)])
    rows[0][header.index("complaint")] = "x" * 200_000  # past csv's 131,072-character limit
    write_rows("long.csv", [header, *rows])
    header, *rows = read_rows("train.csv")  # temp is the first column
    write_rows("huge.csv", [header, *(["1e308", *row[1:]] for row in rows)])
    write_rows("one_class.csv", [["temp", "complaint", "outcome"], *(  # 3 admitted, 20 home
        [f"{36 + i / 10}", "fall" if i % 2 else "chest pain", "admitted" if i < 3 else "home"]
        for i in range(23))])
    cli("generate --schema clash.json --rows 200 --seed 1 --out clash.csv")
    cli(f"{TRAIN} --schema clash.json --data clash.csv --model gbdt --out run_clash")


# Each case: the exit code, a pattern of the one line after "error[<kind>]: ",
# and the command, which must write nothing at its --out path.
REFUSALS = {
    **{f"format-{v}": (3, "", f"predict --model v{v}.json {HOLDOUT}") for v in (1, 2, 3, 4)},
    "flipped": (3, "bundle fingerprint does not match", f"predict --model flipped.json {HOLDOUT}"),
    "extra": (3, r".*preprocess state fields: unknown \['extra'\]", f"predict --model extra.json {HOLDOUT}"),
    "long-cell": (3, "", "predict --model run/bundle.json --data long.csv"),
    "repeated-column": (3, r".*header mismatch; .*, repeated columns \['temp'\]$",
                        "predict --model run/bundle.json --data repeated_header.csv"),
    "clash": (3, "schema column 'predicted'", "predict --model run_clash/bundle.json --data clash.csv"),
    "typo": (2, "config file has unknown key 'seeds'", f"train --config typo.json {DATA}"),
    "bool-rounds": (2, "invalid .*'rounds'", f"train --config bool_rounds.json {DATA}"),
    "nan-improvement": (2, "invalid .*'min_improvement'", f"train --config nan_improvement.json {DATA}"),
    "train-seed": (2, "config section 'train' has unknown key 'seed'", f"train --config seed.json {DATA}"),
    "negative-seed": (2, "", f"{TRAIN} {DATA} --seed -1"),
    "repeated-member": (2, "ensemble member fusion is listed more than once; list each kind once$",
                        f"train --config repeated.json {DATA} --model ensemble"),
    "empty-member": (2, "invalid ensemble members: ''; pick from fusion, baseline, gbdt$",
                     f"train --config empty_member.json {DATA} --model ensemble"),
    "imbalance": (2, "imbalance applies only to --rows", f"{TRAIN} {DATA} --imbalance 1,2"),
    "nine-rows": (3, "the test split is empty: 9 rows", f"{TRAIN} {ROWS} 9 --model ensemble"),
    **{f"one-class-{model}": (3, r"the train split holds only class .home. \(2 rows\): 23 rows",
                              "train --config one_class.json --schema schema.json --data one_class.csv "
                              f"--model {model}") for model in ("fusion", "ensemble")},
    "diverge-fusion": (4, "", f"train --config lr_1e308.json {ROWS} 60 --model fusion"),
    "diverge-gbdt": (4, "", "train --config shrinkage_1e308.json --schema three.json --rows 60 --model gbdt"),
    "numeric-only": (3, "fusion needs a categorical feature column",
                     f"{TRAIN} --schema numeric_only.json --rows 200 --model fusion"),
    "huge-temp": (3, "column 'temp' ", f"{TRAIN} --schema schema.json --data huge.csv"),
    "described": (3, r"schema fields: unknown \['description'\]",
                  "generate --schema described.json --rows 50 --seed 1"),
    "huge-imbalance": (3, "", "generate --schema three.json --rows 60 --imbalance 1e308,1e308,1 --seed 1"),
    "na-label": (3, "class label 'NA' ", "generate --schema na_label.json --rows 300 --seed 1"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_a_refused_command_writes_nothing(inputs, case):
    code, rest, command = REFUSALS[case]
    kind = {2: "usage", 3: "data", 4: "numeric"}[code]
    refuses(code, rf"^error\[{kind}\]: {rest}", f"out_{case}", *tabfuse(f"{command} --out out_{case}"))


def test_a_refusal_without_an_out_flag(inputs):
    """JSON nested past the recursion limit, and a config whose out is a list."""
    refuses(3, r"^error\[data\]: ", None, *tabfuse("inspect --model deep.json"))
    command = f"train --config list_out.json {DATA}"
    refuses(2, r"^error\[usage\]: invalid out value \['x', 1\]", "['x', 1]", *tabfuse(command))
