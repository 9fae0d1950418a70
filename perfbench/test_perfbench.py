"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

Checks that every workload emits exactly the metrics BENCHMARK.json names,
with their units; that names are well formed; that spans nest inside their
parents with non-negative self time; and that a perturbed probability is
counted as a failed operation.
"""

from __future__ import annotations

import json
import re
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tabfuse.cli as tf_cli  # noqa: E402
from spans import Target, Tracer, nesting_errors  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny(name: str) -> harness.Workload:
    w = harness.WORKLOADS[name]
    sections = dict(w.sections)
    if "train" in sections:
        sections["train"] = {"max_epochs": 2, "patience": 1}
    if "gbdt" in sections:
        sections["gbdt"] = {"rounds": 2, "max_leaves": 4}
    return replace(
        w,
        train_rows=300,
        heldout_rows=40,
        sections=sections,
        small_calls=3,
        accuracy_floor=0.0,
        setup_reps=2,
    )


def run_tiny(name: str, tmp_path: Path, trace: bool) -> harness.Runner:
    runner = harness.Runner(tiny(name), 3, tmp_path / name, trace)
    runner.setup()
    runner.run(0.0)
    return runner


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    runner = run_tiny(name, tmp_path, trace=False)
    first_probe = runner.speed.starts[0]
    metrics = runner.end_to_end(import_window=(first_probe - 0.1, first_probe))
    assert {k: u for k, (_, u) in metrics.items()} == declared("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())
    assert runner.failed == 0 and runner.attempted > 0


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    runner = run_tiny(name, tmp_path, trace=True)
    metrics, split = runner.per_layer()
    assert {k: u for k, (_, u) in metrics.items()} == declared("per_layer")
    assert runner.failed == 0
    assert runner.hook_errors == 0
    assert not runner.tracer.missing_sites
    assert nesting_errors(runner.tracer.span_table()) == 0
    assert metrics["cli.main_s"][0] > 0
    trained = name != "score_ensemble"
    assert (metrics["models.train_steps"][0] > 0) == (name == "train_fusion")
    assert (metrics["gbdt.find_best_split_calls"][0] > 0) == (name == "train_gbdt")
    assert (metrics["bundle.save_bundle_s"][0] > 0) == trained
    assert set(split) == ({"train", "bulk", "small"} if trained else {"bulk", "small"})


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        for m in BENCHMARK[kind]:
            assert UNIT.fullmatch(m["unit"]), m
            names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_self_time_excludes_children_and_spans_nest():
    layer = types.ModuleType("layer")
    layer.inner = lambda: sum(range(1000))
    layer.outer = lambda: layer.inner() + layer.inner()
    original = layer.outer
    tracer = Tracer([Target("outer", ((layer, "outer"),)), Target("inner", ((layer, "inner"),))])
    tracer.install()
    tracer.op = 0
    layer.outer()
    tracer.uninstall()
    assert layer.outer is original
    table = tracer.span_table()
    assert nesting_errors(table) == 0
    assert list(table["name"]) == [0, 1, 1]
    assert list(table["parent"]) == [-1, 0, 0]
    dur = table["end"] - table["start"]
    assert table["self_ns"][0] == dur[0] - dur[1] - dur[2] >= 0


def test_perturbed_probability_is_a_failed_operation(tmp_path, monkeypatch):
    real = tf_cli.combined_probabilities

    def perturbed(*args, **kwargs):
        probas = real(*args, **kwargs).copy()
        probas[0, 0] = np.nextafter(probas[0, 0], 2.0)
        return probas

    monkeypatch.setattr(tf_cli, "combined_probabilities", perturbed)
    runner = run_tiny("score_ensemble", tmp_path, trace=False)
    bulk_ops = len(runner.samples["bulk"])
    assert bulk_ops > 0
    assert runner.failed == bulk_ops
    assert all("differ" in reason for reason in runner.failures)


def test_check_predictions_rejects_each_kind_of_error(tmp_path):
    labels = ("low", "mid", "high")
    reference = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    path = tmp_path / "p.csv"

    def write(probs, predicted):
        lines = ["x,prob_low,prob_mid,prob_high,predicted"]
        for row, label in zip(probs, predicted):
            lines.append("1," + ",".join(repr(float(p)) for p in row) + f",{label}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    write(reference, ["high", "low"])
    assert harness.check_predictions(path, reference, labels) is None
    write(reference, ["high", "mid"])
    assert "argmax" in harness.check_predictions(path, reference, labels)
    bumped = reference.copy()
    bumped[1, 2] = np.nextafter(0.1, 1.0)
    write(bumped, ["high", "low"])
    assert "differ" in harness.check_predictions(path, reference, labels)
    assert harness.check_small(reference + 1e-13, reference) is None
    assert "differs" in harness.check_small(reference + 1e-9, reference)
