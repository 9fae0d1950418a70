"""Run one tabfuse benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_fusion --seed 7 --seconds 20 --trace 0

Run it from the root of a tabfuse checkout: the program is imported from
``./src``, and inputs, outputs and the span trace go to
``.perfbench_work/``. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). The lines before it
give the environment, sample counts and, for traced runs, the per-phase
layer split. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

DEFAULT_SEED = 7
CHECK_SEED = 11  # a second seed for checking a claimed gain


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "tabfuse" / "__init__.py").is_file():
        print(f"error: no tabfuse sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import tabfuse

    import_window = (start, time.perf_counter())
    if not Path(tabfuse.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported tabfuse from {tabfuse.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy as np
    from harness import WORKLOADS, Runner
    from spans import nesting_errors

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = root / ".perfbench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    runner = Runner(workload, args.seed, out / "data", trace=bool(args.trace))
    env = environment()
    try:
        runner.setup()
        runner.run(args.seconds)
    finally:
        runner.trace(False)
        shutil.rmtree(out / "data", ignore_errors=True)

    print(f"workload {workload.name}: seed {args.seed}, generator seed {runner.gen_seed}, "
          f"{runner.rounds} rounds, trace {args.trace}")
    print("env " + json.dumps(env))
    summary = {"env": env, "workload": workload.name, "seed": args.seed, "generator_seed": runner.gen_seed}
    correct = runner.failed == 0
    if args.trace:
        metrics, split = runner.per_layer()
        table = runner.tracer.span_table()
        bad_spans = nesting_errors(table)
        correct = correct and bad_spans == 0
        for phase, info in split.items():
            top = ", ".join(f"{k} {v:.0%}" for k, v in list(info["self_share"].items())[:6])
            print(f"phase {phase}: {info['s_per_round']:.3f} s/round in spans; self time: {top}")
        print(f"tracing overhead: {metrics['trace.overhead_s'][0]:+.3f} s/round "
              f"({metrics['trace.overhead_frac'][0]:+.1%}) over {len(runner.rounds_timed[True])} traced "
              f"and {len(runner.rounds_timed[False])} untraced rounds; spans nested wrongly: {bad_spans}; "
              f"count hooks that failed: {runner.hook_errors}")
        if runner.tracer.missing_sites:
            print("traced names not found: " + ", ".join(runner.tracer.missing_sites))
        np.savez_compressed(out / "spans.npz", names=np.array(runner.tracer.names),
                            op_phase=np.array(runner.op_phase), op_round=np.array(runner.op_round),
                            **table)
        summary["phase_split"] = split
    else:
        metrics = runner.end_to_end(import_window)
        raw = runner.end_to_end(import_window, adjusted=False)
        counts = runner.sample_counts()
        for name, (value, unit) in metrics.items():
            n = f" (n={counts[name]}, unadjusted {raw[name][0]:.6g})" if name in counts else ""
            print(f"{name} {value:.6g} {unit}{n}")
        summary["unadjusted"] = {k: v for k, (v, _) in raw.items()}
    frac = runner.failed / runner.attempted
    print(f"failed_ops_frac {frac:.6g} ({runner.failed} of {runner.attempted} operations)")
    for reason in runner.failures:
        print(f"failure: {reason}")

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    summary["result"] = result
    (out / "result.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
