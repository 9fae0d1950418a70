"""Span tracer that times tabfuse's layers from outside the program.

Each traced function or method is replaced, at the name its caller looks
it up by, with a wrapper that records one span: span id, parent span,
name, operation id, start and end (``time.perf_counter_ns``). Counts are
taken at the same boundaries by per-span hooks. Spans stay in memory until
the run ends. Nothing inside the program changes: ``uninstall`` puts every
original object back.

A span's self time is its duration minus the durations of its direct
children. The program is single-threaded here, so children never overlap
and that difference is the part of the interval no child covers.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """One span name and every (owner, attribute) its callers look up."""

    name: str
    sites: tuple[tuple[object, str], ...]
    hook: object = None  # hook(tracer, args, kwargs, result), run on return


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = list(targets)
        self.names = [t.name for t in self.targets]
        # (span id, parent id or -1, name index, operation id, start ns, end ns)
        self.records: list[tuple[int, int, int, int, int, int]] = []
        self.counts: Counter = Counter()  # (operation id, count name) -> total
        self.missing_sites: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.op, name)] += amount

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        self.missing_sites = []
        for code, target in enumerate(self.targets):
            for owner, attr in target.sites:
                raw = vars(owner).get(attr)
                if raw is None:
                    # The program moved or dropped this name; its spans read 0.
                    self.missing_sites.append(f"{owner.__name__}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, code, target.hook))
                else:
                    wrapped = self._wrap(raw, code, target.hook)
                self._originals.append((owner, attr, raw))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    def _wrap(self, fn, code: int, hook):
        tracer = self
        stack = self._stack
        records = self.records
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._next_id
            tracer._next_id = span + 1
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records.append((span, parent, code, tracer.op, start, end))
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except Exception:  # a count the program's new shape breaks
                    tracer.count("trace.hook_errors")
            return result

        return traced

    def span_table(self) -> dict[str, np.ndarray]:
        """All spans as arrays indexed by span id, with self time added."""
        arr = np.array(self.records, dtype=np.int64).reshape(-1, 6)
        arr = arr[np.argsort(arr[:, 0], kind="stable")]
        ids, parent, name, op, start, end = arr.T
        dur = end - start
        child = parent >= 0
        covered = np.bincount(
            parent[child], weights=dur[child].astype(np.float64), minlength=len(arr)
        )
        return {
            "id": ids,
            "parent": parent,
            "name": name,
            "op": op,
            "start": start,
            "end": end,
            "self_ns": dur - covered.astype(np.int64),
        }


def nesting_errors(table: dict[str, np.ndarray]) -> int:
    """Spans with negative self time or lying outside their parent's interval."""
    if not np.array_equal(table["id"], np.arange(len(table["id"]))):
        return len(table["id"])
    child = table["parent"] >= 0
    p = table["parent"][child]
    outside = (table["start"][child] < table["start"][p]) | (
        table["end"][child] > table["end"][p]
    )
    return int(outside.sum() + (table["self_ns"] < 0).sum())
