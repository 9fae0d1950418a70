"""Host-speed probe: a fixed kernel timed between the benchmark's operations.

On a shared 2-core VM, measured on a kernel like this one and on tabfuse's own
layers, the host alternates for tens of seconds between a fast and a slow
state. The slow state is 30-80% slower, depending on the code, and CPU time
shows the same slowdown, so neither longer runs nor CPU clocks remove it.
The probe mixes the kinds of work tabfuse does: string splitting and dict
lookups, float formatting, a Python loop, numpy argsort/cumsum and small
matmuls, on working sets that stay in cache. It does not depend on tabfuse,
so a change to the program leaves the probe's time alone.

An operation's adjusted time is ``raw * REFERENCE_S / probe``, where
``probe`` is the mean of the probe runs just before and just after the
operation. This scales every time to a host on which one probe run takes
``REFERENCE_S``. Over 10 s windows on that VM it cut the coefficient of
variation of tabfuse operations (GBDT and fusion training, 16-row scoring,
transform) from 0.11-0.15 to 0.02-0.05.
"""

from __future__ import annotations

import bisect
import gc
import time

import numpy as np

# About one probe run on the fast state of the 2-core VM the bounds were set on.
REFERENCE_S = 0.016
# The first runs in a process are slower (page faults, allocator growth).
WARMUP = 5
# OpenBLAS worker threads spin for about 0.1 s after the last BLAS call. On a
# 2-vCPU host a spinning worker made the probe up to 2.5x slower, so a probe
# that follows BLAS-heavy work waits this long first.
SETTLE_S = 0.2


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        # Small working sets that stay in cache, like tabfuse's per-call work.
        self._x = rng.standard_normal((1000, 6))
        self._g = rng.standard_normal(1000)
        self._floats = rng.standard_normal(600).tolist()
        self._a = rng.standard_normal((64, 128))
        self._b = rng.standard_normal((128, 32))
        self._cells = [f"W{(i * 7919) % 1009}{i % 10} v{i % 31}" for i in range(2000)]
        self._vocab = {f"w{i}{j}": i for i in range(1009) for j in range(10)}
        for _ in range(WARMUP):
            self._kernel()
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _kernel(self) -> None:
        vocab = self._vocab
        for _ in range(5):
            [[vocab.get(t, 1) for t in c.lower().split()] for c in self._cells]
            [float(repr(v)) for v in self._floats]
        s = 0
        for i in range(10_000):
            s += i * 3
        for _ in range(4):
            for j in range(self._x.shape[1]):
                np.cumsum(self._g[np.argsort(self._x[:, j], kind="stable")])
        for _ in range(100):
            self._a @ self._b

    def probe(self, settle: bool = False) -> None:
        if settle:
            time.sleep(SETTLE_S)
        # No collection inside the probe: its cost would follow the size of
        # the program's heap, which a change to the program may alter.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.ends.append(end)

    def adjust(self, start: float, end: float) -> float:
        """``end - start`` scaled by the probe runs on either side of it."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        near = [i for i in (before, after) if 0 <= i < len(self.starts)]
        if not near:
            raise RuntimeError("no probe run near the operation")
        probe = sum(self.ends[i] - self.starts[i] for i in near) / len(near)
        return (end - start) * REFERENCE_S / probe
