"""A fixed reference kernel that measures how fast this machine runs right now.

On a shared virtual machine the same pass can take 1.8x longer a few minutes
later, because other tenants load the host.  The probe times a frozen mix of
the operations sigaug's passes spend their time on: sparse-dense products and
dense matmuls with ReLU (the encoder), per-edge ``np.intersect1d`` over
sorted neighbour lists (the triangle kernel) and Python parsing into tuples
and dicts (the loaders).  It never calls sigaug, so a change to sigaug cannot
change it.

``to_reference`` turns CPU seconds into reference seconds: roughly what
they would have been while the probe ran in ``REFERENCE_PROBE_S``.  Under
host load the probe stretches about twice as much, in log terms, as the
benchmark's passes, so the correction is the square root of the probe's
slowdown.  On the machine the benchmark was built on, two sets of ten seeds
per workload gave these run-to-run spreads of the pass time:

    correction        alpha-baseline  alpha-sga  slashdot-report
    none              12% / 13%       10% / 11%  25% / 25%
    full (exponent 1) 12% / 18%       10% / 22%   8% / 12%
    square root        5% /  5%        9% / 10%  12% / 11%
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
from scipy import sparse

REFERENCE_PROBE_S = 0.25  # probe seconds that define one reference second
PROBE_EXPONENT = 0.5  # share of the probe's slowdown that the passes also see


def to_reference(cpu_s: float, probe_s: float) -> float:
    """CPU seconds measured while the probe took ``probe_s``, in reference seconds."""
    return cpu_s * (REFERENCE_PROBE_S / probe_s) ** PROBE_EXPONENT


class Probe:
    def __init__(self, nodes: int = 2000, dim: int = 64, seed: int = 0):
        rng = np.random.default_rng(seed)
        adj = sparse.random(nodes, nodes, density=8 / nodes, random_state=seed, format="csr")
        adj.data[:] = 1.0
        adj = adj + adj.T
        self.adj = sparse.diags(1.0 / np.maximum(adj.sum(axis=1).A1, 1)) @ adj
        self.h = rng.standard_normal((nodes, dim))
        self.w = rng.standard_normal((2 * dim, dim)) / dim
        self.nbrs = [np.sort(adj.indices[adj.indptr[i]:adj.indptr[i + 1]]) for i in range(nodes)]
        self.pairs = rng.integers(0, nodes, size=(3000, 2)).tolist()
        self.lines = [f"{u},{v},{1 if (u + v) % 9 else -1},{u * v}" for u, v in self.pairs]

    def measure(self) -> float:
        """Median CPU seconds of two rounds of the reference mix."""
        return statistics.median(self._round() for _ in range(2))

    def _round(self) -> float:
        """CPU seconds for one round (about 0.25 s on a quiet 2-vCPU Xeon)."""
        # without the collector, the size of sigaug's heap cannot slow the probe
        gc.disable()
        try:
            return self._timed_mix()
        finally:
            gc.enable()

    def _timed_mix(self) -> float:
        started = time.process_time()
        h = self.h
        for _ in range(24):
            h = np.maximum(np.hstack([self.adj @ h, h]) @ self.w, 0.0)
        for _ in range(8):
            for a, b in self.pairs:
                np.intersect1d(self.nbrs[a], self.nbrs[b], assume_unique=True, return_indices=True)
        for _ in range(24):
            seen: dict = {}
            for line in self.lines:
                u, v, s, _t = line.split(",")
                key = (int(u), int(v))
                seen[key] = seen.get(key, 0) + int(float(s))
        return time.process_time() - started
