"""Machine-speed probe: rescales a run's seconds to a machine at nominal speed.

On the shared two-core machine this benchmark was written on, the same
operation ran 20-35% slower for minutes at a time, with CPU time tracking wall
time (the slowdown is in the processor, not in scheduling). A fixed probe
kernel slows down with it: the ratio of an operation's time to the probe's
time spread 6% across 20-second windows where the operation's own time spread
20%.

The probe mixes the kinds of work the workloads do (an interpreter loop over a
dict, dense symmetric eigendecompositions, sparse matrix-vector products, a
sort and a row-wise `np.unique`). It is benchmark code, so it does not change
when the program does. The run times the probe between operations and scales
every time it reports by NOMINAL_PROBE_S / (median probe time of the run),
which leaves them in seconds: the time on a machine whose probe runs in
NOMINAL_PROBE_S. One probe takes about 20 ms and is itself noisy (single probes
ranged 15-38 ms within a minute), hence one factor from the run's median
rather than one per operation.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp

# The probe's median on the machine the baseline was measured on (shared
# 2-core x86_64, OpenBLAS pinned to one thread); fixed, so that scaled
# times read close to wall seconds there.
NOMINAL_PROBE_S = 0.020


class SpeedProbe:
    """Times the probe kernel and converts measured seconds to nominal ones."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((120, 120))
        self._sym = a + a.T
        n, nnz = 2000, 16_000
        rows, cols = rng.integers(0, n, nnz), rng.integers(0, n, nnz)
        self._sparse = sp.csr_matrix((rng.standard_normal(nnz), (rows, cols)), shape=(n, n))
        self._vec = rng.standard_normal(2000)
        self._samples = rng.standard_normal(100_000)
        self.probes = [self.probe()]

    def probe(self) -> float:
        t0 = perf_counter()
        counts = {}
        for i in range(15_000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        for _ in range(3):
            np.linalg.eigh(self._sym)
        w = self._vec
        for _ in range(200):
            w = self._sparse @ w
            w /= np.linalg.norm(w)
        np.sort(self._samples)
        np.unique((self._samples > 0.3).reshape(-1, 50), axis=0)
        return perf_counter() - t0

    def sample(self) -> None:
        self.probes.append(self.probe())

    def factor(self) -> float:
        """Multiplier from this run's seconds to nominal seconds."""
        return NOMINAL_PROBE_S / statistics.median(self.probes)
