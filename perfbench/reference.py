"""A fixed piece of pure-Python, sparse and dense work that times the host's current speed.

On a shared 2-vCPU Xeon VM the same job ran up to 1.7x slower for stretches
of seconds to minutes while the host was busy; a pure-Python loop, sparse
products, SuperLU and dense LU slowed with it, with no gaps in the process's
own clock, so the slowdown is contention inside the core, not preemption.
Over ten 40 s runs per workload the plain median job time spread 0.08-0.19
of its median across runs; the median of each job's time over the time of
this reference, timed just before it, spread 0.03.  The reference calls
nothing of neumannlab, so a change to the program moves the job time and
leaves the reference where it was.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: 10^3 Laplacian for the in-cache sparse product and SuperLU; a 50^3 one
#: (~10 MB, larger than the core's own caches) for the memory-bound product
#: that dominates graph-krylov's CG; a 150^2 dense system.
GRID = 10
LARGE_GRID = 50
DENSE = 150


def _laplacian(n):
    d1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.eye(n)
    lap = sp.kron(sp.kron(d1, eye), eye) + sp.kron(sp.kron(eye, d1), eye) + sp.kron(sp.kron(eye, eye), d1)
    return lap + 0.01 * sp.eye(n**3)


class Reference:
    def __init__(self):
        self.matrix = _laplacian(GRID).tocsc()
        self.vector = np.ones(GRID**3)
        self.large = _laplacian(LARGE_GRID).tocsr()
        self.large_vector = np.ones(LARGE_GRID**3)
        self.dense = np.random.default_rng(0).standard_normal((DENSE, DENSE))
        self.time()  # lazy imports and first-call set-up stay out of the samples

    def time(self):
        """Seconds for one pass of the reference work, about 50 ms on that VM."""
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        for _ in range(300):
            self.matrix @ self.vector
        for _ in range(10):
            self.large @ self.large_vector
        spla.splu(self.matrix).solve(self.vector)
        for _ in range(10):
            np.linalg.solve(self.dense, self.dense)
        return time.perf_counter() - start
