"""A fixed reference kernel that measures the machine's current speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds: a fixed loop timed back to back reads up to 30% faster or
slower than its median.  The drift is not the same for every kind of code;
small LAPACK calls, dense eigensolvers and pure-Python loops each slow down
by their own amount.  The kernel therefore mixes the kinds of work the
workloads do: small Cholesky solves with their Python call overhead (feature
solvers), symmetric eigendecompositions at the three sizes the embedding
runs use (PSD projection), float formatting and parsing (CSV io), sha256
(file hashes) and a plain interpreter loop (evaluator and cli code).

The kernel is timed right before and right after each task, and the task's
time is divided by the mean of the two, so a drift that lasts longer than a
task cancels.  The kernel uses no robustmv code, so no change to the package
can move it.
"""

import hashlib
import time

import numpy as np
import scipy.linalg

SEED = 20240
SOLVES = 500
EIG_REPEATS = {300: 1, 99: 15, 25: 300}
CSV_SHAPE = (30, 200)
BLOB_BYTES = 1 << 22
LOOP = 150_000


class ReferenceKernel:
    """Calling the kernel runs the fixed work once and returns its wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(SEED)
        a = rng.standard_normal((48, 48))
        self.spd = a @ a.T + 48 * np.eye(48)
        self.rhs = rng.standard_normal((48, 4))
        self.sym = {}
        for n in EIG_REPEATS:
            s = rng.standard_normal((n, n))
            self.sym[n] = s + s.T
        self.rows = rng.standard_normal(CSV_SHAPE).tolist()
        self.blob = rng.bytes(BLOB_BYTES)

    def __call__(self):
        start = time.perf_counter()
        for _ in range(SOLVES):
            scipy.linalg.cho_solve(scipy.linalg.cho_factor(self.spd), self.rhs)
        for n, repeats in EIG_REPEATS.items():
            for _ in range(repeats):
                np.linalg.eigh(self.sym[n])
        text = "\n".join(",".join("%.17g" % v for v in row) for row in self.rows)
        if [[float(c) for c in line.split(",")] for line in text.split("\n")] != self.rows:
            raise AssertionError("reference kernel: CSV round trip is not exact")
        hashlib.sha256(self.blob).digest()
        acc = 0
        for i in range(LOOP):
            acc += i * i % 7
        return time.perf_counter() - start
