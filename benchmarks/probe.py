"""Machine-speed probe: a fixed piece of work the benchmark times before each child.

The probe does the kinds of work a vasctherm run does (COO to CSR
conversion, a SuperLU factorization and solve of a 1,681-unknown 2D
Laplacian, a batched ``einsum``, an interpreted loop) with fixed sizes and
without vasctherm, so no change to the package changes its time. On a
shared machine the speed of the CPU drifts by tens of percent over minutes;
the probe measures that drift right next to each child run (run.py).

REFERENCE_S is the probe's median over 38 runs between desk_p1 children on
the 2-vCPU Intel Xeon machine the benchmark was defined on (Python 3.11.7,
numpy 2.4.6, scipy 1.17.1), so normalized times read as seconds on that
machine at its typical speed.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REFERENCE_S = 0.180

_N = 41  # grid points per side


def _laplacian_coo():
    idx = np.arange(_N * _N).reshape(_N, _N)
    rows, cols, vals = [], [], []
    for a, b in ((idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :])):
        a, b = a.ravel(), b.ravel()
        ones = np.ones(a.size)
        rows += [a, b, a, b]
        cols += [a, b, b, a]
        vals += [ones, ones, -ones, -ones]
    return np.concatenate(vals), np.concatenate(rows), np.concatenate(cols)


def run() -> float:
    """Seconds the probe took."""
    start = time.monotonic()
    vals, rows, cols = _laplacian_coo()
    grads = np.random.default_rng(0).random((3200, 3, 2))
    for _ in range(20):
        a = sp.coo_matrix((vals, (rows, cols)), shape=(_N * _N, _N * _N)).tocsr()
        lu = spla.splu((a + sp.identity(_N * _N)).tocsc())
        lu.solve(np.ones(_N * _N))
        np.einsum("tic,tjc->tij", grads, grads)
    acc = 0
    for i in range(300_000):
        acc += i * i
    return time.monotonic() - start
