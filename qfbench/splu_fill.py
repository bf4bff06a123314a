"""Reference figures for a later ADI decision, not a benchmark metric:
``splu`` factor time and fill nnz(L+U)/nnz(A) of A = I + dt/2 H_mg on
the 2D grids of the grid-refine workload, plus the time of one solve.

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 qfbench/splu_fill.py

Parameters are fixed (the README's table was made with these); each
time is the median of five factorizations or solves.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from qflab import Grid1D, Grid2D, MGParams, build_mg_hamiltonian

PARAMS = MGParams(r=0.05, lam=0.08, mu=-1.5, zeta=0.3, alpha=0.75, rho=-0.5)
DT = 1.0 / 400.0
REPS = 5


def main() -> None:
    print(f"{'grid':>9} {'N':>7} {'nnz(A)':>8} {'fill':>6} {'factor ms':>10} {'solve ms':>9}")
    for nx, ny in ((101, 41), (201, 81), (401, 161)):
        g = Grid2D(Grid1D(-1.0, 1.0, nx), Grid1D(-4.0, -2.0, ny))
        h = build_mg_hamiltonian(PARAMS, g).matrix
        a = (sparse.identity(g.size, format="csc") + (DT / 2.0) * h).tocsc()
        factor, solve = [], []
        rhs = np.ones(g.size)
        for _ in range(REPS):
            t0 = time.perf_counter()
            lu = splu(a)
            factor.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            lu.solve(rhs)
            solve.append(time.perf_counter() - t0)
        fill = (lu.L.nnz + lu.U.nnz) / a.nnz
        print(f"{nx:>4}x{ny:<4} {g.size:>7} {a.nnz:>8} {fill:>6.2f} "
              f"{statistics.median(factor) * 1e3:>10.2f} {statistics.median(solve) * 1e3:>9.3f}")


if __name__ == "__main__":
    main()
