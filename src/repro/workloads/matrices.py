"""Sparse-matrix substrate: CSR matrices and Table V-style generators.

The paper's SuiteSparse/SNAP matrices are unavailable offline; generators
below reproduce the statistic that drives the evaluated kernels — average
nonzeros per row — with three structural flavors matching the domains in
Table V:

* ``uniform``  — scattered nonzeros (graph-as-matrix, file sharing);
* ``banded``   — clustered around the diagonal (structural/FEM: pwtk, cant);
* ``powerlaw`` — heavy-tailed row lengths (circuit, economics).

Values are small deterministic floats so dot products stay well-scaled.
"""

import random


class CSRMatrix:
    """Compressed Sparse Row matrix with sorted column coordinates."""

    __slots__ = ("nrows", "ncols", "pos", "crd", "val")

    def __init__(self, nrows, ncols, pos, crd, val):
        self.nrows = nrows
        self.ncols = ncols
        self.pos = pos
        self.crd = crd
        self.val = val

    @property
    def nnz(self):
        return len(self.crd)

    @property
    def avg_nnz_per_row(self):
        return self.nnz / self.nrows if self.nrows else 0.0

    def row(self, i):
        lo, hi = self.pos[i], self.pos[i + 1]
        return list(zip(self.crd[lo:hi], self.val[lo:hi]))

    def transpose(self):
        """CSR of the transpose (i.e. a CSC view of this matrix)."""
        counts = [0] * self.ncols
        for c in self.crd:
            counts[c] += 1
        pos = [0] * (self.ncols + 1)
        for j in range(self.ncols):
            pos[j + 1] = pos[j] + counts[j]
        cursor = list(pos[:-1])
        crd = [0] * self.nnz
        val = [0.0] * self.nnz
        for i in range(self.nrows):
            for k in range(self.pos[i], self.pos[i + 1]):
                j = self.crd[k]
                crd[cursor[j]] = i
                val[cursor[j]] = self.val[k]
                cursor[j] += 1
        return CSRMatrix(self.ncols, self.nrows, pos, crd, val)

    def to_dense_rows(self):
        rows = []
        for i in range(self.nrows):
            row = [0.0] * self.ncols
            for c, v in self.row(i):
                row[c] = v
            rows.append(row)
        return rows

    def __repr__(self):
        return "CSRMatrix(%dx%d, nnz=%d, %.1f/row)" % (
            self.nrows,
            self.ncols,
            self.nnz,
            self.avg_nnz_per_row,
        )


def _row_length(rng, avg, pattern):
    if pattern == "powerlaw":
        # Heavy tail: most rows short, a few long.
        length = 1
        while rng.random() < 0.75 and length < avg * 12:
            length += max(1, int(avg // 2))
            if rng.random() < 0.5:
                break
        return max(1, min(int(rng.expovariate(1.0 / avg)) + 1, avg * 16))
    jitter = rng.randint(-max(1, int(avg // 2)), max(1, int(avg // 2)))
    return max(1, int(avg) + jitter)


def random_matrix(n, nnz_per_row, seed=0, pattern="uniform", ncols=None):
    """Generate an ``n x ncols`` CSR matrix averaging ``nnz_per_row``."""
    rng = random.Random(seed)
    ncols = ncols or n
    pos = [0]
    crd = []
    val = []
    band = max(4, int(nnz_per_row * 6))
    for i in range(n):
        length = min(_row_length(rng, nnz_per_row, pattern), ncols)
        cols = set()
        while len(cols) < length:
            if pattern == "banded":
                c = i + rng.randint(-band, band)
                c = min(max(c, 0), ncols - 1)
            else:
                c = rng.randrange(ncols)
            cols.add(c)
        for c in sorted(cols):
            crd.append(c)
            val.append(round(rng.uniform(-1.0, 1.0), 3))
        pos.append(len(crd))
    return CSRMatrix(n, ncols, pos, crd, val)
