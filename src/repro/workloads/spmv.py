"""Sparse Matrix-Vector multiplication, CSR (GARDENIA suite).

``y = A @ x`` with A in CSR: one accumulation loop per row over the
``crd``/``val`` coordinate streams plus an indirect gather of ``x``. The
gather is the irregular access — exactly the indirect-then-load shape RAs
offload — while the row bounds, coordinates, and values all stream.

Every variant is exact: each ``y[i]`` is one row's serial accumulation,
and both the pipeline and the row-partitioned data-parallel variant
preserve each row's accumulation order.
"""

import random

from ..ir import Ctrl, IRBuilder, QueueSpec, RA_INDIRECT, RA_SCAN, RASpec, StageProgram
from .protocol import dp_program, manual_program, serial_kernel

NAME = "spmv"

SOURCE = """
#pragma phloem
void spmv(const int* restrict pos, const int* restrict crd,
          const double* restrict val, const double* restrict x,
          double* restrict y, int nrows) {
  for (int i = 0; i < nrows; i++) {
    int start = pos[i];
    int end = pos[i + 1];
    double acc = 0.0;
    for (int e = start; e < end; e++) {
      int k = crd[e];
      acc = acc + val[e] * x[k];
    }
    y[i] = acc;
  }
}
"""


def function():
    return serial_kernel(SOURCE)


def dense_vector(ncols, seed=0):
    """Deterministic dense input vector (seeded, hash-independent)."""
    rng = random.Random("spmv-x-%d-%d" % (ncols, seed))
    return [rng.uniform(0.5, 1.5) for _ in range(ncols)]


def make_env(a):
    arrays = {
        "pos": list(a.pos),
        "crd": list(a.crd),
        "val": list(a.val),
        "x": dense_vector(a.ncols),
        "y": [0.0] * a.nrows,
    }
    scalars = {"nrows": a.nrows}
    return arrays, scalars


def reference(a):
    """Oracle product: the same row-major accumulation in pure Python."""
    x = dense_vector(a.ncols)
    y = [0.0] * a.nrows
    pos, crd, val = a.pos, a.crd, a.val
    for i in range(a.nrows):
        acc = 0.0
        for e in range(pos[i], pos[i + 1]):
            acc = acc + val[e] * x[crd[e]]
        y[i] = acc
    return y


def check(arrays, a):
    return arrays["y"] == reference(a)


# ---------------------------------------------------------------------------
# Manually pipelined variant


def manual_pipeline():
    """Driver + accumulate stage over three RAs.

    Row bounds feed two scan RAs; the coordinate stream is chained into
    an indirect RA over ``x``, so the gather — the only irregular access
    — is fully offloaded and the accumulate stage just multiplies two
    in-order streams. Rows are NEXT-delimited; per-row accumulation
    order matches the serial kernel exactly.
    """
    Q_C_IN, Q_V_IN, Q_CRD, Q_XV, Q_VAL = 0, 1, 2, 3, 4

    b = IRBuilder(temp_prefix="%m")
    with b.for_("i", 0, "nrows"):
        s = b.load("@pos", "i")
        e = b.load("@pos", b.binop("add", "i", 1))
        b.enq(Q_C_IN, s)
        b.enq(Q_C_IN, e)
        b.enq_ctrl(Q_C_IN, Ctrl.NEXT)
        b.enq(Q_V_IN, s)
        b.enq(Q_V_IN, e)
        b.enq_ctrl(Q_V_IN, Ctrl.NEXT)
    stage0 = StageProgram(0, "drive", b.finish())

    b = IRBuilder(temp_prefix="%u")
    with b.for_("i", 0, "nrows"):
        b.mov(0.0, dst="acc")
        with b.loop():
            xv = b.deq(Q_XV)
            at_end = b.is_control(xv)
            with b.if_(at_end):
                b.deq(Q_VAL)  # consume the aligned marker
                b.break_()
            vv = b.deq(Q_VAL)
            b.binop("add", "acc", b.binop("mul", vv, xv), dst="acc")
        b.store("@y", "i", "acc")
    stage1 = StageProgram(1, "accumulate", b.finish())

    queues = [
        QueueSpec(Q_C_IN, ("stage", 0), ("ra", 0), 24, "crd bounds"),
        QueueSpec(Q_V_IN, ("stage", 0), ("ra", 2), 24, "val bounds"),
        QueueSpec(Q_CRD, ("ra", 0), ("ra", 1), 24, "coords"),
        QueueSpec(Q_XV, ("ra", 1), ("stage", 1), 24, "x gathers"),
        QueueSpec(Q_VAL, ("ra", 2), ("stage", 1), 24, "values"),
    ]
    ras = [
        RASpec(0, RA_SCAN, "@crd", Q_C_IN, Q_CRD),
        RASpec(1, RA_INDIRECT, "@x", Q_CRD, Q_XV),
        RASpec(2, RA_SCAN, "@val", Q_V_IN, Q_VAL),
    ]
    return manual_program(NAME, function(), [stage0, stage1], queues, ras)


# ---------------------------------------------------------------------------
# Data-parallel variant


def data_parallel(nthreads):
    """Row-striped SpMV: no shared writes, exact in any interleaving."""

    def worker(b, tid):
        with b.for_("i", tid, "nrows", nthreads):
            s = b.load("@pos", "i")
            e = b.load("@pos", b.binop("add", "i", 1))
            b.mov(0.0, dst="acc")
            with b.for_("e", s, e):
                k = b.load("@crd", "e")
                xv = b.load("@x", k)
                vv = b.load("@val", "e")
                b.binop("add", "acc", b.binop("mul", vv, xv), dst="acc")
            b.store("@y", "i", "acc")

    return dp_program(NAME, function(), nthreads, worker, ["nthreads"])


def make_env_dp(a, nthreads):
    arrays, scalars = make_env(a)
    scalars["nthreads"] = nthreads
    return arrays, scalars
