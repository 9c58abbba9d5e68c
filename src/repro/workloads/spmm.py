"""Sparse Matrix-Matrix multiplication (paper Sec. VI-B).

Inner-product (output-stationary) SpMM: each output element is the dot
product of a row of A and a column of B, computed with a *merge-
intersection* over their sorted coordinate streams. This is the paper's
negative result for Phloem: the merge's pointer advances depend on loaded
values, so the compiler cannot decouple inside it (the address slice would
need consumer-computed control) — it falls back to shallow bounds-fetch
pipelines. The manual pipeline uses the application-specific skip-ahead
trick the paper describes: when one stream ends, the other is drained to
its marker without any merge logic.
"""

from ..ir import Ctrl, IRBuilder, QueueSpec, RA_SCAN, RASpec, StageProgram
from .protocol import dp_program, manual_program, serial_kernel

NAME = "spmm"

SOURCE = """
#pragma phloem
void spmm(const int* restrict a_pos, const int* restrict a_crd, const double* restrict a_val,
          const int* restrict bt_pos, const int* restrict bt_crd, const double* restrict bt_val,
          double* restrict out, int m, int p) {
  for (int i = 0; i < m; i++) {
    int ra = a_pos[i];
    int ra_end = a_pos[i + 1];
    for (int j = 0; j < p; j++) {
      int pb = bt_pos[j];
      int pb_end = bt_pos[j + 1];
      int pa = ra;
      double acc = 0.0;
      while (pa < ra_end && pb < pb_end) {
        int ka = a_crd[pa];
        int kb = bt_crd[pb];
        if (ka == kb) {
          acc = acc + a_val[pa] * bt_val[pb];
          pa = pa + 1;
          pb = pb + 1;
        } else if (ka < kb) {
          pa = pa + 1;
        } else {
          pb = pb + 1;
        }
      }
      if (acc != 0.0) {
        out[i * p + j] = acc;
      }
    }
  }
}
"""


def function():
    return serial_kernel(SOURCE)


def make_env(a, bt=None):
    """Environment for C = A x B, with ``bt`` = B in CSC form (CSR of B^T).

    Defaults to B = A (the usual squaring benchmark).
    """
    if bt is None:
        bt = a.transpose()
    if a.ncols != bt.ncols:
        raise ValueError("inner dimensions disagree")
    arrays = {
        "a_pos": list(a.pos),
        "a_crd": list(a.crd),
        "a_val": list(a.val),
        "bt_pos": list(bt.pos),
        "bt_crd": list(bt.crd),
        "bt_val": list(bt.val),
        "out": [0.0] * (a.nrows * bt.nrows),
    }
    scalars = {"m": a.nrows, "p": bt.nrows}
    return arrays, scalars


def reference(a, bt=None):
    if bt is None:
        bt = a.transpose()
    m, p = a.nrows, bt.nrows
    out = [0.0] * (m * p)
    for i in range(m):
        arow = a.row(i)
        for j in range(p):
            brow = bt.row(j)
            pa = pb = 0
            acc = 0.0
            while pa < len(arow) and pb < len(brow):
                ka, va = arow[pa]
                kb, vb = brow[pb]
                if ka == kb:
                    acc += va * vb
                    pa += 1
                    pb += 1
                elif ka < kb:
                    pa += 1
                else:
                    pb += 1
            if acc != 0.0:
                out[i * p + j] = acc
    return out


def check(arrays, a, bt=None):
    return arrays["out"] == reference(a, bt)


def manual_pipeline():
    """Hand-tuned pipeline: four scan RAs feed a bespoke merge stage.

    The driver enqueues each (row, column) pair's bounds into the four RA
    input queues with a NEXT marker per stream per pair; the merge stage
    holds the current heads in registers and, on exhausting one stream,
    *drains* the other to its marker with no comparison logic — the
    skip-ahead insight the paper says is unavailable to Phloem.
    """
    QI_AC, QI_AV, QI_BC, QI_BV = 0, 1, 2, 3  # RA inputs
    QA_C, QA_V, QB_C, QB_V = 4, 5, 6, 7  # RA outputs into the merge stage

    b = IRBuilder(temp_prefix="%m")
    with b.for_("i", 0, "m"):
        ra = b.load("@a_pos", "i")
        rae = b.load("@a_pos", b.binop("add", "i", 1))
        with b.for_("j", 0, "p"):
            pb = b.load("@bt_pos", "j")
            pbe = b.load("@bt_pos", b.binop("add", "j", 1))
            b.enq(QI_AC, ra)
            b.enq(QI_AC, rae)
            b.enq_ctrl(QI_AC, Ctrl.NEXT)
            b.enq(QI_AV, ra)
            b.enq(QI_AV, rae)
            b.enq_ctrl(QI_AV, Ctrl.NEXT)
            b.enq(QI_BC, pb)
            b.enq(QI_BC, pbe)
            b.enq_ctrl(QI_BC, Ctrl.NEXT)
            b.enq(QI_BV, pb)
            b.enq(QI_BV, pbe)
            b.enq_ctrl(QI_BV, Ctrl.NEXT)
    stage0 = StageProgram(0, "drive", b.finish())

    b = IRBuilder(temp_prefix="%u")
    with b.for_("i", 0, "m"):
        base = b.binop("mul", "i", "p")
        with b.for_("j", 0, "p"):
            b.mov(0.0, dst="acc")
            ka = b.deq(QA_C, dst="ka")
            va = b.deq(QA_V, dst="va")
            kb = b.deq(QB_C, dst="kb")
            vb = b.deq(QB_V, dst="vb")
            with b.loop():
                ca = b.is_control("ka")
                with b.if_(ca):
                    # A exhausted: skip the rest of B without merge logic.
                    cb0 = b.is_control("kb")
                    nb0 = b.assign("not", [cb0])
                    with b.if_(nb0):
                        with b.loop():
                            x = b.deq(QB_C)
                            cx = b.is_control(x)
                            with b.if_(cx):
                                b.break_()
                        with b.loop():
                            y = b.deq(QB_V)
                            cy = b.is_control(y)
                            with b.if_(cy):
                                b.break_()
                    b.break_()
                cb = b.is_control("kb")
                with b.if_(cb):
                    # B exhausted: skip the rest of A.
                    with b.loop():
                        x = b.deq(QA_C)
                        cx = b.is_control(x)
                        with b.if_(cx):
                            b.break_()
                    with b.loop():
                        y = b.deq(QA_V)
                        cy = b.is_control(y)
                        with b.if_(cy):
                            b.break_()
                    b.break_()
                eq = b.binop("eq", "ka", "kb")
                with b.if_(eq):
                    prod = b.binop("mul", "va", "vb")
                    b.binop("add", "acc", prod, dst="acc")
                    b.deq(QA_C, dst="ka")
                    b.deq(QA_V, dst="va")
                    b.deq(QB_C, dst="kb")
                    b.deq(QB_V, dst="vb")
                    b.continue_()
                lt = b.binop("lt", "ka", "kb")
                with b.if_(lt):
                    b.deq(QA_C, dst="ka")
                    b.deq(QA_V, dst="va")
                    b.continue_()
                b.deq(QB_C, dst="kb")
                b.deq(QB_V, dst="vb")
            nz = b.binop("ne", "acc", 0.0)
            with b.if_(nz):
                idx = b.binop("add", base, "j")
                b.store("@out", idx, "acc")
    stage1 = StageProgram(1, "merge", b.finish())

    queues = [
        QueueSpec(QI_AC, ("stage", 0), ("ra", 0), 24, "a_crd bounds"),
        QueueSpec(QI_AV, ("stage", 0), ("ra", 1), 24, "a_val bounds"),
        QueueSpec(QI_BC, ("stage", 0), ("ra", 2), 24, "bt_crd bounds"),
        QueueSpec(QI_BV, ("stage", 0), ("ra", 3), 24, "bt_val bounds"),
        QueueSpec(QA_C, ("ra", 0), ("stage", 1), 24, "a crd"),
        QueueSpec(QA_V, ("ra", 1), ("stage", 1), 24, "a val"),
        QueueSpec(QB_C, ("ra", 2), ("stage", 1), 24, "b crd"),
        QueueSpec(QB_V, ("ra", 3), ("stage", 1), 24, "b val"),
    ]
    ras = [
        RASpec(0, RA_SCAN, "@a_crd", QI_AC, QA_C),
        RASpec(1, RA_SCAN, "@a_val", QI_AV, QA_V),
        RASpec(2, RA_SCAN, "@bt_crd", QI_BC, QB_C),
        RASpec(3, RA_SCAN, "@bt_val", QI_BV, QB_V),
    ]
    return manual_program(NAME, function(), [stage0, stage1], queues, ras)


def data_parallel(nthreads):
    """Hand-written data-parallel SpMM: output rows striped across threads."""

    def worker(b, tid):
        with b.for_("i", tid, "m", nthreads):
            ra0 = b.load("@a_pos", "i")
            rae = b.load("@a_pos", b.binop("add", "i", 1))
            base = b.binop("mul", "i", "p")
            with b.for_("j", 0, "p"):
                pb0 = b.load("@bt_pos", "j")
                pbe = b.load("@bt_pos", b.binop("add", "j", 1))
                b.mov(ra0, dst="pa")
                b.mov(pb0, dst="pb")
                b.mov(0.0, dst="acc")
                with b.loop():
                    more_a = b.binop("lt", "pa", rae)
                    more_b = b.binop("lt", "pb", pbe)
                    more = b.binop("and", more_a, more_b)
                    stop = b.assign("not", [more])
                    with b.if_(stop):
                        b.break_()
                    ka = b.load("@a_crd", "pa")
                    kb = b.load("@bt_crd", "pb")
                    eq = b.binop("eq", ka, kb)
                    with b.if_(eq):
                        va = b.load("@a_val", "pa")
                        vb = b.load("@bt_val", "pb")
                        b.binop("add", "acc", b.binop("mul", va, vb), dst="acc")
                        b.binop("add", "pa", 1, dst="pa")
                        b.binop("add", "pb", 1, dst="pb")
                        b.continue_()
                    lt = b.binop("lt", ka, kb)
                    with b.if_(lt):
                        b.binop("add", "pa", 1, dst="pa")
                        b.continue_()
                    b.binop("add", "pb", 1, dst="pb")
                nz = b.binop("ne", "acc", 0.0)
                with b.if_(nz):
                    idx = b.binop("add", base, "j")
                    b.store("@out", idx, "acc")

    return dp_program(NAME, function(), nthreads, worker, ["nthreads"])


def make_env_dp(a, nthreads, bt=None):
    arrays, scalars = make_env(a, bt)
    scalars["nthreads"] = nthreads
    return arrays, scalars
