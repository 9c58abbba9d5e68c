"""Replicated, work-distributing pipelines (paper Sec. IV-C and Fig. 14).

Each replica owns a vertex shard (``owner(v) = min(v / chunk, R-1)``) and
runs the full pipeline on its own core: a fringe *scan* stage drives the
per-replica chained RAs (nodes indirect -> edges scan), a *visit* stage
pairs each neighbor with its per-vertex payload and distributes the pair
to the neighbor's owner (``enq_dist`` — the paper's data-centric
``#pragma distribute`` split into source- and destination-centric
sections), and an *update* stage performs all writes, which are therefore
owner-exclusive. Phases synchronize globally: per-replica fringe sizes
cross a double barrier through shared cells, and every replica continues
while the *global* total is nonzero.

End-of-phase control uses counting handlers: every visit stage broadcasts
one marker to all replicas, and each update stage's handler counts to R
before breaking — in-band control values doing replica coordination.

The phase loop, the fringe swap and push, the RA driver and the neighbour
chain's queues and RAs are :mod:`repro.workloads.protocol`'s, the same the
manual pipelines use. The end of a phase is this module's own
(``_phase_epilogue``): each replica publishes its next fringe size in its
own shared cell and every stage sums all of them between the ``phase``
barriers, where a single pipeline reads one ``next_size``.
"""

from ..ir import Assign, Break, Ctrl, If, IRBuilder, PipelineProgram, QueueSpec, StageProgram
from . import bfs as bfs_mod
from . import cc as cc_mod
from . import prd as prd_mod
from . import radii as radii_mod
from .protocol import enq_bounds, neighbor_chain, phase_loop, push, swap

Q_RA1, Q_PAIRS, Q_NGH, Q_UPD, Q_PAY = 0, 1, 2, 3, 4

#: Extra scalar parameters every replicated pipeline takes.
REPL_SCALARS = ["replicas", "chunk", "total_init", "rid"]


def owner_of(v, chunk, replicas):
    return min(v // chunk, replicas - 1)


def _phase_epilogue(b, rid, replicas, writes_next=False):
    if writes_next:
        b.write_shared("next%d" % rid, "next_size")
    b.barrier("phase")
    b.mov(0, dst="repl_total")
    for s in range(replicas):
        t = b.read_shared("next%d" % s)
        b.binop("add", "repl_total", t, dst="repl_total")
        if s == rid:
            b.mov(t, dst="fringe_size")
    b.barrier("phase-sync")


def _init_phase_regs(b):
    b.mov("total_init", dst="repl_total")
    b.mov("fringe_size_init", dst="fringe_size")


def _scan_stage(rid, replicas, payload_loader=None):
    """Stage 0: scan the local fringe, drive the RA chain, send payloads."""
    b = IRBuilder(temp_prefix="%s")
    b.mov("@fringe0", dst="cur_fringe")
    b.mov("@fringe1", dst="next_fringe")
    _init_phase_regs(b)
    with phase_loop(b, "repl_total"):
        with b.for_("i", 0, "fringe_size"):
            v = b.load("cur_fringe", "i")
            if payload_loader is not None:
                payload = payload_loader(b, v)
                b.enq(Q_PAY, payload)
            enq_bounds(b, Q_RA1, v)
        _phase_epilogue(b, rid, replicas)
        swap(b, "cur_fringe", "next_fringe")
    return StageProgram(0, "scan", b.finish())


def _visit_stage(rid, replicas, has_payload):
    """Stage 1: pair neighbors with payloads, distribute to owners."""
    b = IRBuilder(temp_prefix="%v")
    _init_phase_regs(b)
    with phase_loop(b, "repl_total"):
        with b.for_("i", 0, "fringe_size"):
            if has_payload:
                payload = b.deq(Q_PAY, dst="payload")
            with b.loop():
                ngh = b.deq(Q_NGH)
                dest0 = b.binop("div", ngh, "chunk")
                last = b.binop("sub", "replicas", 1)
                dest = b.assign("min", [dest0, last])
                if has_payload:
                    packed = b.binop("pack2", ngh, "payload")
                    b.enq_dist(Q_UPD, packed, dest)
                else:
                    b.enq_dist(Q_UPD, ngh, dest)
        b.enq_ctrl_dist(Q_UPD, Ctrl.NEXT)
        _phase_epilogue(b, rid, replicas)
    return StageProgram(1, "visit", b.finish(), handlers={Q_NGH: [Break(1)]})


def _counting_handler():
    """Update-stage handler: break the stream loop after R phase markers."""
    return [
        Assign("dones", "add", ["dones", 1]),
        Assign("%alldone", "ge", ["dones", "replicas"]),
        If("%alldone", [Break(1)], []),
    ]


def _no_code(b):
    """An update-stage hook that adds no statements."""


def _update_skeleton(
    rid, replicas, body, init=_no_code, per_phase=_no_code, phase_end=_no_code, counters=_no_code
):
    """Shared shape of the update stage; ``body(b, x)`` handles one
    distributed item and the hooks fill the rest of the app logic."""
    b = IRBuilder(temp_prefix="%u")
    b.mov("@fringe1", dst="next_fringe")
    b.mov("@fringe0", dst="other_fringe")
    _init_phase_regs(b)
    init(b)
    with phase_loop(b, "repl_total"):
        b.mov(0, dst="next_size")
        b.mov(0, dst="dones")
        per_phase(b)
        with b.loop():
            x = b.deq(Q_UPD)
            body(b, x)
        phase_end(b)
        _phase_epilogue(b, rid, replicas, writes_next=True)
        counters(b)
        swap(b, "next_fringe", "other_fringe")
    return StageProgram(2, "update", b.finish(), handlers={Q_UPD: _counting_handler()})


def _assemble(name, function, stages, has_payload, replicas):
    queues, ras = neighbor_chain((Q_RA1, Q_PAIRS, Q_NGH))
    queues.append(QueueSpec(Q_UPD, ("stage", 1), ("stage", 2), label="distributed pairs"))
    if has_payload:
        queues.append(QueueSpec(Q_PAY, ("stage", 0), ("stage", 1), label="payload"))
    return PipelineProgram(
        name,
        stages,
        queues,
        ras,
        function.arrays,
        function.scalar_params + REPL_SCALARS,
        shared_vars={"next%d" % s for s in range(replicas)},
        meta={"replicated": True},
    )


# ---------------------------------------------------------------------------
# Per-application replicated pipelines


def bfs_replicated(rid, replicas):
    """Replicated BFS: flat neighbor stream, no payload."""
    function = bfs_mod.function()
    scan = _scan_stage(rid, replicas, payload_loader=None)
    visit = _visit_stage(rid, replicas, has_payload=False)

    def init(b):
        b.mov(0, dst="cur_dist")

    def per_phase(b):
        b.binop("add", "cur_dist", 1, dst="nd")

    def body(b, x):
        old = b.load("@distances", x)
        better = b.binop("gt", old, "nd")
        with b.if_(better):
            b.store("@distances", x, "nd")
            push(b, x)

    def counters(b):
        b.binop("add", "cur_dist", 1, dst="cur_dist")

    update = _update_skeleton(rid, replicas, body, init, per_phase, counters=counters)
    return _assemble("bfs_repl%d" % rid, function, [scan, visit, update], False, replicas)


def cc_replicated(rid, replicas):
    """Replicated CC: neighbor paired with the source's label."""
    function = cc_mod.function()

    def payload(b, v):
        return b.load("@labels", v)

    scan = _scan_stage(rid, replicas, payload_loader=payload)
    visit = _visit_stage(rid, replicas, has_payload=True)

    def body(b, x):
        ngh = b.assign("fst", [x])
        lv = b.assign("snd", [x])
        ln = b.load("@labels", ngh)
        better = b.binop("gt", ln, lv)
        with b.if_(better):
            b.store("@labels", ngh, lv)
            push(b, ngh)

    update = _update_skeleton(rid, replicas, body)
    return _assemble("cc_repl%d" % rid, function, [scan, visit, update], True, replicas)


def prd_replicated(rid, replicas):
    """Replicated PRD: neighbor paired with the source's share; apply nest
    runs over the replica's owned vertex range."""
    function = prd_mod.function()

    def payload(b, v):
        deg = b.load("@degree", v)
        dv = b.load("@delta", v)
        return b.binop("div", dv, b.binop("add", deg, 1))

    scan = _scan_stage(rid, replicas, payload_loader=payload)
    visit = _visit_stage(rid, replicas, has_payload=True)

    def init(b):
        lo = b.binop("mul", "rid", "chunk")
        b.mov(lo, dst="own_lo")
        hi = b.binop("add", lo, "chunk")
        b.assign("min", [hi, "n"], dst="own_hi")

    def body(b, x):
        ngh = b.assign("fst", [x])
        share = b.assign("snd", [x])
        s = b.load("@nghsum", ngh)
        b.store("@nghsum", ngh, b.binop("add", s, share))

    def phase_end(b):
        with b.for_("u", "own_lo", "own_hi"):
            s = b.load("@nghsum", "u")
            acc = b.binop("mul", s, "damping")
            mag = b.assign("select", [b.binop("lt", acc, 0.0), b.assign("neg", [acc]), acc])
            big = b.binop("gt", mag, "threshold")
            with b.if_(big):
                b.store("@delta", "u", acc)
                r = b.load("@rank", "u")
                b.store("@rank", "u", b.binop("add", r, acc))
                push(b, "u")
            b.store("@nghsum", "u", 0.0)

    update = _update_skeleton(rid, replicas, body, init, phase_end=phase_end)
    return _assemble("prd_repl%d" % rid, function, [scan, visit, update], True, replicas)


def radii_replicated(rid, replicas):
    """Replicated Radii: neighbor paired with the source's visited mask."""
    function = radii_mod.function()

    def payload(b, v):
        return b.load("@visited", v)

    scan = _scan_stage(rid, replicas, payload_loader=payload)
    visit = _visit_stage(rid, replicas, has_payload=True)

    def init(b):
        b.mov(1, dst="round")

    def body(b, x):
        ngh = b.assign("fst", [x])
        mv = b.assign("snd", [x])
        mn = b.load("@visited_next", ngh)
        un = b.binop("or", mn, mv)
        grew = b.binop("ne", un, mn)
        with b.if_(grew):
            b.store("@visited_next", ngh, un)
            lp = b.load("@lastpush", ngh)
            fresh = b.binop("ne", lp, "round")
            with b.if_(fresh):
                b.store("@lastpush", ngh, "round")
                push(b, ngh)

    def phase_end(b):
        with b.for_("j", 0, "next_size"):
            u = b.load("next_fringe", "j")
            nv = b.load("@visited_next", u)
            b.store("@visited", u, nv)
            b.store("@radii_arr", u, "round")

    def counters(b):
        b.binop("add", "round", 1, dst="round")

    update = _update_skeleton(rid, replicas, body, init, phase_end=phase_end, counters=counters)
    return _assemble("radii_repl%d" % rid, function, [scan, visit, update], True, replicas)


def bfs_replicated_nodist(rid, replicas):
    """Replicated BFS *without* distribution (2 stages, source-sharded).

    An ablation supporting Sec. IV-C: same-value races on ``distances`` are
    benign, so correctness survives dropping the distribute step — but
    discovered vertices stay with the replica that found them, so from a
    single root all work collapses onto one replica. Fig. 14's harness
    reports this row to show why the data-centric ``#pragma distribute``
    matters.
    """
    function = bfs_mod.function()
    scan = _scan_stage(rid, replicas, payload_loader=None)

    b = IRBuilder(temp_prefix="%u")
    b.mov("@fringe1", dst="next_fringe")
    b.mov("@fringe0", dst="other_fringe")
    _init_phase_regs(b)
    b.mov(0, dst="cur_dist")
    with phase_loop(b, "repl_total"):
        b.mov(0, dst="next_size")
        b.mov(0, dst="seen")
        nd = b.binop("add", "cur_dist", 1)
        # A replica whose local fringe is empty gets no markers this phase.
        nonempty = b.binop("gt", "fringe_size", 0)
        with b.if_(nonempty):
            with b.loop():
                ngh = b.deq(Q_NGH)
                old = b.load("@distances", ngh)
                better = b.binop("gt", old, nd)
                with b.if_(better):
                    b.store("@distances", ngh, nd)
                    push(b, ngh)
        _phase_epilogue(b, rid, replicas, writes_next=True)
        b.binop("add", "cur_dist", 1, dst="cur_dist")
        swap(b, "next_fringe", "other_fringe")
    update = StageProgram(
        1,
        "update",
        b.finish(),
        handlers={
            Q_NGH: [
                Assign("seen", "add", ["seen", 1]),
                Assign("%vdone", "ge", ["seen", "fringe_size"]),
                If("%vdone", [Break(1)], []),
            ]
        },
    )

    queues, ras = neighbor_chain((Q_RA1, Q_PAIRS, Q_NGH))
    shared = {"next%d" % s for s in range(replicas)}
    return PipelineProgram(
        "bfs_repl_nodist%d" % rid,
        [scan, update],
        queues,
        ras,
        function.arrays,
        function.scalar_params + REPL_SCALARS,
        shared_vars=shared,
        meta={"replicated": True, "manual": True},
    )


BUILDERS = {
    "bfs": bfs_replicated,
    "cc": cc_replicated,
    "prd": prd_replicated,
    "radii": radii_replicated,
}


# ---------------------------------------------------------------------------
# Environments: shared global arrays + per-replica fringes


def _owner_partition(items, n, replicas):
    chunk = (n + replicas - 1) // replicas
    shards = [[] for _ in range(replicas)]
    for v in items:
        shards[owner_of(v, chunk, replicas)].append(v)
    return shards, chunk


def make_envs(app, graph, replicas):
    """Per-replica ``(arrays, scalars)`` with shared global structures."""
    n = graph.n
    nodes = list(graph.nodes)
    edges = list(graph.edges)

    if app == "bfs":
        root = bfs_mod.default_root(graph)
        init_items = [root]
        shared_arrays = {
            "nodes": nodes,
            "edges": edges,
            "distances": [bfs_mod.INT_MAX] * n,
        }
        shared_arrays["distances"][root] = 0
        cap = n + 1
        extra_scalars = {}
    elif app == "cc":
        init_items = list(range(n))
        shared_arrays = {"nodes": nodes, "edges": edges, "labels": list(range(n))}
        cap = n + graph.m + 1
        extra_scalars = {}
    elif app == "prd":
        init_items = list(range(n))
        shared_arrays = {
            "nodes": nodes,
            "edges": edges,
            "degree": [graph.degree(v) for v in range(n)],
            "rank": [1.0 - prd_mod.DAMPING] * n,
            "delta": [1.0 - prd_mod.DAMPING] * n,
            "nghsum": [0.0] * n,
        }
        cap = n + 1
        extra_scalars = {"damping": prd_mod.DAMPING, "threshold": prd_mod.THRESHOLD}
    elif app == "radii":
        sources = radii_mod.sample_sources(graph)
        visited = [0] * n
        for bit, s in enumerate(sources):
            visited[s] = 1 << bit
        init_items = sources
        shared_arrays = {
            "nodes": nodes,
            "edges": edges,
            "visited": visited,
            "visited_next": list(visited),
            "radii_arr": [0] * n,
            "lastpush": [0] * n,
        }
        cap = n + 1
        extra_scalars = {}
    else:
        raise ValueError(app)

    shards, chunk = _owner_partition(init_items, n, replicas)
    envs = []
    for rid in range(replicas):
        fringe0 = [0] * cap
        for i, v in enumerate(shards[rid]):
            fringe0[i] = v
        arrays = dict(shared_arrays)
        arrays["fringe0"] = fringe0
        arrays["fringe1"] = [0] * cap
        scalars = {
            "n": n,
            "fringe_size_init": len(shards[rid]),
            "replicas": replicas,
            "chunk": chunk,
            "total_init": len(init_items),
            "rid": rid,
        }
        scalars.update(extra_scalars)
        envs.append((arrays, scalars))
    return envs
