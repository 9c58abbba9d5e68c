"""Machine assembly: placement, limits, stats, energy, multicore queues."""

import pytest

from repro import ir
from repro.errors import ResourceError
from repro.pipette import Machine, MachineConfig, RunSpec, energy_of


def _counted_pipe(nstages):
    stages = []
    queues = []
    for i in range(nstages):
        b = ir.IRBuilder()
        if i == 0:
            with b.for_("i", 0, 50):
                b.enq(0, "i")
        elif i == nstages - 1:
            b.mov(0, dst="acc")
            with b.for_("i", 0, 50):
                v = b.deq(i - 1)
                b.binop("add", "acc", v, dst="acc")
            b.store("@out", 0, "acc")
        else:
            with b.for_("i", 0, 50):
                v = b.deq(i - 1)
                b.enq(i, v)
        stages.append(ir.StageProgram(i, "s%d" % i, b.finish()))
        if i:
            queues.append(ir.QueueSpec(i - 1, ("stage", i - 1), ("stage", i)))
    return ir.PipelineProgram("chain", stages, queues, [], {"out": ir.ArrayDecl("out")}, [])


def test_smt_thread_limit():
    pipe = _counted_pipe(5)
    with pytest.raises(ResourceError, match="SMT threads"):
        Machine(MachineConfig(smt_threads=4)).run(RunSpec(pipe, {"out": [0]}, {}))


def test_stage_cores_spread():
    pipe = _counted_pipe(5)
    cfg = MachineConfig(cores=2)
    res = Machine(cfg).run(
        RunSpec(pipe, {"out": [0]}, {}, stage_cores=[0, 0, 0, 1, 1])
    )
    assert res.arrays["out"] == [sum(range(50))]


def test_unknown_core_rejected():
    pipe = _counted_pipe(2)
    with pytest.raises(ResourceError, match="core"):
        Machine(MachineConfig(cores=1)).run(RunSpec(pipe, {"out": [0]}, {}, core=3))


def test_cross_core_queue_gets_higher_latency():
    pipe = _counted_pipe(2)
    cfg = MachineConfig(cores=2)
    m_same = Machine(cfg)
    same = m_same.run(RunSpec(pipe, {"out": [0]}, {}, stage_cores=[0, 0]))
    m_cross = Machine(cfg)
    cross = m_cross.run(RunSpec(pipe, {"out": [0]}, {}, stage_cores=[0, 1]))
    assert cross.arrays["out"] == same.arrays["out"]
    assert m_same.envs[0].queues[0].latency == cfg.queue_latency
    assert m_cross.envs[0].queues[0].latency == cfg.xcore_queue_latency


def test_wall_cycles_and_stats():
    pipe = _counted_pipe(3)
    res = Machine(MachineConfig()).run(RunSpec(pipe, {"out": [0]}, {}))
    assert res.cycles > 0
    assert res.stats.total_uops > 100
    assert res.stats.queue_enqs == res.stats.queue_deqs == 100
    breakdown = res.stats.cycle_breakdown()
    primary = sum(breakdown[k] for k in ("issue", "backend", "queue", "other"))
    assert abs(primary - res.cycles) < 1.0
    assert breakdown["branch"] + breakdown["barrier"] <= breakdown["other"] + 1e-9


def test_energy_components():
    pipe = _counted_pipe(2)
    cfg = MachineConfig()
    res = Machine(cfg).run(RunSpec(pipe, {"out": [0]}, {}))
    energy = energy_of(res.stats, 1)
    d = energy.as_dict()
    assert d["core_dynamic"] > 0
    assert d["core_static"] > 0
    assert energy.total == sum(d.values())


def test_replica_runs_share_arrays():
    shared = [0] * 4

    def writer(offset):
        b = ir.IRBuilder()
        b.store("@buf", offset, offset + 1)
        stage = ir.StageProgram(0, "w", b.finish())
        return ir.PipelineProgram("w%d" % offset, [stage], [], [], {"buf": ir.ArrayDecl("buf")}, [])

    specs = [
        RunSpec(writer(0), {"buf": shared}, {}, core=0),
        RunSpec(writer(1), {"buf": shared}, {}, core=0),
    ]
    res = Machine(MachineConfig()).run(specs)
    assert res.replica_arrays[0]["buf"][:2] == [1, 2]
    assert res.replica_arrays[0]["buf"] is res.replica_arrays[1]["buf"]


def test_enq_dist_routes_to_replica():
    # Replica 0 sends a value to replica 1's queue 0.
    b0 = ir.IRBuilder()
    b0.enq_dist(0, 42, 1)
    sender_stage = ir.StageProgram(0, "s", b0.finish())
    b1 = ir.IRBuilder()
    v = b1.deq(0)
    b1.store("@out", 0, v)
    recv_stage = ir.StageProgram(1, "r", b1.finish())

    def make(arrays):
        return ir.PipelineProgram(
            "repl",
            [sender_stage.clone(), recv_stage.clone()],
            [ir.QueueSpec(0, ("stage", 0), ("stage", 1))],
            [],
            {"out": ir.ArrayDecl("out")},
            [],
        )

    out0, out1 = [0], [0]
    specs = [
        RunSpec(make(out0), {"out": out0}, {}, core=0),
        RunSpec(make(out1), {"out": out1}, {}, core=0),
    ]
    # Both replicas' senders route to replica 1; both receivers need a
    # value, so send to 0 from replica 1 as well.
    specs[1].pipeline.stages[0].body[0] = ir.EnqDist(0, 7, 0)
    res = Machine(MachineConfig()).run(specs)
    assert res.replica_arrays[0]["out"] == [7]
    assert res.replica_arrays[1]["out"] == [42]
