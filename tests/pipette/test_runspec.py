"""RunSpec placement and RunResult surface."""

from repro import ir
from repro.pipette import Machine, MachineConfig, RunSpec


def test_core_of_stage_uniform_and_explicit():
    pipe = ir.PipelineProgram("t", [], [], [], {}, [])
    spec = RunSpec(pipe, {}, {}, core=2)
    assert spec.core_of_stage(0) == 2
    spec = RunSpec(pipe, {}, {}, stage_cores=[0, 1, 3])
    assert spec.core_of_stage(2) == 3


def test_simresult_surface():
    b = ir.IRBuilder()
    b.store("@out", 0, 7)
    stage = ir.StageProgram(0, "w", b.finish())
    pipe = ir.PipelineProgram("t", [stage], [], [], {"out": ir.ArrayDecl("out")}, [])
    result = Machine(MachineConfig()).run(RunSpec(pipe, {"out": [0]}, {}))
    assert result.arrays["out"] == [7]
    assert "cycles" in repr(result)
    assert result.stats.wall_cycles == result.cycles


def test_extra_scalars_tolerated():
    """Bindings may carry extra scalars (replication envs do)."""
    b = ir.IRBuilder()
    b.store("@out", 0, "n")
    stage = ir.StageProgram(0, "w", b.finish())
    pipe = ir.PipelineProgram("t", [stage], [], [], {"out": ir.ArrayDecl("out")}, ["n"])
    result = Machine(MachineConfig()).run(
        RunSpec(pipe, {"out": [0]}, {"n": 5, "unused": 9})
    )
    assert result.arrays["out"] == [5]
