"""Which engine runs when nothing says otherwise, and which one actually ran.

``resolve_engine`` is the one place the default lives; these tests pin the
default (``batch``), the three-level precedence rule (explicit ``engine=``
> ``REPRO_ENGINE`` > default), and the per-stage record of the engine that
executed each stage (``stage_engines`` / ``stage_fallbacks``), including
the two-``atomic_rmw`` stage that used to fall back silently. The
zero-fallback sweep over every shipped workload rides on the conformance
matrix (``test_fastpath_conformance.py``).
"""

import pytest

from repro import ir
from repro.pipette import Machine, MachineConfig, RunSpec, batchpath
from repro.pipette import DEFAULT_ENGINE, ENGINES, resolve_engine
from repro.runtime import run_pipeline


class _Pipe:
    def __init__(self, **meta):
        self.meta = meta


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    return monkeypatch


def test_default_engine_is_batch(clean_env):
    assert DEFAULT_ENGINE == "batch"
    assert resolve_engine(_Pipe()) == "batch"
    assert resolve_engine() == "batch"  # no pipeline: what bench perf times


#: ``(explicit engine=, REPRO_ENGINE, expected)`` — the whole rule.
PRECEDENCE = [
    (None, None, "batch"),  # nothing selects: DEFAULT_ENGINE
    (None, "reference", "reference"),  # the environment beats the default
    (None, "fastpath", "fastpath"),
    ("batch", "reference", "batch"),  # an explicit engine beats the environment
    ("reference", "batch", "reference"),
    ("fastpath", None, "fastpath"),
]


def test_precedence_chain(clean_env):
    for explicit, env, expected in PRECEDENCE:
        if env is None:
            clean_env.delenv("REPRO_ENGINE", raising=False)
        else:
            clean_env.setenv("REPRO_ENGINE", env)
        assert resolve_engine(engine=explicit) == expected
        # The positional pipeline is ignored: nothing a compiled pipeline
        # carries can steer the choice.
        pipe = _Pipe(fastpath=False, engine="fastpath")
        assert resolve_engine(pipe, explicit) == expected


def test_fastpath_boolean_is_gone():
    """The legacy spelling is removed outright, not aliased."""
    with pytest.raises(TypeError):
        Machine(MachineConfig(), fastpath=True)
    with pytest.raises(TypeError):
        run_pipeline(None, {}, {}, fastpath=False)
    with pytest.raises(TypeError):
        resolve_engine(fastpath=True)


def test_empty_engine_env_is_ignored(clean_env):
    clean_env.setenv("REPRO_ENGINE", "")
    assert resolve_engine(_Pipe()) == "batch"


@pytest.mark.parametrize(
    "kwargs", [{"engine": "warp"}, {"pipeline": _Pipe(), "engine": "warp"}]
)
def test_unknown_engine_name_raises(clean_env, kwargs):
    with pytest.raises(ValueError, match="unknown engine 'warp'"):
        resolve_engine(**kwargs)


def test_unknown_engine_env_raises(clean_env):
    clean_env.setenv("REPRO_ENGINE", "warp")
    with pytest.raises(ValueError, match="unknown engine 'warp'"):
        resolve_engine(_Pipe())


def _machine_run(body, arrays, engine=None):
    decls = {name: ir.ArrayDecl(name) for name in arrays}
    stage = ir.StageProgram(0, "t", body)
    pipe = ir.PipelineProgram("t", [stage], [], [], decls, [])
    machine = Machine(MachineConfig(), engine=engine)
    result = machine.run(RunSpec(pipe, {k: list(v) for k, v in arrays.items()}, {}))
    return machine, result


def _two_atomics():
    b = ir.IRBuilder()
    with b.for_("i", 0, 8):
        b.atomic_add("@a", "i", 1)
        b.atomic_min("@m", "i", 3)
    return b.finish()


def test_machine_without_selection_runs_batch(clean_env):
    machine, _ = _machine_run(_two_atomics(), {"a": [0] * 8, "m": [9] * 8})
    assert machine.stage_engines == {"r0.s0.t": "batch"}
    assert machine.stage_fallbacks == {}


def test_two_atomics_in_one_stage_stay_on_batch(clean_env):
    """Regression: the second ``atomic_rmw`` re-captured ``mem.access`` (a
    fresh bound-method object), tripped the capture-collision check and
    silently ran the whole stage on the fast path."""
    arrays = {"a": [0] * 8, "m": [9] * 8}
    machine, result = _machine_run(_two_atomics(), arrays, engine="batch")
    assert machine.stage_engines == {"r0.s0.t": "batch"}
    assert machine.stage_fallbacks == {}
    _, oracle = _machine_run(_two_atomics(), arrays, engine="reference")
    assert result.arrays == oracle.arrays == {"a": [1] * 8, "m": [3] * 8}
    assert result.stats.summary() == oracle.stats.summary()


def test_fallback_is_recorded_per_stage_with_its_reason(clean_env, monkeypatch):
    # Any UnsupportedStage will do; the size guard is the easiest to trip.
    monkeypatch.setattr(batchpath, "_MAX_LINES", 10)
    arrays = {"a": [0] * 8, "m": [9] * 8}
    machine, result = _machine_run(_two_atomics(), arrays, engine="batch")
    assert machine.stage_engines == {"r0.s0.t": "reference"}
    assert machine.stage_fallbacks == {"r0.s0.t": "generated stage body too large"}
    _, oracle = _machine_run(_two_atomics(), arrays, engine="reference")
    assert result.stats.summary() == oracle.stats.summary()
    assert "stage_engines" not in result.stats.summary()


@pytest.mark.parametrize("engine", ENGINES)
def test_stage_engines_names_the_requested_engine(clean_env, engine):
    machine, _ = _machine_run(_two_atomics(), {"a": [0] * 8, "m": [9] * 8}, engine=engine)
    assert machine.stage_engines == {"r0.s0.t": engine}
