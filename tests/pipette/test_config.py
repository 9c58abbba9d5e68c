"""Table III parity: the evaluation configuration matches the paper."""

from repro.core.options import CompileOptions
from repro.ir.program import MAX_QUEUES, MAX_RAS, QueueSpec
from repro.pipette.config import PIPETTE_1CORE, PIPETTE_4CORE, SCALED_1CORE, MachineConfig


def test_core_parameters():
    cfg = PIPETTE_1CORE
    assert cfg.cores == 1
    assert cfg.smt_threads == 4  # "scaled to four SMT threads"
    assert cfg.issue_width == 6  # "6-wide out-of-order issue"


def test_pipette_parameters():
    assert MAX_QUEUES == 16  # "16 queues max"
    assert MAX_RAS == 4  # "4 RAs"
    # "queues up to 24 elements deep": a queue's depth is its own capacity.
    assert QueueSpec(0, ("stage", 0), ("stage", 1)).capacity == 24
    assert CompileOptions().queue_capacity == 24


def test_cache_hierarchy():
    cfg = PIPETTE_1CORE
    assert (cfg.l1.size, cfg.l1.ways, cfg.l1.latency) == (32 * 1024, 8, 4)
    assert (cfg.l2.size, cfg.l2.ways, cfg.l2.latency) == (256 * 1024, 8, 12)
    assert (cfg.l3_per_core.size, cfg.l3_per_core.ways, cfg.l3_per_core.latency) == (
        2 * 1024 * 1024,
        16,
        40,
    )
    assert cfg.dram_latency == 120  # "120-cycle minimum latency"
    assert cfg.dram_controllers == 2  # "2 controllers"


def test_l3_scales_with_cores():
    assert PIPETTE_4CORE.l3.size == 4 * PIPETTE_1CORE.l3.size


def test_cache_sets():
    cfg = PIPETTE_1CORE
    assert cfg.l1.sets == 32 * 1024 // (64 * 8)


def test_op_latency_defaults():
    cfg = MachineConfig()
    assert cfg.op_latency("add") == 1
    assert cfg.op_latency("mul") == 3
    assert cfg.op_latency("div") == 12


def test_scaled_config_keeps_latencies():
    assert SCALED_1CORE.l1.latency == PIPETTE_1CORE.l1.latency
    assert SCALED_1CORE.l3.latency == PIPETTE_1CORE.l3.latency
    assert SCALED_1CORE.l3.size < PIPETTE_1CORE.l3.size


def test_negative_latencies_are_rejected_at_construction():
    """A clock that can move backwards is the one input on which the batch
    engine's generated code and the reference interpreter differ; a sweep
    built with ``dataclasses.replace`` must not be able to reach it."""
    import dataclasses

    import pytest

    from repro.errors import ResourceError
    from repro.pipette.config import CacheConfig

    with pytest.raises(ResourceError, match="mispredict_penalty"):
        dataclasses.replace(SCALED_1CORE, mispredict_penalty=-1)
    with pytest.raises(ResourceError, match=r"l2\.latency, op_latencies\['mul'\]"):
        MachineConfig(l2=CacheConfig(1024, 8, -12), op_latencies={"mul": -0.5})
    for name in ("queue_latency", "xcore_queue_latency", "dram_latency", "dram_service"):
        with pytest.raises(ResourceError, match=name):
            MachineConfig(**{name: -2})
    # Zero and fractional latencies stay legal (tests/pipette/test_stress_configs.py).
    assert MachineConfig(mispredict_penalty=0, op_latencies={"mul": 2.5}).op_latency("mul") == 2.5


def test_sizes_below_one_are_rejected_at_construction():
    """``issue_width=0`` used to build and then spin forever looking for an
    issue slot, ``dram_service=0`` divided by zero in ``MemorySystem`` and
    an empty ROB/MSHR ring raised ``IndexError`` from generated code."""
    import dataclasses

    import pytest

    from repro.errors import ResourceError

    sizes = (
        "cores smt_threads issue_width rob_size mshrs ra_mshrs "
        "dram_controllers dram_service"
    )
    for name in sizes.split():
        for value in (0, -3):
            with pytest.raises(ResourceError, match=r"size below 1.*\b%s\b" % name):
                MachineConfig(**{name: value})
        assert getattr(MachineConfig(**{name: 1}), name) == 1
    with pytest.raises(ResourceError, match="issue_width, rob_size"):
        dataclasses.replace(SCALED_1CORE, issue_width=0, rob_size=0)


def test_an_issue_stage_wider_than_a_byte_is_rejected_at_construction():
    """The issue ledger counts a cycle's slots in one byte, so 255 is the
    widest issue stage it can hold; one more is an error naming the field."""
    import pytest

    from repro.errors import ResourceError

    assert MachineConfig(issue_width=255).issue_width == 255
    for width in (256, 1000):
        with pytest.raises(ResourceError, match=r"issue_width above 255.*\b%d\b" % width):
            MachineConfig(issue_width=width)
