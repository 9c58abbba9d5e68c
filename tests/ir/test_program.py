"""Program container behaviour: clones, lookups, metadata."""

from repro import ir


def _small_pipeline():
    s0 = ir.StageProgram(0, "p", [ir.Enq(0, "n")])
    s1 = ir.StageProgram(1, "c", [ir.Loop([ir.Deq("x", 0)])], handlers={0: [ir.Break(1)]})
    return ir.PipelineProgram(
        "demo",
        [s0, s1],
        [ir.QueueSpec(0, ("stage", 0), ("stage", 1), capacity=8, label="xs")],
        [],
        {"a": ir.ArrayDecl("a", elem_size=4, readonly=True)},
        ["n"],
        shared_vars={"total"},
        meta={"k": 1},
    )


def test_pipeline_clone_is_independent():
    original = _small_pipeline()
    clone = original.clone()
    clone.stages[0].body.append(ir.Barrier())
    clone.queues[0].capacity = 99
    clone.meta["k"] = 2
    clone.shared_vars.add("extra")
    assert len(original.stages[0].body) == 1
    assert original.queues[0].capacity == 8
    assert original.meta["k"] == 1
    assert original.shared_vars == {"total"}


def test_stage_clone_copies_handlers():
    original = _small_pipeline()
    stage = original.stages[1]
    clone = stage.clone()
    clone.handlers[0].append(ir.Continue())
    assert len(stage.handlers[0]) == 1


def test_queue_ids_sorted():
    pipe = _small_pipeline()
    pipe.queues[5] = ir.QueueSpec(5, ("stage", 0), ("stage", 1))
    pipe.queues[2] = ir.QueueSpec(2, ("stage", 0), ("stage", 1))
    assert pipe.queue_ids() == [0, 2, 5]


def test_array_decl_symbol_and_repr():
    decl = ir.ArrayDecl("edges", elem_size=4, readonly=True)
    assert decl.symbol == "@edges"
    assert "const" in repr(decl)


def test_function_array_for():
    f = ir.Function("k", ["n"], {"a": ir.ArrayDecl("a")}, [])
    assert f.array_for("@a").name == "a"
    assert f.array_for("reg") is None
    assert f.array_for("@missing") is None


def test_function_clone_deep():
    f = ir.Function("k", ["n"], {"a": ir.ArrayDecl("a")}, [ir.Assign("x", "mov", [0])])
    g = f.clone()
    g.body.append(ir.Barrier())
    g.scalar_params.append("m")
    assert len(f.body) == 1
    assert f.scalar_params == ["n"]


def test_intrinsic_defaults():
    intr = ir.Intrinsic("work", lambda x: x, cost=10)
    assert intr.cost == 10 and intr.fn(3) == 3


def test_reprs():
    pipe = _small_pipeline()
    assert "demo" in repr(pipe)
    assert "xs" in repr(pipe.queues[0])
    assert "Stage(1:c)" == repr(pipe.stages[1])


def _stage(index):
    return ir.StageProgram(index, "s%d" % index, [])


def _topology(stage_indices, queues, ras=()):
    return ir.PipelineProgram(
        "t",
        [_stage(i) for i in stage_indices],
        [ir.QueueSpec(qid, src, dst) for qid, (src, dst) in enumerate(queues)],
        [ir.RASpec(raid, ir.RA_INDIRECT, "@a", 0, 1) for raid in ras],
        {},
        [],
    )


def test_queue_end_stages():
    pipe = _topology(
        [0, 1],
        [
            (("stage", 0), ("ra", 0)),
            (("ra", 0), ("stage", 1)),
            (("stage", 0), ("extern", 1)),
        ],
        ras=[0],
    )
    assert pipe.producer_stage(0) is pipe.stages[0]
    assert pipe.consumer_stage(0) is None
    assert pipe.producer_stage(1) is None
    assert pipe.consumer_stage(1) is pipe.stages[1]
    assert pipe.consumer_stage(2) is None
    assert pipe.producer_stage(9) is None and pipe.consumer_stage(9) is None


def test_successors_leave_out_extern_ends():
    pipe = _topology(
        [0, 1],
        [
            (("stage", 0), ("stage", 1)),
            (("extern", 3), ("stage", 1)),
            (("stage", 0), ("ra", 0)),
            (("ra", 0), ("stage", 1)),
        ],
        ras=[0],
    )
    assert pipe.successors() == {
        ("stage", 0): [(("stage", 1), 0), (("ra", 0), 2)],
        ("stage", 1): [],
        ("ra", 0): [(("stage", 1), 3)],
    }


def test_topo_order_breaks_ties_by_number():
    pipe = _topology([10, 2], [])
    assert pipe.topo_order() == [("stage", 2), ("stage", 10)]


def test_topo_order_appends_cycles_and_what_they_feed():
    pipe = _topology(
        [0, 1, 2, 3, 4, 5],
        [
            (("stage", 0), ("stage", 1)),
            (("stage", 1), ("stage", 0)),
            (("stage", 1), ("stage", 3)),
            (("stage", 3), ("stage", 2)),
            (("stage", 4), ("ra", 0)),
            (("ra", 0), ("stage", 5)),
        ],
        ras=[0],
    )
    assert pipe.topo_order() == [
        ("stage", 4),
        ("ra", 0),
        ("stage", 5),
        ("stage", 0),
        ("stage", 1),
        ("stage", 2),
        ("stage", 3),
    ]
