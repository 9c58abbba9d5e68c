"""Program containers for the Phloem IR.

A serial kernel parses/lowers into a :class:`Function`. The Phloem compiler
turns a Function into a :class:`PipelineProgram`: a set of
:class:`StageProgram` bodies connected by :class:`QueueSpec` queues, with
memory accesses optionally offloaded to :class:`RASpec` reference
accelerators. Pipeline programs are what the Pipette simulator executes.
"""

from collections import deque

from .stmts import walk
from .values import is_array_symbol


class ArrayDecl:
    """Declaration of an array (a pointer parameter in the mini-C source).

    ``restrict`` mirrors the C qualifier: the paper requires precise aliasing
    information, which in practice means every pointer parameter is
    restrict-qualified. ``readonly`` marks ``const`` pointers.
    """

    __slots__ = ("name", "elem_size", "readonly", "restrict", "is_float")

    def __init__(self, name, elem_size=8, readonly=False, restrict=True, is_float=False):
        self.name = name
        self.elem_size = elem_size
        self.readonly = readonly
        self.restrict = restrict
        self.is_float = is_float

    @property
    def symbol(self):
        return "@" + self.name

    def __repr__(self):
        quals = []
        if self.readonly:
            quals.append("const")
        if self.restrict:
            quals.append("restrict")
        return "ArrayDecl(%s, %dB%s)" % (self.name, self.elem_size, " " + " ".join(quals) if quals else "")


class Intrinsic:
    """An opaque callable the IR may invoke (e.g. the paper's ``work()``).

    ``cost`` is the number of issue slots the call consumes in the timing
    model; ``fn`` provides functional semantics.
    """

    __slots__ = ("name", "fn", "cost")

    def __init__(self, name, fn, cost=10):
        self.name = name
        self.fn = fn
        self.cost = cost


class Function:
    """A lowered serial kernel: the unit Phloem transforms.

    Attributes:
        name: kernel name from the source.
        scalar_params: ordered names of scalar parameters.
        arrays: mapping of array name -> :class:`ArrayDecl`.
        body: list of IR statements (a region tree).
        pragmas: parsed ``#pragma`` annotations (Table II).
        intrinsics: mapping of callable name -> :class:`Intrinsic`.
    """

    def __init__(self, name, scalar_params, arrays, body, pragmas=None, intrinsics=None):
        self.name = name
        self.scalar_params = list(scalar_params)
        self.arrays = dict(arrays)
        self.body = body
        self.pragmas = dict(pragmas or {})
        self.intrinsics = dict(intrinsics or {})

    def array_for(self, operand):
        """Resolve an array operand to its decl, if it is a literal symbol."""
        if is_array_symbol(operand):
            return self.arrays.get(operand[1:])
        return None

    def all_stmts(self):
        return walk(self.body)

    def clone(self):
        return Function(
            self.name,
            list(self.scalar_params),
            {k: v for k, v in self.arrays.items()},
            [s.clone() for s in self.body],
            dict(self.pragmas),
            dict(self.intrinsics),
        )

    def __repr__(self):
        return "Function(%s, %d arrays, %d stmts)" % (
            self.name,
            len(self.arrays),
            sum(1 for _ in self.all_stmts()),
        )


#: Pipette's per-core limits (paper Table III): a queue's default depth
#: (its ``capacity``), queues per core and reference accelerators per core.
QUEUE_DEPTH = 24
MAX_QUEUES = 16
MAX_RAS = 4

#: The core's timing (paper Table III), read by ``MachineConfig``'s
#: defaults, the simulator and the static performance model: micro-ops
#: issued per cycle, completion latencies of register-to-register ops
#: (cycles; an op absent here takes 1) and the cycles an atomic
#: read-modify-write adds to its access.
ISSUE_WIDTH = 6
OP_LATENCIES = {"mul": 3, "div": 12, "mod": 12, "select": 1}
ATOMIC_OVERHEAD = 15


class QueueSpec:
    """A hardware queue connecting a producer to a consumer.

    ``producer``/``consumer`` are endpoint descriptors: ``("stage", i)`` or
    ``("ra", j)``. ``label`` records what value stream flows through it,
    which makes printed pipelines legible.
    """

    __slots__ = ("qid", "capacity", "producer", "consumer", "label")

    def __init__(self, qid, producer, consumer, capacity=QUEUE_DEPTH, label=""):
        self.qid = qid
        self.producer = producer
        self.consumer = consumer
        self.capacity = capacity
        self.label = label

    def __repr__(self):
        return "Queue(%d, %s -> %s%s)" % (
            self.qid,
            self.producer,
            self.consumer,
            ", %s" % self.label if self.label else "",
        )


#: Reference accelerator access modes (Pipette Table I).
RA_INDIRECT = "indirect"
RA_SCAN = "scan"


class RASpec:
    """A reference accelerator configuration.

    In INDIRECT mode each input value is an index into ``array``; in SCAN
    mode input values arrive in (start, end) pairs and the RA streams
    ``array[start:end]``. The RA dequeues from ``in_queue`` and enqueues
    loaded elements to ``out_queue``; chaining is expressed by pointing one
    RA's ``out_queue`` at another RA's ``in_queue``.

    ``forward_ctrl`` makes the RA pass control values through unchanged so
    end-of-stream markers survive offloading.
    """

    __slots__ = ("raid", "mode", "array", "in_queue", "out_queue", "forward_ctrl")

    def __init__(self, raid, mode, array, in_queue, out_queue, forward_ctrl=True):
        if mode not in (RA_INDIRECT, RA_SCAN):
            raise ValueError("unknown RA mode %r" % (mode,))
        self.raid = raid
        self.mode = mode
        self.array = array
        self.in_queue = in_queue
        self.out_queue = out_queue
        self.forward_ctrl = forward_ctrl

    def __repr__(self):
        return "RA(%d, %s %s, q%d -> q%d)" % (
            self.raid,
            self.mode,
            self.array,
            self.in_queue,
            self.out_queue,
        )


class StageProgram:
    """One pipeline stage: a body plus its control-value handlers.

    ``handlers`` maps queue id -> handler body, mirroring Pipette's
    ``setup_control_value_handler``. A handler body executes whenever a
    dequeue on that queue is about to return a control value; the special
    register ``%ctrl`` holds the control value inside the handler. A
    ``Break(n)`` ending a handler breaks out of ``n`` loops enclosing the
    dequeue; falling off the end retries the dequeue.
    """

    def __init__(self, index, name, body, handlers=None):
        self.index = index
        self.name = name
        self.body = body
        self.handlers = dict(handlers or {})

    def all_stmts(self):
        for stmt in walk(self.body):
            yield stmt
        for handler in self.handlers.values():
            for stmt in walk(handler):
                yield stmt

    def clone(self):
        return StageProgram(
            self.index,
            self.name,
            [s.clone() for s in self.body],
            {q: [s.clone() for s in body] for q, body in self.handlers.items()},
        )

    def __repr__(self):
        return "Stage(%d:%s)" % (self.index, self.name)


class PipelineProgram:
    """A complete pipeline: stages, queues, RAs, and shared state.

    This is the compiler's output and the simulator's input. ``meta`` records
    provenance (selected decoupling points, which passes ran) for the
    evaluation harness and for debugging.
    """

    def __init__(
        self,
        name,
        stages,
        queues,
        ras,
        arrays,
        scalar_params,
        shared_vars=None,
        intrinsics=None,
        meta=None,
    ):
        self.name = name
        self.stages = list(stages)
        self.queues = {q.qid: q for q in queues}
        self.ras = list(ras)
        self.arrays = dict(arrays)
        self.scalar_params = list(scalar_params)
        self.shared_vars = set(shared_vars or ())
        self.intrinsics = dict(intrinsics or {})
        self.meta = dict(meta or {})

    @property
    def num_stages(self):
        return len(self.stages)

    @property
    def num_units(self):
        """Stage count including RAs — the x-axis of the paper's Fig. 13."""
        return len(self.stages) + len(self.ras)

    def queue_ids(self):
        return sorted(self.queues)

    def stage(self, index):
        """The stage numbered ``index``, or None."""
        for stage in self.stages:
            if stage.index == index:
                return stage
        return None

    def ra(self, raid):
        """The RA numbered ``raid``, or None."""
        for ra in self.ras:
            if ra.raid == raid:
                return ra
        return None

    def producer_stage(self, qid):
        """The stage that enqueues to queue ``qid``; None when an RA or an
        extern endpoint produces it, or there is no such queue."""
        spec = self.queues.get(qid)
        return None if spec is None else self._stage_at(spec.producer)

    def consumer_stage(self, qid):
        """The stage that dequeues queue ``qid``; None when an RA or an
        extern endpoint consumes it, or there is no such queue."""
        spec = self.queues.get(qid)
        return None if spec is None else self._stage_at(spec.consumer)

    def _stage_at(self, endpoint):
        kind, idx = endpoint
        return self.stage(idx) if kind == "stage" else None

    def successors(self):
        """The dataflow graph, ``{node: [(successor node, qid), ...]}``.

        Nodes are ``("stage", index)`` and ``("ra", raid)``, stages first,
        each kind in declaration order. Each queue is one edge from its
        producer to its consumer, listed in qid order; a queue with an
        extern endpoint, or one naming no declared stage or RA, is none.
        """
        graph = {("stage", stage.index): [] for stage in self.stages}
        graph.update((("ra", ra.raid), []) for ra in self.ras)
        for qid in sorted(self.queues):
            spec = self.queues[qid]
            if spec.producer in graph and spec.consumer in graph:
                graph[spec.producer].append((spec.consumer, qid))
        return graph

    def topo_order(self):
        """Every node of :meth:`successors`, producers before consumers.

        Kahn's algorithm: the nodes no queue feeds start in ``(kind,
        index)`` order, and a node follows once its last producer is
        placed. The members of a queue cycle, and everything they feed,
        are appended in declaration order.
        """
        graph = self.successors()
        indegree = dict.fromkeys(graph, 0)
        for succs in graph.values():
            for node, _qid in succs:
                indegree[node] += 1
        ready = deque(sorted(node for node, count in indegree.items() if count == 0))
        order = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for succ, _qid in graph[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        placed = set(order)
        order.extend(node for node in graph if node not in placed)
        return order

    def upstream(self, qid):
        """Walk queue ``qid`` back through the RA chain feeding it.

        Returns ``(stage, qid, ras)``: the stage producing the queue where
        the walk stopped, that queue, and the RAs crossed on the way,
        downstream first. ``stage`` is None when the chain ends at an
        extern endpoint, a missing queue or RA, or loops back on itself.
        """
        ras = []
        seen = set()
        while True:
            spec = self.queues.get(qid)
            if spec is None or qid in seen:
                return None, qid, ras
            seen.add(qid)
            kind, idx = spec.producer
            if kind == "stage":
                return self.stage(idx), qid, ras
            ra = self.ra(idx) if kind == "ra" else None
            if ra is None:
                return None, qid, ras
            ras.append(ra)
            qid = ra.in_queue

    def clone(self):
        return PipelineProgram(
            self.name,
            [s.clone() for s in self.stages],
            [QueueSpec(q.qid, q.producer, q.consumer, q.capacity, q.label) for q in self.queues.values()],
            [RASpec(r.raid, r.mode, r.array, r.in_queue, r.out_queue, r.forward_ctrl) for r in self.ras],
            dict(self.arrays),
            list(self.scalar_params),
            set(self.shared_vars),
            dict(self.intrinsics),
            dict(self.meta),
        )

    def __repr__(self):
        return "Pipeline(%s: %d stages, %d queues, %d RAs)" % (
            self.name,
            len(self.stages),
            len(self.queues),
            len(self.ras),
        )


def serial_pipeline(function, name=None):
    """Wrap a serial Function as a single-stage pipeline.

    The simulator only runs pipelines; this is how serial baselines (and the
    per-thread bodies of data-parallel baselines) enter it.
    """
    stage = StageProgram(0, function.name, [s.clone() for s in function.body])
    return PipelineProgram(
        name or function.name,
        [stage],
        [],
        [],
        function.arrays,
        function.scalar_params,
        shared_vars=(),
        intrinsics=function.intrinsics,
        meta={"serial": True},
    )
