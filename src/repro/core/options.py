"""What shapes a compilation, and the one-line summary of its result.

A leaf of the compiler: it imports no pass, so building options or
summarizing a pipeline loads no compiler (:mod:`repro.core.compiler`
re-exports all three names).
"""

from ..errors import CompileError
from ..ir.program import QUEUE_DEPTH
from ..ir.stmts import walk

#: Every optional pass, in application order. "queues" (pass 1) is implied
#: by decoupling itself and always on.
ALL_PASSES = ("recompute", "cv", "dce", "handlers", "ra")


class CompileOptions:
    """Everything that shapes a compilation, as one hashable value.

    Pass ``options=CompileOptions(...)`` to the compiler, the autotune
    search, or the bench harness. Being frozen and canonically keyable
    (:meth:`cache_key`), an options value doubles as the second half of the
    compiled-pipeline cache key (:mod:`repro.cache`) — the first half being
    the content hash of the lowered IR.

    The fields, in order, are ``__slots__``; ``verify_each`` re-runs the IR
    verifier and the static safety analyzer after every pass (LLVM's
    -verify-each). It is deliberately NOT part of :meth:`cache_key`:
    verification never changes the compiled pipeline, so a verified and an
    unverified compile must share cache entries.
    """

    __slots__ = ("num_stages", "passes", "queue_capacity", "point_indices", "verify_each")

    def __init__(
        self, num_stages=4, passes=ALL_PASSES, queue_capacity=QUEUE_DEPTH, point_indices=None,
        verify_each=False,
    ):
        passes = tuple(passes)
        if point_indices is not None:
            point_indices = tuple(point_indices)
        if num_stages < 1:
            raise CompileError("num_stages must be >= 1")
        for name in passes:
            if name not in ALL_PASSES:
                raise CompileError("unknown pass %r" % name)
        values = (num_stages, passes, queue_capacity, point_indices, verify_each)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r: CompileOptions is frozen" % name)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "CompileOptions(%s)" % ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__
        )

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with ``changes`` applied."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def cache_key(self):
        """Canonical one-line text of this options value (cache key half)."""
        points = (
            "-" if self.point_indices is None else ",".join(str(i) for i in self.point_indices)
        )
        return "stages=%d;passes=%s;qcap=%d;points=%s" % (
            self.num_stages,
            ",".join(self.passes),
            self.queue_capacity,
            points,
        )


def pipeline_summary(pipeline):
    """One-line description used by the evaluation harness logs."""
    stmts = sum(1 for stage in pipeline.stages for _ in walk(stage.body))
    return "%s: %d stages + %d RAs, %d queues, %d stmts" % (
        pipeline.name,
        len(pipeline.stages),
        len(pipeline.ras),
        len(pipeline.queues),
        stmts,
    )
