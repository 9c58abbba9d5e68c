"""The decoupling transform: sides, forwarding, modes, rejections."""

import pytest

from repro import ir
from repro.analysis.costmodel import rank_decouple_points
from repro.core.phases import prepare_phases
from repro.core.split import split_at
from repro.errors import AliasError, CompileError
from repro.frontend import compile_source
from repro.workloads import bfs


def _split(source, cls, already=None):
    f = compile_source(source)
    prepare_phases(f)
    points = {p.cls: p for p in rank_decouple_points(f)}
    counter = [0]

    def alloc():
        counter[0] += 1
        return counter[0] - 1

    return split_at(f.body, points[cls], alloc, f.scalar_params), f


SIMPLE = """
void k(const int* restrict a, const int* restrict b, int* restrict out, int n) {
  for (int i = 0; i < n; i++) {
    int v = a[i];
    out[i] = b[v];
  }
}
"""


def test_value_mode_split():
    outcome, f = _split(SIMPLE, "@b")
    prod_kinds = [s.kind for s in ir.walk(outcome.producer_body)]
    cons_kinds = [s.kind for s in ir.walk(outcome.consumer_body)]
    # Producer performs the load and forwards the value.
    assert "load" in prod_kinds and "enq" in prod_kinds
    assert "store" not in prod_kinds
    # Consumer receives it and stores.
    assert "deq" in cons_kinds and "store" in cons_kinds
    loads_b = [s for s in ir.walk(outcome.consumer_body) if s.kind == "load" and s.array == "@b"]
    assert not loads_b


def test_loops_replicated_on_both_sides():
    outcome, _ = _split(SIMPLE, "@b")
    assert outcome.producer_body[0].kind == "for"
    assert outcome.consumer_body[0].kind == "for"


RW = """
void k(const int* restrict idx, int* restrict data, int n) {
  for (int i = 0; i < n; i++) {
    int j = idx[i];
    int old = data[j];
    if (old > 0) {
      data[j] = old - 1;
    }
  }
}
"""


def test_prefetch_mode_for_written_class():
    outcome, _ = _split(RW, "@data")
    prod = list(ir.walk(outcome.producer_body))
    cons = list(ir.walk(outcome.consumer_body))
    assert any(s.kind == "prefetch" and s.array == "@data" for s in prod)
    assert not any(s.kind == "load" and s.array == "@data" for s in prod)
    # Consumer keeps the authoritative load AND the store.
    assert any(s.kind == "load" and s.array == "@data" for s in cons)
    assert any(s.kind == "store" for s in cons)


def test_forwarded_index_in_prefetch_mode():
    outcome, _ = _split(RW, "@data")
    # The index j crosses the boundary through a queue.
    enqs = [s for s in ir.walk(outcome.producer_body) if s.kind == "enq"]
    deqs = [s for s in ir.walk(outcome.consumer_body) if s.kind == "deq"]
    assert enqs and deqs
    assert {e.queue for e in enqs} == {d.queue for d in deqs}


def test_group_shares_one_queue():
    outcome, _ = _split(bfs.SOURCE, "@nodes")
    group = outcome.group_queue
    assert group is not None
    enqs = [s for s in ir.walk(outcome.producer_body) if s.kind == "enq" and s.queue == group]
    assert len(enqs) == 2  # nodes[v] and nodes[v+1] values, one stream


def test_bfs_distances_split_rejects_nothing_crosswise():
    outcome, _ = _split(bfs.SOURCE, "@distances")
    # All stores stay in the consumer.
    assert not any(s.kind == "store" for s in ir.walk(outcome.producer_body))


def test_multidef_crossing_rejected():
    src = """
    void k(const int* restrict a, int* restrict out, int n) {
      int acc = 0;
      for (int i = 0; i < n; i++) {
        acc = acc + 1;
        int v = a[acc];
        out[i] = v + acc;
      }
    }
    """
    f = compile_source(src)
    points = {p.cls: p for p in rank_decouple_points(f)}
    counter = [0]
    with pytest.raises(CompileError):
        split_at(f.body, points["@a"], lambda: counter.append(0) or len(counter), f.scalar_params)


def test_address_through_a_written_array_is_an_alias_rejection():
    # idx[a[i]]: the producer would load @a, which the consumer writes.
    src = """
    void k(int* restrict a, const int* restrict idx, int n) {
      for (int i = 0; i < n; i++) {
        int j = idx[a[i]];
        a[j] = 0;
      }
    }
    """
    with pytest.raises(AliasError, match="@a"):
        _split(src, "@idx")


def test_pure_scalars_cloned_not_forwarded():
    outcome, _ = _split(SIMPLE, "@b")
    # The loop bound n is a parameter: no queue carries it.
    for fwd in outcome.forwards:
        assert fwd.reg != "n"


def test_barriers_cloned_to_both_sides():
    outcome, _ = _split(bfs.SOURCE, "@edges")
    p_barriers = sum(1 for s in ir.walk(outcome.producer_body) if s.kind == "barrier")
    c_barriers = sum(1 for s in ir.walk(outcome.consumer_body) if s.kind == "barrier")
    assert p_barriers == c_barriers == 2


def test_write_shared_stays_with_value():
    outcome, _ = _split(bfs.SOURCE, "@edges")
    # next_size is computed in the consumer; the WriteShared must be there.
    assert any(s.kind == "write_shared" for s in ir.walk(outcome.consumer_body))
    assert not any(s.kind == "write_shared" for s in ir.walk(outcome.producer_body))
