"""The answer memo: a memoized verb's warm request is a lookup of its
finished answer, not a re-render.

``emit`` and ``lint`` answer from :func:`repro.cache.cached_answer`, keyed
on the verb and every request field. The cold answer, the warm memory hit,
the warm disk hit and a ``REPRO_NO_CACHE=1`` run agree on everything but
``Response.cache``; a hit books one ``pipeline`` hit and calls no renderer;
a miss books what the runner's own lookups book; ``verify_each`` never
touches the answer memo.
"""

import pytest

from repro import api, cache
from repro.workloads import ALL_BENCHMARKS

#: A fresh disk store and empty in-process layers per test.
pytestmark = pytest.mark.usefixtures("cold_store")

FORMATS = ("c", "ir", "summary", "diagram")

LINT_FLAGS = {"text": {}, "json": {"json": True}, "perf": {"perf": True}}

#: Every renderer a cold ``emit``/``lint`` calls, by module.
RENDERERS = (
    ("repro.core.options", "pipeline_summary"),
    ("repro.ir.printer", "format_pipeline"),
    ("repro.core.viz", "ascii_diagram"),
    ("repro.core.codegen", "emit_pipeline"),
    ("repro.analysis.sanitize", "lint_source"),
)


def _pipeline(response):
    return response.cache["pipeline"]


def _answer(response):
    """Everything a client reads of a response except its cache delta."""
    return response.replace(cache=None)


def _four_ways(request, monkeypatch):
    """The cold answer, the warm memory hit, the warm disk hit and a
    ``REPRO_NO_CACHE=1`` answer of ``request``, in that order."""
    cold = api.handle(request)
    warm = api.handle(request)
    cache.reset(memory=True)
    from_disk = api.handle(request)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    cache.reset(memory=True)
    uncached = api.handle(request)
    monkeypatch.delenv("REPRO_NO_CACHE")
    return cold, warm, from_disk, uncached


def _poison_renderers(monkeypatch):
    import importlib

    def never(*args, **kwargs):
        raise AssertionError("a warm answer renders nothing")

    for module, name in RENDERERS:
        monkeypatch.setattr(importlib.import_module(module), name, never)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("bench", sorted(ALL_BENCHMARKS))
def test_emit_answers_agree_cold_warm_disk_and_uncached(bench, fmt, monkeypatch):
    request = api.CompileRequest(source=ALL_BENCHMARKS[bench].SOURCE, fmt=fmt)
    cold, warm, from_disk, uncached = _four_ways(request, monkeypatch)
    assert cold.ok and cold.output and cold.summary
    for again in (warm, from_disk, uncached):
        assert _answer(again) == _answer(cold)
    assert _pipeline(cold) == {"hits": 0, "misses": 1}
    assert _pipeline(warm) == _pipeline(from_disk) == {"hits": 1, "misses": 0}
    assert _pipeline(uncached) == {"hits": 0, "misses": 1}


@pytest.mark.parametrize("flags", sorted(LINT_FLAGS))
@pytest.mark.parametrize("bench", ["bfs", "all"])
def test_lint_answers_agree_cold_warm_disk_and_uncached(bench, flags, monkeypatch):
    request = api.LintRequest(bench=bench, **LINT_FLAGS[flags])
    cold, warm, from_disk, uncached = _four_ways(request, monkeypatch)
    targets = len(ALL_BENCHMARKS) if bench == "all" else 1
    assert cold.exit_code == 0 and cold.output
    for again in (warm, from_disk, uncached):
        assert _answer(again) == _answer(cold)
    # A miss books one lookup per target; a hit is one lookup, whatever the
    # number of targets.
    assert _pipeline(cold) == _pipeline(uncached) == {"hits": 0, "misses": targets}
    assert _pipeline(warm) == _pipeline(from_disk) == {"hits": 1, "misses": 0}


@pytest.mark.parametrize(
    "request_",
    [api.CompileRequest(source=ALL_BENCHMARKS["bfs"].SOURCE, fmt=fmt) for fmt in FORMATS]
    + [api.LintRequest(bench=bench, **LINT_FLAGS[flags])
       for bench in ("bfs", "all") for flags in sorted(LINT_FLAGS)],
    ids=["emit-" + fmt for fmt in FORMATS]
    + ["lint-%s-%s" % (bench, flags) for bench in ("bfs", "all") for flags in sorted(LINT_FLAGS)],
)
@pytest.mark.parametrize("layer", ["memory", "disk"])
def test_a_warm_answer_calls_no_renderer(request_, layer, monkeypatch):
    cold = api.handle(request_)
    if layer == "disk":
        cache.reset(memory=True)
    _poison_renderers(monkeypatch)
    warm = api.handle(request_)
    assert _answer(warm) == _answer(cold)
    assert _pipeline(warm) == {"hits": 1, "misses": 0}


def test_a_new_format_of_a_warm_source_misses_once_and_hits_the_compile(monkeypatch):
    from repro.frontend import lowering

    parses = []
    parse = lowering.compile_source
    monkeypatch.setattr(
        lowering, "compile_source", lambda *a, **k: parses.append(1) or parse(*a, **k)
    )
    source = ALL_BENCHMARKS["bfs"].SOURCE
    assert _pipeline(api.handle(api.CompileRequest(source=source, fmt="summary"))) == {
        "hits": 0, "misses": 1,
    }
    assert len(parses) == 1
    again = api.handle(api.CompileRequest(source=source, fmt="ir"))
    assert _pipeline(again) == {"hits": 1, "misses": 0}  # the cached_compile hit
    assert len(parses) == 2
    api.handle(api.CompileRequest(source=source, fmt="ir"))
    assert len(parses) == 2


def test_a_partly_warm_sweep_books_its_targets_then_one_hit():
    first = sorted(ALL_BENCHMARKS)[0]
    api.handle(api.LintRequest(bench=first))
    sweep = api.LintRequest(bench="all")
    assert _pipeline(api.handle(sweep)) == {"hits": 1, "misses": len(ALL_BENCHMARKS) - 1}
    assert _pipeline(api.handle(sweep)) == {"hits": 1, "misses": 0}


@pytest.mark.parametrize(
    "request_",
    [api.CompileRequest(source=ALL_BENCHMARKS["bfs"].SOURCE, fmt="summary"),
     api.LintRequest(bench="bfs")],
    ids=["emit", "lint"],
)
def test_verify_each_never_touches_the_answer_memo(request_, monkeypatch):
    answered = []
    cached_answer = cache.cached_answer
    monkeypatch.setattr(
        cache, "cached_answer", lambda *a: answered.append(a[1]) or cached_answer(*a)
    )
    plain = api.handle(request_)  # leaves an answer a verified request must not take
    entries = dict(cache._memory["pipeline"])
    verified = request_.replace(verify_each=True)
    for _ in range(2):
        response = api.handle(verified)
        assert _answer(response) == _answer(plain)
        assert _pipeline(response) == {"hits": 0, "misses": 0}
    # The memo saw the calls and stored nothing for them.
    assert [fields["verify_each"] for fields in answered] == [False, True, True]
    assert dict(cache._memory["pipeline"]) == entries
    # A warm verified request still renders: the poisoned renderers fire.
    _poison_renderers(monkeypatch)
    with pytest.raises(AssertionError, match="renders nothing"):
        api.handle(verified)
    assert _answer(api.handle(request_)) == _answer(plain)


def test_a_hit_hands_out_its_own_records_list():
    request = api.LintRequest(source="void broken(int n { }", file="k.c", json=True)
    cold = api.handle(request)
    assert cold.records
    cold.records.append({"code": "mine"})
    warm = api.handle(request)
    assert {"code": "mine"} not in warm.records
