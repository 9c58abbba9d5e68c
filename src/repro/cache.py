"""Content-addressed memo layers for the evaluation harness.

Regenerating the paper's figures repeats two kinds of work across figures
and across invocations: compiling the same ``(function, options)`` pipeline
and simulating the same ``(program, input, config)``. This module memoizes
both (plus the profile-guided search's scores) behind stable content
hashes:

* **pipeline** — compiled pipelines keyed by the canonical IR fingerprint
  (:func:`repro.ir.fingerprint`) plus ``CompileOptions.cache_key()``;
  lint diagnostics keyed by source text (:func:`cached_lint`); and in
  front of both the front door's answers (:func:`cached_answer`): a
  memoized verb's request -> the finished ``(exit_code, output, records,
  extras)`` of its ``emit`` or ``lint``, which skips options, parse,
  fingerprint, pass stack and rendering;
* **baseline** — every recorded simulation (:func:`cached_run`: the
  run's :class:`~repro.pipette.stats.RunResult`, keeping only the arrays
  the run wrote) keyed by program + input contents + machine config +
  stage placement + engine, and every replicated one
  (:func:`cached_replicated`, Fig. 14) keyed by each replica's program,
  input and core plus which input lists they share, config + engine;
* **search** — profile-guided search scores keyed by function, training
  inputs, config, and search parameters.

Each layer has an in-process LRU (:data:`MEMORY_ENTRIES` entries) in front
of a shared on-disk pickle store (``REPRO_CACHE_DIR``, default
``~/.cache/phloem-repro``), so warm results survive process restarts and
eviction, and are shared by every worker of the parallel harness
(:mod:`repro.bench.parallel`) and every client of the compile-and-simulate
daemon (:mod:`repro.service`). ``REPRO_NO_CACHE=1`` disables the disk
layer. Keys are salted with the package version and a stamp of the
package's source files: upgrading the compiler, or editing a pass in a
checkout, invalidates every cached artifact.

Concurrency: entries are written with write-then-rename (readers never
observe a partial pickle), and each compute-on-miss runs under a per-key
``flock`` so simultaneous clients asking for the same artifact do the
work once — the first takes the miss and computes, the rest block briefly
and take a hit off the store the winner populated.

Cached values are treated as immutable: :func:`cached_compile` returns a
fresh clone per call, :func:`cached_run` a shallow copy whose ``stats``
and stage maps are the shared entry's (:func:`repro.obs.record.measure`
builds fresh dicts from them), and :func:`cached_lint` diagnostics and
:func:`cached_answer` answers are the shared entries; no caller mutates
any of them (the harness and the handlers only read them).

:func:`lookup_only` is the mode a caller that must not block uses (the
daemon's event loop): every memoized function above answers from memory or
disk or raises :class:`Miss` — it never computes, never waits on a key
lock, never books a miss and never runs a ``verify_each`` compile or a
simulation.

The toolchain is imported where a lookup needs it, never at module level:
an answer hit unpickles plain data and loads no toolchain module at all.
"""

import collections
import contextlib
import contextvars
import hashlib
import itertools
import os
import pickle

try:
    import fcntl
except ImportError:  # non-POSIX: atomic rename still guards writes
    fcntl = None

from . import __version__
from .cachedir import cache_dir, write_atomic

#: Memo layers, in the order stats are reported.
LAYERS = ("pipeline", "baseline", "search")

#: Entries each layer keeps in process. Every distinct client source enters
#: the pipeline layer, so a long-lived daemon worker needs a bound; the
#: least recently used entry is dropped and comes back as a disk hit.
MEMORY_ENTRIES = 512

_memory = {layer: collections.OrderedDict() for layer in LAYERS}
_stats = {layer: {"hits": 0, "misses": 0} for layer in LAYERS}


# ---------------------------------------------------------------------------
# Key construction


#: Exact scalar type -> its canonical text: one lookup in place of the
#: ``isinstance`` chain of :func:`_canon` (a subclass still takes the chain).
_SCALAR_TEXT = {
    str: "s:%s".__mod__,
    int: "i:%d".__mod__,
    bool: "b:%d".__mod__,
    float: "f:%r".__mod__,
    type(None): lambda value: "none",
}


def _canon(value):
    """Canonical text of a plain-data value (dicts sorted, type-tagged)."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, dict):
        return "{" + ",".join("%s=%s" % (k, _canon(value[k])) for k in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, bool):
        return "b:%d" % value
    if isinstance(value, int):
        return "i:%d" % value
    if isinstance(value, float):
        return "f:%s" % repr(value)
    if value is None:
        return "none"
    return "s:%s" % value


_stamp = None


def toolchain_stamp():
    """SHA-256 over ``(relative path, size, mtime_ns)`` of the package's
    ``.py`` files, computed once per process.

    ``__version__`` only moves at a release; this moves whenever a source
    file does, so a developer who edits a pass and re-runs ``repro emit``
    misses instead of getting the pipeline the old pass built.
    """
    global _stamp
    if _stamp is None:
        root = os.path.dirname(os.path.abspath(__file__))
        files = []
        for directory, subdirs, names in os.walk(root):
            subdirs[:] = [d for d in subdirs if d != "__pycache__"]
            for name in names:
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    info = os.stat(path)
                    files.append((os.path.relpath(path, root), info.st_size, info.st_mtime_ns))
        _stamp = hashlib.sha256(repr(sorted(files)).encode("utf-8")).hexdigest()
    return _stamp


def content_hash(*parts):
    """SHA-256 over the canonical forms of ``parts`` (the cache key)."""
    return _digest(map(_canon, parts))


def _digest(texts):
    """SHA-256 over canonical ``texts``, salted like every cache key."""
    salted = "v:%s;%s" % (__version__, toolchain_stamp()) + "".join("\x00" + t for t in texts)
    return hashlib.sha256(salted.encode("utf-8")).hexdigest()


#: Element types whose ``repr`` is already a canonical, type-tagged text:
#: ``1``, ``1.0``, ``True`` and ``'1'`` all print differently, and none of
#: them depends on the hash seed or on object identity.
_REPR_TYPES = frozenset((int, float, bool, str, type(None)))


def _array_text(values):
    """Canonical text of one array: its ``repr`` when every element is a
    plain value (or a tuple of plain values), else :func:`_canon`. The two
    encodings carry distinct prefixes, so they never collide."""
    types = set(map(type, values))
    if tuple in types:
        types.discard(tuple)
        types.update(map(type, itertools.chain.from_iterable(
            v for v in values if type(v) is tuple
        )))
    if types <= _REPR_TYPES:
        return "r:" + repr(values)
    return "c:" + _canon(values)


def fingerprint_env(arrays, scalars):
    """Content hash of one benchmark environment (arrays + scalars)."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(("a:%s=" % name).encode("utf-8"))
        h.update(_array_text(list(arrays[name])).encode("utf-8"))
    for name in sorted(scalars):
        h.update(("s:%s=%s" % (name, _canon(scalars[name]))).encode("utf-8"))
    return h.hexdigest()


#: Dataclass type -> its field names, sorted (``()`` for any other type).
_FIELD_NAMES = {}


def _config_text(value):
    """``_canon(dataclasses.asdict(value))``, read off the fields: no deep
    copy, and nested dataclasses (the cache levels) become dicts."""
    cls = type(value)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        from dataclasses import fields, is_dataclass

        names = tuple(sorted(f.name for f in fields(cls))) if is_dataclass(cls) else ()
        _FIELD_NAMES[cls] = names
    if not names:
        return _canon(value)
    return "{" + ",".join("%s=%s" % (n, _config_text(getattr(value, n))) for n in names) + "}"


def fingerprint_config(config):
    """Content hash of a :class:`~repro.pipette.config.MachineConfig`.

    Read off the fields on every call: ``op_latencies`` is a mutable dict,
    so a key remembered per config object could go stale.
    """
    return _digest((_canon("config"), _config_text(config)))


# ---------------------------------------------------------------------------
# Storage: per-process memory in front of a shared pickle directory


def _disk_path(layer, key):
    base = cache_dir()
    if base is None:
        return None
    return os.path.join(base, layer, key + ".pkl")


def _recall(layer, key):
    """The in-process entry for ``key`` (now the most recently used), or None."""
    entries = _memory[layer]
    value = entries.get(key)
    if value is not None:
        entries.move_to_end(key)
    return value


def _remember(layer, key, value):
    entries = _memory[layer]
    entries[key] = value
    entries.move_to_end(key)
    while len(entries) > MEMORY_ENTRIES:
        entries.popitem(last=False)


def _read(layer, key):
    """The disk entry for ``key``, or None: absent, disk off, or unreadable."""
    path = _disk_path(layer, key)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except Exception:  # noqa: BLE001 - garbage bytes can raise anything
        # Truncated, corrupt or written by a checkout whose classes have
        # moved: a miss, and the recompute overwrites the entry.
        return None


@contextlib.contextmanager
def _key_lock(layer, key):
    """Serialize compute-on-miss for one cache key across processes.

    An exclusive ``flock`` on ``<layer>/<key>.lock`` (released on close —
    and by the OS if the holder dies). Degrades to a no-op when disk
    caching is off or the platform has no ``fcntl``; the write-then-rename
    in :func:`_store` still guards against corruption, the lock only
    deduplicates the work.
    """
    base = cache_dir()
    if base is None or fcntl is None:
        yield
        return
    path = os.path.join(base, layer, key + ".lock")
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
    except OSError:
        yield
        return
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:
            pass
        yield
    finally:
        os.close(fd)


class Miss(LookupError):
    """A :func:`lookup_only` read found no usable entry (or the call is one
    the memo never answers): whoever can compute should serve the request."""


#: Per context (thread, asyncio task), so a lookup-only event loop never
#: turns a concurrent thread's compute-on-miss into a :class:`Miss`.
_lookup_only = contextvars.ContextVar("repro.cache.lookup_only", default=False)


@contextlib.contextmanager
def lookup_only():
    """Within this context a memoized call returns an entry or raises
    :class:`Miss`. By contract it

    * never calls ``compute`` — no parse, no compile, no simulation;
    * never waits on :func:`_key_lock` (a computing process may hold it for
      seconds): the disk entry is read unlocked, which is safe because
      :func:`_store` writes then renames;
    * never books a miss;
    * never answers a ``verify_each`` call, which always compiles, or a
      run whose program carries intrinsics, which always simulates.
    """
    token = _lookup_only.set(True)
    try:
        yield
    finally:
        _lookup_only.reset(token)


def _compute_unmemoized(compute, why):
    """``compute()`` for a call the memo must not answer (``why`` it must not:
    a ``verify_each`` compile, a run whose program carries intrinsics)."""
    if _lookup_only.get():
        raise Miss("%s is never answered from the memo" % why)
    return compute()


def _get_or_compute(layer, key, compute, front=False):
    """One-miss-many-hits lookup: the shared compute-on-miss protocol.

    Memory first (no lock), then the disk store — read under the per-key
    lock, because a concurrent process may have computed the value while
    this one waited for it. ``front`` marks a key that sits in front of
    another memoized lookup: ``compute`` books the hit or miss of the one
    it falls through to, so a request counts once. Under
    :func:`lookup_only` the disk read takes no lock and a missing or
    unreadable entry raises :class:`Miss`.
    """
    value = _recall(layer, key)
    if value is not None:
        _stats[layer]["hits"] += 1
        return value
    if _lookup_only.get():
        value = _read(layer, key)
        if value is None:
            raise Miss("%s/%s" % (layer, key))
        _remember(layer, key, value)
        _stats[layer]["hits"] += 1
        return value
    with _key_lock(layer, key):
        value = _read(layer, key)
        if value is not None:
            _remember(layer, key, value)
            _stats[layer]["hits"] += 1
            return value
        if not front:
            _stats[layer]["misses"] += 1
        value = compute()
        _store(layer, key, value)
        return value


def _store(layer, key, value):
    _remember(layer, key, value)
    path = _disk_path(layer, key)
    if path is None:
        return
    # Write-then-rename so concurrent harness workers never observe a
    # partially written pickle; best-effort, the memory layer holds it.
    write_atomic(path, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def reset(memory=True, stats=True):
    """Clear the in-process memo layers and/or hit counters (tests)."""
    if memory:
        for layer in LAYERS:
            _memory[layer].clear()
    if stats:
        for layer in LAYERS:
            _stats[layer]["hits"] = 0
            _stats[layer]["misses"] = 0


# ---------------------------------------------------------------------------
# Statistics (merged across pool workers by repro.bench.parallel)


def stats():
    """``{layer: {"hits": n, "misses": n}}`` copy of the counters."""
    return {layer: dict(_stats[layer]) for layer in LAYERS}


def stats_since(before):
    """``{layer: {"hits": n, "misses": n}}`` increments since ``before``, a
    :func:`stats` copy.

    The per-request cache view of the API layer: a one-shot CLI process
    reports the same numbers as before (nothing precedes the request), a
    long-lived service worker reports just this request's traffic — which
    is how a client sees its warm submission hit the shared cache.
    """
    return {
        layer: {kind: count - before[layer][kind] for kind, count in _stats[layer].items()}
        for layer in LAYERS
    }


def merge_stats(delta):
    """Fold a pool worker's :func:`stats_since` delta into this process's
    counters."""
    for layer, counts in delta.items():
        for kind, count in counts.items():
            _stats[layer][kind] += count


# ---------------------------------------------------------------------------
# Layer 1: compiled pipelines


def cached_compile(function, options):
    """``compile_function(function, options=options)``, memoized.

    The key is the canonical IR fingerprint of ``function`` plus
    ``options.cache_key()``; a warm hit skips the whole pass stack. Returns
    a fresh clone so callers may mutate their pipeline freely. Intrinsic
    implementations (opaque callables) are stripped before pickling and
    reattached from ``function`` on the way out.

    ``options.verify_each`` is not part of ``cache_key()`` — verification
    never changes the pipeline — so a hit would skip the per-pass
    verification the flag asks for: such a compile never touches the memo.
    """
    from .core.compiler import compile_function
    from .ir.serialize import fingerprint

    if options.verify_each:
        return _compute_unmemoized(
            lambda: compile_function(function, options=options), "verify_each"
        )
    key = content_hash("pipeline", fingerprint(function), options.cache_key())

    def compute():
        pipeline = compile_function(function, options=options)
        stored = pipeline.clone()
        stored.intrinsics = {}
        return stored

    value = _get_or_compute("pipeline", key, compute)
    pipeline = value.clone()
    pipeline.intrinsics = dict(function.intrinsics)
    return pipeline


def cached_lint(source, name, options, file=None, perf=False):
    """:func:`repro.analysis.sanitize.lint_source`, memoized on the source text.

    ``lint_source`` turns every toolchain failure into diagnostics, so a
    parse or compile error is a result like any other and is stored; the
    ``file`` label and ``perf`` change the rendering and ride in the key.
    Booked to the ``pipeline`` layer (a miss compiles). The returned
    :class:`~repro.diag.DiagnosticSet` is shared: read it, don't extend it.
    """

    def compute():
        from .analysis.sanitize import lint_source

        return lint_source(source, name=name, options=options, file=file, perf=perf)

    if options.verify_each:
        return _compute_unmemoized(compute, "verify_each")
    key = content_hash("lint", source, name, file, perf, options.cache_key())
    return _get_or_compute("pipeline", key, compute)


def cached_answer(verb, fields, compute):
    """The answer to one request of a memoized verb (``emit``, ``lint``),
    memoized on the verb and all of the request's ``fields`` (its
    ``{name: value}``, in declaration order).

    ``compute()`` runs the verb and returns its plain-data answer
    ``(exit_code, output, records, extras)``, so a hit rebuilds nothing:
    no options, no parse, no IR walk, no rendering — and unpickling it
    loads no toolchain module. The answer key is a front key: a hit is the
    request's one ``pipeline`` hit, while a miss books nothing and
    ``compute`` books the lookups it makes (:func:`cached_compile` for
    ``emit``, :func:`cached_lint` per ``lint`` target). Errors propagate and
    are never stored. A ``verify_each`` request always computes: the
    verification is what it asks for. The answer is the shared entry: read
    it, don't mutate it.
    """
    if fields.get("verify_each"):
        return _compute_unmemoized(compute, "verify_each")
    key = content_hash("answer", verb, *fields.values())
    return _get_or_compute("pipeline", key, compute, front=True)


# ---------------------------------------------------------------------------
# Layer 2: recorded simulations, booked to the "baseline" layer (the name
# cache.stats() readers — telemetry, RunRecords, the benchmark — key on)


def cached_run(program, arrays, scalars, config, stage_cores=None):
    """``run_pipeline(program, ...)`` — ``run_serial`` for a serial
    ``Function`` — memoized on program + input contents + machine config +
    stage placement + engine.

    A simulation is a pure function of those five, so every run the harness
    records goes through here (or :func:`cached_replicated`) and a warm
    ``demo`` or ``figures`` simulates nothing; the caller still runs its
    golden oracle on ``arrays``. The engine is the one
    :func:`~repro.pipette.config.resolve_engine` picks now, so a hit names
    truthfully which engine executed each stage. A program that carries
    intrinsics is simulated every time: their implementations are opaque
    callables the fingerprint cannot see.

    Runs whose point is the run itself never come here: traced and timed
    runs, search training (the ``search`` layer memoizes whole searches),
    and the public ``run_pipeline``/``run_serial``/``run_replicated``.

    Returns a :class:`~repro.pipette.stats.RunResult`. The entry holds only
    the arrays the run changed; a hit returns a shallow copy of it whose
    ``arrays`` are the caller's input overlaid with those.
    """
    from .ir.program import Function, serial_pipeline
    from .ir.serialize import fingerprint
    from .pipette.config import resolve_engine

    def run():
        from .runtime.executor import run_pipeline

        pipeline = serial_pipeline(program) if isinstance(program, Function) else program
        return run_pipeline(pipeline, arrays, scalars, config=config, stage_cores=stage_cores)

    return _memoized_run((program,), (arrays,), run, lambda: content_hash(
        "run",
        fingerprint(program),
        fingerprint_env(arrays, scalars),
        fingerprint_config(config),
        stage_cores,
        resolve_engine(),
    ))


def cached_replicated(replicas, config):
    """``run_replicated(replicas, config)`` (Fig. 14), memoized like
    :func:`cached_run`: ``replicas`` is its list of ``(pipeline, arrays,
    scalars, core)``.

    The key holds each replica's program fingerprint, input contents and
    core, which of the input lists the replicas share (the first position
    of each list object, in replica and then name order: two replicas that
    read the same contents from one list and from two copies are two
    different runs), the config and the engine. A hit's
    ``replica_arrays[i]`` is replica ``i``'s input overlaid with the arrays
    the run changed, which are as shared among the replicas as the run's.
    """
    from .ir.serialize import fingerprint
    from .pipette.config import resolve_engine

    def run():
        from .runtime.executor import run_replicated

        return run_replicated(replicas, config)

    def key():
        first = {}
        return content_hash(
            "replicated",
            [(fingerprint(p), fingerprint_env(a, s), core) for p, a, s, core in replicas],
            [[first.setdefault(id(a[name]), len(first)) for name in sorted(a)]
             for _, a, _, _ in replicas],
            fingerprint_config(config),
            resolve_engine(),
        )

    return _memoized_run(
        [replica[0] for replica in replicas], [replica[1] for replica in replicas], run, key
    )


def _memoized_run(programs, inputs, run, key):
    """``run()`` (a RunResult of ``programs`` on the per-replica arrays
    ``inputs``) memoized in the ``baseline`` layer under ``key()``; never
    memoized when a program carries intrinsics.

    The entry keeps only the arrays the run changed; what is returned
    overlays them on ``inputs``.
    """
    from .pipette.stats import RunResult

    def compute():
        result = run()
        result.replica_arrays = [
            {name: data for name, data in out.items() if arrays.get(name) != data}
            for arrays, out in zip(inputs, result.replica_arrays)
        ]
        return result

    if any(program.intrinsics for program in programs):
        value = _compute_unmemoized(compute, "a program with intrinsics")
    else:
        value = _get_or_compute("baseline", key(), compute)
    return RunResult(
        value.cycles,
        [{**arrays, **changed} for arrays, changed in zip(inputs, value.replica_arrays)],
        value.stats, value.active_cores, value.stage_engines, value.stage_fallbacks,
    )


# ---------------------------------------------------------------------------
# Layer 3: profile-guided search scores


def cached_search(key_parts, compute):
    """Memoize a profile-guided search's *scores* (not its pipelines).

    ``compute()`` must return a plain-data payload (the harness stores
    candidate indices, unit counts, and speedups); the winning pipeline is
    recompiled through :func:`cached_compile` on a warm hit, which keeps
    pickles small and pipelines importable everywhere.
    """
    key = content_hash("search", *key_parts)
    return _get_or_compute("search", key, compute)
