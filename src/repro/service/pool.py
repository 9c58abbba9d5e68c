"""The daemon's fork-based request worker pool.

Reuses the :mod:`repro.bench.parallel` fork-pool machinery and contracts:
workers are forked once at daemon startup (before the event loop runs),
mark themselves with the same worker flag — so any nested
:func:`repro.bench.parallel.run_jobs` inside a request degrades to the
serial path instead of spawning a pool inside a pool. Every response
carries its request's :mod:`repro.cache` hit/miss delta
(``Response.cache``), which is how the daemon counts a worker's lookups.

Workers are long-lived: their in-process memo layers stay warm across
requests, and all of them share the on-disk content-addressed store, so
any client's compile warms every later client's. The one-shot CLI imports
a layer when a verb first runs it; a pool loads them all up front
(:func:`preload`), before it forks, so the workers share the pages and no
client's first request pays for an import.

``workers <= 0`` (or a platform without ``fork``) selects the inline
executor: requests run in the calling process, which is what the tests
and tiny deployments want.
"""

import importlib
import multiprocessing

from .. import cache
from ..api.handlers import handle
from ..api.requests import ApiError, Request, error_response
from ..bench.parallel import _fork_available, _pool_init
from ..errors import PhloemError


#: Every module a request of any verb may import at a point of use: what
#: the handlers import where they run it, the :mod:`repro.obs` names they
#: resolve, and what :mod:`repro.cache` and the layers below import late.
#: The packages re-export lazily, so naming a package loads none of its
#: modules: a module a handler imports goes here by its own name.
TOOLCHAIN = (
    "repro.analysis.perfmodel",
    "repro.analysis.sanitize",
    "repro.bench.experiments",
    "repro.bench.harness",
    "repro.bench.parallel",
    "repro.bench.perf",
    "repro.bench.report",
    "repro.core.autotune",
    "repro.core.codegen",
    "repro.core.compiler",
    "repro.core.options",
    "repro.core.viz",
    "repro.diag",
    "repro.frontend.lowering",
    "repro.ir.printer",
    "repro.ir.program",
    "repro.ir.serialize",
    "repro.obs.chrometrace",
    "repro.obs.passes",
    "repro.obs.record",
    "repro.obs.report",
    "repro.obs.search",
    "repro.obs.timeline",
    "repro.obs.tracer",
    "repro.pipette.config",
    "repro.runtime.executor",
    "repro.workloads",
)


def preload():
    """Import the whole toolchain into this process (idempotent).

    Also takes the toolchain stamp every cache key is salted with, so the
    event loop and the workers forked after this agree on it — the loop
    finds under the same key what a worker stored.
    """
    for name in TOOLCHAIN:
        importlib.import_module(name)
    cache.toolchain_stamp()


def execute_wire(wire):
    """Run one request wire dict; returns the response wire.

    A wire object the decoder rejects is a ``bad-request`` (exit 2, like an
    argparse error); toolchain failures and anything else become structured
    error responses too — a worker never takes the daemon down with it, and
    an error response carries the cache delta of the lookups made before
    the failure, as :func:`~repro.api.handlers.handle` stamps every response
    it returns. The one exception that leaves is :class:`repro.cache.Miss`:
    under ``cache.lookup_only()`` (the daemon's event loop) it means "not
    answerable from the memo, run it on a worker", not a failure.
    """
    verb = wire.get("verb") if isinstance(wire, dict) else None
    before = cache.stats()
    try:
        return handle(Request.from_wire(wire)).to_wire()
    except cache.Miss:
        raise
    except ApiError as exc:  # a PhloemError too, so this arm comes first
        response = error_response(verb, "bad-request", str(exc), exit_code=2)
    except PhloemError as exc:
        response = error_response(verb, "toolchain-error", str(exc), exit_code=1)
    except Exception as exc:  # noqa: BLE001 - the pool must survive anything
        response = error_response(
            verb, "internal-error", "%s: %s" % (type(exc).__name__, exc), exit_code=1
        )
    return response.replace(cache=cache.stats_since(before)).to_wire()


class RequestPool:
    """Fixed-size fork pool executing request wires for the daemon.

    :meth:`submit` bridges ``apply_async`` into the caller's asyncio loop:
    it returns a future resolved from the pool's result thread via
    ``call_soon_threadsafe``.
    """

    def __init__(self, workers=2):
        self.workers = max(0, int(workers))
        self._pool = None
        preload()
        if self.workers > 0 and _fork_available():
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(self.workers, initializer=_pool_init)

    @property
    def inline(self):
        """True when requests execute in the daemon process itself."""
        return self._pool is None

    def submit(self, wire, loop):
        """Schedule one request; returns an asyncio future of its response wire."""
        future = loop.create_future()

        if self._pool is None:
            future.set_result(execute_wire(wire))
            return future

        def done(result):
            loop.call_soon_threadsafe(_resolve, future, result)

        def failed(exc):
            loop.call_soon_threadsafe(_reject, future, exc)

        self._pool.apply_async(execute_wire, (wire,), callback=done, error_callback=failed)
        return future

    def close(self):
        """Tear the pool down (daemon shutdown)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


def _resolve(future, response_wire):
    if not future.cancelled():
        future.set_result(response_wire)


def _reject(future, exc):
    if not future.cancelled():
        future.set_exception(exc)
