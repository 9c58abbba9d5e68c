"""The long-lived compile-and-simulate daemon (``repro serve``).

An asyncio socket server (unix domain by default, TCP optional) that
accepts :mod:`repro.api` request envelopes, admits them through the
per-client governor (:mod:`repro.service.ratelimit`), answers them — a
warm request of a memoized verb in the event loop itself, everything else
on the fork worker pool (:mod:`repro.service.pool`) — and writes each
answer back as one NDJSON line, records included
(:mod:`repro.service.protocol`).

Why a daemon at all: the one-shot CLI re-pays interpreter start, imports,
and cache warm-up on every verb — exactly the dispatch overhead that
dominates when jobs are small. Here those costs are paid once; after the
first request every worker holds warm in-memory memo layers over the one
shared on-disk content-addressed store, so every client's compile warms
every other client's.

A connection carries any number of requests, one after the other; the
daemon reads the next line once the previous one is answered, and closes
the connection on EOF, after :data:`READ_TIMEOUT` idle seconds, or at
shutdown (the lifetime rules are in :mod:`repro.service.protocol`).

Shutdown: a ``shutdown`` control message, SIGINT, or SIGTERM; it closes
every open connection. The unix socket file is removed on exit.
"""

import asyncio
import contextlib
import os
import signal

from .. import cache
from ..api.requests import REQUEST_TYPES, error_response
from ..errors import PhloemError
from ..obs import log
from . import protocol
from .pool import RequestPool, execute_wire
from .ratelimit import QUOTA_EXCEEDED, RATE_LIMITED, ClientGovernor
from .telemetry import OUTCOMES, ServiceTelemetry, render_prometheus

#: Exit code stamped on rejected (rate-limited / over-quota) requests;
#: EX_TEMPFAIL — the client may retry later.
REJECTED_EXIT_CODE = 75

#: Seconds a connection may wait for its next request line before the
#: daemon closes it (silently: no answer is owed for a line never sent).
READ_TIMEOUT = 60.0


def _refusal(verb, code, message, exit_code=2):
    """The terminal message of a request the daemon answers without running."""
    return protocol.response_message(
        error_response(verb, code, message, exit_code=exit_code).to_wire()
    )


class _IdleTimer:
    """Ends a connection that has waited :data:`READ_TIMEOUT` for a line.

    One timer handle per connection, re-armed only when it fires: between
    requests :meth:`waiting` just moves the deadline, so a request costs no
    Task and no timer. Expiry feeds EOF to the reader (after pausing the
    transport, so no byte lands behind the EOF): a line that arrived in the
    same loop iteration is still read and answered, and the next
    ``readline`` returns ``b""``.
    """

    __slots__ = ("reader", "transport", "loop", "deadline", "handle")

    def __init__(self, reader, transport):
        self.reader = reader
        self.transport = transport
        self.loop = asyncio.get_running_loop()
        self.waiting()
        self.handle = self.loop.call_at(self.deadline, self._fire)

    def waiting(self):
        self.deadline = self.loop.time() + READ_TIMEOUT

    def busy(self):
        self.deadline = None

    def cancel(self):
        self.handle.cancel()

    def _fire(self):
        now = self.loop.time()
        if self.deadline is None or self.deadline > now:
            # A request is running, or one came and went since the handle was armed.
            delay = READ_TIMEOUT if self.deadline is None else self.deadline - now
            self.handle = self.loop.call_later(delay, self._fire)
            return
        self.transport.pause_reading()
        self.reader.feed_eof()


class Daemon:
    """One serving instance: listener + governor + worker pool + telemetry.

    Construct it *before* any event loop runs (the fork pool must fork a
    quiet process), then drive :meth:`serve` with ``asyncio.run``.
    """

    def __init__(
        self,
        socket_path=None,
        host=None,
        port=0,
        workers=2,
        rate=10.0,
        burst=20.0,
        quota=4,
    ):
        if socket_path is None and host is None:
            raise PhloemError("daemon needs a unix socket path or a TCP host/port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.pool = RequestPool(workers)
        self.governor = ClientGovernor(rate=rate, burst=burst, quota=quota)
        self.telemetry = ServiceTelemetry()
        self._server = None
        self._shutdown = None
        self._handlers = set()

    # -- lifecycle ----------------------------------------------------------

    async def serve(self, ready=None):
        """Listen until shutdown; ``ready`` (an Event) is set once bound."""
        self._shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            # RuntimeError/ValueError: signal handlers only install from the
            # main thread (tests run the daemon on a side thread).
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                loop.add_signal_handler(signum, self._shutdown.set)
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self.socket_path, limit=protocol.MAX_LINE
            )
            where = self.socket_path
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.host, port=self.port, limit=protocol.MAX_LINE
            )
            addr = self._server.sockets[0].getsockname()
            self.port = addr[1]
            where = "%s:%d" % (self.host, self.port)
        log(
            "serve: listening on %s (%s)",
            where,
            "inline" if self.pool.inline else "%d workers" % self.pool.workers,
        )
        if ready is not None:
            ready.set()
        try:
            await self._shutdown.wait()
        finally:
            self._server.close()
            # Kept-alive connections stay open until closed here, and
            # ``wait_closed`` (3.12+) waits for them.
            handlers = list(self._handlers)
            for task in handlers:
                task.cancel()
            await asyncio.gather(*handlers)
            await self._server.wait_closed()
            self.pool.close()
            if self.socket_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(self.socket_path)
            counts = self.stats()["counts"]
            log("serve: stopped (%d requests, %d rejected)",
                counts["requests"], counts["rejected"])

    def stop(self):
        """Request shutdown (idempotent; safe from the event loop only)."""
        if self._shutdown is not None:
            self._shutdown.set()

    # -- connection handling ------------------------------------------------

    async def _on_connection(self, reader, writer):
        """Serve one client: request lines until EOF, an idle timeout, or
        shutdown; every line read gets exactly one terminal message."""
        handler = asyncio.current_task()
        self._handlers.add(handler)
        self.telemetry.connection_opened()
        idle = _IdleTimer(reader, writer.transport)
        try:
            while True:
                idle.waiting()
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # Over the read limit: answered, but the rest of that line
                    # may still be on the wire, so the framing is lost.
                    await self._send(writer, _refusal(None, "bad-request", str(exc)))
                    return
                if not line:
                    return  # EOF: the client is done, or the idle timer fired
                idle.busy()
                try:
                    wire = protocol.decode(line)
                except PhloemError as exc:
                    await self._send(writer, _refusal(None, "bad-request", str(exc)))
                    continue
                if protocol.is_control(wire):
                    await self._on_control(wire, writer)
                else:
                    await self._on_request(wire, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client went away; nothing to answer
        except asyncio.CancelledError:
            # Shutdown: drop the connection, whatever it was doing, and end
            # this task normally (asyncio logs a handler that ends cancelled).
            writer.transport.abort()
        finally:
            idle.cancel()
            self._handlers.discard(handler)
            self.telemetry.connection_closed()
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _on_control(self, wire, writer):
        action = wire.get("action")
        if action == "ping":
            payload = {
                "ok": True,
                "pid": os.getpid(),
                "workers": self.pool.workers,
                "inline": self.pool.inline,
            }
        elif action == "stats":
            payload = self.stats()
        elif action == "telemetry":
            payload = {
                "ok": True,
                "content_type": "text/plain; version=0.0.4",
                "text": render_prometheus(self.telemetry.snapshot()),
            }
        elif action == "shutdown":
            payload = {"ok": True, "stopping": True}
        else:
            payload = {"ok": False, "error": "unknown control action %r" % (action,)}
        await self._send(writer, protocol.control_reply(payload))
        if action == "shutdown":
            self.stop()

    async def _on_request(self, wire, writer):
        verb = wire.get("verb")
        client = wire.get("client") or "anon"
        if not isinstance(verb, str) or not isinstance(client, str):
            self.telemetry.unrouted_request()
            field = "verb" if not isinstance(verb, str) else "client"
            message = "request %s must be a string, got %r" % (field, wire.get(field))
            await self._send(writer, _refusal(None, "bad-request", message))
            return
        if verb not in REQUEST_TYPES:
            self.telemetry.unrouted_request()
            await self._send(
                writer, _refusal(verb, "unsupported-verb", "no handler for verb %r" % (verb,))
            )
            return
        admitted, code = self.governor.admit(client)
        if not admitted:
            self.telemetry.rejected(verb, code)
            await self._send(
                writer,
                _refusal(
                    verb,
                    code,
                    "client %r rejected: %s (limits %r)"
                    % (client, code, self.governor.snapshot()["limits"]),
                    exit_code=REJECTED_EXIT_CODE,
                ),
            )
            return
        started = self.telemetry.begin(verb)
        failed = True
        path = "pool"
        try:
            try:
                response_wire = self._lookup(wire) if REQUEST_TYPES[verb].MEMOIZED else None
                if response_wire is not None:
                    path = "loop"
                else:
                    response_wire = await self.pool.submit(wire, asyncio.get_running_loop())
            except Exception as exc:  # noqa: BLE001 - the request was read: answer it
                response_wire = error_response(
                    verb, "internal-error", "%s: %s" % (type(exc).__name__, exc), exit_code=1
                ).to_wire()
            payload = response_wire.get("payload") or {}
            self.telemetry.cache_delta(payload.get("cache"))
            failed = payload.get("error") is not None
            await self._send(writer, protocol.response_message(response_wire))
        finally:
            self.governor.release(client)
            self.telemetry.finish(verb, started, failed=failed, path=path)

    @staticmethod
    def _lookup(wire):
        """The response to a memoized verb's request if the memo holds all
        of it, else None (the pool computes it).

        Runs in the event loop, so it must not block: ``cache.lookup_only()``
        is what guarantees no compile and no wait on a key lock a worker
        holds. What it costs the loop is a dict lookup (or one unpickle) of
        the finished answer — less than the hand-off to a worker it
        replaces. A hit is counted by the cache delta its response carries,
        like any other; a miss books nothing here, as the worker that then
        serves the request books its lookups.
        """
        try:
            with cache.lookup_only():
                return execute_wire(wire)
        except cache.Miss:
            return None

    async def _send(self, writer, message):
        writer.write(protocol.encode(message))
        await writer.drain()

    # -- introspection -------------------------------------------------------

    def stats(self):
        """Plain-data daemon stats (the ``stats`` control reply).

        ``telemetry`` is the full :mod:`repro.service.telemetry` snapshot
        (per-verb counters, latency histograms, cache-delta aggregates) —
        save it to a JSON file and ``repro report`` renders it like any
        offline experiment artifact. ``counts``, ``verbs``, ``uptime_s``,
        ``cache`` and ``governor.rejected`` are views of it; ``governor``
        adds the per-client token-bucket state.
        """
        telemetry = self.telemetry.snapshot()
        rows = telemetry["verbs"]
        unrouted = telemetry["unrouted"]
        outcomes = {o: sum(row["outcomes"][o] for row in rows.values()) for o in OUTCOMES}
        governor = self.governor.snapshot()
        governor["rejected"] = {
            code: telemetry["rejections"].get(code, 0) for code in (RATE_LIMITED, QUOTA_EXCEEDED)
        }
        totals = telemetry["cache"]
        return {
            "ok": True,
            "uptime_s": telemetry["uptime_s"],
            "counts": {
                "requests": sum(row["requests"] for row in rows.values()) + unrouted,
                "completed": outcomes["completed"],
                "failed": outcomes["failed"] + unrouted,
                "rejected": outcomes["rejected"],
            },
            "verbs": {verb: row["requests"] for verb, row in rows.items()},
            "governor": governor,
            "cache": {
                layer: {kind: totals.get(layer, {}).get(kind, 0) for kind in ("hits", "misses")}
                for layer in cache.LAYERS
            },
            "workers": self.pool.workers,
            "inline": self.pool.inline,
            "telemetry": telemetry,
        }


def serve_main(
    socket_path=None,
    host=None,
    port=0,
    workers=2,
    rate=10.0,
    burst=20.0,
    quota=4,
):
    """Blocking entry point behind ``repro serve``; returns an exit code."""
    try:
        daemon = Daemon(
            socket_path=socket_path,
            host=host,
            port=port,
            workers=workers,
            rate=rate,
            burst=burst,
            quota=quota,
        )
    except PhloemError as exc:
        log("serve: error: %s", exc)
        return 2
    try:
        asyncio.run(daemon.serve())
    except KeyboardInterrupt:
        pass
    return 0
