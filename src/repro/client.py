"""Thin synchronous client for the compile-and-simulate daemon.

Speaks the NDJSON protocol of :mod:`repro.service.protocol` over a unix or
TCP socket: one request line out, one answer line back, returned as a typed
:class:`~repro.api.Response` (records included). This is what the
``repro submit`` verb uses; it is deliberately dependency-free (stdlib
``socket`` only) so external tooling can lift it verbatim.

A client opens its connection on first use and sends every later request
and control over it; :meth:`ServiceClient.close` (or a ``with`` block)
ends it. If the daemon closed a reused connection in the meantime (idle
timeout, restart, a daemon that serves one job per connection), the
request is sent once more on a fresh connection — but only when not one
byte of its answer had arrived: a live daemon answers every line it reads,
so the retry never repeats a request it took. A timeout never retries.
Calls from several threads are serialized on one connection.
"""

import socket
import threading
import time

from .api.requests import ApiError, Response
from .errors import PhloemError
from .service import protocol


class ServiceError(PhloemError):
    """A connection or protocol failure talking to the daemon."""


class _Unanswered(ServiceError):
    """The connection failed before the first byte of the answer."""


class ServiceClient:
    """One daemon endpoint (unix socket path, or TCP host/port).

    ``client_id`` is the identity the daemon rate-limits and quotas on;
    every caller sharing an id shares its budget.
    """

    def __init__(self, socket_path=None, host=None, port=0, client_id="cli", timeout=300.0):
        if socket_path is None and host is None:
            raise ServiceError("give a unix socket path or a TCP host/port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self._sock = None
        self._reader = None
        self._lock = threading.Lock()

    def close(self):
        """Close the connection, if one is open (the next call reopens it)."""
        with self._lock:
            self._drop()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- plumbing -----------------------------------------------------------

    def _connect(self):
        try:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                try:
                    sock.connect(self.socket_path)
                except OSError:
                    sock.close()
                    raise
            else:
                sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        except OSError as exc:
            raise ServiceError(
                "cannot reach daemon at %s: %s"
                % (self.socket_path or "%s:%d" % (self.host, self.port), exc)
            ) from exc
        self._sock = sock
        self._reader = sock.makefile("rb")

    def _drop(self):
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def _roundtrip(self, envelope):
        """Send one envelope; return the one message that answers it."""
        line = protocol.encode(envelope)
        with self._lock:
            reused = self._sock is not None
            try:
                return self._exchange(line)
            except _Unanswered:
                if not reused:
                    raise
                return self._exchange(line)  # once, on a fresh connection

    def _exchange(self, line):
        if self._sock is None:
            self._connect()
        try:
            self._sock.sendall(line)
            reply = self._reader.readline()
            if reply:
                return protocol.decode(reply)
        except ConnectionError as exc:
            self._drop()
            raise _Unanswered("connection to daemon lost: %s" % exc) from exc
        except OSError as exc:  # a timeout: the daemon may still be working on it
            self._drop()
            raise ServiceError("connection to daemon lost: %s" % exc) from exc
        except BaseException:
            self._drop()  # the stream's position is unknown
            raise
        self._drop()
        raise _Unanswered("daemon closed the connection without a final response")

    # -- API ----------------------------------------------------------------

    def submit(self, request):
        """Run one API request on the daemon; returns its :class:`Response`."""
        message = self._roundtrip(protocol.request_envelope(request, client=self.client_id))
        if message.get("kind") != "response":
            raise ApiError("unexpected message kind %r" % (message.get("kind"),))
        return Response.from_wire(message.get("payload"))

    def control(self, action):
        """Run one control action (``ping``/``stats``/``shutdown``)."""
        message = self._roundtrip(protocol.control_envelope(action, client=self.client_id))
        if message.get("kind") == "control-reply":
            return message.get("payload")
        if message.get("kind") == "response":
            payload = (message.get("payload") or {}).get("payload") or {}
            error = payload.get("error") or {"message": "request rejected"}
            raise ServiceError("control failed: %s" % error.get("message"))
        raise ApiError("unexpected message kind %r" % (message.get("kind"),))

    def ping(self):
        """Liveness probe; returns the daemon's identity payload."""
        return self.control("ping")

    def server_stats(self):
        """The daemon's counters, governor snapshot, and cache stats."""
        return self.control("stats")

    def telemetry(self):
        """Prometheus text exposition of the daemon's telemetry.

        Returns the text payload directly — pipe it to a file and any
        Prometheus scraper (or :func:`repro.service.telemetry.parse_prometheus`)
        can read it.
        """
        return self.control("telemetry")["text"]

    def shutdown(self):
        """Ask the daemon to stop (it answers, then exits)."""
        return self.control("shutdown")

    def wait_ready(self, timeout=30.0, interval=0.1):
        """Poll :meth:`ping` until the daemon answers or ``timeout`` passes."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.ping()
            except ServiceError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)
