"""Wire protocol of the compile-and-simulate daemon (NDJSON over a socket).

A connection carries a sequence of jobs. For each, the client sends one
line — a :mod:`repro.api` request envelope or a control envelope — and
reads back the one line that answers it; then it may send the next line:

* client -> server: ``Request.to_wire()`` plus a ``client`` identity key
  (the rate-limit/quota subject), or
  ``{"schema": "repro.service/control", "version": 1, "action": ...}``
  for ``ping``/``stats``/``telemetry``/``shutdown``;
* server -> client: exactly one line, ``{"kind": "response", "payload":
  Response.to_wire()}`` with the job's RunRecords/diagnostics in its
  ``records``, or ``{"kind": "control-reply", "payload": ...}`` for
  controls.

Every line is one ``sort_keys`` JSON object; the framing is newline
delimited so any language (or ``nc`` + ``jq``) can speak it.

Connection lifetime:

* **Always answered.** Every line the daemon reads gets exactly one
  terminal message: junk, a line over :data:`MAX_LINE`, a truncated last
  line before EOF and an envelope whose ``verb`` or ``client`` is not a
  string are answered ``bad-request`` (exit 2), a failure inside the daemon
  ``internal-error`` (exit 1). Only the over-long line also ends the
  connection: the rest of it is still on the wire.
* **Closed by the client** at EOF: a client that sends one job and closes
  (every client before connections were kept) is served as before.
* **Closed silently by the daemon** when no line arrives for
  ``daemon.READ_TIMEOUT`` seconds between jobs, and at shutdown; nothing is
  written, so no stale answer waits on a kept connection.
* **Retried once by the client** (:class:`repro.client.ServiceClient`),
  on a fresh connection, when a *reused* connection fails before the first
  byte of the answer — the daemon closed it idle, or restarted, or serves
  one job per connection. A live daemon answers every line it reads, so
  the retry never repeats a job a live daemon took; a fresh connection
  never retries.
"""

import json
import os

from ..api.requests import ApiError

#: Schema identity of daemon control messages (ping/stats/shutdown).
CONTROL_SCHEMA = "repro.service/control"
CONTROL_VERSION = 1

#: Actions a control envelope may request. ``telemetry`` answers with
#: Prometheus text exposition; the rest reply in JSON.
CONTROL_ACTIONS = ("ping", "stats", "telemetry", "shutdown")

#: Maximum accepted line length (a kernel source is kilobytes; 32 MiB is
#: generous and bounds a misbehaving peer).
MAX_LINE = 32 * 1024 * 1024


def default_socket_path(create_dir=False):
    """The rendezvous unix socket when none is given explicitly.

    ``REPRO_SOCKET`` overrides; otherwise ``serve.sock`` next to the
    on-disk cache (``REPRO_CACHE_DIR`` or the user cache directory), so a
    bare ``repro serve`` and a bare ``repro submit`` find each other.
    """
    path = os.environ.get("REPRO_SOCKET")
    if path:
        return path
    base = os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "phloem-repro"
    )
    if create_dir:
        os.makedirs(base, exist_ok=True)
    return os.path.join(base, "serve.sock")


def encode(obj):
    """One wire line: sorted-keys JSON plus the newline terminator."""
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def decode(line):
    """Parse one wire line back into a dict (:class:`ApiError` on junk)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ApiError("empty protocol line")
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ApiError("undecodable protocol line: %s" % exc) from exc
    if not isinstance(obj, dict):
        raise ApiError("protocol line must be a JSON object, got %r" % type(obj).__name__)
    return obj


def request_envelope(request, client="anon"):
    """The client->server line for one API request."""
    wire = request.to_wire()
    wire["client"] = client
    return wire


def control_envelope(action, client="anon"):
    """The client->server line for one control action."""
    if action not in CONTROL_ACTIONS:
        raise ApiError(
            "unknown control action %r (choose from %s)" % (action, ", ".join(CONTROL_ACTIONS))
        )
    return {
        "schema": CONTROL_SCHEMA,
        "version": CONTROL_VERSION,
        "action": action,
        "client": client,
    }


def is_control(wire):
    """True when a decoded envelope is a daemon control message."""
    return wire.get("schema") == CONTROL_SCHEMA


def response_message(response_wire):
    """The answer to a request: its whole ``Response.to_wire()``."""
    return {"kind": "response", "payload": response_wire}


def control_reply(payload):
    """The terminal message of a control action."""
    return {"kind": "control-reply", "payload": payload}
