"""Per-client admission control: token-bucket rates and job quotas.

The daemon serves many clients off one shared cache; what it must never do
is let one chatty client starve the rest or fork-bomb the worker pool. Two
independent guards, both keyed by the client identity string each request
carries:

* a **token bucket** per client — ``burst`` tokens deep, refilled at
  ``rate`` tokens/second, one token per request — bounds sustained request
  rate while allowing short bursts;
* a **job quota** per client — at most ``quota`` requests in flight at
  once — bounds worker-pool occupancy.

Rejections are immediate and structured (the daemon answers with an
``error`` response carrying ``rate-limited``/``quota-exceeded``), never
queued: a client that wants backpressure can retry with its own policy.

The clock is injectable so tests drive time by hand.
"""

import time

#: Error codes stamped on rejection responses.
RATE_LIMITED = "rate-limited"
QUOTA_EXCEEDED = "quota-exceeded"


class TokenBucket:
    """The classic leaky-bucket-as-meter: ``burst`` deep, ``rate``/s refill.

    ``rate <= 0`` disables metering (every acquire succeeds).
    """

    __slots__ = ("rate", "burst", "level", "stamp", "clock")

    def __init__(self, rate, burst, clock=time.monotonic):
        self.rate = float(rate)
        self.burst = float(burst)
        self.level = float(burst)
        self.clock = clock
        self.stamp = clock()

    def try_acquire(self, tokens=1.0):
        """Take ``tokens`` if available; returns success without blocking."""
        if self.rate <= 0:
            return True
        self._refill()
        if self.level >= tokens:
            self.level -= tokens
            return True
        return False

    def peek(self):
        """The current level after refill, without consuming anything."""
        if self.rate > 0:
            self._refill()
        return self.level

    def _refill(self):
        now = self.clock()
        self.level = min(self.burst, self.level + (now - self.stamp) * self.rate)
        self.stamp = now


class ClientGovernor:
    """Admission control over all clients: buckets + in-flight quotas.

    :meth:`admit` consumes one token and claims one in-flight slot for the
    client; every admitted request must be paired with one
    :meth:`release`. ``quota <= 0`` disables the in-flight bound. The
    governor only decides admission: the daemon's telemetry counts what it
    refused.
    """

    def __init__(self, rate=10.0, burst=20.0, quota=4, clock=time.monotonic):
        self.rate = rate
        self.burst = burst
        self.quota = quota
        self.clock = clock
        self._buckets = {}
        self._in_flight = {}

    def admit(self, client):
        """``(True, None)`` or ``(False, code)`` for one request from ``client``."""
        if self.quota > 0 and self._in_flight.get(client, 0) >= self.quota:
            return False, QUOTA_EXCEEDED
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(self.rate, self.burst, clock=self.clock)
        if not bucket.try_acquire():
            return False, RATE_LIMITED
        self._in_flight[client] = self._in_flight.get(client, 0) + 1
        return True, None

    def release(self, client):
        """Return the in-flight slot an admitted request held."""
        count = self._in_flight.get(client, 0)
        if count <= 1:
            self._in_flight.pop(client, None)
        else:
            self._in_flight[client] = count - 1

    def snapshot(self):
        """Plain-data state: known clients, in-flight counts, limits.

        ``buckets`` exposes each client's live token-bucket state (level
        after refill, against the shared rate/burst), so an operator can
        see *which* client is about to be throttled, not just that
        rejections happened.
        """
        return {
            "clients": sorted(self._buckets),
            "in_flight": dict(self._in_flight),
            "buckets": {
                client: {
                    "level": round(bucket.peek(), 3),
                    "in_flight": self._in_flight.get(client, 0),
                }
                for client, bucket in sorted(self._buckets.items())
            },
            "limits": {"rate": self.rate, "burst": self.burst, "quota": self.quota},
        }
