"""Admission control with a hand-driven clock."""

from repro.service import QUOTA_EXCEEDED, RATE_LIMITED, ClientGovernor, TokenBucket


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_bucket_burst_then_refill():
    clock = FakeClock()
    bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
    assert bucket.try_acquire()
    assert bucket.try_acquire()
    assert not bucket.try_acquire(), "burst exhausted"
    clock.advance(1.0)
    assert bucket.try_acquire(), "one token refilled after one second"
    assert not bucket.try_acquire()


def test_bucket_level_capped_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
    clock.advance(1000.0)
    granted = sum(1 for _ in range(10) if bucket.try_acquire())
    assert granted == 3


def test_zero_rate_disables_metering():
    bucket = TokenBucket(rate=0.0, burst=0.0, clock=FakeClock())
    assert all(bucket.try_acquire() for _ in range(100))


def test_governor_rate_limits_third_request():
    clock = FakeClock()
    governor = ClientGovernor(rate=1.0, burst=2.0, quota=0, clock=clock)
    assert governor.admit("alice") == (True, None)
    assert governor.admit("alice") == (True, None)
    assert governor.admit("alice") == (False, RATE_LIMITED)
    # Budgets are per client: bob is unaffected by alice's burn.
    assert governor.admit("bob") == (True, None)


def test_governor_quota_bounds_in_flight():
    governor = ClientGovernor(rate=0.0, burst=0.0, quota=2, clock=FakeClock())
    assert governor.admit("c")[0] and governor.admit("c")[0]
    assert governor.admit("c") == (False, QUOTA_EXCEEDED)
    governor.release("c")
    assert governor.admit("c") == (True, None)


def test_release_clears_in_flight_entry():
    governor = ClientGovernor(rate=0.0, burst=0.0, quota=2, clock=FakeClock())
    governor.admit("c")
    governor.release("c")
    assert governor.snapshot()["in_flight"] == {}


def test_bucket_peek_refills_without_consuming():
    clock = FakeClock()
    bucket = TokenBucket(rate=1.0, burst=4.0, clock=clock)
    assert bucket.try_acquire() and bucket.try_acquire()
    assert bucket.peek() == 2.0
    assert bucket.peek() == 2.0, "peek must not consume"
    clock.advance(1.5)
    assert bucket.peek() == 3.5
    assert bucket.try_acquire()


def test_snapshot_exposes_per_client_bucket_state():
    clock = FakeClock()
    governor = ClientGovernor(rate=1.0, burst=3.0, quota=4, clock=clock)
    governor.admit("alice")
    governor.admit("alice")
    governor.admit("bob")
    snapshot = governor.snapshot()
    assert snapshot["buckets"]["alice"] == {"level": 1.0, "in_flight": 2}
    assert snapshot["buckets"]["bob"] == {"level": 2.0, "in_flight": 1}
    governor.release("alice")
    governor.release("alice")
    clock.advance(10.0)  # refill is capped at burst
    snapshot = governor.snapshot()
    assert snapshot["buckets"]["alice"] == {"level": 3.0, "in_flight": 0}
    assert sorted(snapshot["buckets"]) == snapshot["clients"]
