"""Circuit-breaker state machine under an injectable clock."""

import pytest

from repro.obs.metrics import metrics
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make(clock=None, **kwargs):
    kwargs.setdefault("failure_threshold", 3)
    kwargs.setdefault("reset_timeout", 5.0)
    return CircuitBreaker(clock=clock or FakeClock(), **kwargs)


class TestClosed:
    def test_starts_closed_and_allows(self):
        breaker = make()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_failures_below_threshold_stay_closed(self):
        breaker = make()
        breaker.record_failure("f1")
        breaker.record_failure("f2")
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker = make()
        breaker.record_failure("f1")
        breaker.record_failure("f2")
        breaker.record_success()
        breaker.record_failure("f3")
        breaker.record_failure("f4")
        assert breaker.state == CLOSED  # 2 consecutive, not 4

    def test_threshold_opens(self):
        breaker = make()
        for i in range(3):
            breaker.record_failure(f"f{i}")
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.last_failure == "f2"


class TestOpenAndHalfOpen:
    def _tripped(self):
        clock = FakeClock()
        breaker = make(clock)
        for i in range(3):
            breaker.record_failure(f"f{i}")
        return breaker, clock

    def test_blocks_until_cooldown_elapses(self):
        breaker, clock = self._tripped()
        clock.advance(4.99)
        assert not breaker.allow()
        clock.advance(0.02)
        assert breaker.allow()  # first probe
        assert breaker.state == HALF_OPEN

    def test_probe_budget_is_bounded(self):
        breaker, clock = self._tripped()
        clock.advance(5.1)
        assert breaker.allow()
        assert not breaker.allow()  # only one probe by default
        assert not breaker.allow()

    def test_probe_success_closes(self):
        breaker, clock = self._tripped()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()
        assert breaker.last_failure is None

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = self._tripped()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_failure("probe died")
        assert breaker.state == OPEN
        clock.advance(4.9)
        assert not breaker.allow()  # cooldown restarted at the re-trip
        clock.advance(0.2)
        assert breaker.allow()

    def test_probe_without_a_verdict_returns_its_slot(self):
        breaker, clock = self._tripped()
        clock.advance(5.1)
        assert breaker.allow()
        assert not breaker.allow()
        breaker.release_probe()  # the probe errored, missed its deadline...
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # ... so the next request probes instead
        breaker.release_probe()
        breaker.release_probe()  # never more slots than configured
        assert breaker.allow()
        assert not breaker.allow()

    def test_release_outside_half_open_changes_nothing(self):
        breaker, clock = self._tripped()
        breaker.release_probe()
        assert breaker.state == OPEN and not breaker.allow()
        fresh = make()
        fresh.release_probe()
        assert fresh.state == CLOSED and fresh.allow()

    def test_multiple_probe_slots(self):
        clock = FakeClock()
        breaker = make(clock, half_open_probes=3)
        for i in range(3):
            breaker.record_failure(f"f{i}")
        clock.advance(5.1)
        assert [breaker.allow() for _ in range(4)] == [
            True, True, True, False
        ]


class TestMetrics:
    def test_open_close_counters_and_gauge(self):
        metrics().reset()
        clock = FakeClock()
        breaker = make(clock)
        for i in range(3):
            breaker.record_failure(f"f{i}")
        snap = metrics().snapshot()
        assert snap["counters"]["service.breaker.opened"] == 1
        assert snap["gauges"]["service.breaker_open"] == 1.0
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_success()
        snap = metrics().snapshot()
        assert snap["counters"]["service.breaker.closed"] == 1
        assert snap["gauges"]["service.breaker_open"] == 0.0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"reset_timeout": 0.0},
            {"half_open_probes": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)
