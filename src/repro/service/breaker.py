"""Circuit breaker over the evaluation pool.

Classic three-state breaker guarding the worker pool behind the service:

* **closed** — requests evaluate normally; consecutive pool failures
  (evaluations the runner had to finish inline because its pool kept
  failing) accumulate.
* **open** — after ``failure_threshold`` consecutive failures the
  breaker trips: :meth:`CircuitBreaker.allow` answers False and the
  daemon routes requests to the analytical degraded path instead of
  queuing them onto a pool that is demonstrably down.
* **half-open** — once ``reset_timeout`` has elapsed, a limited number
  of probe requests (``half_open_probes``) are allowed through; one
  success closes the breaker, one failure re-opens it and restarts the
  cooldown.

State changes emit ``breaker.open`` / ``breaker.half_open`` /
``breaker.close`` trace events, bump the
``service.breaker.opened``/``closed`` counters and mirror the current
state into the ``service.breaker_open`` gauge (1 while open or
half-open), so a degraded window is visible in any metrics snapshot.

The clock is injectable; tests drive the cooldown in virtual time.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Thread-safe three-state circuit breaker.

    Parameters
    ----------
    failure_threshold:
        Consecutive pool failures that trip the breaker open.
    reset_timeout:
        Cooldown in seconds before an open breaker admits probes.
    half_open_probes:
        Concurrent probe requests admitted while half-open.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold!r}"
            )
        if reset_timeout <= 0:
            raise ValueError(
                f"reset_timeout must be > 0, got {reset_timeout!r}"
            )
        if half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {half_open_probes!r}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_left = 0
        self.last_failure: Optional[str] = None

    # ------------------------------------------------------------- queries
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether a request may hit the pool right now.

        An open breaker whose cooldown has elapsed transitions to
        half-open here and hands out probe slots; each True answer in
        half-open state consumes one slot.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at < self.reset_timeout:
                    return False
                self._state = HALF_OPEN
                self._probes_left = self.half_open_probes
                current_tracer().event(
                    "breaker.half_open", probes=self.half_open_probes
                )
            # HALF_OPEN: hand out the remaining probe slots
            if self._probes_left > 0:
                self._probes_left -= 1
                return True
            return False

    # ----------------------------------------------------------- recording
    def record_success(self) -> None:
        """A request completed on the pool; close (or keep closed)."""
        with self._lock:
            reopen = self._state != CLOSED
            self._state = CLOSED
            self._failures = 0
            self.last_failure = None
            if reopen:
                metrics().count("service.breaker.closed")
                metrics().gauge("service.breaker_open", 0.0)
                current_tracer().event("breaker.close")

    def record_failure(self, reason: str = "") -> None:
        """A request's pool failed (the runner degraded to inline)."""
        with self._lock:
            self.last_failure = reason or self.last_failure
            if self._state == HALF_OPEN:
                self._trip(reason, probe=True)
                return
            self._failures += 1
            if self._state == CLOSED and self._failures >= self.failure_threshold:
                self._trip(reason, probe=False)

    def _trip(self, reason: str, probe: bool) -> None:
        """Open the breaker (caller holds the lock)."""
        self._state = OPEN
        self._opened_at = self._clock()
        self._failures = 0
        self._probes_left = 0
        metrics().count("service.breaker.opened")
        metrics().gauge("service.breaker_open", 1.0)
        current_tracer().event(
            "breaker.open", reason=reason, failed_probe=probe
        )
