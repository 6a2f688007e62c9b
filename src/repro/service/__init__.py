""":mod:`repro.service` — the robust evaluation daemon.

Everything the long-running front-end over the experiment entry points
needs, one concern per module:

* :mod:`repro.service.requests` — strict wire-request parsing onto the
  experiments' own content-addressed cache keys.
* :mod:`repro.service.admission` — bounded per-class queues and load
  shedding with live ``retry_after`` hints.
* :mod:`repro.service.coalesce` — leader/follower dedup of identical
  in-flight requests.
* :mod:`repro.service.batch` — gather-window fusion of *compatible*
  non-identical requests into one union-grid evaluation, split back
  into bit-identical per-request responses.
* :mod:`repro.service.breaker` — the circuit breaker over the worker
  pool, fed by the runner's own degrade report (the
  :class:`~repro.runners.parallel.ParallelRunner` owns pool faults:
  it replaces, retries and falls back inline; the service retries
  nothing itself).
* :mod:`repro.service.degrade` — analytical (Section-3 model) answers
  while the pool is down, marked ``"degraded": true``.
* :mod:`repro.service.daemon` — the asyncio JSON-lines server tying
  them together, with graceful drain and health endpoints.
* :mod:`repro.service.client` — the multiplexing JSON-lines client.

Stdlib-only by design: the daemon adds zero dependencies beyond what
the simulation core already uses.
"""

from repro.service.admission import AdmissionController, ShedRequest
from repro.service.batch import MicroBatcher, merge_requests, split_responses
from repro.service.breaker import CircuitBreaker
from repro.service.client import ServiceClient, request_once
from repro.service.coalesce import Coalescer
from repro.service.daemon import (
    EvalService,
    ServiceConfig,
    evaluate_request,
    run_service,
)
from repro.service.degrade import degraded_answer
from repro.service.requests import (
    ADMIN_KINDS,
    REQUEST_CLASSES,
    EvalRequest,
    RequestError,
    batch_compatibility_key,
    parse_request,
)

__all__ = [
    "AdmissionController",
    "ShedRequest",
    "MicroBatcher",
    "merge_requests",
    "split_responses",
    "CircuitBreaker",
    "ServiceClient",
    "request_once",
    "Coalescer",
    "EvalService",
    "ServiceConfig",
    "evaluate_request",
    "run_service",
    "degraded_answer",
    "ADMIN_KINDS",
    "REQUEST_CLASSES",
    "EvalRequest",
    "RequestError",
    "batch_compatibility_key",
    "parse_request",
]
