"""Request parsing and normalization for the evaluation service.

A wire request is one JSON object::

    {"id": "r1", "kind": "montecarlo",
     "params": {"ndigits": 6, "samples": 4000, "seed": 7},
     "deadline": 10.0}

``kind`` selects the request class (:data:`REQUEST_CLASSES`), ``params``
the experiment parameters, ``deadline`` an optional per-request
wall-clock budget in seconds.  Parsing is *strict*: unknown parameter
names, out-of-range values and oversized sample budgets are rejected
with a :class:`RequestError` naming the offending field — a malformed
request must never reach the queue, let alone the pool.

Normalization produces an :class:`EvalRequest` whose ``key`` is the
**same content address the result cache uses** (the experiment entry
points' key-component builders are imported, not imitated), which is
what makes dedup/coalescing exact and lets cache hits short-circuit
before admission control ever sees the request.

Next to the identity key sits the **compatibility key** (``batch_key``):
two requests with the same batch key differ only along an axis the
vector engine evaluates in one pass anyway — the montecarlo depth grid,
or the stage-sweep step grid — while everything that changes the sample
stream or the evaluation semantics (geometry, seed, shard size, sample
budget, deadline) is part of the key.  The engine (``backend``) is in
neither key: the engines are bit-identical, so requests that differ
only in their engine share one cache entry, one coalesced evaluation
and one batch class.  The service's micro-batcher merges
same-``batch_key`` requests into one fused evaluation; synthesis
requests have no batchable axis and carry ``batch_key=None``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.runners.cache import cache_key
from repro.runners.config import RunConfig
from repro.sim.montecarlo import default_depths, montecarlo_key_components
from repro.sim.sweep import stage_sweep_key_components, stage_sweep_plan
from repro.synth.demos import DEMO_DATAPATHS
from repro.synth.search import AccuracyTarget

__all__ = [
    "REQUEST_CLASSES",
    "ADMIN_KINDS",
    "RequestError",
    "EvalRequest",
    "batch_compatibility_key",
    "parse_request",
]

#: evaluation request classes, each with its own admission limit
REQUEST_CLASSES = ("montecarlo", "sweep", "synthesis")

#: control-plane kinds answered inline by the daemon (never queued).
#: ``statsz`` is the deterministic machine-facing snapshot (metrics +
#: breaker + per-class queue depths + live run progress); ``metricsz``
#: carries the Prometheus text exposition of the same registry.
ADMIN_KINDS = ("healthz", "readyz", "stats", "statsz", "metricsz")

#: hard ceiling on per-request sample budgets — one request must not be
#: able to monopolize the pool for minutes
MAX_SAMPLES = 200_000

#: ceiling on a request's ``ndigits``/``delta`` and synthesis
#: ``wordlengths``: far past the paper's designs, and low enough that
#: parsing one request (whose default depth grid has ``ndigits`` entries)
#: cannot allocate without bound
MAX_NDIGITS = 64

_ALLOWED_PARAMS = {
    "montecarlo": {
        "ndigits", "delta", "seed", "backend", "samples", "depths",
    },
    "sweep": {
        "ndigits", "delta", "seed", "backend", "samples", "periods", "steps",
    },
    "synthesis": {
        "ndigits", "delta", "seed", "backend", "samples", "datapath",
        "target_mre", "target_snr", "wordlengths", "periods",
    },
}


class RequestError(ValueError):
    """A request failed validation; the message is client-facing."""


@dataclass(frozen=True)
class EvalRequest:
    """One normalized, keyed evaluation request."""

    id: Optional[str]
    kind: str
    config: RunConfig
    params: Mapping[str, Any]
    key_components: Mapping[str, Any]
    key: str  # dedup/coalescing content address
    cache_key: Optional[str]  # ResultCache short-circuit key, if cached
    deadline: Optional[float]
    batch_key: Optional[str] = None  # micro-batch compatibility class


def batch_compatibility_key(
    kind: str, config: RunConfig, samples: int, deadline: Optional[float]
) -> Optional[str]:
    """Compatibility class of one request for the service micro-batcher.

    Everything but the depth/step grid must match for two requests to
    fuse: the :meth:`RunConfig.describe` fields (geometry, seed, shard
    size) pin the sample stream, ``samples`` pins the shard layout,
    and ``deadline`` keeps the fused evaluation's cancellation
    semantics identical to each member's solo run.  Only montecarlo and
    sweep requests batch — synthesis has no shared-grid axis.
    """
    if kind not in ("montecarlo", "sweep"):
        return None
    return cache_key(
        experiment=f"service.batch.{kind}",
        num_samples=int(samples),
        deadline=deadline,
        **config.describe(),
    )


def _finite(value: Any) -> bool:
    """Whether *value* is a JSON number (not a bool) with a finite float.

    Rejects NaN, +-Infinity and integers too large for a float.
    """
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max
    )


def _int_field(params: Mapping, name: str, default: int, lo: int, hi: int) -> int:
    value = params.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise RequestError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise RequestError(
            f"{name} must be in [{lo}, {hi}], got {value!r}"
        )
    return value


def _int_list(
    params: Mapping, name: str, lo: int = 0, hi: Optional[int] = None
) -> Optional[Tuple[int, ...]]:
    value = params.get(name)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not value:
        raise RequestError(f"{name} must be a non-empty list of integers")
    out = []
    for v in value:
        if (
            not isinstance(v, int) or isinstance(v, bool) or v < lo
            or (hi is not None and v > hi)
        ):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise RequestError(
                f"{name} entries must be integers {bound}, got {v!r}"
            )
        out.append(v)
    return tuple(out)


def _float_list(params: Mapping, name: str) -> Optional[Tuple[float, ...]]:
    value = params.get(name)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not value:
        raise RequestError(f"{name} must be a non-empty list of numbers")
    out = []
    for v in value:
        if not _finite(v) or v <= 0:
            raise RequestError(
                f"{name} entries must be finite positive numbers, got {v!r}"
            )
        out.append(float(v))
    return tuple(out)


def _request_config(params: Mapping, base: RunConfig) -> RunConfig:
    """Per-request RunConfig: geometry/seed/backend override the base."""
    overrides: Dict[str, Any] = {
        name: _int_field(params, name, 0, lo=1, hi=MAX_NDIGITS)
        for name in ("ndigits", "delta")
        if name in params
    }
    if "seed" in params:
        overrides["seed"] = params["seed"]
    if "backend" in params:
        if not isinstance(params["backend"], str):
            raise RequestError(
                f"backend must be a string, got {params['backend']!r}"
            )
        overrides["backend"] = params["backend"]
    try:
        return base.with_(**overrides) if overrides else base
    except ValueError as exc:
        raise RequestError(str(exc)) from exc


def parse_request(
    message: Mapping[str, Any],
    base_config: RunConfig,
    default_deadline: Optional[float] = None,
    max_samples: int = MAX_SAMPLES,
) -> EvalRequest:
    """Validate and normalize one wire request into an :class:`EvalRequest`."""
    if not isinstance(message, Mapping):
        raise RequestError("request must be a JSON object")
    kind = message.get("kind")
    if kind not in REQUEST_CLASSES:
        raise RequestError(
            f"unknown kind {kind!r}; expected one of "
            f"{', '.join(REQUEST_CLASSES + ADMIN_KINDS)}"
        )
    req_id = message.get("id")
    if req_id is not None and not isinstance(req_id, (str, int)):
        raise RequestError(f"id must be a string or integer, got {req_id!r}")
    params = message.get("params", {})
    if not isinstance(params, Mapping):
        raise RequestError("params must be a JSON object")
    unknown = set(params) - _ALLOWED_PARAMS[kind]
    if unknown:
        raise RequestError(
            f"unknown parameter(s) for {kind}: {', '.join(sorted(unknown))}"
        )
    deadline = message.get("deadline", default_deadline)
    if deadline is not None:
        if not _finite(deadline) or deadline <= 0:
            raise RequestError(
                f"deadline must be a finite positive number of seconds, got "
                f"{deadline!r}"
            )
        deadline = float(deadline)

    config = _request_config(params, base_config)
    samples = _int_field(
        params, "samples", default=4000, lo=1, hi=max_samples
    )

    if kind == "montecarlo":
        depths = _int_list(params, "depths")
        if depths is None:
            depths = tuple(default_depths(config.ndigits, config.delta))
        depths = tuple(sorted(int(b) for b in depths))
        components = montecarlo_key_components(config, samples, list(depths))
        key = cache_key(**components)
        norm = {"samples": samples, "depths": depths}
        return EvalRequest(
            id=req_id, kind=kind, config=config, params=norm,
            key_components=components, key=key, cache_key=key,
            deadline=deadline,
            batch_key=batch_compatibility_key(kind, config, samples, deadline),
        )

    if kind == "sweep":
        steps = _int_list(params, "steps")
        periods = _float_list(params, "periods")
        try:
            _, grid = stage_sweep_plan(config, periods=periods, steps=steps)
        except ValueError as exc:
            raise RequestError(str(exc)) from exc
        components = stage_sweep_key_components(
            config, "online", samples, grid
        )
        key = cache_key(**components)
        norm = {"samples": samples, "steps": tuple(grid)}
        return EvalRequest(
            id=req_id, kind=kind, config=config, params=norm,
            key_components=components, key=key, cache_key=key,
            deadline=deadline,
            batch_key=batch_compatibility_key(kind, config, samples, deadline),
        )

    # synthesis
    datapath = params.get("datapath", "prodsum")
    if datapath not in DEMO_DATAPATHS:
        raise RequestError(
            f"unknown datapath {datapath!r}; expected one of "
            f"{', '.join(DEMO_DATAPATHS)}"
        )
    if "target_mre" in params and "target_snr" in params:
        raise RequestError("pass either target_mre or target_snr, not both")
    if "target_snr" in params:
        metric, value = "snr", params["target_snr"]
    else:
        metric, value = "mre", params.get("target_mre", 5.0)
    if not _finite(value):
        raise RequestError(
            f"target_{metric} must be a finite number, got {value!r}"
        )
    try:
        AccuracyTarget(metric, float(value))
    except ValueError as exc:
        raise RequestError(f"target_{metric}: {exc}") from None
    wordlengths = _int_list(params, "wordlengths", lo=1, hi=MAX_NDIGITS)
    periods = _float_list(params, "periods")
    norm = {
        "samples": samples,
        "datapath": datapath,
        "target_metric": metric,
        "target_value": float(value),
        "wordlengths": wordlengths,
        "periods": periods,
    }
    components = dict(
        experiment="service.synthesis",
        datapath=datapath,
        target_metric=metric,
        target_value=float(value),
        wordlengths=list(wordlengths) if wordlengths else None,
        periods=list(periods) if periods else None,
        num_samples=samples,
        **config.describe(),
    )
    # synthesis has no whole-report cache entry (its verification runs
    # dedup per candidate group inside run_synthesis), so only the
    # coalescing key exists
    return EvalRequest(
        id=req_id, kind=kind, config=config, params=norm,
        key_components=components, key=cache_key(**components),
        cache_key=None, deadline=deadline,
    )
