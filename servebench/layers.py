"""Per-layer metrics of one traced run.

Inputs are the traced daemon's dump (the program's spans nested under
the launcher's ``bench.evaluate`` span, plus one ``handle`` timing per
request), the ``statsz`` counter deltas over the traced legs, and the
load generator's own records of those legs.  ``parse_request``,
``ResultCache.get``/``put`` and ``json.dumps(response, sort_keys=True)``
are timed here, in the load generator, on the same requests, keys and
responses the traced legs produced.

Span times are *self* times in the sense of the layer table: each
layer's metric excludes the child spans another metric reports
(``runner.self_ms`` is the evaluation minus its shards).  A layer a
workload never reaches reads 0.
"""

from __future__ import annotations

import json
import random
import statistics
import tempfile
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Sequence

#: at most this many calls are replayed per timed function
REPLAY_CAP = 2000

PER_LAYER_UNITS = {
    "requests.parse_us": "us",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.hit_ratio": "ratio",
    "daemon.short_circuit_ratio": "ratio",
    "daemon.wait_p50_ms": "ms",
    "daemon.wait_p95_ms": "ms",
    "coalesce.join_ratio": "ratio",
    "batch.fused_ratio": "ratio",
    "admission.shed": "count",
    "service.retries": "count",
    "service.degraded": "count",
    "runner.shards_per_req": "count",
    "runner.self_ms": "ms",
    "kernel.ms_per_req": "ms",
    "kernel.samples_per_s": "1/s",
    "sweep.ms_per_req": "ms",
    "synth.rank_ms": "ms",
    "synth.verify_ms": "ms",
    "synth.prune_ratio": "ratio",
    "encode.us": "us",
    "encode.bytes": "bytes",
    "wire.ms": "ms",
    "obs.trace_overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p95(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _time_each(fn: Callable[[Any], Any], items: Sequence[Any]) -> List[float]:
    out = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        out.append(time.perf_counter() - t0)
    return out


def _sample(items: List[Any], seed: int) -> List[Any]:
    if len(items) <= REPLAY_CAP:
        return items
    return random.Random(seed).sample(items, REPLAY_CAP)


def span_metrics(dump: List[Dict[str, Any]], ids: set) -> Dict[str, Any]:
    """Evaluation spans of the requests in *ids*, split by layer."""
    spans = [r for r in dump if r.get("type") == "span"]
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)

    def descendants(span_id: str, name: str) -> List[Dict[str, Any]]:
        found, stack = [], [span_id]
        while stack:
            for child in children.get(stack.pop(), ()):
                if child["name"] == name:
                    found.append(child)  # a layer span: do not descend
                else:
                    stack.append(child["id"])
        return found

    evals = {}
    by_kind = defaultdict(lambda: defaultdict(float))
    runner_self, shard_count = [], 0
    for s in spans:
        if s["name"] != "bench.evaluate" or s["attrs"].get("id") not in ids:
            continue
        kind = s["attrs"]["kind"]
        evals[s["attrs"]["id"]] = s["dur"]
        acc = by_kind[kind]
        acc["n"] += 1
        if kind == "synthesis":
            acc["rank"] += sum(c["dur"] for c in descendants(s["id"], "synth.rank"))
            acc["verify"] += sum(c["dur"] for c in descendants(s["id"], "synth.verify"))
            continue
        shards = descendants(s["id"], "shard")
        shard_count += len(shards)
        acc["shard_s"] += sum(c["dur"] for c in shards)
        acc["samples"] += sum(c["attrs"].get("samples", 0) for c in shards)
        runner_self.append(s["dur"] - sum(c["dur"] for c in shards))
    mc, sw, syn = by_kind["montecarlo"], by_kind["sweep"], by_kind["synthesis"]
    return {
        "evals": evals,
        "runner.shards_per_req": _ratio(shard_count, mc["n"] + sw["n"]),
        "runner.self_ms": _median(runner_self) * 1e3,
        "kernel.ms_per_req": _ratio(mc["shard_s"], mc["n"]) * 1e3,
        "kernel.samples_per_s": _ratio(mc["samples"], mc["shard_s"]),
        "sweep.ms_per_req": _ratio(sw["shard_s"], sw["n"]) * 1e3,
        "synth.rank_ms": _ratio(syn["rank"], syn["n"]) * 1e3,
        "synth.verify_ms": _ratio(syn["verify"], syn["n"]) * 1e3,
    }


def per_layer(records, dump, counters: Dict[str, int], cache_dir: str,
              seed: int) -> Dict[str, float]:
    """Every per-layer metric except ``obs.trace_overhead_pct``, which
    the caller measures itself."""
    from repro.runners.cache import ResultCache
    from repro.runners.config import RunConfig
    from repro.service.requests import parse_request

    ids = {r.id for r in records}
    out = span_metrics(dump, ids)
    evals = out.pop("evals")
    handles = {h["id"]: h["end"] - h["start"] for h in dump
               if h.get("type") == "handle" and h["id"] in ids}

    waits = sorted((handles[i] - d) * 1e3 for i, d in evals.items()
                   if i in handles)
    out["daemon.wait_p50_ms"] = _median(waits)
    out["daemon.wait_p95_ms"] = _p95(waits)
    out["wire.ms"] = _median(
        [(r.latency - handles[r.id]) * 1e3 for r in records if r.id in handles])

    c = counters
    requests = c.get("service.requests", 0)
    lookups = c.get("cache.hits", 0) + c.get("cache.misses", 0)
    out["cache.hit_ratio"] = _ratio(c.get("cache.hits", 0), lookups)
    out["daemon.short_circuit_ratio"] = _ratio(
        c.get("service.cache_short_circuit", 0), requests)
    out["coalesce.join_ratio"] = _ratio(c.get("service.coalesce_hits", 0),
                                        requests)
    out["batch.fused_ratio"] = _ratio(c.get("service.batched", 0), requests)
    out["admission.shed"] = float(c.get("service.shed", 0))
    out["service.retries"] = float(c.get("service.retries", 0))
    out["service.degraded"] = float(c.get("service.degraded", 0))
    out["synth.prune_ratio"] = _ratio(c.get("synth.candidates_pruned", 0),
                                      c.get("synth.candidates_total", 0))

    base = RunConfig(cache_dir=None)
    messages = _sample([dict(r.request, id=r.id) for r in records], seed)
    out["requests.parse_us"] = _median(_time_each(
        lambda m: parse_request(m, base_config=base), messages)) * 1e6

    responses = _sample([r.response for r in records if r.response], seed)
    out["encode.us"] = _median(_time_each(
        lambda resp: json.dumps(resp, sort_keys=True), responses)) * 1e6
    out["encode.bytes"] = _ratio(sum(r.nbytes for r in records), len(records))

    # the daemon stored every evaluated montecarlo/sweep answer under
    # its response key; read them back, then write them to a fresh cache
    keys = sorted({resp["key"] for resp in responses
                   if resp.get("kind") in ("montecarlo", "sweep")})
    cache = ResultCache(cache_dir)
    got = {}
    get_times = []
    for key in _sample(keys, seed)[:200]:
        t0 = time.perf_counter()
        result = cache.get(key)
        get_times.append(time.perf_counter() - t0)
        if result is None:
            raise RuntimeError(f"answered key {key} missing from the cache")
        got[key] = result
    with tempfile.TemporaryDirectory(dir=cache_dir) as scratch:
        fresh = ResultCache(scratch)
        put_times = _time_each(lambda kv: fresh.put(*kv), list(got.items()))
    out["cache.get_ms"] = _median(get_times) * 1e3
    out["cache.put_ms"] = _median(put_times) * 1e3
    return out
