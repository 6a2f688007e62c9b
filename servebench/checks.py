"""Answer checks: daemon results against direct entry-point calls.

The reference for each request is a direct call of the entry point the
daemon serves it with (``run_montecarlo``, ``run_sweep(timing="stage")``
or ``run_synthesis``), made in the load-generator process at ``jobs=1``
with no cache, outside any timed window.  The reference runs on the
vector engine for speed; ``tests/vec`` proves it bit-identical to the
other engines, and result payloads carry no engine field, so the
comparison is exact, field for field.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List

from mixes import Request

# the daemon's other RunConfig fields (delta, shard size) are defaults too
_REF_DEFAULTS = {"backend": "vector", "jobs": 1, "cache_dir": None}


def reference(request: Request) -> Dict[str, Any]:
    from repro.runners.config import RunConfig

    params = dict(request["params"])
    config = RunConfig(ndigits=params.pop("ndigits"), seed=params.pop("seed"),
                       **_REF_DEFAULTS)
    samples = params.pop("samples")
    kind = request["kind"]
    if kind == "montecarlo":
        from repro.sim.montecarlo import run_montecarlo

        result = run_montecarlo(config, num_samples=samples,
                                depths=params.pop("depths", None))
    elif kind == "sweep":
        from repro.sim.sweep import run_sweep

        result = run_sweep(config, design="online", num_samples=samples,
                           timing="stage", steps=params.pop("steps"))
    else:
        from repro.synth.demos import demo_datapath
        from repro.synth.search import run_synthesis

        result = run_synthesis(
            config, demo_datapath(params.pop("datapath"), config.ndigits),
            target={"metric": "mre", "value": params.pop("target_mre")},
            wordlengths=None, num_samples=samples)
    if params:
        raise ValueError(f"reference ignores request fields {sorted(params)}")
    payload = result.to_dict()
    payload.pop("metrics", None)
    return payload


def check_answers(records: Iterable) -> List[str]:
    """Compare each record's ``result`` with its reference; list mismatches."""
    memo: Dict[str, Dict[str, Any]] = {}
    problems = []
    for record in records:
        key = canonical(record.request)
        if key not in memo:
            memo[key] = reference(record.request)
        got = record.response["result"]
        want = memo[key]
        # compare canonical text: NaN != NaN, but "NaN" == "NaN"
        if canonical(got) != canonical(want):
            fields = sorted(k for k in set(got) | set(want)
                            if canonical(got.get(k)) != canonical(want.get(k)))
            problems.append(f"{record.id} ({record.kind}): result differs "
                            f"from reference in {fields}")
    return problems


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(records: Iterable) -> str:
    """SHA-256 over the result payloads in (client, stream) order."""
    h = hashlib.sha256()
    for record in sorted(records, key=lambda r: (r.client, r.seq)):
        h.update(canonical(record.response["result"]).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
