"""Seeded request mixes: what each benchmark client sends, in order.

Every workload is an infinite stream of *groups* per client.  A client
writes all requests of a group at once (pipelined) and waits for every
answer before it sends the next group, so each client is a closed loop
with at most ``len(group)`` requests outstanding.  The stream of client
``c`` depends only on ``(seed, workload, c)``, so the n-th group a
client sends is the same on every run of one seed.

Requests carry only semantic fields.  They never name an engine
(``backend``), so the benchmark measures what a user gets by default.

Request classes are *interleaved*, not drawn: each client walks a
smooth weighted round-robin over the classes, so every stretch of its
stream holds each class within one request of its share, whatever the
window length.  The class schedule is the same for every seed; the seed
draws every request's values (request seeds, depths, steps, datapaths,
targets).

Both clients walk the same schedule, and the load generator runs them
in lockstep: a client sends its next group only when both have all their
answers.  So a request always shares the daemon with one of its own
class.  With free-running clients, which requests overlapped drifted
within a run, and a heavy request's latency doubled or not with it.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List

Request = Dict[str, Any]  # {"kind": ..., "params": {...}}
Group = List[Request]

DELTA = 3  # the daemon's default online delay

#: mc_fresh (ndigits, samples) classes and their shares.  A shard holds
#: at most 2000 samples, so 500 and 2000 samples cost one shard and 8000
#: cost four: the classes separate per-request fixed cost from
#: per-sample cost.  The mix is light enough that a run holds over 200
#: requests (so p95 has at least 10 beyond it).  Ranked by latency, the
#: 4-digit 500/2000 requests are the lower two thirds (p50 lies inside
#: them) and (4, 8000) the top twelfth (p95 lies inside it), so a
#: one-request shift in the mix does not move either across a class edge.
MC_FRESH_SHARES = {(4, 500): 5, (4, 2000): 3, (4, 8000): 1,
                   (8, 500): 2, (8, 2000): 1}

#: burst_mix group types and their shares (45/20/25/10 %)
BURST_SHARES = {"fanout": 9, "sweep": 4, "synthesis": 5, "dup": 2}


class _Seeds:
    """Never-repeating request seeds, disjoint between clients."""

    def __init__(self, rng: random.Random, client: int) -> None:
        self._rng = rng
        self._base = client << 28
        self._used = set()

    def __call__(self) -> int:
        while True:
            s = self._base + self._rng.randrange(1 << 28)
            if s not in self._used:
                self._used.add(s)
                return s


def _rng(seed: int, workload: str, client: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{client}")


def _interleave(shares: Dict[Any, int]) -> Iterator[Any]:
    """Endless smooth weighted round-robin over *shares*' keys."""
    items, weights = list(shares), list(shares.values())
    total = sum(weights)
    credit = [0] * len(items)
    cycle = []
    for _ in range(total):
        credit = [c + w for c, w in zip(credit, weights)]
        best = credit.index(max(credit))
        credit[best] -= total
        cycle.append(items[best])
    while True:
        yield from cycle


def montecarlo(ndigits: int, samples: int, seed: int, depths=None) -> Request:
    params = {"ndigits": ndigits, "samples": samples, "seed": seed}
    if depths is not None:
        params["depths"] = list(depths)
    return {"kind": "montecarlo", "params": params}


def sweep(ndigits: int, samples: int, seed: int, steps) -> Request:
    return {"kind": "sweep", "params": {
        "ndigits": ndigits, "samples": samples, "seed": seed,
        "steps": list(steps)}}


def synthesis(ndigits: int, samples: int, seed: int, datapath: str,
              target_mre: float) -> Request:
    return {"kind": "synthesis", "params": {
        "ndigits": ndigits, "samples": samples, "seed": seed,
        "datapath": datapath, "target_mre": target_mre}}


def mc_fresh(seed: int, client: int) -> Iterator[Group]:
    fresh = _Seeds(_rng(seed, "mc_fresh", client), client)
    for ndigits, samples in _interleave(MC_FRESH_SHARES):
        yield [montecarlo(ndigits, samples, fresh())]


def burst_mix(seed: int, client: int) -> Iterator[Group]:
    rng = _rng(seed, "burst_mix", client)
    fresh = _Seeds(rng, client)
    for group in _interleave(BURST_SHARES):
        if group == "fanout":
            # four compatible requests: one seed and geometry, one depth
            # each (the four default depths of a 4-digit multiplier)
            s = fresh()
            depths = rng.sample(range(DELTA + 1, 4 + DELTA + 1), 4)
            yield [montecarlo(4, 2000, s, [b]) for b in depths]
        elif group == "sweep":
            steps = sorted(rng.sample(range(4 + DELTA + 1), 3))
            yield [sweep(4, 2000, fresh(), steps)]
        elif group == "synthesis":
            yield [synthesis(
                rng.choice((4, 6)), 2000, fresh(),
                rng.choice(("mac", "prodsum", "dot3")),
                rng.choice((2.0, 5.0, 10.0)),
            )]
        else:  # the same request twice: one evaluation, one join
            request = montecarlo(4, 2000, fresh())
            yield [request, request]


WORKLOADS = {
    "mc_fresh": mc_fresh,
    "burst_mix": burst_mix,
}
