"""Monte-Carlo verification of the error model (Fig. 4 top row).

The paper verifies its analytical model against Monte-Carlo simulations
"based on the aforementioned timing model": every stage of the unrolled
online multiplier costs exactly one delay unit ``mu``, all internal state
resets to zero, inputs apply at t = 0, and a register clocked with period
``T_S = b * mu`` captures whatever the product digits hold after ``b``
ticks.  :meth:`repro.core.OnlineMultiplier.wave` implements exactly that;
this module wraps it with uniform-independent input generation and error
statistics.

:func:`run_montecarlo` and :func:`run_settle_histogram` take a
:class:`~repro.runners.RunConfig`: they shard the sample budget across
worker processes with deterministic seed-splitting (``jobs=1`` and
``jobs=N`` merge bit-identically), and :func:`run_montecarlo` is served
from the persistent result cache when one is configured.  Both spawn
their shard seeds from the same ``"montecarlo"`` tag, so for equal
``(seed, shard_size, num_samples)`` they see the same operand pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.conversion import digits_to_scaled_int
from repro.core.online_multiplier import OnlineMultiplier
from repro.netlist.compiled import resolve_backend
from repro.obs.trace import current_tracer
from repro.runners.cache import cache_for, cache_key
from repro.runners.config import RunConfig
from repro.runners.parallel import (
    ParallelRunner,
    merge_float_sums,
    merge_int_sums,
    seed_tag,
    split_samples,
    spawn_seeds,
)
from repro.runners.results import (
    attach_metrics,
    metrics_entry,
    register_result,
    restore_metrics,
)


def uniform_digit_batch(
    ndigits: int, num_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw i.i.d. uniform signed digits — the paper's "UI inputs".

    Returns shape ``(ndigits, num_samples)`` int8 with values in
    ``{-1, 0, 1}``.
    """
    return rng.integers(-1, 2, size=(ndigits, num_samples)).astype(np.int8)


@register_result
@dataclass
class MonteCarloResult:
    """Error statistics of one stage-delay Monte-Carlo run.

    Attributes
    ----------
    ndigits / delta:
        Multiplier geometry.
    num_samples:
        Batch size.
    depths:
        The sampling depths ``b`` (stage traversals per clock period).
    mean_abs_error:
        ``E|eps|`` at each depth — the quantity of Fig. 4.
    violation_probability:
        Fraction of samples with any output error at each depth —
        the quantity Algorithm 2 predicts.
    """

    ndigits: int
    delta: int
    num_samples: int
    depths: np.ndarray
    mean_abs_error: np.ndarray
    violation_probability: np.ndarray

    kind: ClassVar[str] = "montecarlo"
    _array_fields: ClassVar[Dict[str, str]] = {
        "depths": "int64",
        "mean_abs_error": "float64",
        "violation_probability": "float64",
    }

    def normalized_periods(self) -> np.ndarray:
        """Depths as fractions of the structural delay ``(N + delta)``."""
        return self.depths / (self.ndigits + self.delta)

    def at_depth(self, b: int) -> Tuple[float, float]:
        """``(E|eps|, P(violation))`` at depth ``b``."""
        idx = int(np.searchsorted(self.depths, b))
        if idx >= len(self.depths) or self.depths[idx] != b:
            raise KeyError(f"depth {b} was not simulated")
        return (
            float(self.mean_abs_error[idx]),
            float(self.violation_probability[idx]),
        )

    # ------------------------------------------------- Result protocol
    def to_dict(self) -> Dict[str, Any]:
        """Pure-JSON representation (see :mod:`repro.runners.results`)."""
        return {
            "kind": self.kind,
            "ndigits": int(self.ndigits),
            "delta": int(self.delta),
            "num_samples": int(self.num_samples),
            "depths": [int(b) for b in self.depths],
            "mean_abs_error": [float(e) for e in self.mean_abs_error],
            "violation_probability": [
                float(p) for p in self.violation_probability
            ],
            **metrics_entry(self),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MonteCarloResult":
        result = cls(
            ndigits=int(data["ndigits"]),
            delta=int(data["delta"]),
            num_samples=int(data["num_samples"]),
            depths=np.asarray(data["depths"], dtype=np.int64),
            mean_abs_error=np.asarray(data["mean_abs_error"], dtype=np.float64),
            violation_probability=np.asarray(
                data["violation_probability"], dtype=np.float64
            ),
        )
        return restore_metrics(result, data)


# --------------------------------------------------------------- shard workers

#: per-process multiplier memo, keyed by (ndigits, delta)
_OM_CACHE: Dict[Tuple[int, int], OnlineMultiplier] = {}


def _worker_om(ndigits: int, delta: int) -> OnlineMultiplier:
    key = (ndigits, delta)
    om = _OM_CACHE.get(key)
    if om is None:
        om = OnlineMultiplier(ndigits, delta)
        _OM_CACHE[key] = om
    return om


def _mc_shard_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One Monte-Carlo shard: per-depth |error| sums and violation counts.

    Returns exact partials (float sums, integer counts) so the parent can
    merge in shard order and divide once — the float accumulation order
    is then independent of ``jobs``.
    """
    ndigits = payload["ndigits"]
    om = _worker_om(ndigits, payload["delta"])
    rng = np.random.default_rng(payload["seed_seq"])
    m = payload["samples"]
    xd = uniform_digit_batch(ndigits, m, rng)
    yd = uniform_digit_batch(ndigits, m, rng)
    with current_tracer().span(
        "mc.simulate", backend=payload["backend"], samples=m
    ):
        waves = om.wave(xd, yd, backend=payload["backend"])
    correct = digits_to_scaled_int(waves[-1]).astype(np.float64)
    scale = float(2**ndigits)
    sum_err: List[float] = []
    viol: List[int] = []
    for b in payload["depths"]:
        b_clamped = min(int(b), waves.shape[0] - 1)
        sampled = digits_to_scaled_int(waves[b_clamped]).astype(np.float64)
        err = np.abs(sampled - correct) / scale
        sum_err.append(float(err.sum()))
        viol.append(int((err > 0).sum()))
    return {"sum_err": sum_err, "viol": viol}


def _settle_shard_worker(payload: Dict[str, Any]) -> Dict[int, int]:
    """One settling-depth shard: ``depth -> sample count`` (exact ints)."""
    ndigits = payload["ndigits"]
    om = _worker_om(ndigits, payload["delta"])
    rng = np.random.default_rng(payload["seed_seq"])
    m = payload["samples"]
    xd = uniform_digit_batch(ndigits, m, rng)
    yd = uniform_digit_batch(ndigits, m, rng)
    depth = _settle_depths(om, xd, yd, payload["backend"])
    values, counts = np.unique(depth, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def _settle_depths(
    om: OnlineMultiplier, xd: np.ndarray, yd: np.ndarray, backend: str
) -> np.ndarray:
    """Per-sample settling depth (smallest ``b`` whose sample is final)."""
    num_samples = xd.shape[1]
    waves = om.wave(xd, yd, backend=backend)
    final_vals = digits_to_scaled_int(waves[-1])
    depth = np.zeros(num_samples, dtype=np.int64)
    unset = np.ones(num_samples, dtype=bool)
    for b in range(waves.shape[0] - 2, -1, -1):
        still_wrong = digits_to_scaled_int(waves[b]) != final_vals
        newly = unset & still_wrong
        depth[newly] = b + 1
        unset &= ~newly
        if not unset.any():
            break
    return depth


# ----------------------------------------------------------- unified entry

def default_depths(ndigits: int, delta: int) -> List[int]:
    """The depth grid of Fig. 4: ``delta+1 .. N+delta``."""
    return list(range(delta + 1, ndigits + delta + 1))


def montecarlo_key_components(
    config: RunConfig, num_samples: int, depths: List[int]
) -> Dict[str, Any]:
    """The content-address components of one :func:`run_montecarlo` result.

    Shared with the evaluation service, whose dedup/coalescing key and
    pre-queue cache short-circuit must agree byte-for-byte with the key
    the batch entry point stores under.
    """
    return dict(
        experiment="montecarlo",
        num_samples=int(num_samples),
        depths=[int(b) for b in depths],
        **config.describe(),
    )


def run_montecarlo(
    config: RunConfig,
    num_samples: int = 20000,
    depths: Optional[List[int]] = None,
    runner: Optional[ParallelRunner] = None,
) -> MonteCarloResult:
    """Sharded Monte-Carlo ``E|eps|`` versus sampling depth.

    The sample budget is split into ``config.shard_size`` shards with seeds spawned
    from ``config.seed``, shards run on ``config.jobs`` worker processes,
    and the per-shard exact partials merge in shard order — so the result
    depends on ``(seed, shard_size, num_samples)`` but never on ``jobs``
    or the engine.  With ``config.cache_dir`` set, repeated runs are
    served from the persistent cache.  ``config.backend`` selects the
    wave engine per shard — the default ``"auto"`` runs the digit-level
    behavioral engine (:mod:`repro.vec`), bit-identical to
    ``"packed"``/``"wave"`` and far faster.
    """
    if depths is None:
        depths = default_depths(config.ndigits, config.delta)
    depths_arr = np.asarray(sorted(int(b) for b in depths), dtype=np.int64)

    tracer = current_tracer()
    cache = cache_for(config)
    key_components = montecarlo_key_components(
        config, num_samples, list(depths_arr)
    )
    key = cache_key(**key_components)
    engine = resolve_backend(config.backend)
    runner = runner or ParallelRunner.from_config(config)
    with tracer.span(
        "run.montecarlo",
        ndigits=config.ndigits,
        delta=config.delta,
        backend=engine,
        num_samples=int(num_samples),
        depths=[int(b) for b in depths_arr],
    ):
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                hit.run_stats = runner.finalize_stats(
                    "montecarlo", cache="hit", backend=engine
                )
                return attach_metrics(hit)

        sizes = split_samples(num_samples, config.shard_size)
        seeds = spawn_seeds(config.seed, len(sizes), seed_tag("montecarlo"))
        payloads = [
            {
                "ndigits": config.ndigits,
                "delta": config.delta,
                "backend": engine,
                "depths": [int(b) for b in depths_arr],
                "seed_seq": ss,
                "samples": m,
            }
            for ss, m in zip(seeds, sizes)
        ]
        parts = runner.map(_mc_shard_worker, payloads, samples=sizes)
        sum_err = merge_float_sums([p["sum_err"] for p in parts])
        viol = merge_int_sums([p["viol"] for p in parts])
        result = MonteCarloResult(
            ndigits=config.ndigits,
            delta=config.delta,
            num_samples=num_samples,
            depths=depths_arr,
            mean_abs_error=sum_err / num_samples,
            violation_probability=viol / num_samples,
        )
        if cache is not None:
            cache.put(key, result, key_components)
        result.run_stats = runner.finalize_stats(
            "montecarlo",
            cache="miss" if cache is not None else "off",
            backend=engine,
        )
        attach_metrics(result)
    return result


def run_settle_histogram(
    config: RunConfig,
    num_samples: int = 20000,
    runner: Optional[ParallelRunner] = None,
) -> Dict[int, float]:
    """Sharded settling-depth histogram (``depth -> fraction of samples``).

    The settling depth of one multiplication is the smallest ``b`` whose
    sample equals the final product, i.e. one more than the longest chain
    that input pair excites.  Its histogram is the empirical counterpart
    of the model's chain-delay statistics (Fig. 5): most samples need
    nearly the maximal ``(N + 2*delta)/2`` chain depth, because long
    chains overlap in the OM while their error contribution stays
    negligible.

    The operands are those :func:`run_montecarlo` draws for the same
    config and sample count (shared seed tag), so the tail
    ``P(depth > b)`` bounds its violation curve pointwise.  Integer
    per-shard counts merge exactly, so the histogram is independent of
    ``config.jobs``.  Returns a plain dict (not cached: recomputation is
    cheap and the dict is not a :class:`~repro.runners.results.Result`).
    """
    engine = resolve_backend(config.backend)
    sizes = split_samples(num_samples, config.shard_size)
    seeds = spawn_seeds(config.seed, len(sizes), seed_tag("montecarlo"))
    payloads = [
        {
            "ndigits": config.ndigits,
            "delta": config.delta,
            "backend": engine,
            "seed_seq": ss,
            "samples": m,
        }
        for ss, m in zip(seeds, sizes)
    ]
    runner = runner or ParallelRunner.from_config(config)
    with current_tracer().span(
        "run.settle_histogram",
        ndigits=config.ndigits,
        delta=config.delta,
        backend=engine,
        num_samples=int(num_samples),
    ):
        parts = runner.map(_settle_shard_worker, payloads, samples=sizes)
        counts: Dict[int, int] = {}
        for part in parts:
            for depth, c in part.items():
                counts[depth] = counts.get(depth, 0) + c
        runner.finalize_stats("settle_histogram", backend=engine)
    return {
        depth: counts[depth] / num_samples for depth in sorted(counts)
    }
