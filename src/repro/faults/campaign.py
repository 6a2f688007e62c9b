"""Fault-intensity campaigns: degradation curves under injected faults.

:func:`run_fault_campaign` sweeps one fault-model family over a range of
intensities and measures the decoded-product degradation of the online
and conventional (array) multipliers side by side — the robustness
extension of the paper's overclocking experiments: instead of only
shortening the clock period, the circuit is subjected to clock jitter,
delay drift, SEUs, metastable captures or stuck-at defects, and the
claim under test is that the MSD-first online operator degrades
*gracefully* (bounded, monotone error growth) where the LSB-first
conventional operator fails catastrophically.

Execution rides the hardened runner stack end to end:

* shards split and seed exactly like :func:`repro.sim.sweep.run_sweep`
  (``jobs=1`` and ``jobs=N`` merge bit-identically; one operand stream
  per ``(design, shard)`` is *reused across rates*, so curves compare
  fault intensities on identical operands);
* every completed shard **checkpoints** its exact partial sums into the
  persistent result cache (:meth:`~repro.runners.ResultCache.put_raw`),
  so a campaign killed mid-flight resumes from the completed shards and
  the resumed merge is bit-identical to an uninterrupted run;
* the finished campaign result is cached whole, keyed by the clean
  netlist fingerprints, the exact base delay assignment and the full
  fault parameterisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.faults.inject import CAPTURE_FAULT_KINDS, FaultInjector
from repro.faults.models import (
    FaultConfig,
    config_for_model,
    fault_signature,
)
from repro.faults.stuck import apply_stuck_faults
from repro.faults.timing import DriftedDelayModel
from repro.netlist.compiled import (
    circuit_fingerprint,
    make_simulator,
    resolve_backend,
)
from repro.netlist.delay import DelayModel, FpgaDelay, delay_signature
from repro.netlist.sta import static_timing
from repro.obs.trace import current_tracer
from repro.runners.cache import ResultCache, cache_for, cache_key
from repro.runners.config import RunConfig
from repro.runners.parallel import (
    ParallelRunner,
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
from repro.sim.sweep import (
    OnlineMultiplierHarness,
    SweepHarness,
    TraditionalMultiplierHarness,
    _sweep_circuit,
    sweep_shard_ports,
)

#: the two designs every campaign compares (the paper's pairing)
CAMPAIGN_DESIGNS = ("online", "traditional")

#: default fault-intensity grid (dimensionless, family-scaled)
DEFAULT_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)


@dataclass
class FaultStats:
    """Execution-side fault bookkeeping of one campaign run.

    Ephemeral like ``RunStats`` (never cached): counts of injected
    faults by kind, structural fault sizes, and how many shards were
    resumed from checkpoints versus retried after pool losses.
    """

    model: str = ""
    injected: Dict[str, int] = field(default_factory=dict)
    stuck_gates: int = 0
    drifted_gates: int = 0
    shards_total: int = 0
    shards_resumed: int = 0
    shards_retried: int = 0
    shards_timed_out: int = 0


@register_result
@dataclass
class FaultCampaignResult:
    """Degradation curves of one fault-model family.

    ``rates[i]`` is the dimensionless fault intensity;
    ``online_error[i]`` / ``traditional_error[i]`` are the mean
    *relative* decoded-product errors (``sum |err| / sum |correct|``)
    of the two designs at that intensity, captured at
    ``rated_step / overclock``.
    """

    model: str
    rates: np.ndarray
    online_error: np.ndarray
    traditional_error: np.ndarray
    overclock: float
    num_samples: int

    kind: ClassVar[str] = "fault_campaign"
    _array_fields: ClassVar[Dict[str, str]] = {
        "rates": "float64",
        "online_error": "float64",
        "traditional_error": "float64",
    }

    def error_curve(self, design: str) -> np.ndarray:
        """The degradation curve of one design."""
        if design == "online":
            return self.online_error
        if design == "traditional":
            return self.traditional_error
        raise ValueError(
            f"unknown design {design!r}; expected one of {CAMPAIGN_DESIGNS}"
        )

    # ------------------------------------------------- Result protocol
    def to_dict(self) -> Dict[str, Any]:
        """Pure-JSON representation (see :mod:`repro.runners.results`)."""
        return {
            "kind": self.kind,
            "model": self.model,
            "rates": [float(r) for r in self.rates],
            "online_error": [float(e) for e in self.online_error],
            "traditional_error": [float(e) for e in self.traditional_error],
            "overclock": float(self.overclock),
            "num_samples": int(self.num_samples),
            **metrics_entry(self),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultCampaignResult":
        result = cls(
            model=str(data["model"]),
            rates=np.asarray(data["rates"], dtype=np.float64),
            online_error=np.asarray(data["online_error"], dtype=np.float64),
            traditional_error=np.asarray(
                data["traditional_error"], dtype=np.float64
            ),
            overclock=float(data["overclock"]),
            num_samples=int(data["num_samples"]),
        )
        return restore_metrics(result, data)


# --------------------------------------------------------------- worker side

#: per-process faulted-harness memo, keyed by the full fault identity
_FAULT_HARNESSES: Dict[Any, SweepHarness] = {}


def campaign_harness(
    design: str,
    ndigits: int,
    backend: str,
    delay_model: DelayModel,
    fault_config: FaultConfig,
) -> SweepHarness:
    """Build (and memoize per process) the faulted harness of one design.

    Drift composes onto the delay model; stuck-at faults rebuild the
    netlist; capture-boundary faults (jitter/SEU/metastability) are
    applied later by :class:`~repro.faults.FaultInjector` and need no
    harness support.  ``rated_step`` is always the *clean* circuit's
    static timing — the clock generator does not know about defects.
    """
    key = (
        design,
        ndigits,
        backend,
        delay_signature(delay_model),
        fault_signature(fault_config),
    )
    harness = _FAULT_HARNESSES.get(key)
    if harness is not None:
        return harness

    model: DelayModel = delay_model
    if fault_config.drift_rate > 0 and fault_config.drift_max > 0:
        model = DriftedDelayModel(
            delay_model,
            fault_config.drift_rate,
            fault_config.drift_max,
            fault_config.seed,
        )
    if design == "online":
        harness = OnlineMultiplierHarness.from_spec(
            "online-mult", ndigits=ndigits, delay_model=model, backend=backend
        )
    elif design == "traditional":
        harness = TraditionalMultiplierHarness.from_spec(
            "array-mult", ndigits=ndigits, delay_model=model, backend=backend
        )
    else:
        raise ValueError(
            f"unknown design {design!r}; expected one of {CAMPAIGN_DESIGNS}"
        )
    harness.drifted_gates = (
        model.drifted_gates(harness.circuit)
        if isinstance(model, DriftedDelayModel)
        else 0
    )
    faulted_circuit, n_stuck = apply_stuck_faults(
        harness.circuit, fault_config.stuck_rate, fault_config.seed
    )
    harness.stuck_gates = n_stuck
    if n_stuck:
        # swap in the faulted netlist; rated_step stays the clean timing
        harness.circuit = faulted_circuit
        harness.simulator = make_simulator(faulted_circuit, model, backend)
    _FAULT_HARNESSES[key] = harness
    return harness


def _campaign_shard_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One campaign shard: simulate clean + faulted, return exact partials.

    The returned mapping contains only JSON scalars (floats round-trip
    exactly), so it doubles as the shard's checkpoint payload.
    """
    design = payload["design"]
    ndigits = payload["ndigits"]
    backend = payload["backend"]
    base_model = payload["delay_model"]
    fault_config: FaultConfig = payload["fault_config"]
    capture_step = int(payload["capture_step"])

    clean = campaign_harness(
        design, ndigits, backend, base_model, FaultConfig()
    )
    faulted = campaign_harness(
        design, ndigits, backend, base_model, fault_config
    )
    rng = np.random.default_rng(payload["op_seq"])
    ports = sweep_shard_ports(
        design, ndigits, clean, rng, payload["samples"]
    )

    with current_tracer().span(
        "campaign.simulate",
        design=design,
        rate=float(payload["rate"]),
        backend=backend,
        samples=int(payload["samples"]),
    ):
        clean_result = clean.simulator.run(ports)
        correct = clean.decode(
            clean_result.sample(clean_result.settle_step)
        ).astype(np.float64)

        faulted_result = faulted.simulator.run(ports)
        injector = FaultInjector(fault_config, payload["fault_seq"])
        captured, injected = injector.capture(faulted_result, capture_step)
        values = faulted.decode(captured).astype(np.float64)

    err = np.abs(values - correct)
    partial = {
        "design": design,
        "rate": float(payload["rate"]),
        "shard": int(payload["shard"]),
        "capture_step": capture_step,
        "num_samples": int(payload["samples"]),
        "sum_abs_err": float(err.sum()),
        "sum_abs_correct": float(np.abs(correct).sum()),
        "stuck_gates": int(getattr(faulted, "stuck_gates", 0)),
        "drifted_gates": int(getattr(faulted, "drifted_gates", 0)),
    }
    for kind in CAPTURE_FAULT_KINDS:
        partial[f"injected_{kind}"] = int(injected[kind])
    if payload.get("cache_dir") and payload.get("raw_key"):
        ResultCache(payload["cache_dir"]).put_raw(
            payload["raw_key"], partial
        )
    return partial


# ----------------------------------------------------------- parent side

def _capture_steps(
    ndigits: int, delay_model: DelayModel, overclock: float
) -> Dict[str, int]:
    """Per-design capture step: clean rated period over the overclock."""
    steps: Dict[str, int] = {}
    for design in CAMPAIGN_DESIGNS:
        circuit = _sweep_circuit(design, ndigits)
        rated = static_timing(circuit, delay_model).critical_delay
        steps[design] = max(1, round(rated / overclock))
    return steps


def _shard_raw_key(
    config: RunConfig,
    model: str,
    fault_config: FaultConfig,
    design: str,
    rate: float,
    shard: int,
    samples: int,
    capture_step: int,
    delay_sig: str,
    fingerprint: str,
) -> str:
    """Content address of one shard checkpoint (layout-independent)."""
    return cache_key(
        experiment="fault_campaign_shard",
        model=model,
        design=design,
        rate=float(rate),
        shard=int(shard),
        samples=int(samples),
        capture_step=int(capture_step),
        delay=delay_sig,
        fingerprint=fingerprint,
        fault=fault_config.describe(),
        **config.describe(),
    )


def run_fault_campaign(
    config: RunConfig,
    model: str = "seu",
    rates: Sequence[float] = DEFAULT_RATES,
    num_samples: int = 2000,
    overclock: float = 1.0,
    delay_model: Optional[DelayModel] = None,
    runner: Optional[ParallelRunner] = None,
) -> FaultCampaignResult:
    """Sweep one fault family's intensity over both multiplier designs.

    Parameters
    ----------
    config:
        The unified run parameters (geometry, backend, seed, jobs,
        cache_dir, shard_size, shard_timeout).
    model:
        Fault-model family (see :data:`repro.faults.FAULT_MODELS`).
    rates:
        Dimensionless intensity grid; ``0.0`` is the golden baseline
        (zero error at ``overclock = 1.0``).
    overclock:
        Clock speedup over the rated period; samples are captured at
        ``round(rated_step / overclock)``.

    Checkpoint/resume: with ``config.cache_dir`` set, every completed
    shard persists its exact partial sums before the merge.  Re-running
    the identical campaign — e.g. after the process was killed — serves
    completed shards from the checkpoints and computes only the missing
    ones; the final merge is bit-identical either way because partials
    are JSON-exact and merged in a fixed ``(design, rate, shard)``
    order.  Returns a :class:`FaultCampaignResult` with ``run_stats``
    and ``fault_stats`` attached.
    """
    config = config.with_(
        backend=resolve_backend(config.backend, netlist=True)
    )
    with current_tracer().span(
        "run.fault_campaign",
        model=model,
        ndigits=config.ndigits,
        backend=config.backend,
        rates=[float(r) for r in rates],
        num_samples=int(num_samples),
        overclock=float(overclock),
    ):
        return _run_fault_campaign(
            config, model, rates, num_samples, overclock, delay_model, runner
        )


def _run_fault_campaign(
    config: RunConfig,
    model: str,
    rates: Sequence[float],
    num_samples: int,
    overclock: float,
    delay_model: Optional[DelayModel],
    runner: Optional[ParallelRunner],
) -> FaultCampaignResult:
    """The campaign body; :func:`run_fault_campaign` wraps it in a span."""
    base_model = delay_model if delay_model is not None else FpgaDelay()
    rates = [float(r) for r in rates]
    if not rates:
        raise ValueError("rates must contain at least one intensity")
    cache = cache_for(config)
    runner = runner or ParallelRunner.from_config(config)
    experiment = f"faults:{model}"
    capture_steps = _capture_steps(config.ndigits, base_model, overclock)

    circuits = {d: _sweep_circuit(d, config.ndigits) for d in CAMPAIGN_DESIGNS}
    fingerprints = {d: circuit_fingerprint(c) for d, c in circuits.items()}
    delay_sig = delay_signature(base_model)
    fault_configs = {
        (d, r): config_for_model(
            model,
            r,
            capture_steps[d],
            quanta_per_unit=base_model.quanta_per_unit,
            seed=config.seed,
        )
        for d in CAMPAIGN_DESIGNS
        for r in rates
    }

    key = None
    key_components = None
    if cache is not None:
        key_components = dict(
            experiment="fault_campaign",
            model=model,
            rates=rates,
            num_samples=int(num_samples),
            overclock=float(overclock),
            delay=delay_sig,
            fingerprints=fingerprints,
            delays={
                d: list(base_model.assign(c)) for d, c in circuits.items()
            },
            **config.describe(),
        )
        key = cache_key(**key_components)
        hit = cache.get(key)
        if hit is not None:
            hit.run_stats = runner.finalize_stats(
                experiment, cache="hit", backend=config.backend
            )
            hit.fault_stats = FaultStats(model=model)
            return attach_metrics(hit)

    sizes = split_samples(num_samples, config.shard_size)
    # one (operand, injector) seed pair per (design, shard), shared
    # across rates: every intensity sees the same operands and the same
    # underlying fault draws, which couples the points of a curve.  The
    # children are spawned here, once — spawning inside the worker would
    # mutate the shared parent and make inline/pool layouts diverge.
    design_seeds = {
        d: [
            ss.spawn(2)
            for ss in spawn_seeds(
                config.seed, len(sizes), seed_tag("faults"), seed_tag(d)
            )
        ]
        for d in CAMPAIGN_DESIGNS
    }

    payloads: List[Dict[str, Any]] = []
    index = 0
    for design in CAMPAIGN_DESIGNS:
        for rate in rates:
            fc = fault_configs[(design, rate)]
            for shard, m in enumerate(sizes):
                raw_key = (
                    _shard_raw_key(
                        config,
                        model,
                        fc,
                        design,
                        rate,
                        shard,
                        m,
                        capture_steps[design],
                        delay_sig,
                        fingerprints[design],
                    )
                    if cache is not None
                    else None
                )
                payloads.append(
                    {
                        "design": design,
                        "rate": rate,
                        "shard": index,
                        "ndigits": config.ndigits,
                        "backend": config.backend,
                        "delay_model": base_model,
                        "fault_config": fc,
                        "capture_step": capture_steps[design],
                        "op_seq": design_seeds[design][shard][0],
                        "fault_seq": design_seeds[design][shard][1],
                        "samples": m,
                        "cache_dir": config.cache_dir,
                        "raw_key": raw_key,
                    }
                )
                index += 1

    # resume: serve completed shards from their checkpoints
    partials: Dict[int, Dict[str, Any]] = {}
    resumed = 0
    if cache is not None:
        for payload in payloads:
            checkpoint = cache.get_raw(payload["raw_key"])
            if checkpoint is not None:
                partials[payload["shard"]] = checkpoint
                resumed += 1
        if resumed:
            current_tracer().event(
                "campaign.resume", shards=resumed, total=len(payloads)
            )
    missing = [p for p in payloads if p["shard"] not in partials]
    if missing:
        computed = runner.map(
            _campaign_shard_worker,
            missing,
            samples=[p["samples"] for p in missing],
        )
        for payload, partial in zip(missing, computed):
            partials[payload["shard"]] = partial

    # merge in fixed (design, rate, shard) order — payloads are already
    # laid out that way, so iterating shard indices in order suffices
    result = _campaign_from_partials(
        model, rates, [partials[p["shard"]] for p in payloads], overclock
    )
    if cache is not None:
        cache.put(key, result, key_components)
    result.run_stats = runner.finalize_stats(
        experiment,
        cache="miss" if cache is not None else "off",
        backend=config.backend,
    )
    attach_metrics(result)
    stats = FaultStats(
        model=model,
        shards_total=len(payloads),
        shards_resumed=resumed,
        shards_retried=runner.stats.retries,
        shards_timed_out=runner.stats.timeouts,
    )
    for partial in partials.values():
        for kind in CAPTURE_FAULT_KINDS:
            stats.injected[kind] = stats.injected.get(kind, 0) + int(
                partial.get(f"injected_{kind}", 0)
            )
        stats.stuck_gates = max(
            stats.stuck_gates, int(partial.get("stuck_gates", 0))
        )
        stats.drifted_gates = max(
            stats.drifted_gates, int(partial.get("drifted_gates", 0))
        )
    result.fault_stats = stats
    return result


def _campaign_from_partials(
    model: str,
    rates: List[float],
    ordered_partials: List[Dict[str, Any]],
    overclock: float,
) -> FaultCampaignResult:
    """Merge per-shard partial sums into the degradation curves.

    *ordered_partials* must already be in ``(design, rate, shard)``
    order; float sums accumulate in that fixed order, which keeps the
    merge bit-identical across execution layouts and resumes.
    """
    sums: Dict[Tuple[str, float], List[float]] = {}
    samples_per_cell: Dict[Tuple[str, float], int] = {}
    for partial in ordered_partials:
        cell = (str(partial["design"]), float(partial["rate"]))
        acc = sums.setdefault(cell, [0.0, 0.0])
        acc[0] += float(partial["sum_abs_err"])
        acc[1] += float(partial["sum_abs_correct"])
        samples_per_cell[cell] = samples_per_cell.get(cell, 0) + int(
            partial["num_samples"]
        )
    num_samples = max(samples_per_cell.values())

    curves: Dict[str, List[float]] = {}
    for design in CAMPAIGN_DESIGNS:
        curve = []
        for rate in rates:
            err_sum, correct_sum = sums[(design, rate)]
            curve.append(err_sum / correct_sum if correct_sum > 0 else 0.0)
        curves[design] = curve
    return FaultCampaignResult(
        model=model,
        rates=np.asarray(rates, dtype=np.float64),
        online_error=np.asarray(curves["online"], dtype=np.float64),
        traditional_error=np.asarray(curves["traditional"], dtype=np.float64),
        overclock=float(overclock),
        num_samples=num_samples,
    )
