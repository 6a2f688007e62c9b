"""The latency-accuracy auto-synthesizer (:func:`run_synthesis`).

Given a :class:`~repro.core.synthesis.Datapath`, an accuracy target and
a clock-period grid, search per-operator implementation (online /
exact-traditional), word length and period:

1. **Enumerate** the full candidate grid — every multiplier-style
   combination (adders follow: carry-free online adders in any design
   with an online multiplier, a prefix adder in the all-traditional
   design) × word length × period.  Combinations that violate the
   online-operand rule (an online multiplier fed by a traditional
   product) are unbuildable and count as pruned.
2. **Coarse-rank** each candidate with the Section-3 analytical model
   (:func:`repro.synth.model.predict_design`): infeasible points
   (a conventional operator clocked under its rated depth), periods
   beyond the settle depth of every operator (bit-identical duplicates
   of the fastest settled period), points whose predicted error misses
   the target beyond the model's slack, and points analytically
   dominated by a clearly better candidate are pruned without
   simulation (``synth.candidates_pruned``).
3. **Verify** the survivors on the fused vector engine
   (:func:`repro.vec.fused.om_sweep_vector`): candidates sharing one
   ``(wordlength, assignment)`` verify all their periods in a single
   fused pass per shard, fanned out through
   :class:`~repro.runners.parallel.ParallelRunner` and deduplicated
   through the result cache (a group's merged partials are checkpointed
   under a key that includes the exact assignment, so re-runs and
   overlapping searches never recompute).
4. **Select** the measured latency-accuracy Pareto front and the
   cheapest (minimum-latency, area tie-break) point meeting the target.

Verification semantics: operands are drawn once at reference precision
(:data:`REF_FRAC` fractional bits) and re-quantized per candidate word
length, so every candidate sees the *same* analog inputs and error
differences are attributable to the design, not the draw.  Operator
composition is value-level: each operator's captured output value is
re-encoded canonically for its consumers (transient digit patterns do
not propagate across capture registers — they are registered, exactly
as in the pipelined hardware).  ``jobs=1`` and ``jobs=N`` merge shard
partials in index order and are bit-identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.conversion import scaled_int_to_digits
from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer
from repro.runners.cache import cache_for, cache_key
from repro.runners.config import RunConfig
from repro.runners.parallel import (
    ParallelRunner,
    merge_float_sums,
    seed_tag,
    spawn_seeds,
    split_samples,
)
from repro.runners.results import attach_metrics
from repro.synth.model import (
    MODEL_TOLERANCE_FACTOR,
    predict_design,
    within_model_tolerance,
)
from repro.synth.report import SynthesisReport
from repro.synth.spec import operator_spec
from repro.vec.fused import om_sweep_vector

__all__ = [
    "AccuracyTarget",
    "REF_FRAC",
    "DEFAULT_PERIODS",
    "run_synthesis",
]

#: fractional bits of the shared reference-precision operand draws
REF_FRAC = 24

#: default clock-period grid, as fractions of the online settle depth
#: ``N + delta`` (in stage units) — spans deep overclocking through the
#: depths where wide conventional operators become feasible
DEFAULT_PERIODS = (0.4, 0.55, 0.7, 0.85, 1.0, 1.3, 1.7, 2.2)

#: predicted-error slack of the target prune: a candidate is only
#: pruned for missing the target when its *predicted* error overshoots
#: by more than the model's documented tolerance
TARGET_PRUNE_SLACK = MODEL_TOLERANCE_FACTOR

#: margin of the analytical dominance prune (conservative: sqrt of the
#: model tolerance, so a point is only dropped when a candidate with no
#: more latency and no more area is predicted better by a factor the
#: model cannot be wrong about)
DOMINANCE_MARGIN = 4.0


@dataclass(frozen=True)
class AccuracyTarget:
    """Accuracy bound for the search.

    ``metric="mre"`` bounds the mean relative error (percent, from
    above, so it cannot be negative); ``metric="snr"`` bounds the
    signal-to-noise ratio (dB, from below).  The value must be finite.
    """

    metric: str
    value: float

    def __post_init__(self) -> None:
        if self.metric not in ("mre", "snr"):
            raise ValueError(
                f"target metric must be 'mre' or 'snr', got {self.metric!r}"
            )
        if not math.isfinite(self.value):
            raise ValueError(
                f"target value must be finite, got {self.value!r}"
            )
        if self.metric == "mre" and self.value < 0:
            raise ValueError(
                f"an mre target cannot be negative, got {self.value!r}"
            )


def _coerce_target(target: Any) -> AccuracyTarget:
    if isinstance(target, AccuracyTarget):
        return target
    if isinstance(target, Mapping):
        return AccuracyTarget(**target)
    return AccuracyTarget("mre", float(target))


# --------------------------------------------------------------------------
# candidate enumeration
# --------------------------------------------------------------------------

def _operator_nodes(graph: Mapping[str, Any]) -> List[Mapping[str, Any]]:
    return [n for n in graph["nodes"] if n["kind"] in ("add", "mul")]


def _resolve_through_neg(graph: Mapping[str, Any], idx: int) -> Mapping[str, Any]:
    node = graph["nodes"][idx]
    while node["kind"] == "neg":
        node = graph["nodes"][node["args"][0]]
    return node


def _replayable(graph: Mapping[str, Any], assignment: Mapping[str, str]) -> bool:
    """Whether the assignment lowers: online multiplier operands must be
    fraction-shaped (inputs, constants, products or negations thereof).

    A sum can exceed the ``(-1, 1)`` fraction range, so the lowering
    rejects sum-valued operands of *online* multipliers; a traditional
    multiplier takes the full-width word and has no such restriction.
    Unbuildable combinations count as pruned grid points.
    """
    for node in graph["nodes"]:
        if node["kind"] != "mul":
            continue
        if operator_spec(assignment[node["label"]]).style != "online":
            continue
        for arg in node["args"]:
            if _resolve_through_neg(graph, arg)["kind"] == "add":
                return False
    return True


def enumerate_assignments(
    graph: Mapping[str, Any],
    mul_specs: Sequence[str] = ("online-mult", "array-mult"),
    add_specs: Mapping[str, str] = None,
) -> List[Dict[str, str]]:
    """Every multiplier-style combination of the datapath, adders derived.

    Multipliers are the implementation choice the paper's trade-off is
    about; adders follow the design style — carry-free online adders
    whenever any multiplier is online (they accept bridged conventional
    operands for free), a prefix adder in the all-traditional design.
    Includes unbuildable combinations (see :func:`_replayable`) so the
    caller can account for the *full* grid.
    """
    if add_specs is None:
        add_specs = {"online": "online-add", "traditional": "kogge-stone-add"}
    ops = _operator_nodes(graph)
    mul_labels = [n["label"] for n in ops if n["kind"] == "mul"]
    add_labels = [n["label"] for n in ops if n["kind"] == "add"]
    assignments: List[Dict[str, str]] = []
    styles = (("online",), ("traditional",)) if not mul_labels else None
    for combo in (
        itertools.product(mul_specs, repeat=len(mul_labels))
        if mul_labels
        else styles
    ):
        if mul_labels:
            assign = dict(zip(mul_labels, combo))
            all_trad = all(
                operator_spec(s).style == "traditional" for s in combo
            )
            add_style = "traditional" if all_trad else "online"
        else:
            assign = {}
            add_style = combo[0]
        for label in add_labels:
            assign[label] = add_specs[add_style]
        assignments.append(assign)
    return assignments


def steps_for_periods(
    periods: Sequence[float], ndigits: int, delta: int
) -> List[int]:
    """Period grid → capture depths ``b`` (stage units) at one wordlength.

    Periods are normalized to the online settle depth ``N + delta``;
    ``b = ceil(p * (N + delta))``, minimum 1.  Duplicates collapse (two
    periods rounding to the same depth are the same design point).
    """
    settle = ndigits + delta
    steps = sorted(
        {max(1, math.ceil(float(p) * settle - 1e-9)) for p in periods}
    )
    return steps


# --------------------------------------------------------------------------
# verification worker (module-level: picklable for the process pool)
# --------------------------------------------------------------------------

def _quantize(raw: np.ndarray, ndigits: int) -> np.ndarray:
    """Reference-precision draws → scaled ints at *ndigits* fractional bits.

    Round-half-away-from-zero, clamped to ``+/-(2**ndigits - 1)`` so the
    quantized value stays a valid fraction-shaped operand.
    :func:`run_synthesis` keeps *ndigits* within ``[1, REF_FRAC]``.
    """
    shift = REF_FRAC - ndigits
    half = 1 << (shift - 1) if shift else 0
    mag = (np.abs(raw) + half) >> shift if shift else np.abs(raw)
    q = np.sign(raw) * mag
    limit = (1 << ndigits) - 1
    return np.clip(q, -limit, limit).astype(np.int64)


def _snapshot_values(snaps: np.ndarray, ndigits: int) -> np.ndarray:
    """Snapshot digit tensor ``(D, N, S)`` → scaled-int values ``(D, S)``."""
    weights = (1 << np.arange(ndigits - 1, -1, -1)).astype(np.int64)
    return np.tensordot(weights, snaps.astype(np.int64), axes=(0, 1))


def _bridge_digits(values: np.ndarray, ndigits: int) -> np.ndarray:
    """The lowering's truncating traditional→online operand bridge.

    Mirrors ``truncated_operand`` in :mod:`repro.core.synthesis`: the
    word is floor-truncated to ``ndigits`` fractional bits and read as
    digits ``d_k = b_{n-k} - s`` (``s`` the sign bit), which represents
    ``trunc(v) + s * 2**-n`` — within one ULP of the exact value.  The
    returned array is the *actual* digit pattern the netlist wires up
    (sign rail on every position), not a canonical recode, so transient
    behaviour downstream matches the hardware.
    """
    f = np.floor(values * float(2**ndigits)).astype(np.int64)
    s = (f < 0).astype(np.int8)
    u = f & ((1 << (ndigits + 1)) - 1)
    digits = np.empty((ndigits, values.shape[-1]), dtype=np.int8)
    for k in range(ndigits):
        digits[k] = ((u >> (ndigits - 1 - k)) & 1).astype(np.int8) - s
    return digits


def _eval_measured(
    graph: Mapping[str, Any],
    assignment: Mapping[str, str],
    ndigits: int,
    delta: int,
    depths: Sequence[int],
    qvals: Mapping[str, np.ndarray],
    samples: int,
) -> Dict[str, np.ndarray]:
    """Evaluate the candidate at every capture depth; values in ``(D, S)``.

    Node values are float64 multiples of ``2**-ndigits`` (exact).  An
    operator whose operands are depth-invariant evaluates all depths in
    one fused :func:`om_sweep_vector` pass; once a depth-dependent value
    enters, each depth row evolves independently (row ``d`` is the
    design clocked at period ``depths[d]`` end to end).
    """
    nodes = graph["nodes"]
    ndepths = len(depths)
    scale = float(2**ndigits)
    values: List[np.ndarray] = []  # (S,) invariant or (D, S)
    exactn: List[bool] = []  # value is an exact multiple of 2**-ndigits

    def _digits_at(value_row: np.ndarray, is_exact: bool) -> np.ndarray:
        if is_exact:
            scaled = np.rint(value_row * scale).astype(np.int64)
            return scaled_int_to_digits(scaled, ndigits)
        return _bridge_digits(value_row, ndigits)

    for node in nodes:
        kind = node["kind"]
        if kind == "input":
            values.append(qvals[node["name"]] / scale)
            exactn.append(True)
        elif kind == "const":
            from fractions import Fraction

            v = float(Fraction(node["value"]))
            values.append(np.full(samples, v))
            exactn.append(True)
        elif kind == "neg":
            values.append(-values[node["args"][0]])
            exactn.append(exactn[node["args"][0]])
        else:
            ia, ib = node["args"]
            a, b = values[ia], values[ib]
            spec = operator_spec(assignment[node["label"]])
            if kind == "add" or spec.style == "traditional":
                # adders (both styles) and conventional multipliers are
                # exact at every feasible depth — the prune removed the
                # (candidate, depth) points below their rated depth
                values.append(a + b if kind == "add" else a * b)
                exactn.append(
                    exactn[ia] and exactn[ib] if kind == "add" else False
                )
            else:
                ea, eb = exactn[ia], exactn[ib]
                if a.ndim == 1 and b.ndim == 1:
                    snaps = om_sweep_vector(
                        ndigits,
                        delta,
                        _digits_at(a, ea),
                        _digits_at(b, eb),
                        depths,
                    )
                    values.append(_snapshot_values(snaps, ndigits) / scale)
                else:
                    rows = []
                    for d in range(ndepths):
                        ar = a if a.ndim == 1 else a[d]
                        br = b if b.ndim == 1 else b[d]
                        snap = om_sweep_vector(
                            ndigits,
                            delta,
                            _digits_at(ar, ea),
                            _digits_at(br, eb),
                            [depths[d]],
                        )
                        rows.append(_snapshot_values(snap, ndigits)[0])
                    values.append(np.stack(rows) / scale)
                exactn.append(True)
    out = {}
    for name, idx in graph["outputs"].items():
        v = values[idx]
        out[name] = np.broadcast_to(v, (ndepths, v.shape[-1])) if v.ndim == 1 else v
    return out


def _eval_reference(
    graph: Mapping[str, Any],
    refvals: Mapping[str, np.ndarray],
    samples: int,
) -> Dict[str, np.ndarray]:
    """Exact (infinite-precision operator) evaluation on reference inputs."""
    from fractions import Fraction

    nodes = graph["nodes"]
    values: List[np.ndarray] = []
    for node in nodes:
        kind = node["kind"]
        if kind == "input":
            values.append(refvals[node["name"]])
        elif kind == "const":
            values.append(np.full(samples, float(Fraction(node["value"]))))
        elif kind == "neg":
            values.append(-values[node["args"][0]])
        elif kind == "add":
            values.append(values[node["args"][0]] + values[node["args"][1]])
        else:
            values.append(values[node["args"][0]] * values[node["args"][1]])
    return {name: values[idx] for name, idx in graph["outputs"].items()}


def _synth_verify_worker(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """One shard of one candidate group's vector verification.

    Draws the shared reference-precision operand batch from the shard
    seed, quantizes to the group's word length, runs the measured and
    reference evaluations and returns exact JSON-able partial sums.
    """
    graph = payload["graph"]
    ndigits = int(payload["ndigits"])
    delta = int(payload["delta"])
    depths = [int(b) for b in payload["depths"]]
    m = int(payload["samples"])
    rng = np.random.default_rng(payload["seed_seq"])
    limit = 1 << REF_FRAC
    raw = {
        name: rng.integers(-limit + 1, limit, size=m, dtype=np.int64)
        for name in graph["inputs"]
    }
    refvals = {name: r / float(limit) for name, r in raw.items()}
    qvals = {name: _quantize(r, ndigits) for name, r in raw.items()}

    measured = _eval_measured(
        graph, payload["assignment"], ndigits, delta, depths, qvals, m
    )
    reference = _eval_reference(graph, refvals, m)

    sum_abs_err = np.zeros(len(depths), dtype=np.float64)
    sum_sq_err = np.zeros(len(depths), dtype=np.float64)
    sum_abs_ref = 0.0
    sum_sq_ref = 0.0
    for name in sorted(graph["outputs"]):
        err = np.abs(measured[name] - reference[name][None, :])
        sum_abs_err += err.sum(axis=1)
        sum_sq_err += (err * err).sum(axis=1)
        sum_abs_ref += float(np.abs(reference[name]).sum())
        sum_sq_ref += float((reference[name] ** 2).sum())
    return {
        "sum_abs_err": sum_abs_err.tolist(),
        "sum_sq_err": sum_sq_err.tolist(),
        "sum_abs_ref": sum_abs_ref,
        "sum_sq_ref": sum_sq_ref,
        "samples": m,
    }


# --------------------------------------------------------------------------
# the search
# --------------------------------------------------------------------------

def _assignment_key(assignment: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(assignment.items()))


def run_synthesis(
    config: RunConfig,
    datapath,
    target,
    wordlengths: Optional[Sequence[int]] = None,
    periods: Sequence[float] = DEFAULT_PERIODS,
    steps: Optional[Sequence[int]] = None,
    num_samples: int = 4000,
    mul_specs: Sequence[str] = ("online-mult", "array-mult"),
    kappa: float = 1.0,
    runner: Optional[ParallelRunner] = None,
) -> SynthesisReport:
    """Search (assignment × wordlength × period) for a latency-accuracy front.

    Parameters
    ----------
    config:
        Execution block — ``seed``/``shard_size`` define the verification
        draws, ``jobs``/``cache_dir`` only how they are computed.
        ``config.ndigits`` is the default wordlength grid.
    datapath:
        The :class:`~repro.core.synthesis.Datapath` to synthesize.
    target:
        Accuracy bound: a float (MRE percent), an
        :class:`AccuracyTarget`, or a ``{"metric", "value"}`` mapping.
    wordlengths:
        Word lengths to search (default: ``(config.ndigits,)``).
    periods / steps:
        Clock-period grid — either normalized periods (fractions of the
        online settle depth, see :func:`steps_for_periods`) or explicit
        capture depths in stage units (*steps* wins when given).
    num_samples:
        Vector-verification operand draws per candidate group.
    mul_specs:
        Registered multiplier spec names to search over.
    kappa:
        Calibration factor forwarded to the analytical model (fit one
        with :meth:`OverclockingErrorModel.calibrated` against a
        Monte-Carlo run).

    Returns a :class:`SynthesisReport`; emits ``synth.candidates_total``
    / ``synth.candidates_pruned`` / ``synth.candidates_verified``
    metrics and runs under a ``run.synthesis`` span.
    """
    target = _coerce_target(target)
    graph = datapath.to_graph()
    if len(_operator_nodes(graph)) == 0:
        raise ValueError("datapath has no operators to synthesize")
    if wordlengths is None:
        wordlengths = (config.ndigits,)
    wordlengths = sorted({int(n) for n in wordlengths})
    if not wordlengths or wordlengths[0] < 1 or wordlengths[-1] > REF_FRAC:
        raise ValueError(
            f"wordlengths must lie in [1, {REF_FRAC}] (the reference "
            f"precision), got {wordlengths}"
        )
    tracer = current_tracer()
    cache = cache_for(config)
    runner = runner or ParallelRunner.from_config(config)
    delta = config.delta

    with tracer.span(
        "run.synthesis",
        target_metric=target.metric,
        target_value=target.value,
        wordlengths=list(wordlengths),
        num_samples=int(num_samples),
    ):
        assignments = enumerate_assignments(graph, mul_specs=mul_specs)

        # ---------------------------------------------- analytical ranking
        survivors: List[Dict[str, Any]] = []
        total = 0
        pruned = 0
        with tracer.span("synth.rank"):
            for n in wordlengths:
                depth_grid = (
                    sorted({max(1, int(b)) for b in steps})
                    if steps is not None
                    else steps_for_periods(periods, n, delta)
                )
                for assignment in assignments:
                    total += len(depth_grid)
                    if not _replayable(graph, assignment):
                        pruned += len(depth_grid)
                        continue
                    settled_kept = False
                    for b in depth_grid:
                        predicted = predict_design(
                            graph, assignment, n, delta, b, kappa=kappa
                        )
                        if not predicted.feasible:
                            pruned += 1
                            continue
                        # beyond the settle depth of every operator the
                        # design's outputs are bit-identical — keep only
                        # the fastest such period, prune the duplicates
                        smax = max(m.stages for m in predicted.modules)
                        if b >= smax:
                            if settled_kept:
                                pruned += 1
                                continue
                            settled_kept = True
                        if target.metric == "mre":
                            miss = (
                                predicted.mre_percent
                                > target.value * TARGET_PRUNE_SLACK
                            )
                        else:
                            miss = predicted.snr_db < target.value - (
                                20.0 * math.log10(TARGET_PRUNE_SLACK)
                            )
                        if miss:
                            pruned += 1
                            continue
                        survivors.append(
                            {
                                "assignment": assignment,
                                "ndigits": n,
                                "b": b,
                                "predicted": predicted,
                            }
                        )
            # analytical dominance prune: drop points a clearly better
            # candidate (no more latency, no more area, predicted error
            # smaller by more than the model can be wrong) outclasses
            keep: List[Dict[str, Any]] = []
            for cand in survivors:
                p = cand["predicted"]
                dominated = any(
                    q["predicted"].latency_gates <= p.latency_gates
                    and q["predicted"].area_luts <= p.area_luts
                    and q["predicted"].abs_error * DOMINANCE_MARGIN
                    <= p.abs_error
                    for q in survivors
                    if q is not cand
                )
                if dominated:
                    pruned += 1
                else:
                    keep.append(cand)
            survivors = keep

        metrics().count("synth.candidates_total", total)
        metrics().count("synth.candidates_pruned", pruned)
        metrics().count("synth.candidates_verified", len(survivors))

        # ------------------------------------------- fused verification
        groups: Dict[Tuple, Dict[str, Any]] = {}
        for cand in survivors:
            gk = (cand["ndigits"], _assignment_key(cand["assignment"]))
            group = groups.setdefault(
                gk,
                {
                    "ndigits": cand["ndigits"],
                    "assignment": cand["assignment"],
                    "depths": [],
                },
            )
            group["depths"].append(cand["b"])
        for group in groups.values():
            group["depths"] = sorted(set(group["depths"]))

        sizes = split_samples(num_samples, config.shard_size)
        seeds = spawn_seeds(config.seed, len(sizes), seed_tag("synthesis"))

        with tracer.span("synth.verify", groups=len(groups)):
            pending: List[Tuple[Tuple, Dict[str, Any]]] = []
            merged: Dict[Tuple, Dict[str, Any]] = {}
            for gk in sorted(groups):
                group = groups[gk]
                components = dict(
                    experiment="synth.verify",
                    graph=graph,
                    assignment=[list(kv) for kv in gk[1]],
                    ndigits=group["ndigits"],
                    delta=delta,
                    depths=group["depths"],
                    num_samples=int(num_samples),
                    ref_frac=REF_FRAC,
                    seed=config.seed,
                    shard_size=config.shard_size,
                )
                key = cache_key(**components)
                hit = cache.get_raw(key) if cache is not None else None
                if hit is not None:
                    merged[gk] = hit
                else:
                    pending.append((gk, {"key": key, **group}))

            payloads = []
            counts = []
            for gk, group in pending:
                for ss, m in zip(seeds, sizes):
                    payloads.append(
                        {
                            "graph": graph,
                            "assignment": group["assignment"],
                            "ndigits": group["ndigits"],
                            "delta": delta,
                            "depths": group["depths"],
                            "seed_seq": ss,
                            "samples": m,
                        }
                    )
                    counts.append(m)
            parts = runner.map(_synth_verify_worker, payloads, samples=counts)
            for gi, (gk, group) in enumerate(pending):
                shard_parts = parts[gi * len(sizes) : (gi + 1) * len(sizes)]
                result = {
                    "sum_abs_err": merge_float_sums(
                        [p["sum_abs_err"] for p in shard_parts]
                    ).tolist(),
                    "sum_sq_err": merge_float_sums(
                        [p["sum_sq_err"] for p in shard_parts]
                    ).tolist(),
                    "sum_abs_ref": float(
                        np.sum([p["sum_abs_ref"] for p in shard_parts])
                    ),
                    "sum_sq_ref": float(
                        np.sum([p["sum_sq_ref"] for p in shard_parts])
                    ),
                    "samples": int(num_samples),
                }
                merged[gk] = result
                if cache is not None:
                    cache.put_raw(group["key"], result)

        # --------------------------------------------------- selection
        n_outputs = len(graph["outputs"])
        points: List[Dict[str, Any]] = []
        pred_err: List[float] = []
        meas_err: List[float] = []
        meas_snr: List[float] = []
        lat_gates: List[float] = []
        for cand in survivors:
            gk = (cand["ndigits"], _assignment_key(cand["assignment"]))
            group = merged[gk]
            di = groups[gk]["depths"].index(cand["b"])
            denom = float(num_samples * n_outputs)
            measured_abs = group["sum_abs_err"][di] / denom
            mean_ref = group["sum_abs_ref"] / denom
            sq_err = group["sum_sq_err"][di]
            snr = (
                10.0 * math.log10(group["sum_sq_ref"] / sq_err)
                if sq_err > 0
                else math.inf
            )
            predicted = cand["predicted"]
            measured_mre = (
                100.0 * measured_abs / mean_ref if mean_ref > 0 else math.inf
            )
            predicted_mre = (
                100.0 * predicted.abs_error / mean_ref
                if mean_ref > 0
                else math.inf
            )
            points.append(
                {
                    "assignment": dict(cand["assignment"]),
                    "ndigits": cand["ndigits"],
                    "b": cand["b"],
                    "period": cand["b"] / (cand["ndigits"] + delta),
                    "latency_stages": predicted.latency_stages,
                    "pipeline_depth": predicted.pipeline_depth,
                    "area_luts": predicted.area_luts,
                    "predicted_mre_percent": predicted_mre,
                    "measured_mre_percent": measured_mre,
                    "meets_target": (
                        measured_mre <= target.value
                        if target.metric == "mre"
                        else snr >= target.value
                    ),
                    "on_front": False,
                    "within_tolerance": within_model_tolerance(
                        predicted.abs_error, measured_abs, cand["ndigits"]
                    ),
                }
            )
            pred_err.append(predicted.abs_error)
            meas_err.append(measured_abs)
            meas_snr.append(snr)
            lat_gates.append(predicted.latency_gates)

        def _dominates(j: int, i: int) -> bool:
            if (lat_gates[j], meas_err[j]) == (lat_gates[i], meas_err[i]):
                return points[j]["area_luts"] < points[i]["area_luts"]
            return lat_gates[j] <= lat_gates[i] and meas_err[j] <= meas_err[i]

        for i, pi in enumerate(points):
            pi["on_front"] = not any(
                _dominates(j, i) for j in range(len(points)) if j != i
            )

        chosen = -1
        best = None
        for i, pi in enumerate(points):
            if not pi["meets_target"]:
                continue
            rank = (lat_gates[i], pi["area_luts"], meas_err[i], i)
            if best is None or rank < best:
                best = rank
                chosen = i

        modules = []
        if chosen >= 0:
            modules = [
                {
                    "label": m.label,
                    "kind": m.kind,
                    "spec": m.spec,
                    "width": m.width,
                    "stages": m.stages,
                    "area_luts": m.area_luts,
                    "expected_error": m.expected_error,
                }
                for m in survivors[chosen]["predicted"].modules
            ]

        report = SynthesisReport(
            graph=graph,
            target_metric=target.metric,
            target_value=target.value,
            points=points,
            predicted_abs_error=pred_err,
            measured_abs_error=meas_err,
            measured_snr_db=meas_snr,
            latency_gates=lat_gates,
            candidates_total=total,
            candidates_pruned=pruned,
            candidates_verified=len(survivors),
            chosen=chosen,
            modules=modules,
            delta=delta,
            num_samples=int(num_samples),
            seed=config.seed,
            ref_frac=REF_FRAC,
        )
        report.run_stats = runner.finalize_stats(
            "synthesis",
            cache=(
                "off"
                if cache is None
                else ("hit" if groups and not pending else "miss")
            ),
            backend="vector",
        )
        attach_metrics(report)
    return report
