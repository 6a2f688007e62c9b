#!/usr/bin/env python3
"""Datapath synthesis for overclocking: the latency-accuracy explorer.

Describes a small DSP datapath once (a complex-multiply-accumulate),
synthesizes it in both arithmetics with :func:`repro.synth.run_synthesis`,
and answers the paper's two design questions from the verified design
points of the all-online and the all-conventional assignment:

1. clocked at a given overclocking factor, which arithmetic gives the
   lower error? (Table 1 / Table 2 perspective)
2. given an error budget, which arithmetic reaches the higher clock?
   (Table 3 perspective)

Clock periods are capture depths in stage units (one online-multiplier
stage each), verified on the vector engine against a 24-bit reference,
so even a settled design shows its 8-digit quantization error.  The
overclocking factors are taken against the conventional design's settled
period, the clock a conventional timing closure would pick.  A conventional
design clocked below its settle depth fails in its most significant bits;
the synthesizer prunes those points analytically, and they print as
"pruned".

Run:  python examples/datapath_synthesis_explorer.py
"""

from repro import Datapath
from repro.numrep.rounding import floor_ratio
from repro.runners import RunConfig
from repro.sim.reporting import format_table
from repro.synth import AccuracyTarget, run_synthesis

N = 8
FACTORS = (1.05, 1.10, 1.15, 1.20, 1.25)
BUDGETS = (0.01, 0.1, 1.0, 10.0)
STYLES = (("traditional", "array-mult"), ("online", "online-mult"))


def build_datapath() -> Datapath:
    """Real part of a complex multiply-accumulate: xr*wr - xi*wi + br."""
    dp = Datapath(ndigits=N)
    xr, xi = dp.input("xr"), dp.input("xi")
    wr, wi = dp.const(0.59375), dp.const(-0.40625)
    br = dp.const(0.125)
    dp.output("yr", xr * wr - xi * wi + br)
    return dp


def mre_by_period(config: RunConfig, dp: Datapath, mul_spec: str):
    """Verified ``period -> MRE %`` of the design using *mul_spec* only,
    with the synthesis report it was read from.

    The target is the loosest budget, so every point a tighter budget
    could choose is verified: ``report.chosen_point`` for a budget is the
    fastest point whose measured MRE meets it.
    """
    report = run_synthesis(
        config,
        dp,
        AccuracyTarget("mre", max(BUDGETS)),
        steps=range(1, 2 * (N + config.delta) + 1),
        mul_specs=(mul_spec,),
    )
    return {p["b"]: p["measured_mre_percent"] for p in report.points}, report


def main() -> None:
    config = RunConfig(ndigits=N, seed=2014, cache_dir=None)
    dp = build_datapath()
    print("synthesizing the complex-MAC datapath in both arithmetics...")
    curves, rows = {}, []
    for arith, spec in STYLES:
        curve, report = mre_by_period(config, dp, spec)
        floor = curve[max(curve)]
        settled = min(b for b, mre in curve.items() if mre == floor)
        curves[arith] = (curve, settled)
        rows.append(
            [arith, report.points[0]["area_luts"], min(curve), settled,
             f"{floor:.4f}%"]
        )
    print(
        format_table(
            ["arithmetic", "LUTs", "fastest verified period",
             "settled period", "settled MRE"],
            rows,
        )
    )
    print()

    reference = curves["traditional"][1]

    def mre_at(arith: str, period: int) -> str:
        mre = curves[arith][0].get(period)
        return "pruned" if mre is None else f"{mre:.4f}%"

    rows = []
    for f in FACTORS:
        period = floor_ratio(reference, f)
        rows.append(
            [f"{f:.2f}x", period, mre_at("traditional", period),
             mre_at("online", period)]
        )
    print(
        format_table(
            ["overclock", "period", "traditional MRE", "online MRE"],
            rows,
            title="design question 1: error at a given frequency",
        )
    )
    print()

    def speedup(arith: str, budget: float) -> str:
        meeting = [b for b, mre in curves[arith][0].items() if mre <= budget]
        if not meeting:
            return "N/A"
        return f"{100 * (reference / min(meeting) - 1):.2f}%"

    rows = [
        [f"{budget}%", speedup("traditional", budget), speedup("online", budget)]
        for budget in BUDGETS
    ]
    print(
        format_table(
            ["MRE budget", "traditional speedup", "online speedup"],
            rows,
            title="design question 2: frequency gain within an error budget",
        )
    )


if __name__ == "__main__":
    main()
