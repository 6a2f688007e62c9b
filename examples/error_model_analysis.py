#!/usr/bin/env python3
"""Analytical error model vs Monte-Carlo simulation (paper Section 3).

Reproduces the reasoning behind Figs. 4 and 5: chain-delay statistics of
the online multiplier, the probability that an overclocked register
catches a chain mid-flight (Algorithm 2), the expected overclocking error,
and the verification of the model against a stage-delay Monte-Carlo.

Run:  python examples/error_model_analysis.py [N]
"""

import sys

from repro import OverclockingErrorModel
from repro.runners import RunConfig
from repro.sim import run_montecarlo
from repro.sim.reporting import format_table


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    model = OverclockingErrorModel(n)

    print(f"=== chain statistics of the {n}-digit online multiplier ===")
    rows = [
        [d, f"{p:.4f}", f"{eps:.3e}", f"{e:.3e}"]
        for d, p, eps, e in model.per_delay_curves()
    ]
    print(
        format_table(
            ["chain delay d", "intensity P_d", "magnitude eps_d", "P_d*eps_d"],
            rows,
            title="Fig. 5 data: probability and magnitude per chain delay",
        )
    )
    print()
    longest = max(d for d, _p, _e, _pe in model.per_delay_curves())
    print(
        f"longest chain: {longest} stages, vs {model.num_stages} structural "
        f"stages -> {100 * (1 - longest / model.num_stages):.0f}% timing "
        "headroom from chain annihilation"
    )
    print()

    print("=== model vs Monte-Carlo (Fig. 4 top row) ===")
    mc = run_montecarlo(RunConfig(ndigits=n, seed=1), num_samples=20000)
    rows = []
    for i, b in enumerate(mc.depths):
        b = int(b)
        if b >= model.num_stages:
            e_model = 0.0
            p_model = 0.0
        else:
            e_model = model.expected_error(b)
            p_model = model.violation_probability(b)
        rows.append(
            [
                b,
                f"{b / model.num_stages:.3f}",
                f"{mc.mean_abs_error[i]:.3e}",
                f"{e_model:.3e}",
                f"{mc.violation_probability[i]:.4f}",
                f"{p_model:.4f}",
            ]
        )
    print(
        format_table(
            ["b", "Ts/(N+d)mu", "MC E|eps|", "model E|eps|",
             "MC P(viol)", "model P(viol)"],
            rows,
        )
    )
    print()
    print("the model tracks the Monte-Carlo in the main regime and, as the")
    print("paper notes for its own FPGA data, misses only the small-error")
    print("tail near the end of the settling process.")


if __name__ == "__main__":
    main()
