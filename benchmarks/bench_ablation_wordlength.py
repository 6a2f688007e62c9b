"""Ablation: how the overclocking error scales with operand word length.

The model (and the Monte-Carlo) predict that at a fixed *absolute* stage
depth ``b`` the expected error is nearly independent of ``N`` (chains are
local), while at a fixed *normalized* period longer words gain more
annihilation headroom — the reason the paper's Fig. 5 spans N = 8..32.
"""

import pytest

from _common import emit, run_config
from repro.core.model import OverclockingErrorModel
from repro.sim.montecarlo import run_montecarlo
from repro.sim.reporting import format_table

WORD_LENGTHS = (8, 12, 16, 24, 32)


def test_ablation_wordlength(benchmark):
    rows = []
    fixed_b = 6
    for n in WORD_LENGTHS:
        model = OverclockingErrorModel(n)
        mc = run_montecarlo(run_config(ndigits=n, seed=9), num_samples=4000)
        e_model = model.expected_error(fixed_b)
        e_mc, _ = mc.at_depth(fixed_b)
        longest = max(d for d, _p, _e, _pe in model.per_delay_curves())
        headroom = 1 - longest / model.num_stages
        rows.append(
            [
                n,
                f"{e_model:.3e}",
                f"{e_mc:.3e}",
                longest,
                model.num_stages,
                f"{100 * headroom:.0f}%",
            ]
        )
    emit(
        "ablation_wordlength",
        format_table(
            ["N", f"model E|eps| (b={fixed_b})", f"MC E|eps| (b={fixed_b})",
             "longest chain", "stages", "annihilation headroom"],
            rows,
            title="Ablation: word-length scaling of the overclocking error",
        ),
    )

    # chains are local: error at fixed depth varies by < 10x across N
    errs = [float(r[1]) for r in rows]
    assert max(errs) / min(errs) < 10.0
    # headroom grows with N
    heads = [int(r[5].rstrip("%")) for r in rows]
    assert heads[-1] > heads[0]

    benchmark(run_montecarlo, run_config(ndigits=8, seed=9), 2000)
