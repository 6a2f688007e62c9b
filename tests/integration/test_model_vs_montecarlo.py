"""Integration: the analytical model tracks the Monte-Carlo simulation.

This is the verification the paper performs in Fig. 4 (top row): the
Section-3 model, evaluated under its own timing assumptions, should agree
with a stage-delay Monte-Carlo of the actual multiplier recurrence on
uniform-independent inputs — same order of magnitude and the same
exponential decay with sampling depth.
"""

import numpy as np
import pytest

from repro.core.model import OverclockingErrorModel
from repro.runners import RunConfig
from repro.sim.montecarlo import run_montecarlo


@pytest.fixture(scope="module", params=[8, 12])
def pair(request):
    n = request.param
    mc = run_montecarlo(RunConfig(ndigits=n, seed=11), num_samples=6000)
    model = OverclockingErrorModel(n)
    return n, mc, model


class TestModelAgreement:
    def test_same_order_of_magnitude_in_main_regime(self, pair):
        n, mc, model = pair
        checked = 0
        for i, b in enumerate(mc.depths):
            b = int(b)
            e_mc = mc.mean_abs_error[i]
            e_model = model.expected_error(b)
            if e_mc > 1e-4 and e_model > 0:
                ratio = e_model / e_mc
                assert 0.2 <= ratio <= 5.0, (n, b, e_mc, e_model)
                checked += 1
        assert checked >= 2

    def test_same_decay_rate(self, pair):
        """Both decay roughly geometrically (factor ~2-8 per stage)."""
        _n, mc, model = pair
        depths = [int(b) for b in mc.depths]
        for seq_source in ("mc", "model"):
            vals = []
            for i, b in enumerate(depths):
                v = (
                    mc.mean_abs_error[i]
                    if seq_source == "mc"
                    else model.expected_error(b)
                )
                if v > 1e-6:
                    vals.append(v)
            ratios = [a / b for a, b in zip(vals, vals[1:])]
            assert all(r > 1.5 for r in ratios), (seq_source, vals)

    def test_violation_probability_tracks(self, pair):
        """Where the model predicts certain violation, the MC sees a high
        violation rate, and where it predicts none, the MC rate is small
        (the model's known tail optimism, acknowledged by the paper)."""
        _n, mc, model = pair
        for i, b in enumerate(mc.depths):
            b = int(b)
            if b >= model.num_stages:
                continue
            p_model = model.violation_probability(b)
            p_mc = mc.violation_probability[i]
            if p_model >= 1.0:
                assert p_mc > 0.8
            if p_mc == 0.0:
                assert p_model == 0.0

    def test_model_zero_tail_is_at_most_one_stage_early(self, pair):
        """The model's predicted last violating depth may undershoot the
        MC by at most one stage (the small-error tail the paper notes its
        model does not capture)."""
        _n, mc, model = pair
        mc_last = max(
            (int(b) for b, e in zip(mc.depths, mc.mean_abs_error) if e > 0),
            default=0,
        )
        model_last = max(
            (b for b in range(4, model.num_stages) if model.expected_error(b) > 0),
            default=0,
        )
        assert mc_last - model_last <= 1
