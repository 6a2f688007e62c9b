"""Tests for empirical settling-depth statistics and model calibration."""

import numpy as np
import pytest

from repro.core.model import OverclockingErrorModel
from repro.runners import RunConfig
from repro.sim.montecarlo import run_montecarlo, run_settle_histogram


@pytest.fixture(scope="module")
def hist8():
    return run_settle_histogram(RunConfig(ndigits=8, seed=5), num_samples=6000)


class TestSettleDepthHistogram:
    def test_is_distribution(self, hist8):
        assert abs(sum(hist8.values()) - 1.0) < 1e-9
        assert all(v > 0 for v in hist8.values())

    def test_bounded_by_annihilation(self, hist8):
        """No sample settles later than the longest possible chain + 1."""
        longest = (8 + 2 * 3) // 2
        assert max(hist8) <= longest + 1

    def test_long_chains_are_common(self, hist8):
        """The paper's Fig. 5 observation: long chains occur with high
        probability in the OM (they are input-insensitive and overlap)."""
        deep = sum(v for d, v in hist8.items() if d >= 7)
        assert deep > 0.5

    def test_dominates_violation_curve(self, hist8):
        """P(depth > b) upper-bounds the pointwise MC violation rate (a
        sample may transiently coincide with its final value, so settling
        is not per-sample monotone), and the two agree at the deepest
        violating depth.  Both entry points draw the same operands for
        one config and sample count."""
        mc = run_montecarlo(RunConfig(ndigits=8, seed=5), num_samples=6000)
        last_violating = None
        for i, b in enumerate(mc.depths):
            tail = sum(v for d, v in hist8.items() if d > int(b))
            assert tail >= mc.violation_probability[i] - 1e-9
            if mc.violation_probability[i] > 0:
                last_violating = i
        assert last_violating is not None
        b = int(mc.depths[last_violating])
        tail = sum(v for d, v in hist8.items() if d > b)
        assert tail == pytest.approx(
            mc.violation_probability[last_violating], abs=1e-9
        )


class TestCalibration:
    def test_fit_improves_agreement(self):
        mc = run_montecarlo(RunConfig(ndigits=8, seed=7), num_samples=6000)
        model = OverclockingErrorModel(8)
        fitted = model.calibrated(
            [int(b) for b in mc.depths], mc.mean_abs_error
        )

        def loss(m):
            total = 0.0
            count = 0
            for i, b in enumerate(mc.depths):
                e_mc = mc.mean_abs_error[i]
                e_m = m.expected_error(int(b)) if int(b) < m.num_stages else 0
                if e_mc > 0 and e_m > 0:
                    total += abs(np.log(e_m / e_mc))
                    count += 1
            return total / count

        assert loss(fitted) <= loss(model) + 1e-9
        assert fitted.kappa != model.kappa

    def test_fit_requires_overlap(self):
        model = OverclockingErrorModel(8)
        with pytest.raises(ValueError):
            model.calibrated([20], [0.0])

    def test_fit_recovers_scale(self):
        """Fitting a model against its own scaled predictions recovers the
        scale factor."""
        model = OverclockingErrorModel(8, kappa=1.0)
        depths = [4, 5, 6]
        fake = [2.0 * model.expected_error(b) for b in depths]
        fitted = model.calibrated(depths, fake)
        assert fitted.kappa == pytest.approx(2.0)
