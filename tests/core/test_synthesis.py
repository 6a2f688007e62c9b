"""Tests for the datapath-synthesis front-end."""

import numpy as np
import pytest

from repro.core.synthesis import Datapath
from repro.netlist.delay import UnitDelay
from repro.runners import RunConfig
from repro.synth import run_synthesis


def _mac_datapath(n=8):
    dp = Datapath(ndigits=n)
    x, y = dp.input("x"), dp.input("y")
    w = dp.const(0.25)
    dp.output("mac", x * y + w * x)
    return dp


def _quantize(values, n=8):
    return np.round(np.asarray(values) * 2**n) / 2**n


class TestDatapathApi:
    def test_duplicate_input(self):
        dp = Datapath()
        dp.input("x")
        with pytest.raises(ValueError):
            dp.input("x")

    def test_duplicate_output(self):
        dp = Datapath()
        x = dp.input("x")
        dp.output("y", x)
        with pytest.raises(ValueError):
            dp.output("y", x)

    def test_const_validation(self):
        dp = Datapath(ndigits=4)
        with pytest.raises(ValueError):
            dp.const(1.5)  # outside (-1, 1)
        with pytest.raises(ValueError):
            dp.const(1 / 32)  # needs 5 fractional digits

    def test_cross_datapath_mixing_rejected(self):
        dp1, dp2 = Datapath(), Datapath()
        x1, x2 = dp1.input("x"), dp2.input("x")
        with pytest.raises(ValueError):
            _ = x1 + x2

    def test_no_outputs_rejected(self):
        dp = Datapath()
        dp.input("x")
        with pytest.raises(ValueError):
            dp.synthesize("online")

    def test_unknown_arithmetic(self):
        dp = _mac_datapath()
        with pytest.raises(ValueError):
            dp.synthesize("ternary")

    def test_sum_into_multiplier_rejected(self):
        dp = Datapath()
        x, y = dp.input("x"), dp.input("y")
        dp.output("bad", (x + y) * x)
        with pytest.raises(ValueError):
            dp.synthesize("online")


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("arith", ["traditional", "online"])
    def test_mac(self, arith):
        dp = _mac_datapath()
        synth = dp.synthesize(arith, UnitDelay())
        rng = np.random.default_rng(0)
        xs = rng.uniform(-0.9, 0.9, 200)
        ys = rng.uniform(-0.9, 0.9, 200)
        run = synth.apply({"x": xs, "y": ys})
        xq, yq = _quantize(xs), _quantize(ys)
        ref = xq * yq + 0.25 * xq
        tol = 3 * 2**-8 if arith == "online" else 1e-12
        assert np.abs(run.correct["mac"] - ref).max() <= tol

    @pytest.mark.parametrize("arith", ["traditional", "online"])
    def test_subtract_and_negate(self, arith):
        dp = Datapath(ndigits=6)
        x, y = dp.input("x"), dp.input("y")
        dp.output("diff", x - y)
        dp.output("neg", -x)
        synth = dp.synthesize(arith, UnitDelay())
        rng = np.random.default_rng(1)
        xs = _quantize(rng.uniform(-0.9, 0.9, 100), 6)
        ys = _quantize(rng.uniform(-0.9, 0.9, 100), 6)
        run = synth.apply({"x": xs, "y": ys})
        assert np.allclose(run.correct["diff"], xs - ys)
        assert np.allclose(run.correct["neg"], -xs)

    @pytest.mark.parametrize("arith", ["traditional", "online"])
    def test_product_of_products(self, arith):
        dp = Datapath(ndigits=6)
        x, y = dp.input("x"), dp.input("y")
        dp.output("xyy", (x * y) * y)
        synth = dp.synthesize(arith, UnitDelay())
        xs = _quantize([0.5, -0.75, 0.25], 6)
        ys = _quantize([0.5, 0.5, -0.875], 6)
        run = synth.apply({"x": np.array(xs), "y": np.array(ys)})
        ref = np.asarray(xs) * np.asarray(ys) ** 2
        tol = 5 * 2**-6 if arith == "online" else 1e-12
        assert np.abs(run.correct["xyy"] - ref).max() <= tol

    def test_scalar_constant_promotion(self):
        dp = Datapath(ndigits=6)
        x = dp.input("x")
        dp.output("scaled", 0.5 * x + 0.25)
        synth = dp.synthesize("traditional", UnitDelay())
        xs = _quantize([0.5, -0.5], 6)
        run = synth.apply({"x": np.array(xs)})
        assert np.allclose(run.correct["scaled"], 0.5 * np.asarray(xs) + 0.25)


class TestRunMechanics:
    def test_overclocking_errors_appear(self):
        dp = _mac_datapath()
        synth = dp.synthesize("traditional", UnitDelay())
        rng = np.random.default_rng(2)
        run = synth.apply(
            {"x": rng.uniform(-0.9, 0.9, 300), "y": rng.uniform(-0.9, 0.9, 300)}
        )
        assert run.error_free_step > 0
        hard = run.mean_abs_error(max(1, run.error_free_step // 2))
        assert hard > 0
        assert run.mean_abs_error(run.settle_step) == 0

    def test_encode_range_check(self):
        synth = _mac_datapath().synthesize("online", UnitDelay())
        with pytest.raises(ValueError):
            synth.encode({"x": np.array([1.5]), "y": np.array([0.0])})

    def test_encode_missing_input(self):
        synth = _mac_datapath().synthesize("online", UnitDelay())
        with pytest.raises(ValueError):
            synth.encode({"x": np.array([0.5])})

    def test_area_reports(self):
        dp = _mac_datapath()
        online = dp.synthesize("online", UnitDelay()).area()
        trad = dp.synthesize("traditional", UnitDelay()).area()
        assert online.luts > 0 and trad.luts > 0


class TestChooseDesign:
    """Choosing a design for an error budget: ``run_synthesis``'s pick."""

    @pytest.fixture(scope="class")
    def report(self):
        config = RunConfig(ndigits=8, seed=5, jobs=1, cache_dir=None)
        return run_synthesis(config, _mac_datapath(), 1.0, num_samples=1000)

    def test_returns_valid_choice(self, report):
        chosen = report.chosen_point
        assert chosen is not None
        assert chosen["b"] > 0
        assert chosen["measured_mre_percent"] <= 1.0
        assert chosen["area_luts"] > 0
        assert set(report.chosen_assignment) == {
            label for label, _kind in _mac_datapath().operator_labels()
        }

    def test_choice_is_fastest_alternative(self, report):
        chosen = report.chosen_point
        for point in report.design_points():
            if point["meets_target"]:
                assert chosen["latency_gates"] <= point["latency_gates"]

    def test_negative_budget_rejected(self):
        config = RunConfig(ndigits=8, jobs=1, cache_dir=None)
        with pytest.raises(ValueError, match="negative"):
            run_synthesis(config, _mac_datapath(), -1.0, num_samples=50)
