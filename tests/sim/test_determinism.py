"""Seeded reproducibility across simulation backends.

The Monte-Carlo experiments must be exactly reproducible from their seed,
and switching the evaluation engine must not change a single bit: every
engine runs the identical operator recurrence (the gate engines share
the ``LogicOps`` kernels, the vector engine evaluates the same
recurrence digit by digit), so their ``MonteCarloResult`` arrays are
required to be *equal*, not merely close.
"""

import numpy as np

from repro.runners import RunConfig
from repro.sim.montecarlo import (
    run_montecarlo,
    run_settle_histogram,
    uniform_digit_batch,
)
from repro.sim.sweep import OnlineMultiplierHarness


def _mc(seed, backend="auto"):
    config = RunConfig(ndigits=6, seed=seed, backend=backend)
    return run_montecarlo(config, num_samples=2000)


def _results_equal(a, b):
    assert a.ndigits == b.ndigits
    assert a.delta == b.delta
    assert a.num_samples == b.num_samples
    np.testing.assert_array_equal(a.depths, b.depths)
    np.testing.assert_array_equal(a.mean_abs_error, b.mean_abs_error)
    np.testing.assert_array_equal(
        a.violation_probability, b.violation_probability
    )


def test_same_seed_same_result_within_backend():
    one = _mc(42)
    two = _mc(42)
    _results_equal(one, two)


def test_backends_bit_identical():
    packed = _mc(42, "packed")
    _results_equal(packed, _mc(42, "wave"))
    _results_equal(packed, _mc(42, "vector"))


def test_different_seeds_differ():
    a = _mc(1)
    b = _mc(2)
    assert not np.array_equal(a.mean_abs_error, b.mean_abs_error)


def test_settle_histogram_backend_identical():
    def hist(backend):
        config = RunConfig(ndigits=6, seed=9, backend=backend)
        return run_settle_histogram(config, num_samples=2000)

    packed = hist("packed")
    assert packed == hist("wave") == hist("vector")
    assert abs(sum(packed.values()) - 1.0) < 1e-12


def test_gate_level_sweep_backend_identical():
    rng = np.random.default_rng(5)
    xd = uniform_digit_batch(4, 400, rng)
    yd = uniform_digit_batch(4, 400, rng)
    packed = OnlineMultiplierHarness.from_spec(
        "online-mult", ndigits=4, backend="packed"
    ).sweep(xd, yd)
    wave = OnlineMultiplierHarness.from_spec(
        "online-mult", ndigits=4, backend="wave"
    ).sweep(xd, yd)
    np.testing.assert_array_equal(packed.steps, wave.steps)
    np.testing.assert_array_equal(packed.mean_abs_error, wave.mean_abs_error)
    np.testing.assert_array_equal(
        packed.violation_probability, wave.violation_probability
    )
    assert packed.error_free_step == wave.error_free_step
    assert packed.settle_step == wave.settle_step
