"""Golden-value pinning of the N=8 Monte-Carlo error curve.

``run_montecarlo`` is fully deterministic given its seed and shard size,
and the simulation engines are bit-identical, so the mean-absolute-error
at any sampling depth is a *constant* of the repository.  Pinning three
depths to stored values turns any silent numerical drift — a kernel
change, an ops-provider change, a packing bug, a change to the shard
seed stream — into a loud test failure.

The constants are what ``repro model`` prints by default: the seed-2014,
20000-sample run (Fig. 4 top, N=8, delta=3, default shard size).
"""

import numpy as np
import pytest

from repro.runners import RunConfig
from repro.sim.montecarlo import run_montecarlo

#: depth b -> (E|eps|, P(violation)) for N=8, delta=3, seed=2014, S=20000
GOLDEN = {
    4: (0.1548701171875, 0.986),
    5: (0.039287109375, 0.94795),
    6: (0.009794921875, 0.8221),
}

TOL = 1e-12


@pytest.fixture(scope="module", params=["packed", "wave", "vector"])
def mc(request):
    config = RunConfig(ndigits=8, seed=2014, backend=request.param)
    return run_montecarlo(config, num_samples=20000)


@pytest.mark.parametrize("depth", sorted(GOLDEN))
def test_mean_abs_error_pinned(mc, depth):
    want_err, want_viol = GOLDEN[depth]
    got_err, got_viol = mc.at_depth(depth)
    assert got_err == pytest.approx(want_err, abs=TOL)
    assert got_viol == pytest.approx(want_viol, abs=TOL)


def test_settled_depths_are_error_free(mc):
    """From depth N (=8) on, every sample has settled: exact zero error."""
    for depth in range(8, int(mc.depths[-1]) + 1):
        err, viol = mc.at_depth(depth)
        assert err == 0.0
        assert viol == 0.0


def test_curve_is_monotone_decreasing(mc):
    assert np.all(np.diff(mc.mean_abs_error) <= 0)
    assert np.all(np.diff(mc.violation_probability) <= 0)
