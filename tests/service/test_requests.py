"""Request parsing: strict validation onto the experiments' cache keys."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.runners.cache import cache_key
from repro.runners.config import RunConfig
from repro.service.requests import (
    MAX_NDIGITS,
    REQUEST_CLASSES,
    EvalRequest,
    RequestError,
    parse_request,
)
from repro.sim.montecarlo import default_depths, montecarlo_key_components
from repro.sim.sweep import stage_sweep_key_components


BASE = RunConfig(ndigits=4, seed=7, jobs=1, cache_dir=None)


def parse(message, **kwargs):
    return parse_request(message, base_config=BASE, **kwargs)


class TestMonteCarlo:
    def test_key_matches_the_entry_points_cache_key(self):
        req = parse(
            {"kind": "montecarlo", "params": {"samples": 500,
                                              "depths": [2, 4, 6]}}
        )
        expected = cache_key(
            **montecarlo_key_components(BASE, 500, [2, 4, 6])
        )
        assert req.key == expected
        assert req.cache_key == expected  # whole-result cached experiment

    def test_default_depths_mirror_the_entry_point(self):
        req = parse({"kind": "montecarlo", "params": {"samples": 100}})
        assert list(req.params["depths"]) == default_depths(
            BASE.ndigits, BASE.delta
        )

    def test_depth_order_is_normalized_into_the_key(self):
        a = parse({"kind": "montecarlo",
                   "params": {"samples": 100, "depths": [6, 2, 4]}})
        b = parse({"kind": "montecarlo",
                   "params": {"samples": 100, "depths": [2, 4, 6]}})
        assert a.key == b.key

    def test_different_seed_different_key(self):
        a = parse({"kind": "montecarlo", "params": {"samples": 100}})
        b = parse({"kind": "montecarlo",
                   "params": {"samples": 100, "seed": 8}})
        assert a.key != b.key
        assert b.config.seed == 8


class TestEngineIsNotIdentity:
    """The engine is an execution detail: every key ignores it."""

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("montecarlo", {"samples": 500, "depths": [2, 4]}),
            ("sweep", {"samples": 500, "steps": [2, 4]}),
            ("synthesis", {"samples": 100, "datapath": "mac"}),
        ],
    )
    def test_keys_equal_under_every_engine(self, kind, params):
        reqs = [
            parse({"kind": kind, "params": dict(params, backend=backend)})
            for backend in ("packed", "vector", "auto")
        ]
        reqs.append(parse({"kind": kind, "params": params}))
        assert len({r.key for r in reqs}) == 1
        assert len({r.cache_key for r in reqs}) == 1
        assert len({r.batch_key for r in reqs}) == 1
        # the engine a request names is still the one it runs on
        assert [r.config.backend for r in reqs] == [
            "packed", "vector", "auto", BASE.backend
        ]


class TestSweep:
    def test_key_matches_the_stage_sweep_key(self):
        req = parse({"kind": "sweep",
                     "params": {"samples": 300, "steps": [1, 3, 5]}})
        expected = cache_key(
            **stage_sweep_key_components(BASE, "online", 300, [1, 3, 5])
        )
        assert req.key == expected

    def test_steps_clamp_to_the_settle_depth(self):
        s_tot = BASE.ndigits + BASE.delta
        req = parse({"kind": "sweep",
                     "params": {"samples": 300, "steps": [1, s_tot + 9]}})
        assert max(req.params["steps"]) == s_tot

    def test_periods_and_steps_are_exclusive(self):
        with pytest.raises(RequestError):
            parse({"kind": "sweep",
                   "params": {"samples": 300, "steps": [1],
                              "periods": [0.5]}})


class TestSynthesis:
    def test_normalizes_target(self):
        req = parse({"kind": "synthesis",
                     "params": {"samples": 200, "target_snr": 30.0}})
        assert req.params["target_metric"] == "snr"
        assert req.params["target_value"] == 30.0
        assert req.cache_key is None  # no whole-report cache entry

    def test_both_targets_rejected(self):
        with pytest.raises(RequestError):
            parse({"kind": "synthesis",
                   "params": {"target_mre": 5.0, "target_snr": 30.0}})

    def test_unknown_datapath_rejected(self):
        with pytest.raises(RequestError) as exc_info:
            parse({"kind": "synthesis", "params": {"datapath": "fft"}})
        assert "prodsum" in str(exc_info.value)


class TestValidation:
    @pytest.mark.parametrize(
        "message",
        [
            {"kind": "warp"},
            {"kind": "montecarlo", "params": {"samples": 0}},
            {"kind": "montecarlo", "params": {"samples": "many"}},
            {"kind": "montecarlo", "params": {"depths": []}},
            {"kind": "montecarlo", "params": {"depths": [1, -2]}},
            {"kind": "montecarlo", "params": {"bogus": 1}},
            {"kind": "montecarlo", "params": {"ndigits": 0}},
            {"kind": "montecarlo", "deadline": 0},
            {"kind": "montecarlo", "deadline": -1.0},
            {"kind": "montecarlo", "params": "nope"},
            {"kind": "sweep", "params": {"periods": [0.0]}},
            {"kind": "montecarlo", "params": {"ndigits": MAX_NDIGITS + 1}},
            {"kind": "synthesis", "params": {"wordlengths": [0]}},
            {"kind": "synthesis", "params": {"wordlengths": [4, -1]}},
            {"kind": "synthesis",
             "params": {"wordlengths": [MAX_NDIGITS + 1]}},
        ],
    )
    def test_rejected(self, message):
        with pytest.raises(RequestError):
            parse(message)

    def test_sample_ceiling_enforced(self):
        with pytest.raises(RequestError) as exc_info:
            parse({"kind": "montecarlo", "params": {"samples": 10_000}},
                  max_samples=5000)
        assert "samples" in str(exc_info.value)

    def test_default_deadline_applies_when_absent(self):
        req = parse({"kind": "montecarlo", "params": {"samples": 10}},
                    default_deadline=12.5)
        assert req.deadline == 12.5
        explicit = parse(
            {"kind": "montecarlo", "params": {"samples": 10},
             "deadline": 3.0},
            default_deadline=12.5,
        )
        assert explicit.deadline == 3.0

    def test_result_is_frozen(self):
        req = parse({"kind": "montecarlo", "params": {"samples": 10}})
        assert isinstance(req, EvalRequest)
        with pytest.raises(AttributeError):
            req.kind = "sweep"


#: any JSON value (json.loads also yields NaN and +-Infinity)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

#: every parameter name some request kind accepts, so generated params
#: reach the value checks instead of stopping at "unknown parameter"
PARAM_NAMES = (
    "backend", "datapath", "delta", "depths", "ndigits", "periods",
    "samples", "seed", "steps", "target_mre", "target_snr", "wordlengths",
)


class TestParseProperty:
    @settings(max_examples=200, deadline=None)
    @example(kind="sweep", params={"periods": [math.inf]}, deadline=None)
    @example(kind="sweep", params={"periods": [10**400]}, deadline=None)
    @example(kind="synthesis", params={"target_mre": 10**400}, deadline=None)
    @example(kind="montecarlo", params={}, deadline=10**400)
    @given(
        kind=st.sampled_from(REQUEST_CLASSES),
        params=JSON | st.dictionaries(
            st.sampled_from(PARAM_NAMES), JSON, max_size=4
        ),
        deadline=JSON,
    )
    def test_any_json_parses_or_raises_request_error(
        self, kind, params, deadline
    ):
        try:
            req = parse({"kind": kind, "params": params, "deadline": deadline})
        except RequestError:
            return
        assert isinstance(req, EvalRequest)
