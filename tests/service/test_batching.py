"""Micro-batching: compatible requests fuse into one evaluation whose
split responses are byte-identical to solo runs.

Same test style as ``test_daemon.py``: each test drives its own event
loop with ``asyncio.run`` against a real daemon socket; the real
evaluator is used wherever bit-identity is the claim under test, and
injected evaluators wherever failure-path splitting is.
"""

import asyncio
import json
import time

import pytest

from repro.obs.metrics import metrics
from repro.runners.config import RunConfig
from repro.runners.parallel import CancelToken
from repro.service import EvalService, ServiceClient, ServiceConfig
from repro.service.batch import MicroBatcher, merge_requests
from repro.service.daemon import evaluate_request
from repro.service.requests import parse_request


BASE = RunConfig(ndigits=3, seed=7, jobs=1, cache_dir=None)


def service_config(**overrides):
    kwargs = dict(
        run_config=BASE,
        concurrency=2,
        batch_window=0.25,
        failure_threshold=2,
        reset_timeout=0.2,
        drain_timeout=2.0,
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


def counted(evaluator):
    """Wrap an evaluator, recording each invocation's coalescing key."""
    calls = []

    def wrapped(req, token):
        calls.append(req.key)
        return evaluator(req, token)

    return wrapped, calls


async def started(config=None, evaluator=None):
    service = EvalService(config or service_config(), evaluator=evaluator)
    await service.start()
    client = await ServiceClient.connect("127.0.0.1", service.port)
    return service, client


async def finish(service, client):
    await client.aclose()
    await service.drain()


def canonical(response):
    return json.dumps(response["result"], sort_keys=True)


def parse(kind, params, deadline=None):
    return parse_request(
        {"id": "t", "kind": kind, "params": params, "deadline": deadline},
        base_config=BASE,
    )


class TestMergeRequests:
    def test_union_grid_carries_the_organic_content_address(self):
        r1 = parse("montecarlo", {"samples": 80, "depths": [2, 4]})
        r2 = parse("montecarlo", {"samples": 80, "depths": [3]})
        merged = merge_requests([r1, r2])
        assert merged.params["depths"] == (2, 3, 4)
        # the merged request is indistinguishable from an organic
        # request for the union grid — same key, same cache entry
        organic = parse("montecarlo", {"samples": 80, "depths": [2, 3, 4]})
        assert merged.key == organic.key
        assert merged.batch_key == r1.batch_key

    def test_sweep_union_steps(self):
        r1 = parse("sweep", {"samples": 80, "steps": [1, 2]})
        r2 = parse("sweep", {"samples": 80, "steps": [2, 3]})
        merged = merge_requests([r1, r2])
        assert merged.params["steps"] == (1, 2, 3)

    def test_different_batch_classes_refuse_to_merge(self):
        r1 = parse("montecarlo", {"samples": 80, "depths": [2]})
        r2 = parse("montecarlo", {"samples": 81, "depths": [3]})
        assert r1.batch_key != r2.batch_key
        with pytest.raises(ValueError):
            merge_requests([r1, r2])

    def test_synthesis_is_never_batchable(self):
        req = parse("synthesis", {"samples": 50})
        assert req.batch_key is None

    def test_deadline_is_part_of_the_compatibility_class(self):
        r1 = parse("montecarlo", {"samples": 80, "depths": [2]}, deadline=5.0)
        r2 = parse("montecarlo", {"samples": 80, "depths": [3]})
        assert r1.batch_key != r2.batch_key


class TestMicroBatcherValidation:
    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda members: None, window=0.0)

    def test_rejects_unbatchable_request(self):
        async def main():
            batcher = MicroBatcher(lambda members: None, window=0.01)
            req = parse("synthesis", {"samples": 50})
            with pytest.raises(ValueError):
                await batcher.submit(req)

        asyncio.run(main())


class TestBatchedBitIdentity:
    def test_compatible_requests_fuse_once_and_split_bit_identical(self):
        metrics().reset()
        evaluator, calls = counted(evaluate_request)

        async def main():
            service, client = await started(evaluator=evaluator)
            # both land inside one gather window -> one fused evaluation
            b1, b2 = await asyncio.gather(
                client.request("montecarlo", {"samples": 80,
                                              "depths": [2, 4]}),
                client.request("montecarlo", {"samples": 80, "depths": [3]}),
            )
            # replay each request alone -> the ordinary solo path
            s1 = await client.request(
                "montecarlo", {"samples": 80, "depths": [2, 4]}
            )
            s2 = await client.request(
                "montecarlo", {"samples": 80, "depths": [3]}
            )
            await finish(service, client)
            return b1, b2, s1, s2

        b1, b2, s1, s2 = asyncio.run(main())
        merged = parse("montecarlo", {"samples": 80, "depths": [2, 3, 4]})
        assert calls[0] == merged.key  # the fused union-grid evaluation
        assert len(calls) == 3  # 1 fused + 2 solo replays
        for batched, solo in ((b1, s1), (b2, s2)):
            assert batched["ok"] and solo["ok"]
            assert batched["key"] == solo["key"]
            assert canonical(batched) == canonical(solo)  # byte-identical
        assert b1["result"]["depths"] == [2, 4]
        assert b2["result"]["depths"] == [3]
        counters = metrics().snapshot()["counters"]
        assert counters["service.batched"] == 2
        assert "service.batch_size" in metrics().snapshot()["histograms"]

    def test_batched_sweep_recomputes_member_error_free_step(self):
        evaluator, calls = counted(evaluate_request)

        async def main():
            service, client = await started(evaluator=evaluator)
            b1, b2 = await asyncio.gather(
                client.request("sweep", {"samples": 80, "steps": [1, 2]}),
                client.request("sweep", {"samples": 80, "steps": [2, 3]}),
            )
            s1 = await client.request(
                "sweep", {"samples": 80, "steps": [1, 2]}
            )
            s2 = await client.request(
                "sweep", {"samples": 80, "steps": [2, 3]}
            )
            await finish(service, client)
            return b1, b2, s1, s2

        b1, b2, s1, s2 = asyncio.run(main())
        assert len(calls) == 3
        for batched, solo in ((b1, s1), (b2, s2)):
            # the whole payload — including the grid-dependent
            # error_free_step — must match the solo spelling
            assert canonical(batched) == canonical(solo)
        assert b1["result"]["steps"] == [1, 2]
        assert b2["result"]["steps"] == [2, 3]

    def test_members_keep_their_own_ids(self):
        async def main():
            service, client = await started(evaluator=evaluate_request)
            r1, r2 = await asyncio.gather(
                client.request("montecarlo", {"samples": 80, "depths": [2]}),
                client.request("montecarlo", {"samples": 80, "depths": [3]}),
            )
            await finish(service, client)
            return r1, r2

        r1, r2 = asyncio.run(main())
        assert r1["id"] != r2["id"]
        assert r1["result"]["depths"] == [2]
        assert r2["result"]["depths"] == [3]


class TestPerMemberCacheWrites:
    def test_batched_members_cache_under_their_own_keys(self, tmp_path):
        evaluator, calls = counted(evaluate_request)
        config = service_config(
            run_config=BASE.with_(cache_dir=str(tmp_path))
        )

        async def main():
            service, client = await started(config, evaluator=evaluator)
            b1, _ = await asyncio.gather(
                client.request("montecarlo", {"samples": 60,
                                              "depths": [2, 4]}),
                client.request("montecarlo", {"samples": 60, "depths": [3]}),
            )
            # a later solo request must cache-hit exactly as if its
            # member had run alone
            replay = await client.request(
                "montecarlo", {"samples": 60, "depths": [2, 4]}
            )
            await finish(service, client)
            return b1, replay

        b1, replay = asyncio.run(main())
        assert len(calls) == 1  # the replay never reached an evaluator
        assert replay["cached"] is True
        assert canonical(replay) == canonical(b1)


class TestCompatibilityBoundaries:
    def test_incompatible_requests_evaluate_separately(self):
        evaluator, calls = counted(evaluate_request)

        async def main():
            service, client = await started(evaluator=evaluator)
            await asyncio.gather(
                client.request("montecarlo", {"samples": 80, "depths": [2]}),
                client.request("montecarlo", {"samples": 81, "depths": [3]}),
            )
            await finish(service, client)

        asyncio.run(main())
        assert len(calls) == 2

    def test_single_member_window_is_invisible(self):
        metrics().reset()
        evaluator, calls = counted(evaluate_request)

        async def main():
            service, client = await started(evaluator=evaluator)
            resp = await client.request(
                "montecarlo", {"samples": 80, "depths": [2]}
            )
            await finish(service, client)
            return resp

        resp = asyncio.run(main())
        solo = parse("montecarlo", {"samples": 80, "depths": [2]})
        assert calls == [solo.key]  # evaluated under its own key, unmerged
        assert resp["ok"] is True
        assert "service.batched" not in metrics().snapshot()["counters"]

    def test_max_batch_closes_the_window_early(self):
        evaluator, calls = counted(evaluate_request)
        # a 30s window would time the test out unless max_batch fires
        config = service_config(batch_window=30.0, batch_max=2)

        async def main():
            service, client = await started(config, evaluator=evaluator)
            t0 = time.monotonic()
            await asyncio.gather(
                client.request("montecarlo", {"samples": 80, "depths": [2]}),
                client.request("montecarlo", {"samples": 80, "depths": [3]}),
            )
            elapsed = time.monotonic() - t0
            await finish(service, client)
            return elapsed

        elapsed = asyncio.run(main())
        assert len(calls) == 1
        assert elapsed < 10.0


class TestFailureSplitting:
    def test_degraded_fused_run_answers_members_exactly(self):
        # a real pool fault: both pools the runner tries time out (one
        # 8-digit 5000-sample shard takes several ms), so the fused run
        # finishes inline — exact, but a pool failure
        healthy = BASE.with_(ndigits=8, shard_size=5000)
        faulty = healthy.with_(jobs=2, shard_timeout=0.001)
        config = service_config(
            run_config=faulty, failure_threshold=1, reset_timeout=60.0
        )
        evaluator, calls = counted(evaluate_request)
        grids = ([2, 4], [3])

        def pair(client, samples):
            return asyncio.gather(*(
                client.request("montecarlo",
                               {"samples": samples, "depths": grid})
                for grid in grids
            ))

        async def main():
            service, client = await started(config, evaluator=evaluator)
            fused = await pair(client, 10000)
            state = service.breaker.state
            later = await pair(client, 10001)
            await finish(service, client)
            return fused, state, later

        fused, state, later = asyncio.run(main())
        assert len(calls) == 1  # one fused evaluation, never retried
        assert state == "open"  # one degraded evaluation, one failure
        for resp, grid in zip(fused, grids):
            solo = evaluate_request(
                parse_request(
                    {"kind": "montecarlo",
                     "params": {"samples": 10000, "depths": grid}},
                    base_config=healthy,
                ),
                CancelToken(),
            )
            assert "degraded" not in resp
            assert canonical(resp) == json.dumps(solo, sort_keys=True)
        # breaker open: each member's analytical answer covers its own
        # grid, and neither reaches the evaluator
        for resp, grid in zip(later, grids):
            assert resp["degraded"] is True
            assert resp["source"] == "analytical-model"
            assert [row["depth"] for row in resp["result"]["rows"]] == grid
        assert later[0]["id"] != later[1]["id"]

    def test_deterministic_error_is_copied_per_member(self):
        def explode(req, token):
            raise ValueError("bad geometry")

        async def main():
            service, client = await started(evaluator=explode)
            r1, r2 = await asyncio.gather(
                client.request("montecarlo", {"samples": 80, "depths": [2]}),
                client.request("montecarlo", {"samples": 80, "depths": [3]}),
            )
            await finish(service, client)
            return r1, r2

        r1, r2 = asyncio.run(main())
        for resp in (r1, r2):
            assert resp["ok"] is False
            assert resp["code"] == "error"
            assert "bad geometry" in resp["error"]
        assert r1["id"] != r2["id"]

    def test_drain_aborts_a_gathering_window(self):
        config = service_config(batch_window=30.0)

        async def main():
            service, client = await started(
                config, evaluator=evaluate_request
            )
            pending = asyncio.ensure_future(
                client.request("montecarlo", {"samples": 80, "depths": [2]})
            )
            while service.batcher.depth == 0:
                await asyncio.sleep(0.01)
            await service.drain()
            resp = await pending
            await client.aclose()
            return resp

        resp = asyncio.run(main())
        assert resp["ok"] is False
        assert resp["code"] == "draining"
