"""End-to-end daemon tests: socket round trips, coalescing, shedding,
breaker/degraded answers, deadlines and graceful drain.

No pytest-asyncio here by design — each test drives its own event loop
with ``asyncio.run``, which also guarantees the daemon's lifecycle is
exercised from a cold loop every time (exactly how ``repro serve``
runs it).  Service semantics (coalescing, shedding, deadlines, drain)
use injected evaluators; the breaker is driven by a real pool fault
through the real evaluator, since its only input is the runner's own
degrade report.
"""

import asyncio
import dataclasses
import json
import threading
import time

import pytest

from repro.obs.metrics import metrics
from repro.runners.config import RunConfig
from repro.runners.parallel import CancelToken, RunCancelled
from repro.service import EvalService, ServiceClient, ServiceConfig
from repro.service.daemon import MAX_LINE_BYTES, evaluate_request
from repro.service.requests import parse_request
from repro.synth.search import REF_FRAC


BASE = RunConfig(ndigits=3, seed=7, jobs=1, shard_size=500, cache_dir=None)

#: a real pool fault: every 500-sample shard overruns a 1 ms budget, so
#: the runner loses each pool it tries and finishes the run inline
TIMEOUT_FAULT = BASE.with_(jobs=2, shard_timeout=0.001)
TIMEOUT_REASON = "shard exceeded shard_timeout=0.001s"

#: a real deterministic evaluator error: parse accepts wordlengths up to
#: MAX_NDIGITS, synthesis verification only up to its reference precision
BAD_SYNTHESIS = {"samples": 100, "wordlengths": [REF_FRAC + 1]}


def service_config(**overrides):
    kwargs = dict(
        run_config=BASE,
        concurrency=2,
        failure_threshold=2,
        reset_timeout=0.2,
        drain_timeout=2.0,
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


async def started(config=None, evaluator=None):
    service = EvalService(config or service_config(), evaluator=evaluator)
    await service.start()
    client = await ServiceClient.connect("127.0.0.1", service.port)
    return service, client


async def finish(service, client):
    await client.aclose()
    await service.drain()


def counted():
    """The real evaluator, recording the key of every call."""
    calls = []

    def evaluate(req, token):
        calls.append(req.key)
        return evaluate_request(req, token)

    return evaluate, calls


def solo(params):
    """The unfaulted answer to one montecarlo request, as the wire has it."""
    req = parse_request(
        {"kind": "montecarlo", "params": params}, base_config=BASE
    )
    return json.loads(json.dumps(evaluate_request(req, CancelToken())))


def cooperative_slow(duration):
    """An evaluator that honors the runner cancel token."""

    def evaluate(req, token):
        deadline = time.monotonic() + duration
        while time.monotonic() < deadline:
            if token.cancelled:
                raise RunCancelled(token.reason or "cancelled")
            time.sleep(0.01)
        return {"slept": duration}

    return evaluate


class TestRoundTrip:
    def test_real_montecarlo_over_the_socket(self):
        async def main():
            service, client = await started()
            resp = await client.request(
                "montecarlo", {"samples": 80, "depths": [2, 4]}
            )
            await finish(service, client)
            return resp

        resp = asyncio.run(main())
        assert resp["ok"] is True
        assert resp["kind"] == "montecarlo"
        assert resp["result"]["depths"] == [2, 4]
        assert len(resp["result"]["mean_abs_error"]) == 2
        assert "degraded" not in resp

    def test_health_endpoints(self):
        async def main():
            service, client = await started()
            health = await client.request("healthz")
            ready = await client.request("readyz")
            stats = await client.request("stats")
            await finish(service, client)
            return health, ready, stats

        health, ready, stats = asyncio.run(main())
        assert health["ok"] and health["status"] == "alive"
        assert ready["ok"] and ready["status"] == "ready"
        assert stats["breaker"] == "closed"
        assert stats["queue_depth"] == 0

    def test_bad_requests_answered_not_dropped(self):
        async def main():
            service, client = await started()
            unknown = await client.request("teleport")
            bad_param = await client.request(
                "montecarlo", {"samples": 10, "bogus": 1}
            )
            await finish(service, client)
            return unknown, bad_param

        unknown, bad_param = asyncio.run(main())
        assert unknown == {
            "ok": False, "code": "bad_request", "id": unknown["id"],
            "error": unknown["error"],
        }
        assert "bogus" in bad_param["error"]


class TestCoalescing:
    def test_n_identical_concurrent_requests_one_evaluation(self):
        metrics().reset()
        evaluations = []
        release = threading.Event()

        def evaluate(req, token):
            evaluations.append(req.key)
            release.wait(timeout=5.0)
            return {"value": 42}

        async def main():
            service, client = await started(evaluator=evaluate)
            tasks = [
                asyncio.ensure_future(
                    client.request("montecarlo",
                                   {"samples": 100, "depths": [3]})
                )
                for _ in range(8)
            ]
            # let every request reach the coalescer before releasing
            while len(evaluations) == 0 or service.coalescer.depth == 0:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            release.set()
            responses = await asyncio.gather(*tasks)
            await finish(service, client)
            return responses

        responses = asyncio.run(main())
        assert len(evaluations) == 1  # exactly one pool evaluation
        assert all(r["ok"] and r["result"]["value"] == 42 for r in responses)
        assert sum(r.get("coalesced", False) for r in responses) == 7
        counters = metrics().snapshot()["counters"]
        assert counters["service.coalesce_hits"] == 7

    def test_distinct_requests_do_not_coalesce(self):
        evaluations = []

        def evaluate(req, token):
            evaluations.append(req.key)
            return {"ok": 1}

        async def main():
            service, client = await started(evaluator=evaluate)
            await asyncio.gather(
                client.request("montecarlo", {"samples": 100, "depths": [3]}),
                client.request("montecarlo", {"samples": 101, "depths": [3]}),
            )
            await finish(service, client)

        asyncio.run(main())
        assert len(evaluations) == 2
        assert evaluations[0] != evaluations[1]

    def test_followers_get_their_own_request_id(self):
        release = threading.Event()

        def evaluate(req, token):
            release.wait(timeout=5.0)
            return {"v": 1}

        async def main():
            service, client = await started(evaluator=evaluate)
            t1 = asyncio.ensure_future(
                client.request("montecarlo", {"samples": 100, "depths": [3]})
            )
            t2 = asyncio.ensure_future(
                client.request("montecarlo", {"samples": 100, "depths": [3]})
            )
            await asyncio.sleep(0.1)
            release.set()
            r1, r2 = await asyncio.gather(t1, t2)
            await finish(service, client)
            return r1, r2

        r1, r2 = asyncio.run(main())
        assert r1["id"] != r2["id"]  # correlation survives coalescing


class TestCacheShortCircuit:
    def test_cached_result_answers_without_evaluating(self, tmp_path):
        evaluations = []

        def evaluate(req, token):
            evaluations.append(req.key)
            return {"v": 7}

        config = service_config(
            run_config=BASE.with_(cache_dir=str(tmp_path))
        )

        async def main():
            service, client = await started(config)
            # the real evaluator populates the persistent cache
            first = await client.request(
                "montecarlo", {"samples": 60, "depths": [2]}
            )
            service.evaluator = evaluate
            second = await client.request(
                "montecarlo", {"samples": 60, "depths": [2]}
            )
            await finish(service, client)
            return first, second

        first, second = asyncio.run(main())
        assert first["ok"] and "cached" not in first
        assert second["ok"] and second["cached"] is True
        assert second["result"]["mean_abs_error"] == \
            first["result"]["mean_abs_error"]
        assert evaluations == []  # cache answered before the queue


class TestShedding:
    def test_saturated_class_sheds_with_retry_after(self):
        metrics().reset()
        release = threading.Event()

        def evaluate(req, token):
            release.wait(timeout=5.0)
            return {"v": 1}

        config = service_config(limits={"montecarlo": 1, "sweep": 1,
                                        "synthesis": 1})

        async def main():
            service, client = await started(config, evaluator=evaluate)
            leader = asyncio.ensure_future(
                client.request("montecarlo", {"samples": 100, "depths": [3]})
            )
            while service.admission.depth("montecarlo") == 0:
                await asyncio.sleep(0.01)
            shed = await client.request(
                "montecarlo", {"samples": 999, "depths": [3]}
            )
            release.set()
            await leader
            await finish(service, client)
            return shed

        shed = asyncio.run(main())
        assert shed["ok"] is False
        assert shed["code"] == "shed"
        assert shed["retry_after"] > 0
        assert "queue full" in shed["error"]
        assert metrics().snapshot()["counters"]["service.shed"] == 1


class TestBreakerAndDegradation:
    def test_pool_down_still_answers_every_request(self):
        """Fault-table row: a shard timeout on every pool the runner tries."""
        metrics().reset()
        evaluator, calls = counted()
        config = service_config(run_config=TIMEOUT_FAULT, reset_timeout=60.0)
        params = [{"samples": 1000 + i, "depths": [2, 4]} for i in range(3)]

        async def main():
            service, client = await started(config, evaluator)
            responses = [
                await client.request("montecarlo", p) for p in params
            ]
            breaker = service.breaker
            await finish(service, client)
            return responses, breaker

        (first, second, third), breaker = asyncio.run(main())
        # the first failure_threshold answers are exact, finished inline
        for resp, p in ((first, params[0]), (second, params[1])):
            assert "degraded" not in resp
            assert resp["result"] == solo(p)
        assert breaker.state == "open"
        assert breaker.last_failure == TIMEOUT_REASON
        assert third["ok"] is True and third["degraded"] is True
        assert TIMEOUT_REASON in third["degraded_reason"]
        assert len(calls) == 2 == len(set(calls))  # each evaluated once
        counters = metrics().snapshot()["counters"]
        assert counters["pool.degraded"] == 2
        assert counters["service.degraded"] == 1

    def test_half_open_probe_restores_service(self):
        async def main():
            service, client = await started(
                service_config(run_config=TIMEOUT_FAULT)
            )
            for i in range(2):
                r = await client.request(
                    "montecarlo", {"samples": 1000 + i, "depths": [4]}
                )
                assert r["ok"] and "degraded" not in r
            assert service.breaker.state == "open"
            # the pool recovers; once the cooldown elapses one probe
            # gets through and its clean run closes the breaker
            service.config = dataclasses.replace(
                service.config, run_config=BASE
            )
            await asyncio.sleep(0.25)  # past reset_timeout
            probe = await client.request(
                "montecarlo", {"samples": 300, "depths": [4]}
            )
            state = service.breaker.state
            await finish(service, client)
            return probe, state

        probe, state = asyncio.run(main())
        assert probe["ok"] is True
        assert "degraded" not in probe
        assert probe["result"]["depths"] == [4]
        assert state == "closed"

    def test_probe_ending_in_an_error_returns_its_slot(self):
        """A half-open probe with no verdict must not strand the breaker."""
        async def main():
            service, client = await started(
                service_config(run_config=TIMEOUT_FAULT, failure_threshold=1)
            )
            first = await client.request(
                "montecarlo", {"samples": 1000, "depths": [4]}
            )
            opened = service.breaker.state
            service.config = dataclasses.replace(
                service.config, run_config=BASE
            )
            await asyncio.sleep(0.25)  # past reset_timeout
            probe = await client.request("synthesis", BAD_SYNTHESIS)
            after = await client.request(
                "montecarlo", {"samples": 300, "depths": [4]}
            )
            state = service.breaker.state
            await finish(service, client)
            return first, opened, probe, after, state

        first, opened, probe, after, state = asyncio.run(main())
        assert first["ok"] is True and opened == "open"
        assert probe["ok"] is False and probe["code"] == "error"
        # the errored probe handed its slot back: the next request probes
        assert after["ok"] is True and "degraded" not in after
        assert after["result"] == solo({"samples": 300, "depths": [4]})
        assert state == "closed"

    def test_degraded_montecarlo_answer_has_model_rows(self):
        config = service_config(
            run_config=TIMEOUT_FAULT, failure_threshold=1, reset_timeout=60.0
        )

        async def main():
            service, client = await started(config)
            first = await client.request(
                "montecarlo", {"samples": 1000, "depths": [4, 6]}
            )
            r = await client.request(
                "montecarlo", {"samples": 1001, "depths": [4, 6]}
            )
            await finish(service, client)
            return first, r

        first, r = asyncio.run(main())
        assert "degraded" not in first  # exact, finished inline
        assert r["degraded"] is True
        assert r["source"] == "analytical-model"
        assert "shard_timeout" in r["degraded_reason"]
        rows = r["result"]["rows"]
        assert [row["depth"] for row in rows] == [4, 6]
        assert rows[0]["mean_abs_error"] >= rows[1]["mean_abs_error"]


class TestFaultTable:
    """DESIGN.md §10's fault table, each row against the real evaluator.

    The shard-timeout row is ``TestBreakerAndDegradation``'s first test;
    the worker-crash row lives in ``tests/runners/test_workerpool.py``.
    """

    def test_cache_write_failure_is_recovered(self, tmp_path):
        metrics().reset()
        evaluator, calls = counted()
        cache_dir = tmp_path / "cache"
        config = service_config(run_config=BASE.with_(cache_dir=str(cache_dir)))
        params = {"samples": 200, "depths": [2, 4], "seed": 7}

        async def main():
            service, client = await started(config, evaluator)
            # the disk goes bad under a running daemon; fails even as root
            cache_dir.rmdir()
            cache_dir.write_text("not a directory")
            resp = await client.request("montecarlo", params)
            state = service.breaker.state
            await finish(service, client)
            return resp, state

        resp, state = asyncio.run(main())
        assert resp["ok"] is True
        assert "degraded" not in resp and "cached" not in resp
        assert resp["result"] == solo(params)
        assert state == "closed"
        assert len(calls) == 1
        assert metrics().snapshot()["counters"]["cache.write_errors"] >= 1

    def test_deterministic_evaluator_exception_is_an_error(self):
        metrics().reset()
        evaluator, calls = counted()
        # a single pool failure would open this breaker; an error must not
        config = service_config(failure_threshold=1)

        async def main():
            service, client = await started(config, evaluator)
            resp = await client.request("synthesis", BAD_SYNTHESIS)
            state = service.breaker.state
            await finish(service, client)
            return resp, state

        resp, state = asyncio.run(main())
        assert resp["ok"] is False and resp["code"] == "error"
        assert "ValueError" in resp["error"]
        assert "reference precision" in resp["error"]
        assert state == "closed"
        assert len(calls) == 1
        assert metrics().snapshot()["counters"]["service.errors"] == 1

    @pytest.mark.parametrize("pad", [MAX_LINE_BYTES, 3 * MAX_LINE_BYTES])
    def test_oversized_line_is_answered_and_the_connection_survives(
        self, pad
    ):
        metrics().reset()
        huge = json.dumps({"kind": "montecarlo", "params": {"pad": "x" * pad}})

        async def main():
            service = EvalService(service_config())
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(huge.encode() + b"\n")
            writer.write(b'{"kind": "healthz", "id": "after"}\n')
            lines = [
                json.loads(await asyncio.wait_for(reader.readline(), 10))
                for _ in range(2)
            ]
            writer.close()
            await service.drain()
            return lines

        too_large, health = asyncio.run(main())
        assert too_large["ok"] is False and too_large["code"] == "too_large"
        assert too_large["id"] is None
        assert health["ok"] is True and health["id"] == "after"
        assert metrics().snapshot()["counters"]["service.bad_requests"] == 1


class TestLeaderFailure:
    def test_dying_leader_resolves_its_followers(self):
        """A leader killed by an unexpected (non-evaluation) exception
        must still resolve the coalescer entry — followers get an
        honest ``internal`` response instead of hanging until their
        client-side timeout."""

        async def main():
            service, client = await started()
            release = asyncio.Event()

            async def crashing_leader(req):
                await release.wait()
                raise RuntimeError("handler bug, not an evaluation error")

            service._evaluate_leader = crashing_leader
            tasks = [
                asyncio.ensure_future(
                    client.request(
                        "montecarlo", {"samples": 100, "depths": [3]},
                        timeout=5.0,
                    )
                )
                for _ in range(3)
            ]
            # wait for one leader plus two parked followers
            while service.coalescer.depth == 0:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            release.set()
            responses = await asyncio.gather(*tasks)
            depth = service.coalescer.depth
            await finish(service, client)
            return responses, depth

        responses, depth = asyncio.run(main())
        assert all(r["ok"] is False for r in responses)
        assert all(r["code"] == "internal" for r in responses)
        assert depth == 0  # nothing stranded in the coalescer


class TestDeadline:
    def test_deadline_cancels_into_the_runner(self):
        async def main():
            service, client = await started(
                evaluator=cooperative_slow(10.0)
            )
            t0 = time.monotonic()
            r = await client.request(
                "montecarlo", {"samples": 100, "depths": [4]}, deadline=0.2
            )
            elapsed = time.monotonic() - t0
            await finish(service, client)
            return r, elapsed

        r, elapsed = asyncio.run(main())
        assert r["ok"] is False
        assert r["code"] == "deadline"
        assert elapsed < 5.0  # nowhere near the evaluator's 10s

    def test_fast_request_beats_its_deadline(self):
        async def main():
            service, client = await started(evaluator=lambda r, t: {"v": 1})
            r = await client.request(
                "montecarlo", {"samples": 100, "depths": [4]}, deadline=30.0
            )
            await finish(service, client)
            return r

        r = asyncio.run(main())
        assert r["ok"] is True


class TestDrain:
    def test_drain_finishes_inflight_then_rejects(self):
        release = threading.Event()

        def evaluate(req, token):
            release.wait(timeout=5.0)
            return {"v": "done"}

        async def main():
            service, client = await started(evaluator=evaluate)
            inflight = asyncio.ensure_future(
                client.request("montecarlo", {"samples": 100, "depths": [3]})
            )
            while service.admission.depth() == 0:
                await asyncio.sleep(0.01)
            drain_task = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0.05)
            release.set()
            inflight_resp = await inflight
            await drain_task
            late = await service.handle(
                {"kind": "montecarlo", "params": {"samples": 10}}
            )
            ready = service._admin({"kind": "readyz"})
            await client.aclose()
            return inflight_resp, late, ready

        inflight_resp, late, ready = asyncio.run(main())
        assert inflight_resp["ok"] is True  # in-flight work completed
        assert inflight_resp["result"]["v"] == "done"
        assert late["code"] == "draining"
        assert ready["ok"] is False and ready["draining"] is True

    def test_drain_is_idempotent(self):
        async def main():
            service, client = await started()
            await service.drain()
            await service.drain()
            await client.aclose()

        asyncio.run(main())
