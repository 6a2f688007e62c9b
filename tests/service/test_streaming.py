"""Live progress streaming: frames to leaders and coalesced followers,
the ``statsz``/``metricsz`` admin verbs, and healthz drain visibility.

Same no-pytest-asyncio idiom as ``test_daemon.py``: every test drives a
cold event loop through ``asyncio.run``.
"""

import asyncio
import threading
import time

from repro.obs.events import ProgressReporter
from repro.runners.config import RunConfig
from repro.service import EvalService, ServiceClient, ServiceConfig
from repro.service.client import request_once

BASE = RunConfig(ndigits=3, seed=7, jobs=1, cache_dir=None)


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


def streaming_evaluator(num_shards=4, pause=0.03):
    """Publishes shard progress on the global bus the way the runner does."""

    def evaluate(req, token):
        reporter = ProgressReporter(experiment=req.kind, run_id=req.key)
        reporter.begin(num_shards, num_shards * 10)
        for shard in range(num_shards):
            reporter.shard_queued(shard, 10)
        for shard in range(num_shards):
            reporter.shard_started(shard, 10)
            time.sleep(pause)
            reporter.shard_completed(shard, 10, elapsed=pause)
        return {"shards": num_shards}

    return evaluate


class TestLeaderStreaming:
    def test_real_montecarlo_streams_before_final(self):
        # the full path: evaluate_request attaches the reporter, the
        # runner publishes, the daemon hops frames onto the loop
        frames = []
        config = service_config(
            run_config=BASE.with_(shard_size=50)  # 400 samples -> 8 shards
        )

        async def main():
            service, client = await started(config)
            resp = await client.request(
                "montecarlo",
                {"samples": 400, "depths": [2]},
                on_progress=frames.append,
            )
            await finish(service, client)
            return resp

        resp = asyncio.run(main())
        assert resp["ok"] is True
        assert len(frames) >= 1  # at least one frame before the final
        assert all(f["event"] == "progress" for f in frames)
        assert all(f["id"] == resp["id"] for f in frames)
        done = [f["shards_done"] for f in frames]
        assert done == sorted(done)  # monotonically non-decreasing
        assert frames[-1]["shards_total"] == 8
        seqs = [f["seq"] for f in frames]
        assert seqs == sorted(seqs)

    def test_frames_carry_eta_after_first_completion(self):
        frames = []

        async def main():
            service, client = await started(
                evaluator=streaming_evaluator(num_shards=3)
            )
            resp = await client.request(
                "montecarlo", {"samples": 100, "depths": [2]},
                on_progress=frames.append,
            )
            await finish(service, client)
            return resp

        resp = asyncio.run(main())
        assert resp["ok"] is True
        completed = [f for f in frames if f["transition"] == "completed"]
        assert completed, "no completed transitions streamed"
        assert completed[-1]["eta_s"] is not None
        assert completed[-1]["samples_done"] == 30

    def test_no_handler_still_gets_final_response(self):
        async def main():
            service, client = await started(
                evaluator=streaming_evaluator(num_shards=2)
            )
            resp = await client.request(
                "montecarlo", {"samples": 100, "depths": [2]}
            )
            await finish(service, client)
            return resp

        resp = asyncio.run(main())
        assert resp["ok"] is True  # frames consumed and dropped silently


class TestFollowerStreaming:
    def test_coalesced_follower_receives_frames(self):
        leader_frames, follower_frames = [], []
        params = {"samples": 100, "depths": [2]}

        async def main():
            service, client = await started(
                evaluator=streaming_evaluator(num_shards=6, pause=0.05)
            )
            leader = asyncio.ensure_future(
                client.request(
                    "montecarlo", params, on_progress=leader_frames.append
                )
            )
            # join once the leader is actually in flight
            while service.coalescer.depth == 0:
                await asyncio.sleep(0.005)
            follower = asyncio.ensure_future(
                client.request(
                    "montecarlo", params, on_progress=follower_frames.append
                )
            )
            leader_resp, follower_resp = await asyncio.gather(
                leader, follower
            )
            await finish(service, client)
            return leader_resp, follower_resp

        leader_resp, follower_resp = asyncio.run(main())
        assert leader_resp["ok"] and follower_resp["ok"]
        assert follower_resp.get("coalesced") is True
        assert len(leader_frames) >= 1
        assert len(follower_frames) >= 1
        # every frame is addressed to its own request id
        leader_ids = {f["id"] for f in leader_frames}
        follower_ids = {f["id"] for f in follower_frames}
        assert leader_ids == {leader_resp["id"]}
        assert follower_ids == {follower_resp["id"]}
        done = [f["shards_done"] for f in follower_frames]
        assert done == sorted(done)


class TestStatsz:
    def test_statsz_shape(self):
        async def main():
            service, client = await started()
            await client.request("montecarlo", {"samples": 50, "depths": [2]})
            statsz = await client.request("statsz")
            await finish(service, client)
            return statsz

        statsz = asyncio.run(main())
        assert statsz["ok"] is True
        assert statsz["draining"] is False
        assert statsz["breaker"] == "closed"
        assert statsz["queue_depth"] == 0
        assert statsz["queue_depths"] == {
            "montecarlo": 0, "sweep": 0, "synthesis": 0,
        }
        assert statsz["inflight_keys"] == 0
        # the metrics view is the deterministic one: no gauges section
        assert "gauges" not in statsz["metrics"]
        assert statsz["metrics"]["counters"]["service.requests"] >= 1

    def test_statsz_exposes_inflight_progress(self):
        async def main():
            service, client = await started(
                evaluator=streaming_evaluator(num_shards=8, pause=0.05)
            )
            inflight = asyncio.ensure_future(
                client.request("montecarlo", {"samples": 100, "depths": [2]})
            )
            progress = {}
            for _ in range(200):
                statsz = await client.request("statsz")
                if statsz["progress"]:
                    progress = statsz["progress"]
                    break
                await asyncio.sleep(0.01)
            resp = await inflight
            after = await client.request("statsz")
            await finish(service, client)
            return progress, resp, after

        progress, resp, after = asyncio.run(main())
        assert resp["ok"] is True
        assert progress, "statsz never showed the in-flight run"
        [(key, snap)] = list(progress.items())
        assert key == resp["key"]
        assert snap["shards_total"] == 8
        assert snap["experiment"] == "montecarlo"
        assert after["progress"] == {}  # cleaned up after completion

    def test_metricsz_renders_prometheus(self):
        async def main():
            service, client = await started()
            await client.request("montecarlo", {"samples": 50, "depths": [2]})
            metricsz = await client.request("metricsz")
            await finish(service, client)
            return metricsz

        metricsz = asyncio.run(main())
        assert metricsz["ok"] is True
        assert metricsz["content_type"].startswith("text/plain")
        body = metricsz["body"]
        assert "# TYPE repro_service_requests_total counter" in body
        assert body.endswith("\n")

    def test_request_once_supports_admin_verbs(self):
        # the sync convenience the CLI uses: drive it from a worker
        # thread against a daemon living on the main thread's loop
        results = {}

        async def main():
            service, client = await started()

            def sync_calls():
                results["statsz"] = request_once(
                    "127.0.0.1", service.port, "statsz", timeout=5.0
                )
                results["healthz"] = request_once(
                    "127.0.0.1", service.port, "healthz", timeout=5.0
                )

            await asyncio.get_running_loop().run_in_executor(
                None, sync_calls
            )
            await finish(service, client)

        asyncio.run(main())
        assert results["statsz"]["ok"] is True
        assert "queue_depths" in results["statsz"]
        assert results["healthz"]["ok"] is True


class TestHealthzDraining:
    def test_healthz_reports_draining(self):
        release = threading.Event()

        def evaluate(req, token):
            release.wait(timeout=5.0)
            return {"v": "done"}

        async def main():
            service, client = await started(evaluator=evaluate)
            healthy = service._admin({"kind": "healthz"})
            inflight = asyncio.ensure_future(
                client.request("montecarlo", {"samples": 100, "depths": [3]})
            )
            while service.admission.depth() == 0:
                await asyncio.sleep(0.01)
            drain_task = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0.05)
            draining = service._admin({"kind": "healthz"})
            ready = service._admin({"kind": "readyz"})
            release.set()
            await inflight
            await drain_task
            await client.aclose()
            return healthy, draining, ready

        healthy, draining, ready = asyncio.run(main())
        assert healthy["ok"] is True and healthy["draining"] is False
        # alive-but-draining: load balancers stop routing, the process
        # is not restarted
        assert draining["ok"] is True and draining["draining"] is True
        assert ready["ok"] is False and ready["draining"] is True
