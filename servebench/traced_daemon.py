"""Host the evaluation daemon with tracing on, for the per-layer run.

Usage (as the benchmark starts it, with ``REPRO_TRACE=1`` so the
program's ``repro.obs`` tracer buffers spans in memory)::

    python servebench/traced_daemon.py --port P --cache-dir DIR --dump OUT

The daemon is the public ``EvalService(config, evaluator=...)`` with the
same default settings ``repro serve`` uses.  Two things are added, both
here and not in the program:

* the evaluator is the real ``repro.service.daemon.evaluate_request``
  wrapped in a ``bench.evaluate`` span, so the program's own ``run.*``,
  ``shard`` and ``synth.*`` spans nest under it, and
* every ``handle`` call is timed, so the benchmark can split a request's
  latency into daemon wait, evaluation and wire time.

On SIGTERM the service drains as usual; then the spans and handle
timings are written to ``--dump`` as JSON lines.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--dump", required=True)
    args = parser.parse_args()

    from repro.obs.trace import current_tracer
    from repro.runners.config import RunConfig
    from repro.service import EvalService, ServiceConfig
    from repro.service.daemon import evaluate_request

    tracer = current_tracer()
    if not tracer.enabled:
        parser.error("start with REPRO_TRACE=1")

    def traced_evaluate(req, token):
        with tracer.span("bench.evaluate", id=req.id, kind=req.kind):
            return evaluate_request(req, token)

    handled = []

    class TimedService(EvalService):
        async def handle(self, message, send_progress=None):
            start = time.perf_counter()
            response = await super().handle(message, send_progress)
            if response.get("kind") is not None:  # evaluations, not admin
                handled.append({
                    "type": "handle", "id": response.get("id"),
                    "start": start, "end": time.perf_counter(),
                    "cached": bool(response.get("cached")),
                    "coalesced": bool(response.get("coalesced")),
                })
            return response

    config = ServiceConfig(run_config=RunConfig(cache_dir=args.cache_dir),
                           port=args.port)
    service = TimedService(config, evaluator=traced_evaluate)
    asyncio.run(service.serve_forever())

    with open(args.dump, "w") as fh:
        for record in tracer.export() + handled:
            fh.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
