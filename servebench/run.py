"""Benchmark of the evaluation daemon (``repro serve``), end to end.

Run from the root of a checkout::

    python3 servebench/run.py --workload mc_fresh --seed 1 --seconds 50 --trace 0

The real daemon (``python -m repro.cli serve``) runs as its own process
with default settings; only its port and a fresh cache directory are
passed.  One load-generator process (this one) drives a seeded request
mix at it over two connections, checks every answer, and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``) as the last line of standard output, one JSON
object.  See ``servebench/README.md`` for the workloads, the metrics
and the baseline.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

import mixes
from checks import check_answers, digest
from daemon import ROOT, SRC, Daemon
from layers import PER_LAYER_UNITS, per_layer
from loadgen import Client, Conn, drive

SETUP_LAUNCHES = 9  # setup_s is the median over this many cold starts
CLIENTS = 2
#: groups each client sends before timing starts: warm-up, digest and
#: statsz-count checks, all answer-checked
CHECK_GROUPS = {"mc_fresh": 2, "burst_mix": 3}
KEEP_EVERY = 16  # timed requests kept for answer checks: every n-th
MAX_CHECKS_PER_KIND = 8
MIN_TAIL = 10  # requests beyond p95 needed to support it
LOADGEN_SATURATED = 0.9  # generator CPU share that invalidates a run
COUNTS = ("service.requests", "service.coalesce_hits", "cache.puts",
          "service.cache_short_circuit", "synth.candidates_total",
          "synth.candidates_pruned", "synth.candidates_verified")

E2E_UNITS = {"setup_s": "s", "req_per_s": "req/s", "p50_ms": "ms",
             "p95_ms": "ms", "cpu_ms_per_req": "ms", "rss_mb": "MB"}


def log(msg: str) -> None:
    print(msg, flush=True)


def host_cpu_ticks() -> List[int]:
    """The host's aggregate CPU tick counters (``cpu`` line of /proc/stat)."""
    with open("/proc/stat") as fh:
        return [int(f) for f in fh.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of host CPU time stolen by the hypervisor between two samples."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0  # field 8: steal


def percentile(values: List[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def counter_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: after.get(k, 0) - before.get(k, 0)
            for k in set(after) | set(before)}


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        self.args = args
        self.workload = args.workload
        self.seed = args.seed
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self.daemons: List[Daemon] = []
        self.clients = [Client(mixes.WORKLOADS[args.workload](args.seed, c))
                        for c in range(CLIENTS)]
        self.records: List[Any] = []  # every request sent, all phases
        self.checked: List[Any] = []  # records whose answers are checked
        self.strays = 0
        self.steal = 0.0  # host steal share over the last timed window

    # ------------------------------------------------------------ daemons
    def launch(self, daemon: Daemon) -> float:
        self.daemons.append(daemon)
        return daemon.start()

    def stop_all(self) -> None:
        for daemon in self.daemons:
            daemon.stop()

    async def connect(self, daemon: Daemon) -> List[Conn]:
        return [await Conn.open(c, daemon.port) for c in range(CLIENTS)]

    async def close(self, conns: List[Conn]) -> None:
        for conn in conns:
            await conn.close()
            self.strays += conn.strays

    # ------------------------------------------------------------- phases
    async def _drive(self, conns, **kw):
        records, wall = await drive(self.clients, conns, **kw)
        self.records.extend(records)
        return records, wall

    async def check_phase(self, daemon: Daemon, conns: List[Conn]):
        """Fixed-length untimed prefix: digest and exact statsz counts."""
        before = daemon.statsz_counters()
        records, _ = await self._drive(
            conns, groups=CHECK_GROUPS[self.workload], keep=lambda seq: True)
        counts = counter_delta(daemon.statsz_counters(), before)
        self.checked.extend(records)
        log(f"check: digest={digest(records)} counts="
            + json.dumps({k: counts.get(k, 0) for k in COUNTS}, sort_keys=True))

    async def timed(self, daemon: Daemon, conns: List[Conn], seconds: float,
                    keep=lambda seq: seq % KEEP_EVERY == 0):
        # the records list grows all window long; a full collection of
        # it would stall the generator and show up as request latency
        gc.collect()
        gc.disable()
        try:
            cpu0, gen0 = daemon.cpu_seconds(), time.process_time()
            host0 = host_cpu_ticks()
            records, wall = await self._drive(conns, seconds=seconds, keep=keep)
            cpu = daemon.cpu_seconds() - cpu0
            gen_share = (time.process_time() - gen0) / wall
            self.steal = steal_share(host0, host_cpu_ticks())
        finally:
            gc.enable()
        return records, wall, cpu, gen_share

    def answer_checks(self, timed_records) -> bool:
        """Reference-compare the checked set plus a seeded timed subset."""
        rng = random.Random(f"{self.seed}:checks")
        subset = []
        for kind in ("montecarlo", "sweep", "synthesis"):
            kept = [r for r in timed_records if r.kind == kind
                    and r.response is not None and not r.failed]
            subset += rng.sample(kept, min(len(kept), MAX_CHECKS_PER_KIND))
        good = [r for r in self.checked + subset if not r.failed]
        problems = check_answers(good)
        kinds = sorted({r.kind for r in good})
        log(f"answers: {len(good)} compared with direct entry-point calls "
            f"({', '.join(kinds)}), {len(problems)} mismatched")
        for problem in problems[:10]:
            log(f"  MISMATCH {problem}")
        return not problems

    def totals(self):
        failed = [r for r in self.records if r.failed]
        for r in failed[:10]:
            log(f"  FAILED {r.id} ({r.kind}): {r.failed}")
        return len(self.records), len(failed) + self.strays

    # ---------------------------------------------------------- workloads
    async def untraced(self) -> Dict[str, float]:
        args = self.args
        setups = []
        for i in range(SETUP_LAUNCHES):
            daemon = Daemon.cli(self.workdir, self.workdir / f"cache{i}",
                                f"daemon{i}")
            setups.append(self.launch(daemon))
            if i < SETUP_LAUNCHES - 1:
                daemon.stop()
        log("setup: launches_s=" + ",".join(f"{s:.4f}" for s in setups))
        conns = await self.connect(daemon)
        await self.check_phase(daemon, conns)
        records, wall, cpu, gen_share = await self.timed(
            daemon, conns, args.seconds)
        rss = daemon.peak_rss_mb()
        await self.close(conns)
        daemon.stop()

        ok = [r.latency for r in records if not r.failed]
        self.validity(len(ok), gen_share)
        self.correct = self.answer_checks(records)
        return {
            "setup_s": statistics.median(setups),
            "req_per_s": len(ok) / wall,
            "p50_ms": percentile(ok, 50) * 1e3,
            "p95_ms": percentile(ok, 95) * 1e3,
            "cpu_ms_per_req": cpu * 1e3 / len(ok),
            "rss_mb": rss,
        }

    def validity(self, n: int, gen_share: float) -> None:
        tail = n - int(0.95 * n)
        flags = []
        if tail < MIN_TAIL:
            flags.append(f"p95 has only {tail} requests beyond it "
                         f"(needs {MIN_TAIL}, so >= {MIN_TAIL * 20} requests)")
        if gen_share > LOADGEN_SATURATED:
            flags.append(f"load generator saturated its core ({gen_share:.0%})")
        log(f"validity: requests={n} beyond_p95={tail} "
            f"loadgen_cpu_share={gen_share:.3f} host_steal={self.steal:.3f} "
            + ("FLAGGED: " + "; ".join(flags) if flags else "ok"))

    async def traced(self) -> Dict[str, float]:
        """ABBA legs: untraced, traced, traced, untraced (seconds/4 each)."""
        dump_path = self.workdir / "trace.jsonl"
        plain = Daemon.cli(self.workdir, self.cache_dir, "plain")
        traced = Daemon.traced(self.workdir, self.cache_dir, dump_path, "traced")
        self.launch(plain)
        self.launch(traced)
        conns = {plain: await self.connect(plain),
                 traced: await self.connect(traced)}
        await self.check_phase(plain, conns[plain])
        await self._drive(conns[traced], groups=CHECK_GROUPS[self.workload])

        leg = self.args.seconds / 4
        cost = {plain: [0.0, 0], traced: [0.0, 0]}  # cpu seconds, requests
        leg_records, traced_records = [], []
        before = traced.statsz_counters()
        for daemon in (plain, traced, traced, plain):
            if daemon is traced:  # keep every response for the replays
                records, _, cpu, _ = await self.timed(
                    daemon, conns[daemon], leg, keep=lambda seq: True)
                traced_records += records
            else:
                records, _, cpu, _ = await self.timed(
                    daemon, conns[daemon], leg)
            leg_records += records
            cost[daemon][0] += cpu
            cost[daemon][1] += sum(1 for r in records if not r.failed)
        counters = counter_delta(traced.statsz_counters(), before)
        for conn_list in conns.values():
            await self.close(conn_list)
        self.stop_all()

        self.correct = self.answer_checks(leg_records)
        dump = [json.loads(line) for line in dump_path.read_text().splitlines()]
        metrics = per_layer([r for r in traced_records if not r.failed], dump,
                            counters, str(self.cache_dir), self.seed)
        per_req = {d: c[0] / c[1] for d, c in cost.items()}
        metrics["obs.trace_overhead_pct"] = \
            (per_req[traced] / per_req[plain] - 1.0) * 100.0
        return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(mixes.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a SIGTERM must still stop the daemons (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "service" / "daemon.py").is_file():
        print(f"servebench: no repro sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".servebench"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    run = Run(args, workdir)
    try:
        metrics = asyncio.run(run.traced() if args.trace else run.untraced())
    finally:
        run.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()  # only if no other run is using it
        except OSError:
            pass
    attempted, failed = run.totals()
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": bool(run.correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
