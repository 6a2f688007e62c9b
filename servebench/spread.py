"""Run the benchmark over several seeds and report each metric's spread.

    python3 servebench/spread.py --seeds 1 2 3 4 5 [--workloads mc_fresh ...]
        [--seconds 50] [--trace 0] [--repeat 2] [--out runs.jsonl]

For every workload and end-to-end metric it prints the ten-run style
statistic the bounds in ``BENCHMARK.json`` are judged by: the distance
between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median, next to a third of the metric's bound.  With
``--repeat 2`` every seed runs twice and the determinism checks are
compared: the result digest and the ``statsz`` counts of one seed must
repeat exactly.  ``--out`` appends every run's result, with its
``check:`` and ``validity:`` lines, as a JSON line.
Exit code 1 if a run fails, an answer check fails, a
spread exceeds a third of its bound, or a determinism check differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    check = next((line for line in lines if line.startswith("check:")), "")
    validity = next((line for line in lines if line.startswith("validity:")), "")
    return json.loads(lines[-1]), check, validity


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    bad = False
    for workload in args.workloads:
        values, checks = {}, {}
        for seed in args.seeds:
            for _ in range(args.repeat):
                result, check, validity = run_once(workload, seed,
                                                   args.seconds, args.trace)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: correct="
                          f"{result['correct']} failed={result['failed']}")
                    bad = True
                checks.setdefault(seed, set()).add(check)
                if args.out is not None:
                    with args.out.open("a") as fh:
                        fh.write(json.dumps(dict(result, workload=workload,
                                                 seed=seed, check=check,
                                                 validity=validity)) + "\n")
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
        for seed, seen in checks.items():
            if len(seen) > 1:
                print(f"{workload} seed {seed}: determinism check differs: "
                      f"{sorted(seen)}")
                bad = True
        for name, vals in values.items():
            med = statistics.median(vals)
            line = f"{workload:10s} {name:24s} median={med:.6g}"
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med) if med else 0.0
                line += f" spread={spread:.3f}"
                bound = bounds.get(name)
                if bound is not None:
                    line += f" (a third of bound {bound / 3:.3f})"
                    if spread > bound / 3:
                        line += " TOO WIDE"
                        bad = True
            print(line, flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
