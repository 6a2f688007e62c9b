"""Overhead gate of the observability layer: disabled tracing is free.

Every hot path in the simulation stack carries ``current_tracer().span``
instrumentation (see DESIGN.md, "Observability").  The design budget is
**< 3% overhead with tracing disabled** on the packed-engine acceptance
workload of ``bench_packed_vs_wave`` — i.e. the default, untraced
configuration must pay nothing measurable for the instrumentation
being *present*.

The measurement mirrors the real instrumentation density of a
Monte-Carlo shard (one ``shard`` span plus one ``mc.simulate`` span per
shard, an ambient-tracer lookup each).  Each packed-engine shard
simulation is timed in pairs: its uninstrumented twin and the
instrumented body under the ``DISABLED`` tracer, back to back.  The
legs swap order from pair to pair, so neither always runs first, and a
pair spans tens of milliseconds, so load from other processes hits both
of its legs alike.  The median of the per-pair overheads is asserted
against the budget, and its quartiles are reported with it.

Run standalone (``python benchmarks/bench_obs_overhead.py [--quick]``)
for the CI gate, or through pytest-benchmark for the timed kernel.
"""

import time

import numpy as np

from _common import emit
from repro.core.online_multiplier import OnlineMultiplier
from repro.netlist.compiled import compile_circuit
from repro.netlist.delay import FpgaDelay
from repro.obs.trace import DISABLED, current_tracer, use_tracer
from repro.sim.montecarlo import uniform_digit_batch
from repro.sim.reporting import format_table
from repro.sim.sweep import OnlineMultiplierHarness

NDIGITS = 8
OVERHEAD_BUDGET = 0.03  # relative; the DESIGN.md budget


def _shard_ports(num_shards: int, shard_samples: int):
    rng = np.random.default_rng(2014)
    harness = OnlineMultiplierHarness.from_spec("online-mult", ndigits=NDIGITS)
    return [
        harness.encode(
            uniform_digit_batch(NDIGITS, shard_samples, rng),
            uniform_digit_batch(NDIGITS, shard_samples, rng),
        )
        for _ in range(num_shards)
    ]


def _shard_plain(packed, ports, i):
    """Uninstrumented twin of one instrumented shard."""
    packed.run(ports)


def _shard_instrumented(packed, ports, i):
    """One shard as the montecarlo shard worker instruments it."""
    with current_tracer().span("shard", shard=i):
        with current_tracer().span("mc.simulate", backend="packed"):
            packed.run(ports)


def _sweep_instrumented(packed, shards):
    for i, ports in enumerate(shards):
        _shard_instrumented(packed, ports, i)


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def measure(num_shards: int, shard_samples: int, repeats: int = 10):
    """Paired per-shard timings of both legs with tracing disabled.

    Every shard is timed *repeats* times in each leg, ``num_shards *
    repeats`` pairs in all; the pair of shard ``i`` in repeat ``r`` runs
    the instrumented leg first when ``r + i`` is odd.  Returns the summed time of each leg and the
    quartiles ``(q1, median, q3)`` of the per-pair overhead
    ``t_instr / t_plain - 1``.
    """
    circuit = OnlineMultiplier(NDIGITS).build_circuit()
    packed = compile_circuit(circuit, FpgaDelay())  # warm the compile cache
    shards = _shard_ports(num_shards, shard_samples)
    for i, ports in enumerate(shards):  # warm numpy/allocator paths
        _shard_plain(packed, ports, i)
    t_plain, t_instr = [], []
    with use_tracer(DISABLED):
        for r in range(repeats):
            for i, ports in enumerate(shards):
                if (r + i) % 2:
                    t_instr.append(_timed(_shard_instrumented, packed, ports, i))
                    t_plain.append(_timed(_shard_plain, packed, ports, i))
                else:
                    t_plain.append(_timed(_shard_plain, packed, ports, i))
                    t_instr.append(_timed(_shard_instrumented, packed, ports, i))
    overheads = np.asarray(t_instr) / np.asarray(t_plain) - 1.0
    quartiles = tuple(float(q) for q in np.percentile(overheads, [25, 50, 75]))
    return sum(t_plain), sum(t_instr), quartiles


def report(num_shards: int, shard_samples: int, repeats: int = 10):
    t_plain, t_instr, (q1, overhead, q3) = measure(
        num_shards, shard_samples, repeats
    )
    emit(
        "obs_overhead",
        format_table(
            ["leg", "total time (ms)", "overhead (median)", "quartiles"],
            [
                ["uninstrumented", f"{t_plain * 1e3:.1f}", "-", "-"],
                [
                    "instrumented, tracing off",
                    f"{t_instr * 1e3:.1f}",
                    f"{100 * overhead:+.2f}%",
                    f"[{100 * q1:+.2f}%, {100 * q3:+.2f}%]",
                ],
            ],
            title=(
                f"{NDIGITS}-digit OM packed engine, {num_shards} shards x "
                f"{shard_samples} samples, {num_shards * repeats} "
                f"alternating pairs: "
                f"disabled-tracing overhead "
                f"(budget {100 * OVERHEAD_BUDGET:.0f}%)"
            ),
        ),
    )
    return overhead


def test_disabled_tracing_overhead(benchmark):
    overhead = report(num_shards=32, shard_samples=250)
    assert overhead < OVERHEAD_BUDGET, (
        f"disabled tracing costs {100 * overhead:.2f}% "
        f"(budget {100 * OVERHEAD_BUDGET:.0f}%)"
    )

    circuit = OnlineMultiplier(NDIGITS).build_circuit()
    packed = compile_circuit(circuit, FpgaDelay())
    shards = _shard_ports(8, 250)
    with use_tracer(DISABLED):
        benchmark(lambda: _sweep_instrumented(packed, shards))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer shards and repeats (CI smoke run)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        overhead = report(num_shards=16, shard_samples=250, repeats=10)
    else:
        overhead = report(num_shards=64, shard_samples=500, repeats=5)
    if overhead >= OVERHEAD_BUDGET:
        print(
            f"FAIL: disabled tracing costs {100 * overhead:.2f}% "
            f"(budget {100 * OVERHEAD_BUDGET:.0f}%)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
