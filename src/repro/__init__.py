"""repro — Datapath Synthesis for Overclocking with Online Arithmetic.

A complete, self-contained reproduction of the DAC 2014 paper
*"Datapath Synthesis for Overclocking: Online Arithmetic for
Latency-Accuracy Trade-offs"*: digit-parallel online arithmetic operators
that degrade gracefully when clocked beyond timing closure, the
probabilistic model of their overclocking error, a gate-level timing
simulator standing in for the paper's FPGA flow, and the Gaussian
image-filter case study.

Quick start
-----------
>>> from repro import Datapath
>>> dp = Datapath(ndigits=8)
>>> x, y = dp.input("x"), dp.input("y")
>>> dp.output("prod", x * y)
>>> online = dp.synthesize("online")        # overclocking-friendly design
>>> trad = dp.synthesize("traditional")     # conventional baseline

See ``examples/quickstart.py`` and DESIGN.md for the full tour.
"""

from repro.core.online_adder import online_add, build_online_adder
from repro.core.online_multiplier import (
    OnlineMultiplier,
    online_multiply,
    build_online_multiplier,
    ONLINE_DELTA,
)
from repro.core.model import OverclockingErrorModel
from repro.core.synthesis import (
    Datapath,
    SynthesizedDatapath,
)
from repro.numrep.signed_digit import SDNumber
from repro.netlist import (
    Circuit,
    WaveformSimulator,
    UnitDelay,
    FpgaDelay,
    static_timing,
    estimate_area,
)

__version__ = "1.0.0"

__all__ = [
    "online_add",
    "build_online_adder",
    "OnlineMultiplier",
    "online_multiply",
    "build_online_multiplier",
    "ONLINE_DELTA",
    "OverclockingErrorModel",
    "Datapath",
    "SynthesizedDatapath",
    "SDNumber",
    "Circuit",
    "WaveformSimulator",
    "UnitDelay",
    "FpgaDelay",
    "static_timing",
    "estimate_area",
    "__version__",
]
