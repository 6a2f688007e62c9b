"""Datapath synthesis for overclocking (the paper's design methodology).

The paper's proposal is a *methodology*: describe a datapath once, then
synthesize it either with conventional two's-complement arithmetic or with
digit-parallel online arithmetic, overclock the result, and pick the
design point that meets a latency or accuracy target.  This module is that
front-end:

>>> dp = Datapath(ndigits=8)
>>> x, y, w = dp.input("x"), dp.input("y"), dp.const(0.25)
>>> dp.output("mac", x * y + w * x)
>>> online = dp.synthesize("online")
>>> trad = dp.synthesize("traditional")

A :class:`SynthesizedDatapath` wraps the gate-level circuit together with
operand encoding/decoding and the overclocking sweep, so the two designs
can be compared at equal *normalized* frequencies — the comparison behind
the paper's Tables 1-3.  :func:`repro.synth.run_synthesis` answers the
paper's two design questions on top of it: best accuracy at a given
frequency, and fastest frequency within a given error budget.

Spec-driven lowering
--------------------
Every operator node lowers through a registered
:class:`repro.synth.OperatorSpec` — the historical
``_synthesize_online``/``_synthesize_traditional`` twins collapsed into
one :meth:`Datapath.synthesize` walk that dispatches on the node's
resolved spec.  A bare style string (``"online"``/``"traditional"``)
resolves every node to that style's default spec; the ``assignment=``
mapping overrides the style **per node label or per output name**, which
is how an auto-synthesized mixed design
(:func:`repro.synth.run_synthesis`) is replayed by hand:

>>> dp.synthesize("online", assignment={"mul1": "traditional"})

Values crossing a style boundary pass through an explicit domain bridge:
a two's-complement word is already a valid signed-digit vector (each bit
a positive digit, the sign bit a negative one), and a borrow-save vector
converts back by resolving ``P - N`` through one subtractor.  The one
structural restriction is that an **online multiplier's operands must be
produced in the online domain** (its operands must be exact ``ndigits``
fractions; a bridged conventional product carries integer headroom and
double-width fractions), which :meth:`Datapath.synthesize` rejects with
a clear error.

Structural rules
----------------
* every operand (input or constant) is a fraction in ``(-1, 1)`` with
  ``ndigits`` of precision (Eq. (1) operand model);
* multiplier operands must be fraction-shaped (inputs, constants, or other
  products) — the paper's operators are fractional; sums grow integer
  headroom and would need explicit renormalisation before feeding a
  multiplier, which :meth:`Datapath.synthesize` rejects with a clear error;
* additions may be chained/nested freely (the online adder tree is
  carry-free; the traditional one compresses carry-save and resolves one
  final ripple chain).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arith.ripple_carry import twos_complement_negate
from repro.core.kernels import BSVec, bs_negate
from repro.core.online_multiplier import ONLINE_DELTA
from repro.core.ops import NetOps
from repro.netlist.area import AreaReport, estimate_area
from repro.netlist.delay import DelayModel, FpgaDelay
from repro.netlist.gates import Circuit
from repro.netlist.sim import SimulationResult, WaveformSimulator
from repro.netlist.sta import static_timing
from repro.numrep.signed_digit import SDNumber, sd_canonical

#: node kinds that take an operator implementation (and hence a label)
_OP_KINDS = ("add", "mul")


# --------------------------------------------------------------------- nodes
@dataclass(frozen=True)
class _Node:
    kind: str  # "input" | "const" | "add" | "mul" | "neg"
    name: str = ""
    value: Fraction = Fraction(0)
    args: Tuple["_Node", ...] = ()
    label: str = ""

    def is_fraction_shaped(self) -> bool:
        """True when the node's value provably stays in ``(-1, 1)`` with
        pure fractional digits (valid multiplier operand)."""
        return self.kind in ("input", "const", "mul") or (
            self.kind == "neg" and self.args[0].is_fraction_shaped()
        )


class Expr:
    """Operator-overloading handle over a dataflow node."""

    def __init__(self, datapath: "Datapath", node: _Node) -> None:
        self._dp = datapath
        self._node = node

    @property
    def label(self) -> str:
        """The node's stable label (``mul0``, ``add1``, ... for operators)."""
        return self._node.label

    def _lift(self, other: Union["Expr", float, int, Fraction]) -> "Expr":
        if isinstance(other, Expr):
            if other._dp is not self._dp:
                raise ValueError("cannot mix expressions from two datapaths")
            return other
        return self._dp.const(other)

    def __add__(self, other):
        other = self._lift(other)
        return Expr(
            self._dp, self._dp._make_node("add", (self._node, other._node))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        return Expr(
            self._dp, self._dp._make_node("mul", (self._node, other._node))
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Expr(self._dp, self._dp._make_node("neg", (self._node,)))


class Datapath:
    """A dataflow-graph description, synthesizable in either arithmetic."""

    def __init__(self, ndigits: int = 8) -> None:
        if ndigits < 2:
            raise ValueError("ndigits must be >= 2")
        self.ndigits = ndigits
        self._inputs: List[str] = []
        self._outputs: Dict[str, _Node] = {}
        self._op_counts: Dict[str, int] = {}

    def _make_node(
        self,
        kind: str,
        args: Tuple[_Node, ...],
        name: str = "",
        value: Fraction = Fraction(0),
        label: Optional[str] = None,
    ) -> _Node:
        if label is None:
            if kind in _OP_KINDS or kind == "neg":
                index = self._op_counts.get(kind, 0)
                self._op_counts[kind] = index + 1
                label = f"{kind}{index}"
            else:
                label = name
        return _Node(kind, name=name, value=value, args=args, label=label)

    def input(self, name: str) -> Expr:
        """Declare a named operand input (fraction in ``(-1, 1)``)."""
        if name in self._inputs:
            raise ValueError(f"duplicate input {name!r}")
        self._inputs.append(name)
        return Expr(self, self._make_node("input", (), name=name))

    def const(self, value: Union[float, int, Fraction]) -> Expr:
        """Embed a constant; must be representable in ``ndigits`` digits."""
        frac = Fraction(value).limit_denominator(2**62)
        scaled = frac * 2**self.ndigits
        if scaled.denominator != 1:
            raise ValueError(
                f"constant {value} needs more than {self.ndigits} fractional digits"
            )
        if not -1 < frac < 1:
            raise ValueError(f"constant {value} outside (-1, 1)")
        return Expr(self, self._make_node("const", (), value=frac))

    def output(self, name: str, expr: Expr) -> None:
        """Mark an expression as a datapath output."""
        if name in self._outputs:
            raise ValueError(f"duplicate output {name!r}")
        if expr._dp is not self:
            raise ValueError("expression belongs to a different datapath")
        self._outputs[name] = expr._node

    @property
    def input_names(self) -> List[str]:
        return list(self._inputs)

    @property
    def output_names(self) -> List[str]:
        return list(self._outputs)

    # ------------------------------------------------------------ graph API
    def _topo_nodes(self) -> List[_Node]:
        """Every node reachable from an output, operands before users."""
        order: List[_Node] = []
        seen: Dict[int, bool] = {}

        def visit(node: _Node) -> None:
            if id(node) in seen:
                return
            seen[id(node)] = True
            for arg in node.args:
                visit(arg)
            order.append(node)

        for node in self._outputs.values():
            visit(node)
        return order

    def operator_labels(self) -> List[Tuple[str, str]]:
        """``(label, kind)`` of every reachable operator node, topo order."""
        return [
            (node.label, node.kind)
            for node in self._topo_nodes()
            if node.kind in _OP_KINDS
        ]

    def multiplier_labels(self) -> List[str]:
        """Labels of the reachable multiplier nodes, topo order."""
        return [lbl for lbl, kind in self.operator_labels() if kind == "mul"]

    def to_graph(self) -> Dict[str, Any]:
        """Canonical JSON-able description of the dataflow graph.

        The serialized form round-trips through :meth:`from_graph`
        (labels included) and doubles as cache-key material for
        :func:`repro.synth.run_synthesis` — two datapaths with the same
        graph signature are the same experiment.
        """
        nodes = self._topo_nodes()
        index = {id(node): i for i, node in enumerate(nodes)}
        return {
            "ndigits": self.ndigits,
            "inputs": list(self._inputs),
            "nodes": [
                {
                    "kind": node.kind,
                    "name": node.name,
                    "value": str(node.value),
                    "args": [index[id(a)] for a in node.args],
                    "label": node.label,
                }
                for node in nodes
            ],
            "outputs": {
                name: index[id(node)] for name, node in self._outputs.items()
            },
        }

    @classmethod
    def from_graph(
        cls, graph: Mapping[str, Any], ndigits: Optional[int] = None
    ) -> "Datapath":
        """Rebuild a datapath from :meth:`to_graph` output.

        *ndigits* overrides the serialized word length (the synthesizer's
        wordlength search); constants are re-validated against it.
        """
        dp = cls(int(ndigits if ndigits is not None else graph["ndigits"]))
        built: List[_Node] = []
        for entry in graph["nodes"]:
            kind = entry["kind"]
            args = tuple(built[i] for i in entry["args"])
            if kind == "input":
                node = dp.input(entry["name"])._node
            elif kind == "const":
                # route through const() for range/precision validation
                node_expr = dp.const(Fraction(entry["value"]))
                node = node_expr._node
            else:
                node = dp._make_node(
                    kind, args, label=entry.get("label") or None
                )
            built.append(node)
        for name, idx in graph["outputs"].items():
            dp._outputs[name] = built[idx]
        # inputs declared but unused by any node entry still need ports
        for name in graph["inputs"]:
            if name not in dp._inputs:
                dp._inputs.append(name)
        return dp

    def with_ndigits(self, ndigits: int) -> "Datapath":
        """A copy of this graph at a different word length.

        Raises ValueError when an embedded constant is not representable
        at the new precision — the wordlength search skips such points.
        """
        return Datapath.from_graph(self.to_graph(), ndigits=ndigits)

    # ------------------------------------------------------------ synthesis
    def synthesize(
        self,
        arithmetic: str,
        delay_model: Optional[DelayModel] = None,
        name: Optional[str] = None,
        assignment: Optional[Mapping[str, str]] = None,
    ) -> "SynthesizedDatapath":
        """Emit the gate-level circuit for one arithmetic assignment.

        *arithmetic* is the global style (``"online"`` or
        ``"traditional"``); *assignment* optionally overrides it per
        node.  Keys are operator labels (see :meth:`operator_labels`) or
        output names (the output's root operator); values are style
        strings or registered :class:`~repro.synth.OperatorSpec` names.
        Unknown keys raise ValueError naming the valid ones.
        """
        if arithmetic not in ("online", "traditional"):
            raise ValueError("arithmetic must be 'online' or 'traditional'")
        if not self._outputs:
            raise ValueError("datapath has no outputs")
        specs = self._resolve_assignment(arithmetic, assignment)
        styles = {spec.style for spec in specs.values()}
        if not styles:
            effective = arithmetic
        elif styles == {"online"}:
            effective = "online"
        elif styles == {"traditional"}:
            effective = "traditional"
        else:
            effective = "mixed"
        # inputs/consts are style-neutral; they materialise in the online
        # domain whenever any operator consumes signed digits (an online
        # multiplier cannot accept a bridged two's-complement word, while
        # the reverse bridge is always available)
        input_domain = "online" if (
            "online" in styles or (not styles and arithmetic == "online")
        ) else "traditional"
        circuit_name = name or f"datapath_{effective}{self.ndigits}"
        circuit, out_layout, out_domains = self._lower(
            circuit_name, specs, input_domain
        )
        return SynthesizedDatapath(
            datapath=self,
            arithmetic=effective,
            circuit=circuit,
            out_layout=out_layout,
            delay_model=delay_model if delay_model is not None else FpgaDelay(),
            input_domain=input_domain,
            out_domains=out_domains,
            assignment={
                node.label: spec.name
                for node in self._topo_nodes()
                if node.kind in _OP_KINDS
                for spec in (specs[id(node)],)
            },
        )

    def _resolve_assignment(
        self, arithmetic: str, assignment: Optional[Mapping[str, str]]
    ) -> Dict[int, Any]:
        """Map every reachable operator node id to its OperatorSpec."""
        from repro.synth.spec import default_spec_name, operator_spec

        op_nodes = [n for n in self._topo_nodes() if n.kind in _OP_KINDS]
        by_label = {n.label: n for n in op_nodes}

        def spec_for(node: _Node, value: str):
            if value in ("online", "traditional"):
                value = default_spec_name(node.kind, value)
            spec = operator_spec(value)
            if spec.kind != node.kind:
                raise ValueError(
                    f"operator spec {spec.name!r} implements {spec.kind!r} "
                    f"nodes, but {node.label!r} is a {node.kind!r} node"
                )
            return spec

        chosen: Dict[int, Any] = {
            id(n): spec_for(n, arithmetic) for n in op_nodes
        }
        if assignment:
            for key, value in assignment.items():
                if key in by_label:
                    node = by_label[key]
                elif key in self._outputs:
                    node = self._outputs[key]
                    if node.kind not in _OP_KINDS:
                        raise ValueError(
                            f"output {key!r} has no operator at its root "
                            f"(its node kind is {node.kind!r}); assign a "
                            "node label instead"
                        )
                else:
                    valid = sorted(by_label) + sorted(self._outputs)
                    raise ValueError(
                        f"unknown assignment key {key!r}; valid keys are "
                        f"operator labels and output names: {valid}"
                    )
                chosen[id(node)] = spec_for(node, value)
        return chosen

    # ------------------------------------------------------ unified lowering
    def _lower(
        self,
        name: str,
        specs: Dict[int, Any],
        input_domain: str,
    ):
        """One spec-driven walk emitting the circuit for any assignment.

        Each node materialises in its spec's domain; values crossing a
        style boundary pass through an explicit bridge (two's-complement
        word -> signed-digit vector for free, borrow-save vector ->
        two's complement via one ``P - N`` subtractor, and traditional
        word -> online multiplier operand by truncating to ``n``
        fractional bits — wiring only, at most one ULP of rounding; see
        ``truncated_operand``).
        """
        from repro.arith.adder_tree import adder_tree

        n = self.ndigits
        c = Circuit(name)
        ops = NetOps(c)
        width0 = n + 1  # Q1.n

        online_vals: Dict[int, BSVec] = {}
        trad_vals: Dict[int, Tuple[List[int], int]] = {}

        input_vecs: Dict[str, BSVec] = {}
        input_bits: Dict[str, List[int]] = {}
        if input_domain == "online":
            for in_name in self._inputs:
                input_vecs[in_name] = {
                    k + 1: (c.input(f"{in_name}_p{k}"), c.input(f"{in_name}_n{k}"))
                    for k in range(n)
                }
        else:
            for in_name in self._inputs:
                input_bits[in_name] = [
                    c.input(f"{in_name}_b{i}") for i in range(width0)
                ]

        def const_bits(value: Fraction, frac_bits: int, width: int) -> List[int]:
            scaled = int(value * 2**frac_bits)
            raw = scaled & (2**width - 1)
            zero, one = c.const0(), c.const1()
            return [one if (raw >> i) & 1 else zero for i in range(width)]

        def align(a, fa, b, fb):
            """Pad LSBs so both vectors share a fraction length."""
            f = max(fa, fb)
            zero = c.const0()
            if fa < f:
                a = [zero] * (f - fa) + list(a)
            if fb < f:
                b = [zero] * (f - fb) + list(b)
            return a, b, f

        # ------------------------------------------------- domain bridges
        def vec_from_bits(bits: List[int], frac: int) -> BSVec:
            """Two's complement -> borrow-save: bit i is a positive digit
            at position ``frac - i``; the sign bit is a negative digit."""
            zero = c.const0()
            vec: BSVec = {}
            for i, net in enumerate(bits):
                pos = frac - i
                if i == len(bits) - 1:
                    vec[pos] = (zero, net)
                else:
                    vec[pos] = (net, zero)
            return vec

        def bits_from_vec(vec: BSVec) -> Tuple[List[int], int]:
            """Borrow-save -> two's complement: resolve ``P - N``."""
            if not vec:
                return [c.const0()], 0
            frac = max(vec)
            pmin = min(vec)
            w0 = frac - pmin + 1
            zero = c.const0()
            p_word = [zero] * w0
            n_word = [zero] * w0
            for pos, (p, nn) in vec.items():
                p_word[frac - pos] = p
                n_word[frac - pos] = nn
            # two guard bits: P - N is signed and needs sign headroom
            w = w0 + 2
            p_ext = p_word + [zero, zero]
            n_ext = n_word + [zero, zero]
            diff = adder_tree(c, [p_ext, twos_complement_negate(c, n_ext)], w)
            return diff, frac

        # ------------------------------------------------ per-domain emits
        def emit_online(node: _Node) -> BSVec:
            key = id(node)
            if key in online_vals:
                return online_vals[key]
            kind = node.kind
            if kind == "input":
                if input_domain == "online":
                    vec = input_vecs[node.name]
                else:
                    vec = vec_from_bits(*emit_trad(node))
            elif kind == "const":
                plain = _const_digits(node.value, n)
                sd = sd_canonical(SDNumber.from_iterable(plain, exp_msd=-1))
                # the minimal-weight recoding may need a digit at position
                # 0 (e.g. 52/64 -> 1.00-1-100); only use it when it fits
                # the fraction window, else keep the plain digits
                digits_by_pos = {
                    k - sd.exp_msd: d for k, d in enumerate(sd.digits) if d
                }
                if any(pos < 1 or pos > n for pos in digits_by_pos):
                    digits_by_pos = {
                        k + 1: d for k, d in enumerate(plain) if d
                    }
                vec = {
                    pos: (
                        ops.const(1 if d == 1 else 0),
                        ops.const(1 if d == -1 else 0),
                    )
                    for pos, d in digits_by_pos.items()
                }
            elif kind == "neg":
                vec = bs_negate(emit_online(node.args[0]))
            elif kind in _OP_KINDS:
                spec = specs[id(node)]
                if spec.style != "online":
                    vec = vec_from_bits(*emit_trad(node))
                elif kind == "add":
                    vec = spec.lower(
                        ops, emit_online(node.args[0]), emit_online(node.args[1])
                    )
                else:  # online mul
                    vec = spec.lower(
                        ops,
                        n,
                        ONLINE_DELTA,
                        as_operand(node.args[0]),
                        as_operand(node.args[1]),
                    )
            else:  # pragma: no cover - defensive
                raise AssertionError(kind)
            online_vals[key] = vec
            return vec

        def as_operand(node: _Node) -> List[Tuple[object, object]]:
            if not node.is_fraction_shaped():
                raise ValueError(
                    "multiplier operands must be fraction-shaped (inputs, "
                    "constants, products or negations thereof); renormalise "
                    "sums before multiplying"
                )
            if out_domain(node) == "traditional":
                return truncated_operand(node)
            vec = emit_online(node)
            zero = ops.const(0)
            return [vec.get(k + 1, (zero, zero)) for k in range(n)]

        def truncated_operand(node: _Node) -> List[Tuple[object, object]]:
            """Traditional word -> online multiplier operand, wiring only.

            The word is truncated to ``n`` fractional bits (dropping
            LSBs) and re-read as signed digits ``d_k = b_{n-k} - s``
            (``s`` the sign bit): positions ``1..n`` with rails
            ``(bit, sign)``, representing ``trunc(v) + s * 2**-n`` — at
            most one ULP from the exact value, with no gates on the
            path.  Valid because a fraction-shaped value is in
            ``(-1, 1)`` with magnitude at most ``1 - 2**(1-n)``, so the
            bits above index ``n`` are sign copies and the shifted word
            never hits the unrepresentable ``-1``.
            """
            bits, frac = emit_trad(node)
            zero = c.const0()
            if frac < n:  # pragma: no cover - trad fracs are always >= n
                bits = [zero] * (n - frac) + list(bits)
                frac = n
            word = _sign_extend_bits(c, bits, frac + 1)[frac - n : frac + 1]
            sign = word[n]
            return [(word[n - 1 - k], sign) for k in range(n)]

        def emit_trad(node: _Node) -> Tuple[List[int], int]:
            """Returns ``(bits LSB-first, frac_bits)`` in two's complement."""
            key = id(node)
            if key in trad_vals:
                return trad_vals[key]
            kind = node.kind
            if kind == "input":
                if input_domain == "traditional":
                    result = (input_bits[node.name], n)
                else:
                    result = bits_from_vec(emit_online(node))
            elif kind == "const":
                result = (const_bits(node.value, n, width0), n)
            elif kind == "neg":
                bits, f = emit_trad(node.args[0])
                # guard bit so -min does not overflow
                sign = bits[-1]
                result = (twos_complement_negate(c, list(bits) + [sign]), f)
            elif kind in _OP_KINDS:
                spec = specs[id(node)]
                if spec.style != "traditional":
                    result = bits_from_vec(emit_online(node))
                elif kind == "add":
                    a, fa = emit_trad(node.args[0])
                    b, fb = emit_trad(node.args[1])
                    a, b, f = align(a, fa, b, fb)
                    out_width = max(len(a), len(b)) + 1
                    result = (spec.lower(c, [a, b], out_width), f)
                else:  # traditional mul
                    a, fa = emit_trad(node.args[0])
                    b, fb = emit_trad(node.args[1])
                    w = max(len(a), len(b))
                    a = _sign_extend_bits(c, a, w)
                    b = _sign_extend_bits(c, b, w)
                    result = (spec.lower(c, a, b), fa + fb)
            else:  # pragma: no cover - defensive
                raise AssertionError(kind)
            trad_vals[key] = result
            return result

        def out_domain(node: _Node) -> str:
            if node.kind in _OP_KINDS:
                return specs[id(node)].style
            if node.kind == "neg":
                return out_domain(node.args[0])
            return input_domain

        # ------------------------------------------------------- outputs
        out_layout: Dict[str, Any] = {}
        out_domains: Dict[str, str] = {}
        for out_name, node in self._outputs.items():
            domain = out_domain(node)
            out_domains[out_name] = domain
            if domain == "online":
                vec = emit_online(node)
                if not vec:
                    # constant-zero output: keep one digit so the port exists
                    vec = {1: (ops.const(0), ops.const(0))}
                positions = sorted(vec)
                out_layout[out_name] = positions
                for idx, pos in enumerate(positions):
                    p, nn = vec[pos]
                    c.output(f"{out_name}_p{idx}", p)
                    c.output(f"{out_name}_n{idx}", nn)
            else:
                bits, f = emit_trad(node)
                out_layout[out_name] = (len(bits), f)
                for i, net in enumerate(bits):
                    c.output(f"{out_name}_b{i}", net)
        return c, out_layout, out_domains


def _sign_extend_bits(c: Circuit, bits: Sequence[int], width: int) -> List[int]:
    out = list(bits)
    while len(out) < width:
        out.append(out[-1])
    return out


def _const_digits(value: Fraction, ndigits: int) -> List[int]:
    """Binary-like signed digits (MSD first) of a representable fraction."""
    scaled = int(value * 2**ndigits)
    sign = 1 if scaled >= 0 else -1
    mag = abs(scaled)
    return [((mag >> (ndigits - 1 - k)) & 1) * sign for k in range(ndigits)]


# ----------------------------------------------------------------- synthesis
@dataclass
class DatapathRun:
    """Overclocking sweep of one synthesized datapath on one input batch."""

    correct: Dict[str, np.ndarray]
    rated_step: int
    settle_step: int
    error_free_step: int
    _result: SimulationResult
    _decode_fn: object

    def decode(self, step: int) -> Dict[str, np.ndarray]:
        """Output values at clock period *step* quanta."""
        return self._decode_fn(self._result.sample(step))

    def step_for_factor(self, factor: float) -> int:
        if factor <= 0:
            raise ValueError("frequency factor must be positive")
        return int(self.error_free_step / factor)

    def at_factor(self, factor: float) -> Dict[str, np.ndarray]:
        """Output values when clocked at ``factor * f0``."""
        return self.decode(self.step_for_factor(factor))

    def mean_abs_error(self, step: int) -> float:
        """Mean |error| across all outputs at clock period *step*."""
        values = self.decode(step)
        errs = [
            np.abs(values[name] - self.correct[name]).mean()
            for name in self.correct
        ]
        return float(np.mean(errs))


class SynthesizedDatapath:
    """A gate-level realisation of a :class:`Datapath` in one assignment.

    ``arithmetic`` is ``"online"``, ``"traditional"``, or ``"mixed"``
    (per-node assignment spanning both styles).  ``input_domain`` names
    the encoding of the input ports — signed-digit pairs or
    two's-complement bits — and ``out_domains`` maps each output to the
    domain its ports use; for pure styles both collapse to the
    historical single-style behavior.
    """

    def __init__(
        self,
        datapath: Datapath,
        arithmetic: str,
        circuit: Circuit,
        out_layout,
        delay_model: DelayModel,
        input_domain: Optional[str] = None,
        out_domains: Optional[Dict[str, str]] = None,
        assignment: Optional[Dict[str, str]] = None,
    ) -> None:
        self.datapath = datapath
        self.arithmetic = arithmetic
        self.circuit = circuit
        self.out_layout = out_layout
        self.delay_model = delay_model
        self.input_domain = input_domain or (
            "online" if arithmetic == "online" else "traditional"
        )
        self.out_domains = out_domains or {
            name: self.input_domain for name in datapath.output_names
        }
        self.assignment = dict(assignment or {})
        self.simulator = WaveformSimulator(circuit, delay_model)
        self.rated_step = static_timing(circuit, delay_model).critical_delay

    def area(self) -> AreaReport:
        return estimate_area(self.circuit)

    # ------------------------------------------------------------- encoding
    def encode(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Encode float operand batches into port values.

        Values are quantized to ``ndigits`` fractional digits and must lie
        in ``(-1, 1)``.
        """
        n = self.datapath.ndigits
        missing = set(self.datapath.input_names) - set(inputs)
        if missing:
            raise ValueError(f"missing inputs {sorted(missing)}")
        ports: Dict[str, np.ndarray] = {}
        for name in self.datapath.input_names:
            values = np.asarray(inputs[name], dtype=np.float64)
            scaled = np.round(values * 2**n).astype(np.int64)
            if np.any(np.abs(scaled) >= 2**n):
                raise ValueError(f"input {name!r} outside (-1, 1)")
            if self.input_domain == "online":
                sign = np.sign(scaled).astype(np.int8)
                mag = np.abs(scaled)
                for k in range(n):
                    digit = ((mag >> (n - 1 - k)) & 1).astype(np.int8) * sign
                    ports[f"{name}_p{k}"] = (digit == 1).astype(np.uint8)
                    ports[f"{name}_n{k}"] = (digit == -1).astype(np.uint8)
            else:
                width = n + 1
                raw = np.where(scaled < 0, scaled + (1 << width), scaled)
                for i in range(width):
                    ports[f"{name}_b{i}"] = ((raw >> i) & 1).astype(np.uint8)
        return ports

    # ------------------------------------------------------------- decoding
    def _decode(self, sample: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        num = next(iter(sample.values())).shape[0]
        for name in self.out_layout:
            if self.out_domains[name] == "online":
                positions = self.out_layout[name]
                total = np.zeros(num, dtype=np.float64)
                for idx, pos in enumerate(positions):
                    digit = sample[f"{name}_p{idx}"].astype(
                        np.float64
                    ) - sample[f"{name}_n{idx}"].astype(np.float64)
                    total += digit * 2.0 ** (-pos)
                out[name] = total
            else:
                width, frac = self.out_layout[name]
                raw = np.zeros(num, dtype=np.int64)
                for i in range(width):
                    raw |= sample[f"{name}_b{i}"].astype(np.int64) << i
                sign = raw >= (1 << (width - 1))
                raw = raw - (sign.astype(np.int64) << width)
                out[name] = raw.astype(np.float64) / 2.0**frac
        return out

    # ------------------------------------------------------------------ run
    def apply(self, inputs: Dict[str, np.ndarray]) -> DatapathRun:
        """Simulate one operand batch across every clock period."""
        result = self.simulator.run(self.encode(inputs))
        settle = result.settle_step
        correct = self._decode(result.sample(settle))
        error_free = 0
        for t in range(settle, -1, -1):
            values = self._decode(result.sample(t))
            if any(
                not np.array_equal(values[k], correct[k]) for k in correct
            ):
                error_free = t + 1
                break
        return DatapathRun(
            correct=correct,
            rated_step=self.rated_step,
            settle_step=settle,
            error_free_step=error_free,
            _result=result,
            _decode_fn=self._decode,
        )
