"""Batched digit-level behavioral engine for the online operators.

The gate-level engines (:mod:`repro.netlist.sim` and
:mod:`repro.netlist.compiled`) evaluate the online multiplier one boolean
gate at a time.  This module evaluates the *same* Algorithm-1 recurrence
directly on signed-digit **values** held in int8 NumPy arrays shaped
``(positions, samples)``, one vectorized update per stage per tick — the
digit-level behavioral move that escapes gate-level cost entirely.

Why value-level evaluation is exact
-----------------------------------
A borrow-save digit is a ``(pos, neg)`` bit pair and several encodings
represent the same value (``(0,0)`` and ``(1,1)`` both encode 0), so a
value-level simulation is not obviously equivalent to the bit-level one.
It is, because of two structural facts of :func:`repro.core.kernels.om_stage`:

* The layer-1 PPM cells read the ``P`` operand as a *pair* but their
  outputs collapse to functions of its digit **value** ``v``:
  ``g_i = MAJ(Pp, Hp, ~Pn) = (v == 1) | ((v == 0) & Hp)`` and
  ``hh_i = XOR(Pp, Hp, Pn) = Hp ^ (v != 0)`` for every encoding of ``v``.
  The selection estimate (Eq. (2)) likewise reads only bit *differences*
  (:func:`repro.core.selection.estimate_quarters`), and the recode LUTs
  emit canonical encodings.  So the stage update is a pure function of
  (``P`` digit values, ``H`` bit planes).
* The ``H`` vectors are static per sample — pure functions of the primary
  inputs — and their exact bit planes (including non-canonical zeros
  produced by the Fig. 2 online adder) are computable in closed form from
  the operand digit values, because the SDVM outputs are canonical and the
  adder's plane functions collapse the same way.

Propagating ``P`` digit values plus precomputed ``H`` bit planes therefore
reproduces :meth:`repro.core.OnlineMultiplier.wave` **bit-for-bit at every
tick** — overclocked capture boundaries included: a clock period
``T_S = b * mu`` cuts every propagation chain at depth ``b``, and stages
beyond the cut still hold their previous-iteration digits, exactly the
capture semantics the packed engine produces at the netlist level.

Arithmetic formulation of one stage
-----------------------------------
The boolean PPM cells admit closed int8 forms, which keeps the hot loop
at a dozen elementwise operations per batched stage update:

    g_i  = (v_i + Hp_i + 1) >> 1          # MAJ collapse on the digit value
    hh_i = Hp_i ^ (v_i != 0)
    m_i  = hh_i + Hn_i - g_{i+1}          # PPM cell: m = 2*pc - q
    q_i  = m_i & 1
    pc_i = (m_i + q_i) >> 1
    P'_{i-1} = q_i - pc_{i+1}             # the new tail digit value

and the Eq. (2) selection on the estimate ``V_q = 4 P_0 + 2 P_1 + P_2 +
g_3 - p_3`` (in quarter units) reduces to comparisons:

    z  = (V_q >= 2) - (V_q <= -3)         # forced 0 in the first delta stages
    r  = clip(V_q - 4 z, -3, 3)
    r1 = (r >= 2) - (r <= -2);  r2 = r - 2 * r1

Complexity: the tick loop skips stages whose input has already settled
(stage ``idx`` is final from tick ``idx + 1``), so a full wave costs
``O((N + delta)^2 / 2)`` vectorized stage updates regardless of batch
size — versus thousands of gate evaluations per stage for the bit-level
engines.  The cross-engine conformance suite (``tests/vec/``) pins the
bit-exactness claim against both gate-level engines.
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Tuple

import numpy as np

__all__ = ["om_wave_vector", "vector_online_add"]


def _maj(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Boolean majority-of-three, elementwise."""
    return (a & b) | (c & (a | b))


def _up(arr: np.ndarray, k: int = 1) -> np.ndarray:
    """Shift the position axis so ``out[..., i, :] = arr[..., i + k, :]``.

    Entries shifted in from beyond the array are zero — matching the
    kernels' convention that a missing carry reads as constant 0 (and a
    missing *inverted* carry as constant 1, via ``~_up(...)``).
    """
    out = np.zeros_like(arr)
    out[..., : arr.shape[-2] - k, :] = arr[..., k:, :]
    return out


# --------------------------------------------------------- the online adder

def vector_online_add(xdigits: np.ndarray, ydigits: np.ndarray) -> np.ndarray:
    """Batched digit-parallel online adder (Fig. 2) on digit values.

    Parameters
    ----------
    xdigits, ydigits:
        Arrays of shape ``(N, S)`` with values in {-1, 0, 1}; row ``k``
        is the digit at position ``k + 1`` (weight ``2**-(k+1)``).

    Returns
    -------
    ndarray of shape ``(N + 1, S)`` int8 — the sum digits at positions
    ``0 .. N`` (the adder is carry-free, so the sum grows by exactly one
    most-significant position).  Digit-for-digit identical to
    :func:`repro.core.kernels.bs_add` on canonical inputs
    (``tests/vec/test_vector_engine.py`` pins this).
    """
    xv = np.asarray(xdigits)
    yv = np.asarray(ydigits)
    if xv.shape != yv.shape or xv.ndim != 2:
        raise ValueError("operands must be equal-shape (N, S) digit arrays")
    n, s = xv.shape
    av = np.zeros((n + 2, s), dtype=np.int8)
    bv = np.zeros((n + 2, s), dtype=np.int8)
    av[1 : n + 1] = xv
    bv[1 : n + 1] = yv
    zp, zn = _bs_add_planes(av, bv)
    return (zp.view(np.int8) - zn.view(np.int8))[: n + 1]


def _bs_add_planes(
    av: np.ndarray, bv: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Output bit planes of ``bs_add`` on canonically-encoded value arrays.

    ``av``/``bv`` are dense int8 value arrays over the position axis
    (zeros at structurally-absent positions).  Layer 1 collapses on the
    canonical first operand; layer 2 is evaluated densely — positions
    beyond the structural range read carry 0 (and inverted carry 1),
    matching the ``dict.get`` conventions of the bit-level kernel.
    """
    g = (av == 1) | ((av == 0) & (bv == 1))
    hh = (bv == 1) ^ (av != 0)
    bn = bv == -1
    zp = hh ^ bn ^ _up(g)
    zn = _maj(_up(hh), _up(bn), ~_up(g, 2))
    return zp, zn


# ---------------------------------------------------------- the multiplier

#: samples per cache-resident block.  The tick loop streams a dozen
#: elementwise passes over its scratch arrays; blocking the sample axis
#: keeps the per-pass working set inside L2 instead of main memory,
#: which is worth ~3x on a typical desktop core.  Any value yields
#: bit-identical results (samples are independent).
_CHUNK = 4096


#: scratch bytes a thread keeps between calls, at most: a larger
#: workspace (long words at full chunk width) is allocated for its call
#: alone, so one big request cannot pin its memory for the process's life
_ARENA_MAX_BYTES = 1 << 22

_arena = threading.local()


def _arena_bytes(nbytes: int) -> np.ndarray:
    """This thread's scratch buffer, grown to the largest workspace yet.

    Every vector evaluation on a thread carves its :class:`_Workspace`
    out of this one buffer, so a long-running process holds one bounded
    workspace per thread instead of allocating (and page-faulting in)
    megabytes per call.  Valid until the next workspace on this thread.
    """
    if nbytes > _ARENA_MAX_BYTES:
        return np.empty(nbytes, dtype=np.uint8)
    buf = getattr(_arena, "buf", None)
    if buf is None or buf.size < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
        _arena.buf = buf
    return buf


def _aligned(nbytes: int) -> int:
    return -(-nbytes // 64) * 64


class _Workspace:
    """Scratch for one :func:`om_wave_vector` call, carved from the arena.

    Every buffer the chunk loop touches lives here and is reused across
    chunks — repeated `np.zeros`/`np.empty` of 100KB+ arrays would fall
    into the allocator's mmap regime and pay page-fault costs on every
    chunk.  The buffers live in this thread's arena
    (:func:`_arena_bytes`), so they are reused across calls too.  Two
    groups of buffers are never live at once and share their bytes: the
    ``H``-plane scratch of :func:`_h_planes` (``av``, ``bv``, ``b1``,
    ``hh``) and the tick loop's state and scratch.  Nothing carries
    over between chunks or calls: each chunk initialises what it reads.
    ``view(c)`` returns the buffers sliced to the width of the current
    (possibly final, partial) chunk.
    """

    def __init__(self, n: int, delta: int, c: int) -> None:
        s_tot = n + delta
        npos = s_tot + 1
        tp = npos - 3
        ka_max = max(n - 1, 1)
        k_max = s_tot - 1
        nb = n - 1
        i8, bl = np.int8, np.bool_
        # one zeroed pad column on the adder scratch lets q - pc_next be
        # a single full-width subtract (the boundary pc reads as 0)
        shared = [
            ("hp1", (n, tp, c), i8),
            ("hn1", (n, tp, c), i8),
            ("g", (ka_max, tp + 1, c), i8),
            ("m", (ka_max, tp + 1, c), i8),
        ]
        h_scratch = [
            ("av", (nb, tp, c), i8),
            ("bv", (nb, tp, c), i8),
            ("b1", (nb, tp, c), bl),
            ("hh", (nb, tp, c), bl),
        ] if n > 1 else []
        tick_scratch = [
            ("state", (s_tot, npos, c), i8),
            ("state0", (npos, c), i8),
            ("z_state", (n, c), i8),
            ("tcopy", (delta, tp, c), i8),
            ("vq", (k_max, c), i8),
            ("z", (k_max, c), i8),
            ("r", (k_max, c), i8),
            ("ba", (k_max, c), bl),
            ("bb", (k_max, c), bl),
        ]

        def span(specs) -> int:
            return sum(_aligned(math.prod(shape)) for _, shape, _ in specs)

        base = span(shared)
        arena = _arena_bytes(base + max(span(h_scratch), span(tick_scratch)))

        def carve(specs, offset: int) -> None:
            for name, shape, dtype in specs:
                size = math.prod(shape)  # int8 and bool: 1 byte each
                buf = arena[offset : offset + size].view(dtype)
                setattr(self, name, buf.reshape(shape))
                offset += _aligned(size)

        carve(shared, 0)
        carve(h_scratch, base)
        carve(tick_scratch, base)
        #: per-stage selection mask (j = idx - delta >= 0 carries sel)
        self.emit = (np.arange(s_tot) >= delta).astype(i8)[:, None]
        if n > 1:
            rows = np.arange(1, n)[:, None, None]  # stage index
            cols = np.arange(n)[None, :, None]  # appended-digit offset
            self.mask_a = (cols <= rows).astype(i8)
            self.mask_b = (cols < rows).astype(i8)
            # t1/t2 alias the adder scratch: _h_planes runs before the
            # tick loop touches g/m, and their pad column is untouched
            self.t1 = self.g.view(bl)[:, :tp]
            self.t2 = self.m.view(bl)[:, :tp]

    def view(self, c: int) -> "_Workspace":
        if c == self.state.shape[-1]:
            return self
        clone = object.__new__(_Workspace)
        clone.__dict__ = {
            name: arr[..., :c] if isinstance(arr, np.ndarray) and arr.shape[-1] != 1 else arr
            for name, arr in self.__dict__.items()
        }
        return clone


def _run_chunks(
    n: int,
    delta: int,
    ticks: int,
    xv: np.ndarray,
    yv: np.ndarray,
    out: np.ndarray,
    emit_rows: Optional[np.ndarray] = None,
) -> None:
    """Run :func:`_wave_chunk` over the sample axis in ``_CHUNK`` blocks."""
    num_samples = xv.shape[1]
    ws = _Workspace(n, delta, min(_CHUNK, num_samples))
    for lo in range(0, num_samples, _CHUNK):
        hi = min(lo + _CHUNK, num_samples)
        _wave_chunk(
            n,
            delta,
            ticks,
            xv[:, lo:hi],
            yv[:, lo:hi],
            out[:, :, lo:hi],
            ws.view(hi - lo),
            emit_rows=emit_rows,
        )


def om_wave_vector(
    ndigits: int,
    delta: int,
    xdigits: np.ndarray,
    ydigits: np.ndarray,
    max_ticks: Optional[int] = None,
) -> np.ndarray:
    """Stage-delay wave of the online multiplier on digit-value arrays.

    The ``backend="vector"`` implementation of
    :meth:`repro.core.OnlineMultiplier.wave` — same signature semantics,
    same ``(max_ticks + 1, N, S)`` int8 result with tick 0 the all-zero
    reset state, bit-identical digits at every tick.

    Stage layout (``S_tot = N + delta`` stages, index ``idx = j + delta``):

    * ``idx = 0`` — empty ``P``: the stage output ``P' = 2 * H`` is a
      constant plane, computed once;
    * ``1 <= idx <= N - 1`` — appending stages: the W-adder tail runs over
      dense position arrays, the head goes through vectorized selection;
    * ``idx >= N`` — late stages (no SDVM): the tail passes through with
      boundary carries forced to 0, as in the bit-level ``om_stage``.

    At tick ``t`` only stages ``idx >= t - 1`` are evaluated: stage
    ``idx`` settles at tick ``idx + 1``, so earlier stages would
    recompute their previous values verbatim.

    Internal representation note: a stage's two recoded head digits
    ``r1, r2`` are stored as the single residual value ``r = 2*r1 + r2``
    in head position 0.  The only consumer of the head is the next
    stage's estimate ``V_q = 4*r1 + 2*r2 + P_2 = 2*r + P_2``, so the
    packed form is observationally identical and saves the whole
    residual-recode step per stage update.  Emitted ``z`` digits — the
    engine's outputs — are unaffected.
    """
    if ndigits < 1:
        raise ValueError("ndigits must be >= 1")
    if delta < 3:
        # om_stage requires H strictly below position 3 (the selection
        # boundary); the bit-level wave raises for delta < 3 too.
        raise ValueError("the radix-2 selection boundary requires delta >= 3")
    xv = np.asarray(xdigits)
    yv = np.asarray(ydigits)
    if xv.shape != yv.shape or xv.shape[0] != ndigits:
        raise ValueError(f"digit arrays must have shape ({ndigits}, S)")
    n = ndigits
    num_samples = xv.shape[1]
    ticks = max_ticks if max_ticks is not None else n + delta
    xv = xv.astype(np.int8, copy=False)
    yv = yv.astype(np.int8, copy=False)
    out = np.zeros((ticks + 1, n, num_samples), dtype=np.int8)
    _run_chunks(n, delta, ticks, xv, yv, out)
    return out


def _h_planes(n: int, delta: int, xv: np.ndarray, yv: np.ndarray, ws: _Workspace) -> None:
    """Static ``H`` bit planes for appending stages ``1 .. N-1``, batched.

    Fills ``ws.hp1 = hp + 1`` and ``ws.hn1 = hn + 1`` (int8, prebiased
    for the tick loop's ``s1 = v + hp1`` / ``m = hn1 - (s1 & 1) - g_next``
    fusion), both of
    shape ``(N, tail, C)`` over tail positions ``3 .. N + delta`` with
    row 0 unused: the :func:`_bs_add_planes` formulas evaluated for every stage in one
    set of elementwise passes.  The SDVM operands are built as masked
    outer products — stage ``idx`` appends ``a = x_{idx+1} * Y[idx+1]``
    and ``b = y_{idx+1} * X[idx]`` at positions ``delta+1 ..``.
    """
    npos = n + delta + 1
    tp = npos - 3
    if n > 1:
        av, bv, b1, hh, t1, t2 = ws.av, ws.bv, ws.b1, ws.hh, ws.t1, ws.t2
        # av[idx-1, delta-2+k] = x_{idx+1} y_{k+1} (position delta+1+k),
        # zeroed beyond each stage's range and outside the product block
        pa = av[:, delta - 2 : delta - 2 + n]
        pb = bv[:, delta - 2 : delta - 2 + n]
        av.fill(0)
        bv.fill(0)
        np.multiply(xv[1:, None], yv[None, :], out=pa)
        np.multiply(yv[1:, None], xv[None, :], out=pb)
        pa *= ws.mask_a
        pb *= ws.mask_b
        # layer 1 (collapsed on the canonical first operand); the carry
        # g overwrites av and the borrow bn overwrites bv, each read last
        np.equal(bv, 1, out=b1)
        np.not_equal(av, 0, out=t1)
        np.bitwise_xor(b1, t1, out=hh)
        np.logical_not(t1, out=t1)
        t1 &= b1
        g = av.view(np.bool_)
        np.equal(av, 1, out=g)
        g |= t1
        bn = bv.view(np.bool_)
        np.equal(bv, -1, out=bn)
        # zp_i = hh_i ^ bn_i ^ g_{i+1}   (missing carry reads as 0)
        np.bitwise_xor(hh, bn, out=t1)
        t1[:, :-1] ^= g[:, 1:]
        np.add(t1.view(np.int8), 1, out=ws.hp1[1:])
        # zn_i = MAJ(hh_{i+1}, bn_{i+1}, ~g_{i+2}): shifted-in rows read
        # hh = bn = 0 so zn is 0 there; the inverted missing carry is 1
        np.bitwise_and(hh[:, 1:], bn[:, 1:], out=t1[:, : tp - 1])
        np.bitwise_or(hh[:, 1:], bn[:, 1:], out=t2[:, : tp - 1])
        np.logical_not(g[:, 2:], out=b1[:, : tp - 2])
        b1[:, tp - 2] = True
        t2[:, : tp - 1] &= b1[:, : tp - 1]
        t1[:, : tp - 1] |= t2[:, : tp - 1]
        t1[:, tp - 1] = False
        np.add(t1.view(np.int8), 1, out=ws.hn1[1:])


def _wave_chunk(
    n: int,
    delta: int,
    ticks: int,
    xv: np.ndarray,
    yv: np.ndarray,
    out: np.ndarray,
    ws: _Workspace,
    emit_rows: Optional[np.ndarray] = None,
) -> None:
    """Run the full tick loop for one block of samples, writing ``out``.

    The state update is in place: stage ``idx`` reads row ``idx - 1``
    from the previous tick, so every read (adder-tail scratch, selection
    estimates) lands in scratch *before* any state row is rewritten, and
    the late-stage pass-through copies rows in descending order.

    ``emit_rows`` maps tick ``t`` to the output row that should capture
    the tick-``t`` digit state, with ``-1`` meaning "no capture at this
    tick" — the fused multi-period kernel (:mod:`repro.vec.fused`) emits
    snapshots only at the requested chain-cut depths while the state
    still advances through every tick.  ``None`` is the identity map
    (``out[t]`` captures tick ``t``), which is the full-wave behavior of
    :func:`om_wave_vector`.
    """
    s_tot = n + delta
    npos = n + delta + 1  # dense position axis 0 .. N + delta
    tp = npos - 3  # tail positions 3 .. N + delta (offset by 3 below)

    _h_planes(n, delta, xv, yv, ws)
    ws.m[:, tp] = 0
    hp1, hn1, emit = ws.hp1, ws.hn1, ws.emit

    # stage 0: P' = 2 * H with H = 2**-delta * x_1 * y_1 — constant from
    # tick 1 onwards (appending logic is free, as in the paper)
    state0 = ws.state0
    state0.fill(0)
    state0[delta] = xv[0] * yv[0]

    state = ws.state
    state.fill(0)
    z_state = ws.z_state
    z_state.fill(0)

    def select(vq: np.ndarray, emit_col):
        """Eq. (2) select + residual, branch-free: ``z`` in {-1,0,1}
        (forced 0 where ``emit_col`` is 0) and ``r = clip(V_q - 4z)``
        packed as ``2*r1 + r2``."""
        k = vq.shape[0]
        z = ws.z[:k]
        r = ws.r[:k]
        ba = ws.ba[:k]
        bb = ws.bb[:k]
        np.greater_equal(vq, 2, out=ba)
        np.less_equal(vq, -3, out=bb)
        np.subtract(ba.view(np.int8), bb.view(np.int8), out=z)
        if emit_col is not None:
            np.multiply(z, emit_col, out=z)
        np.left_shift(z, 2, out=r)
        np.subtract(vq, r, out=r)
        np.minimum(r, 3, out=r)
        np.maximum(r, -3, out=r)
        return z, r

    for t in range(1, ticks + 1):
        row = t if emit_rows is None else int(emit_rows[t])
        lo_idx = t - 1  # stages below this are settled
        if lo_idx >= s_tot:
            if row >= 0:
                out[row] = z_state
            continue

        if t == 1:
            # Zero-input fast path: every stage sees the reset state, so
            # the late stages stay all-zero and the appending stages
            # collapse to static functions of H (g reduces to Hp).
            if n > 1:
                ka = n - 1
                g = ws.g[:ka]
                m = ws.m[:ka]
                np.right_shift(hp1[1:n], 1, out=g[:, :tp])
                np.bitwise_and(hp1[1:n], 1, out=m[:, :tp])
                np.subtract(hn1[1:n], m[:, :tp], out=m[:, :tp])
                m[:, : tp - 1] -= g[:, 1:tp]
                vq = ws.vq[:ka]
                np.copyto(vq, g[:, 0])
                np.bitwise_and(m, 1, out=g)
                m += 1
                m >>= 1
                vq -= m[:, 0]
                z, r = select(vq, emit[1:n])
                dst = state[1:n]
                np.subtract(g[:, :tp], m[:, 1:], out=dst[:, 2 : npos - 1])
                dst[:, 0] = r
                if n > delta:
                    z_state[: n - delta] = z[delta - 1 :]
            state[0] = state0
            if row >= 0:
                out[row] = z_state
            continue

        act_lo = max(1, lo_idx)  # stage 0 is the constant stage
        t_lo = max(n, act_lo)
        ka = n - act_lo  # active appending stages (may be <= 0)
        k = s_tot - act_lo  # all active stages — one contiguous row range
        pv_all = state[act_lo - 1 : s_tot - 1]

        # ---- appending-stage adder tails (reads only, results in scratch).
        # Both layer-1 outputs derive from the prebiased sum
        # s1 = v + Hp + 1 in {0..3}: the carry is g = s1 >> 1 and the
        # parity gives hh = Hp ^ (v != 0) = 1 - (s1 & 1) (v in {-1,0,1}),
        # so m = hh + Hn - g_next = Hn1 - (s1 & 1) - g_next.
        if ka > 0:
            pt = pv_all[:ka, 3:]
            g = ws.g[:ka]
            m = ws.m[:ka]
            np.add(pt, hp1[act_lo:n], out=m[:, :tp])
            np.right_shift(m[:, :tp], 1, out=g[:, :tp])
            m &= 1
            np.subtract(hn1[act_lo:n], m[:, :tp], out=m[:, :tp])
            m[:, : tp - 1] -= g[:, 1:tp]

        # ---- selection estimates for *all* active stages in one pass:
        # V_q = 2*r_prev + P_2 (+ adder boundary carry/borrow); the carry
        # is folded in before g's buffer is reused for q below
        vq = ws.vq[:k]
        np.left_shift(pv_all[:, 0], 1, out=vq)
        vq += pv_all[:, 2]
        if ka > 0:
            vq[:ka] += g[:, 0]
            # q = m & 1 reuses g (its tail was consumed above), then m's
            # buffer becomes pc = (m + 1) >> 1 (== (m+q)>>1 on m in -1..2);
            # the pad column round-trips 0 -> 1 -> 0 under += 1, >>= 1
            q = g
            np.bitwise_and(m, 1, out=q)
            m += 1
            m >>= 1
            vq[:ka] -= m[:, 0]
        z, r = select(vq, emit[act_lo:] if act_lo < delta else None)

        # ---- writes: late-stage pass-through first (staged through a
        # temp so every row reads its predecessor's previous-tick value,
        # including row N-1 before the adder block rewrites it), then the
        # adder tails P'_{i-1} = q_i - pc_{i+1}, then the head residuals
        nr = s_tot - t_lo
        if nr > 0:
            np.copyto(ws.tcopy[:nr], state[t_lo - 1 : s_tot - 1, 3:])
            state[t_lo:s_tot, 2 : npos - 1] = ws.tcopy[:nr]
        if ka > 0:
            dst = state[act_lo:n]
            np.subtract(q[:, :tp], m[:, 1:], out=dst[:, 2 : npos - 1])
        state[act_lo:s_tot, 0] = r
        e_lo = max(act_lo, delta)
        z_state[e_lo - delta : n] = z[e_lo - act_lo :]
        if row >= 0:
            out[row] = z_state
