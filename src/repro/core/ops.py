"""Stochastic arithmetic operations (Fig. 2 of the paper).

Every basic arithmetic operation is a bitwise logic operation on bit-streams:

====================  =====================  =======================  ==========
Operation             Logic                  Result (probabilities)   Inputs
====================  =====================  =======================  ==========
Multiplication        AND                    ``x * y``                uncorrelated
Scaled addition       2-to-1 MUX             ``(x + y) / 2``          uncorr., s=0.5
Scaled addition (CIM) 3-input MAJ            ``(x + y) / 2``          uncorr., r=0.5
Approximate addition  OR                     ``~ x + y`` (x,y<=0.5)   uncorrelated
Absolute subtraction  XOR                    ``|x - y|``              correlated
Division              CORDIV (MUX + DFF)     ``x / y`` (x<=y)         correlated
Division              JK flip-flop           ``x / (x + y)``          uncorrelated
Minimum               AND                    ``min(x, y)``            correlated
Maximum               OR                     ``max(x, y)``            correlated
====================  =====================  =======================  ==========

The MAJ-based scaled addition is the paper's CIM-friendly replacement for the
MUX: scouting logic computes a 3-input majority in a single sensing cycle by
reusing the 2-input AND reference current, whereas a MUX needs per-bit
selection.  Both are implemented so the substitution can be ablated.

All functions are pure and vectorised; they operate on
:class:`~repro.core.bitstream.Bitstream` batches of identical length.
"""

from __future__ import annotations


import numpy as np

from .bitstream import Bitstream

__all__ = [
    "mul_and",
    "mul_xnor",
    "scaled_add_mux",
    "scaled_add_maj",
    "mux2",
    "mux4",
    "add_or",
    "sub_xor",
    "min_and",
    "max_or",
    "div_cordiv",
    "div_jk",
    "cordiv_step",
    "jk_step",
    "not_stream",
]


def _check_same_length(*streams: Bitstream) -> int:
    lengths = {s.length for s in streams}
    if len(lengths) != 1:
        raise ValueError(f"stream lengths differ: {sorted(lengths)}")
    return lengths.pop()


def mul_and(x: Bitstream, y: Bitstream) -> Bitstream:
    """Unipolar multiplication: bitwise AND of *uncorrelated* streams."""
    _check_same_length(x, y)
    return x & y


def mul_xnor(x: Bitstream, y: Bitstream) -> Bitstream:
    """Bipolar multiplication: bitwise XNOR of *uncorrelated* streams.

    With bipolar encoding (``value = 2 P(1) - 1``) the XNOR of independent
    streams multiplies the encoded values: ``P(out) = pq + (1-p)(1-q)``
    gives ``2 P(out) - 1 = (2p - 1)(2q - 1)``.  Scouting logic senses XNOR
    in the same enhanced two-reference cycle as XOR.
    """
    _check_same_length(x, y)
    return ~(x ^ y)


def not_stream(x: Bitstream) -> Bitstream:
    """Complement: NOT computes ``1 - x`` in the unipolar domain.

    In the bipolar domain the same gate negates the value.
    """
    return ~x


def mux2(sel: Bitstream, a: Bitstream, b: Bitstream) -> Bitstream:
    """2-to-1 multiplexer: bit-wise ``b if sel else a``.

    With ``P(sel) = s`` and independent inputs the output probability is
    ``(1 - s) * a + s * b`` — the general convex combination.
    """
    _check_same_length(sel, a, b)
    return Bitstream.mux(sel, a, b)


def scaled_add_mux(x: Bitstream, y: Bitstream, select: Bitstream) -> Bitstream:
    """Scaled addition ``(x + y) / 2`` via a MUX with a 0.5 select stream."""
    return mux2(select, x, y)


def scaled_add_maj(x: Bitstream, y: Bitstream, r: Bitstream) -> Bitstream:
    """Scaled addition via a 3-input majority gate (the paper's CIM variant).

    ``MAJ(x, y, r) = xy + xr + yr - 2xyr`` bit-wise; with an independent
    ``P(r) = 0.5`` stream the expectation is exactly ``(x + y) / 2``, matching
    the MUX while being computable in one scouting-logic sensing cycle.
    """
    _check_same_length(x, y, r)
    return Bitstream.maj(x, y, r)


def mux4(s0: Bitstream, s1: Bitstream, i00: Bitstream, i01: Bitstream,
         i10: Bitstream, i11: Bitstream) -> Bitstream:
    """4-to-1 multiplexer used by bilinear interpolation (Fig. 3b).

    ``s0``/``s1`` select between the four inputs; with independent selects of
    probabilities ``p0``/``p1`` the output is the bilinear blend
    ``(1-p0)(1-p1) i00 + (1-p0) p1 i01 + p0 (1-p1) i10 + p0 p1 i11``.
    """
    lo = mux2(s1, i00, i01)
    hi = mux2(s1, i10, i11)
    return mux2(s0, lo, hi)


def add_or(x: Bitstream, y: Bitstream) -> Bitstream:
    """Approximate (non-scaled) addition via OR.

    Exact result is ``x + y - x*y``; for operands in ``[0, 0.5]`` the product
    term is small and the output approximates ``x + y`` without exceeding 1.
    """
    _check_same_length(x, y)
    return x | y


def sub_xor(x: Bitstream, y: Bitstream) -> Bitstream:
    """Absolute subtraction ``|x - y|`` via XOR of *correlated* streams.

    With SCC = +1 the streams overlap maximally, so the XOR fires exactly on
    the ``|px - py|`` probability mass where they differ.
    """
    _check_same_length(x, y)
    return x ^ y


def min_and(x: Bitstream, y: Bitstream) -> Bitstream:
    """Minimum via AND of *correlated* streams (overlap = min(px, py))."""
    _check_same_length(x, y)
    return x & y


def max_or(x: Bitstream, y: Bitstream) -> Bitstream:
    """Maximum via OR of *correlated* streams."""
    _check_same_length(x, y)
    return x | y


# ----------------------------------------------------------------------
# Sequential dividers: word-level state propagation
# ----------------------------------------------------------------------
# The sequential SC ops (CORDIV, the JK divider) are 1-bit finite-state
# machines clocked once per stream position.  Instead of a python loop over
# N bit positions, both run a *byte-level scan*: every (state, x_byte,
# y_byte) combination is precomputed into transition tables, so the scan
# advances 8 stream bits per step with one vectorised table gather over the
# batch.  The packbits byte layout (MSB-first inside each byte) matches the
# stream order under both backends, so the same scan serves `unpacked` and
# `packed` payloads via `Bitstream.packed()` / `Bitstream.from_packed`.

_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)


class _ByteScanner:
    """Transition tables for a 1-bit FSM advanced one byte at a time.

    ``step(state, x_bit, y_bit) -> (out_bit, next_state)`` defines the
    per-cycle recurrence; the constructor unrolls it over all ``2 * 256 *
    256`` (state, x_byte, y_byte) combinations into an output-byte table and
    a next-state table.
    """

    def __init__(self, step) -> None:
        out = np.zeros((2, 256, 256), dtype=np.uint8)
        nxt = np.zeros((2, 256, 256), dtype=np.uint8)
        xb = _BYTE_BITS[:, None, :]      # (256, 1, 8)
        yb = _BYTE_BITS[None, :, :]      # (1, 256, 8)
        for s in (0, 1):
            state = np.full((256, 256), s, dtype=np.uint8)
            acc = np.zeros((256, 256), dtype=np.uint8)
            for k in range(8):
                bit, state = step(state, xb[..., k], yb[..., k])
                acc |= (bit.astype(np.uint8) << (7 - k)).astype(np.uint8)
            out[s] = acc
            nxt[s] = state
        self._out = out
        self._next = nxt

    def scan(self, x: Bitstream, y: Bitstream, init: int = 0) -> Bitstream:
        """Run the FSM over a stream pair, one table gather per byte."""
        xb = x.packed()
        yb = y.packed()
        res = np.empty_like(xb)
        state = np.full(xb.shape[:-1], init, dtype=np.uint8)
        for k in range(xb.shape[-1]):
            col = (state, xb[..., k], yb[..., k])
            res[..., k] = self._out[col]
            state = self._next[col]
        # from_packed masks the stray bits the FSM produced past N in the
        # final byte (the held state leaks into the zero padding).
        return Bitstream.from_packed(res, x.length, backend=x.backend)


def cordiv_step(state, x_bit, y_bit):
    """One CORDIV cycle on 0/1 arrays: ``(out_bit, next_state)``."""
    out = (y_bit & x_bit) | ((1 - y_bit) & state)
    return out, out


def jk_step(state, j_bit, k_bit):
    """One JK flip-flop cycle on 0/1 arrays: ``(out_bit, next_state)``."""
    state = (j_bit & (1 - state)) | ((1 - k_bit) & state)
    return state, state


_CORDIV_SCANNER = _ByteScanner(cordiv_step)
_JK_SCANNER = _ByteScanner(jk_step)


def div_cordiv(x: Bitstream, y: Bitstream) -> Bitstream:
    """CORDIV division ``x / y`` for correlated streams with ``x <= y``.

    The CORDIV circuit (Chen & Hayes, ISVLSI'16) is a 2-to-1 MUX selected by
    the divisor bit plus a D flip-flop:

    * when ``y_i = 1`` the quotient bit is ``x_i`` and the flip-flop samples
      ``x_i``;
    * when ``y_i = 0`` the quotient bit replays the stored value.

    With maximally correlated inputs, ``P(x=1 | y=1) = px / py``, so the
    quotient stream converges to ``x / y``.  This is inherently sequential
    (O(N) cycles in hardware) — the in-memory engine maps the flip-flop onto
    the peripheral write-driver latches (Sec. III-B) to avoid intermediate
    writes; see :mod:`repro.imsc.engine` for the cost model.  In software
    the recurrence executes as a byte-level table scan (8 stream bits per
    step) under both backends.
    """
    _check_same_length(x, y)
    return _CORDIV_SCANNER.scan(x, y, init=0)


def div_jk(j: Bitstream, k: Bitstream,
           init: int = 0) -> Bitstream:
    """JK-flip-flop divider: output probability ``j / (j + k)``.

    The classic Gaines stochastic divider: a JK flip-flop toggles towards 1
    on ``J`` pulses and towards 0 on ``K`` pulses, settling at
    ``P(Q) = pj / (pj + pk)`` for independent inputs.  The paper cites this
    flip-flop structure as directly implementable in the ReRAM peripheral
    latches.

    Truth table per cycle: ``Q' = J·~Q + ~K·Q`` (J=K=1 toggles); like
    :func:`div_cordiv`, the recurrence runs as a byte-level table scan.
    """
    _check_same_length(j, k)
    if init not in (0, 1):
        raise ValueError("init must be 0 or 1")
    return _JK_SCANNER.scan(j, k, init=init)
