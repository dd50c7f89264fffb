"""Stochastic number generators (SNGs).

An SNG turns a binary operand into a stochastic bit-stream.  Two families are
implemented:

* :class:`ComparatorSng` — the conventional design: an n-bit random number
  source feeds a binary comparator; bit ``j`` of the stream is 1 iff
  ``RN_j < X``.  Used with :class:`~repro.core.rng.Lfsr` (PRNG),
  :class:`~repro.core.rng.SobolRng` (QRNG) or
  :class:`~repro.core.rng.SoftwareRng` (the software baseline).

* :class:`SegmentSng` — the *functional model* of the paper's IMSNG: the
  same comparator over a :class:`SegmentSource`, which chops a true-random
  binary sequence (50% ones) into M-bit segments and reads each one
  MSB-first as an M-bit random number; the operand is quantised to M bits
  and the greater-than comparison produces one stream bit per segment.  The
  bit-exact, cost-counted in-memory execution of the same algorithm lives
  in :mod:`repro.imsc.imsng`; this class provides the reference semantics
  and is what Table I's "IMSNG" column evaluates.

Correlation control (Sec. II-B of the paper): operations such as subtraction,
division, minimum and maximum need *correlated* inputs, which hardware obtains
by sharing one RNG between both operands.  :class:`ComparatorSng` therefore
exposes ``generate_correlated`` and ``generate_pair`` alongside ``generate``;
every SNG here inherits those three methods and differs only in its
random-number source.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .bitstream import Bitstream
from .encoding import quantize
from .rng import RandomSource, SoftwareRng

__all__ = [
    "BitSource",
    "IdealBitSource",
    "BiasedBitSource",
    "ComparatorSng",
    "SegmentSource",
    "SegmentSng",
    "unary_stream",
]


class BitSource:
    """A producer of raw binary sequences with ~50% ones.

    This is the abstraction the paper's IMSNG builds on: any true-RNG that can
    fill memory rows with unbiased random bits.  The ReRAM read-noise TRNG
    (:class:`repro.reram.trng.ReRamTrng`) implements this interface; the ideal
    and biased software sources below are used for analysis.
    """

    def random_bits(self, count: int) -> np.ndarray:
        """Return ``count`` bits as a uint8 array of 0/1."""
        raise NotImplementedError


class IdealBitSource(BitSource):
    """Perfect i.i.d. fair coin flips."""

    def __init__(self, seed: Optional[int] = None):
        self._gen = np.random.default_rng(seed)

    def random_bits(self, count: int) -> np.ndarray:
        return self._gen.integers(0, 2, size=count, dtype=np.uint8)


class BiasedBitSource(BitSource):
    """Coin flips with bias and lag-1 autocorrelation.

    Models an imperfect TRNG: ``P(1) = 0.5 + bias`` and consecutive bits
    repeat with probability ``0.5 + autocorr/2`` (``autocorr`` is the lag-1
    autocorrelation coefficient).  Raw ReRAM read-noise TRNGs exhibit both
    defects before debiasing.
    """

    def __init__(self, bias: float = 0.0, autocorr: float = 0.0,
                 seed: Optional[int] = None):
        if not -0.5 <= bias <= 0.5:
            raise ValueError("bias must lie in [-0.5, 0.5]")
        if not -1.0 <= autocorr <= 1.0:
            raise ValueError("autocorr must lie in [-1, 1]")
        self.bias = bias
        self.autocorr = autocorr
        self._gen = np.random.default_rng(seed)
        self._last: Optional[int] = None

    def random_bits(self, count: int) -> np.ndarray:
        p1 = 0.5 + self.bias
        bits = (self._gen.random(count) < p1).astype(np.uint8)
        if self.autocorr != 0.0 and count > 1:
            # Markov smoothing: with probability |rho| copy the previous bit
            # (or its complement for negative rho).
            rho = self.autocorr
            copy = self._gen.random(count) < abs(rho)
            prev = self._last if self._last is not None else int(bits[0])
            for i in range(count):
                if copy[i]:
                    bits[i] = prev if rho > 0 else 1 - prev
                prev = int(bits[i])
            self._last = prev
        elif count:
            self._last = int(bits[-1])
        return bits


class ComparatorSng:
    """Conventional SNG: n-bit RNG + binary comparator.

    Parameters
    ----------
    source:
        The random-number source; its bit width sets the comparison
        resolution ``n`` (8 in the paper).
    pair_source:
        Second source used for the *uncorrelated* operand of
        :meth:`generate_pair`.  Low-discrepancy generators need this: two
        operands sharing one Sobol dimension are structurally correlated,
        so hardware uses parallel dimensions (Liu & Han) or a second LFSR
        seed.  Defaults to time-sharing ``source``.
    """

    def __init__(self, source: Optional[RandomSource] = None,
                 pair_source: Optional[RandomSource] = None):
        self.source = source if source is not None else SoftwareRng(8)
        self.pair_source = pair_source
        if pair_source is not None and pair_source.bits != self.source.bits:
            raise ValueError("pair_source bit width must match source")

    @property
    def bits(self) -> int:
        return self.source.bits

    def _codes(self, x: np.ndarray) -> np.ndarray:
        return quantize(np.asarray(x, dtype=np.float64), self.bits)

    def generate(self, x: Union[float, np.ndarray], length: int) -> Bitstream:
        """Generate independent streams: fresh random numbers per element.

        Hardware realises this with one RNG per operand (or time-multiplexed
        draws); the streams of distinct elements are mutually uncorrelated.
        """
        codes = self._codes(x)
        flat = np.atleast_1d(codes).ravel()
        rn = self.source.integers(flat.size * length).reshape(flat.size, length)
        bits = rn < flat[:, None]
        shape = np.shape(codes) + (length,) if np.shape(codes) else (length,)
        return Bitstream.from_bool(bits.reshape(shape))

    def generate_correlated(self, x: Union[float, np.ndarray],
                            length: int) -> Bitstream:
        """Generate maximally correlated streams (SCC = +1).

        One shared random-number draw is compared against every element, the
        standard shared-RNG trick: whenever ``RN_j < min(X, Y)`` both streams
        emit 1, so overlap is maximal.
        """
        codes = self._codes(x)
        flat = np.atleast_1d(codes).ravel()
        rn = self.source.integers(length)
        bits = rn[None, :] < flat[:, None]
        shape = np.shape(codes) + (length,) if np.shape(codes) else (length,)
        return Bitstream.from_bool(bits.reshape(shape))

    def generate_pair(self, x: Union[float, np.ndarray],
                      y: Union[float, np.ndarray], length: int,
                      correlated: bool) -> "tuple[Bitstream, Bitstream]":
        """Generate an operand pair, element-wise correlated or independent.

        Unlike :meth:`generate_correlated` (which shares one draw across the
        whole batch), each batch element here gets its *own* random-number
        sequence; ``correlated=True`` shares that per-element sequence
        between the two operands, which is the hardware shared-RNG
        arrangement for subtraction/division/min/max.
        """
        cx = np.atleast_1d(self._codes(x)).ravel()
        cy = np.atleast_1d(self._codes(y)).ravel()
        if cx.size != cy.size:
            raise ValueError("operand batches must have the same size")
        n = cx.size
        if correlated:
            rn = self.source.integers(n * length).reshape(n, length)
            bx = rn < cx[:, None]
            by = rn < cy[:, None]
        elif self.pair_source is not None:
            rnx = self.source.integers(n * length).reshape(n, length)
            rny = self.pair_source.integers(n * length).reshape(n, length)
            bx = rnx < cx[:, None]
            by = rny < cy[:, None]
        else:
            rn = self.source.integers(2 * n * length).reshape(2, n, length)
            bx = rn[0] < cx[:, None]
            by = rn[1] < cy[:, None]
        shape = np.shape(x) + (length,) if np.shape(x) else (length,)
        return (Bitstream.from_bool(bx.reshape(shape)),
                Bitstream.from_bool(by.reshape(shape)))


class SegmentSource(RandomSource):
    """M-bit random numbers cut MSB-first from a raw bit source.

    The IMSNG's random-number supply: the true-random bit sequence is
    chopped into ``bits``-long segments and each segment, read MSB-first,
    is one number.  ``integers(n)`` consumes exactly ``n * bits`` raw bits.
    """

    def __init__(self, bit_source: BitSource, bits: int):
        super().__init__(bits)
        self.bit_source = bit_source
        self._weights = 1 << np.arange(bits - 1, -1, -1, dtype=np.int64)

    def integers(self, count: int) -> np.ndarray:
        raw = self.bit_source.random_bits(count * self.bits)
        return raw.reshape(count, self.bits).astype(np.int64) @ self._weights


class SegmentSng(ComparatorSng):
    """Functional model of the paper's IMSNG (Sec. III-A).

    A comparator SNG over a :class:`SegmentSource`: each ``segment_bits``-long
    segment of a true-random bit sequence is one M-bit random number ``RN``,
    and the stream bit is ``X_M > RN`` where ``X_M`` is the operand quantised
    to M bits — exactly the Boolean network of Fig. 1(b), whose in-memory
    execution is modelled in :mod:`repro.imsc.imsng`.  For M < n the
    quantisation drops LSBs (the in-memory comparator only sees M random
    bits); for M > n the operand gains trailing zeros.

    Parameters
    ----------
    bit_source:
        Raw random-bit supplier (ideally 50% ones).
    segment_bits:
        Segment size M (the paper sweeps 5..9).
    operand_bits:
        Input operand precision n (8 in the paper).
    """

    def __init__(self, bit_source: Optional[BitSource] = None,
                 segment_bits: int = 8, operand_bits: int = 8):
        if segment_bits < 1 or segment_bits > 16:
            raise ValueError("segment_bits must be in [1, 16]")
        self.bit_source = bit_source if bit_source is not None else IdealBitSource()
        self.segment_bits = segment_bits
        self.operand_bits = operand_bits
        super().__init__(SegmentSource(self.bit_source, segment_bits))


def unary_stream(x: Union[float, np.ndarray], length: int) -> Bitstream:
    """Deterministic unary (thermometer) encoding: first ``k`` bits are 1.

    ``k = round(x * N)``.  Unary streams are maximally correlated with each
    other by construction and carry zero random fluctuation; they are the
    encoding used by unary-coding ReRAM accelerators (Sun et al.).
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any((arr < 0) | (arr > 1)):
        raise ValueError("unary values must lie in [0, 1]")
    k = np.rint(arr * length).astype(np.int64)
    ramp = np.arange(length, dtype=np.int64)
    return Bitstream.from_bool(ramp < k[..., None])
