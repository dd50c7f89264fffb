"""Image compositing: ``C = F*alpha + B*(1 - alpha)`` (Fig. 3a).

Three implementations:

* :func:`composite_float` — the exact reference.
* :func:`composite_sc` — the SC dataflow: the foreground/background streams
  are generated *correlated* and blended by the select stream.  With
  SCC(F, B) = +1 the paper's CIM-friendly 3-input majority computes::

      MAJ(f, b, s) = (f AND b) OR (s AND (f XOR b))
                   = min(F, B) + s * |F - B|          (for SCC(f,b) = +1)

  i.e. a blend *toward the larger operand*.  Orienting the select in the
  binary domain before stream generation — ``s_eff = alpha`` where
  ``F >= B``, else ``1 - alpha`` — makes the single-cycle MAJ compute
  ``alpha*F + (1-alpha)*B`` exactly for every pixel.  (The orientation bit
  is one comparator decision during operand staging, not a datapath op.)
  A ``use_mux=True`` flag keeps the conventional MUX for ablation.
* :func:`composite_bincim` — the binary CIM baseline: two 8-bit fixed-point
  multiplications plus an addition, bit-serial in memory.
"""

from __future__ import annotations


import numpy as np

from ..bincim.design import BinaryCimDesign
from ..core import ops as scops
from ..imsc.engine import InMemorySCEngine
from .images import from_uint8, to_uint8

__all__ = ["composite_float", "composite_sc", "composite_sc_kernel",
           "composite_bincim"]


def composite_float(foreground: np.ndarray, background: np.ndarray,
                    alpha: np.ndarray) -> np.ndarray:
    """Exact compositing reference."""
    f = np.asarray(foreground, dtype=np.float64)
    b = np.asarray(background, dtype=np.float64)
    a = np.asarray(alpha, dtype=np.float64)
    return f * a + b * (1.0 - a)


def composite_sc_kernel(engine: InMemorySCEngine, foreground: np.ndarray,
                        background: np.ndarray, alpha: np.ndarray,
                        length: int, use_mux: bool = False) -> np.ndarray:
    """Flat compositing kernel: 1-D operand arrays in, 1-D image out.

    This is the unit of work the sharded executor fans out per tile; the
    whole-image wrapper below just ravels/reshapes around it.  The F/B
    operand stack is generated as one batched stream array and split by
    payload slicing (:meth:`~repro.core.bitstream.Bitstream.select`) — no
    unpacking under any backend.
    """
    # One in-memory random-row fill serves the whole image (the hardware
    # reuses the TRNG rows across conversions): F/B streams share that
    # draw, which both satisfies the MAJ correlation requirement and makes
    # the stochastic error spatially smooth — pixels with similar values
    # get nearly identical errors, preserving structural similarity.
    f, b, a = foreground, background, alpha
    fb = engine.generate_correlated(np.stack([f, b]), length)
    sf, sb = fb.select(0), fb.select(1)
    if use_mux:
        # Conventional MUX (select = alpha, 1 -> foreground), priced like a
        # single-step op for an apples-to-apples accuracy ablation.
        sa = engine.generate_correlated(a, length)
        out = scops.mux2(sa, sb, sf)
        engine._book_op("scaled_addition", length, f.size)  # noqa: SLF001
    else:
        # Orient the select toward the larger operand (see module docs);
        # the select streams use a second, independent random-row fill.
        a_eff = np.where(f >= b, a, 1.0 - a)
        sa = engine.generate_correlated(a_eff, length)
        out = engine.maj(sf, sb, sa)
    return engine.to_binary(out)


def composite_sc(engine: InMemorySCEngine, foreground: np.ndarray,
                 background: np.ndarray, alpha: np.ndarray, length: int,
                 use_mux: bool = False) -> np.ndarray:
    """SC compositing on the in-memory engine.

    Streams are generated per pixel; F/B share the RNG (correlated), alpha
    is independent.  The output image is recovered through the engine's
    S-to-B path.
    """
    shape = np.shape(foreground)
    out = composite_sc_kernel(engine, np.ravel(foreground),
                              np.ravel(background), np.ravel(alpha),
                              length, use_mux=use_mux)
    return out.reshape(shape)


def composite_bincim(design: BinaryCimDesign, foreground: np.ndarray,
                     background: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Binary CIM compositing on 8-bit data: ``(F*a + B*(255-a)) / 255``."""
    f8 = to_uint8(foreground).ravel()
    b8 = to_uint8(background).ravel()
    a8 = to_uint8(alpha).ravel()
    fa = design.multiply(f8, a8)              # 16-bit products
    ba = design.multiply(b8, 255 - a8)
    total = fa + ba                           # final add priced below
    design.ledger.merge(design.op_cost("add", batch=f8.size))
    out8 = np.clip(np.rint(total / 255.0), 0, 255).astype(np.int64)
    return from_uint8(out8).reshape(np.shape(foreground))
