"""Bilinear interpolation up-scaling (Fig. 3b).

``I(x, y) = (1-dx)(1-dy) I11 + (1-dx) dy I12 + dx (1-dy) I21 + dx dy I22``
over each 4-pixel neighbourhood — a 4-to-1 MUX in the SC domain, with the
coordinate distances ``dx``/``dy`` on the select ports.

The SC implementation realises the 4-to-1 MUX as a two-level tree of
2-to-1 scouting-logic MUXes (2 ANDs + OR per level, exact for any operand
ordering); the two select streams ``dx``/``dy`` are independent.  The
first level can optionally use the single-cycle majority blend with
binary-domain select orientation (see :mod:`repro.apps.compositing`).

The binary CIM baseline uses three fixed-point lerps (two mults + adds
each), the standard digital decomposition.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..bincim.design import BinaryCimDesign
from ..imsc.engine import InMemorySCEngine
from .images import from_uint8, to_uint8

__all__ = [
    "upscale_float",
    "upscale_sc",
    "upscale_sc_kernel",
    "upscale_bincim",
    "neighbour_grid",
]


def neighbour_grid(image: np.ndarray, factor: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray, np.ndarray, Tuple[int, int]]:
    """Neighbour pixels and fractional distances for every output pixel.

    Returns ``(i11, i12, i21, i22, dx, dy, out_shape)`` — flattened arrays
    over the up-scaled grid.  ``i21`` is the x-neighbour (``dx`` selects it),
    ``i12`` the y-neighbour, matching the paper's select-port assignment.
    """
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    oh, ow = h * factor, w * factor
    # Align-corners sampling keeps every source pixel on the output grid.
    ys = np.linspace(0, h - 1, oh)
    xs = np.linspace(0, w - 1, ow)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    dy = (ys - y0)[:, None] * np.ones((1, ow))
    dx = np.ones((oh, 1)) * (xs - x0)[None, :]
    i11 = img[np.ix_(y0, x0)]
    i12 = img[np.ix_(y1, x0)]   # step in y
    i21 = img[np.ix_(y0, x1)]   # step in x
    i22 = img[np.ix_(y1, x1)]
    return (i11.ravel(), i12.ravel(), i21.ravel(), i22.ravel(),
            dx.ravel(), dy.ravel(), (oh, ow))


def upscale_float(image: np.ndarray, factor: int = 2) -> np.ndarray:
    """Exact bilinear up-scaling reference."""
    i11, i12, i21, i22, dx, dy, shape = neighbour_grid(image, factor)
    out = ((1 - dx) * (1 - dy) * i11 + (1 - dx) * dy * i12
           + dx * (1 - dy) * i21 + dx * dy * i22)
    return out.reshape(shape)


def upscale_sc_kernel(engine: InMemorySCEngine, i11: np.ndarray,
                      i12: np.ndarray, i21: np.ndarray, i22: np.ndarray,
                      dx: np.ndarray, dy: np.ndarray, length: int,
                      first_level_maj: bool = True) -> np.ndarray:
    """Flat interpolation kernel over precomputed neighbour arrays.

    The four neighbour roles are generated as one batched stream array and
    split by payload slicing; the sharded executor calls this kernel per
    output tile (neighbour lookup itself happens once, up front, in the
    binary domain).
    """
    # Shared random-row fills (one per independent stream role) keep the
    # per-pixel stochastic error spatially smooth; see compositing.
    stacked = np.stack([i11, i12, i21, i22])
    streams = engine.generate_correlated(stacked, length)
    s11, s12, s21, s22 = (streams.select(k) for k in range(4))
    sdy = engine.generate_correlated(dy, length)
    if first_level_maj:
        dx_lo = np.where(i21 >= i11, dx, 1.0 - dx)
        dx_hi = np.where(i22 >= i12, dx, 1.0 - dx)
        sel = engine.generate_correlated(np.stack([dx_lo, dx_hi]), length)
        low = engine.maj(s21, s11, sel.select(0))
        high = engine.maj(s22, s12, sel.select(1))
    else:
        sdx = engine.generate_correlated(dx, length)
        low = engine.mux(sdx, s11, s21)    # dx=1 -> i21
        high = engine.mux(sdx, s12, s22)
    out = engine.mux(sdy, low, high)       # dy=1 -> high
    return engine.to_binary(out)


def upscale_sc(engine: InMemorySCEngine, image: np.ndarray, length: int,
               factor: int = 2, first_level_maj: bool = True) -> np.ndarray:
    """SC bilinear up-scaling: two-level MUX tree on the engine.

    With ``first_level_maj=True`` the two x-blends use the single-cycle
    majority with select orientation (the neighbour pixel values are known
    in the binary domain during staging); the final y-blend always uses the
    explicit SL MUX because its operands are intermediate streams.
    """
    i11, i12, i21, i22, dx, dy, shape = neighbour_grid(image, factor)
    out = upscale_sc_kernel(engine, i11, i12, i21, i22, dx, dy, length,
                            first_level_maj=first_level_maj)
    return out.reshape(shape)


def upscale_bincim(design: BinaryCimDesign, image: np.ndarray,
                   factor: int = 2) -> np.ndarray:
    """Binary CIM bilinear up-scaling via three fixed-point lerps."""
    i11, i12, i21, i22, dx, dy, shape = neighbour_grid(image, factor)

    def lerp8(a8: np.ndarray, b8: np.ndarray, t8: np.ndarray) -> np.ndarray:
        # a*(255-t) + b*t, renormalised to 8 bits.
        pa = design.multiply(a8, 255 - t8)
        pb = design.multiply(b8, t8)
        total = pa + pb
        design.ledger.merge(design.op_cost("add", batch=a8.size))
        return np.clip(np.rint(total / 255.0), 0, 255).astype(np.int64)

    dx8 = to_uint8(dx.reshape(-1))
    dy8 = to_uint8(dy.reshape(-1))
    low = lerp8(to_uint8(i11), to_uint8(i21), dx8)
    high = lerp8(to_uint8(i12), to_uint8(i22), dx8)
    out = lerp8(low, high, dy8)
    return from_uint8(out).reshape(shape)
