"""Image matting: estimate the alpha channel (Fig. 3c).

Inverting the compositing equation gives ``alpha_hat = (I - B) / (F - B)``.
The SC dataflow generates I, B and F with a *shared* RNG so that

* the two absolute differences are single XOR ops on correlated streams,
* the resulting difference streams are themselves correlated, satisfying
  CORDIV's input requirement (``x <= y`` holds because I lies between B and
  F wherever alpha is in [0, 1]).

The quality comparison follows the paper: the estimated alpha is used to
re-composite the scene, and the blend using the *original* alpha is the
reference (Table IV compares "the blended images obtained using the
original alpha and the estimated alpha-hat").

The binary CIM baseline computes the same formula with two absolute
subtractions and the O(n^2) restoring divider — the configuration whose
faulty SSIM collapses to 4.8% in Table IV, because a single flipped
high-order bit in the divider devastates the quotient.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..bincim.design import BinaryCimDesign
from ..imsc.engine import InMemorySCEngine
from .compositing import composite_float
from .images import to_uint8

__all__ = ["matting_float", "matting_sc", "matting_sc_kernel",
           "matting_bincim"]


def matting_float(composite: np.ndarray, background: np.ndarray,
                  foreground: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Exact alpha estimation with zero-division guarding."""
    i = np.asarray(composite, dtype=np.float64)
    b = np.asarray(background, dtype=np.float64)
    f = np.asarray(foreground, dtype=np.float64)
    num = np.abs(i - b)
    den = np.abs(f - b)
    alpha = np.where(den > eps, num / np.maximum(den, eps), 1.0)
    return np.clip(alpha, 0.0, 1.0)


def matting_sc_kernel(engine: InMemorySCEngine, composite: np.ndarray,
                      background: np.ndarray, foreground: np.ndarray,
                      length: int) -> np.ndarray:
    """Flat matting kernel: two correlated XORs feeding CORDIV.

    The I/B/F stack is generated as one batched stream array and split by
    payload slicing; CORDIV runs as the word-level byte scan of
    :func:`repro.core.ops.div_cordiv`.
    """
    stacked = np.stack([composite, background, foreground])
    streams = engine.generate_correlated(stacked, length)
    si, sb, sf = (streams.select(k) for k in range(3))
    num = engine.abs_subtract(si, sb)    # |I - B|
    den = engine.abs_subtract(sf, sb)    # |F - B|
    alpha = engine.divide(num, den)      # CORDIV: num/den
    return engine.to_binary(alpha)


def matting_sc(engine: InMemorySCEngine, composite: np.ndarray,
               background: np.ndarray, foreground: np.ndarray,
               length: int) -> np.ndarray:
    """SC alpha estimation: two correlated XORs feeding CORDIV."""
    shape = np.shape(composite)
    out = matting_sc_kernel(engine, np.ravel(composite), np.ravel(background),
                            np.ravel(foreground), length)
    return out.reshape(shape)


def matting_bincim(design: BinaryCimDesign, composite: np.ndarray,
                   background: np.ndarray, foreground: np.ndarray
                   ) -> np.ndarray:
    """Binary CIM alpha estimation: abs-subs + restoring fixed divider."""
    i8 = to_uint8(composite).ravel()
    b8 = to_uint8(background).ravel()
    f8 = to_uint8(foreground).ravel()
    num = design.subtract(i8, b8)
    den = design.subtract(f8, b8)
    q = design.divide_fixed(np.minimum(num, 255).astype(np.int64),
                            np.maximum(den, 1).astype(np.int64))
    # q approximates alpha * 256 (8 fractional bits, full integer range).
    # Deliberately *not* clamped to [0, 1]: the binary representation is
    # unbounded, so a fault in the divider can produce alpha >> 1 — the
    # failure mode behind Table IV's matting collapse.  (The SC quotient is
    # a probability and physically cannot leave [0, 1].)
    alpha = q / 256.0
    return alpha.reshape(np.shape(composite))


def recomposite_quality_inputs(background: np.ndarray, foreground: np.ndarray,
                               alpha_true: np.ndarray,
                               alpha_est: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """(reference blend, estimated blend) for Table IV's matting metric."""
    ref = composite_float(foreground, background, alpha_true)
    est = composite_float(foreground, background, alpha_est)
    return ref, est
