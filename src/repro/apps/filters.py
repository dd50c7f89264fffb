"""Additional SC image-processing kernels (Li et al. [5], the paper's
motivating application class).

Beyond the three evaluation applications, this module implements the
classic SC image filters, each mapped onto the in-memory engine's ops:

* **Roberts-cross edge detection** — two absolute differences (correlated
  XOR) merged with a scaled add: the canonical SC image kernel;
* **mean filtering** — a MAJ tree over a pixel neighbourhood;
* **gamma correction** — Bernstein-polynomial evaluation of ``x^gamma``;
* **contrast stretching** — saturating linear map via correlated min/max.

Each filter exists in three forms, mirroring the evaluation applications:

* ``*_float`` — the exact reference;
* ``*_kernel`` — the flat per-tile kernel (1-D operand arrays in, 1-D
  image out) registered in :data:`repro.apps.executor.KERNELS`, so every
  filter runs through ``run_tiled(..., jobs=N)`` with deterministic
  per-tile seeds.  Operands are generated as one batched
  :class:`~repro.core.bitstream.Bitstream` per role stack and split by
  payload slicing (:meth:`~repro.core.bitstream.Bitstream.select`) — under
  the packed backend nothing unpacks, including the Bernstein select
  network (word-domain
  :meth:`~repro.core.bitstream.Bitstream.exact_count`) and the S-to-B
  readout when the engine uses ``cell_model='column'``;
* ``*_sc`` — the whole-image wrapper (neighbourhood extraction + reshape
  around the kernel), keeping the historical signature.

The MAJ-based filters draw their 0.5 select streams with the engine's
*independent* ``generate`` — correlating the select with the operands (as
an earlier revision did via ``generate_correlated``) biases the scaled
add, exactly the failure mode Table II's ``OP_SPECS`` avoids by using an
independent auxiliary stream.

All kernels take float images in ``[0, 1]`` and an
:class:`~repro.imsc.engine.InMemorySCEngine`.
"""

from __future__ import annotations

import functools
from typing import Dict

import numpy as np

from ..core.bitstream import Bitstream
from ..imsc.engine import InMemorySCEngine

__all__ = [
    "roberts_cross_float",
    "roberts_cross_inputs",
    "roberts_cross_kernel",
    "roberts_cross_sc",
    "mean_filter_float",
    "mean_filter_inputs",
    "mean_filter_kernel",
    "mean_filter_sc",
    "gamma_correct_float",
    "gamma_correct_inputs",
    "gamma_correct_kernel",
    "gamma_correct_sc",
    "contrast_stretch_float",
    "contrast_stretch_inputs",
    "contrast_stretch_kernel",
    "contrast_stretch_sc",
]


def _corners(image: np.ndarray) -> Dict[str, np.ndarray]:
    """2x2 neighbourhood corners as 2-D views of the valid output grid."""
    img = np.asarray(image, dtype=np.float64)
    return {"p00": img[:-1, :-1], "p01": img[:-1, 1:],
            "p10": img[1:, :-1], "p11": img[1:, 1:]}


# ---------------------------------------------------------------------------
# Roberts cross edge detection
# ---------------------------------------------------------------------------
def roberts_cross_float(image: np.ndarray) -> np.ndarray:
    """Edge magnitude ``(|p(i,j)-p(i+1,j+1)| + |p(i,j+1)-p(i+1,j)|) / 2``."""
    img = np.asarray(image, dtype=np.float64)
    d1 = np.abs(img[:-1, :-1] - img[1:, 1:])
    d2 = np.abs(img[:-1, 1:] - img[1:, :-1])
    return (d1 + d2) / 2.0


def roberts_cross_inputs(image: np.ndarray) -> Dict[str, np.ndarray]:
    """Named 2-D operand arrays for the tiled executor (output-grid shape)."""
    return _corners(image)


def roberts_cross_kernel(engine: InMemorySCEngine, p00: np.ndarray,
                         p01: np.ndarray, p10: np.ndarray, p11: np.ndarray,
                         length: int) -> np.ndarray:
    """Flat Roberts cross: two correlated XORs + one MAJ-based scaled add.

    All four neighbourhood streams share the random rows: XOR needs
    correlated inputs and the shared draw keeps errors spatially smooth.
    The 0.5 MAJ select is an independent stream (see module docs).
    """
    streams = engine.generate_correlated(np.stack([p00, p11, p01, p10]),
                                         length)
    d1 = engine.abs_subtract(streams.select(0), streams.select(1))
    d2 = engine.abs_subtract(streams.select(2), streams.select(3))
    half = engine.generate(np.full(p00.size, 0.5), length)
    return np.asarray(engine.to_binary(engine.maj(d1, d2, half)))


def roberts_cross_sc(engine: InMemorySCEngine, image: np.ndarray,
                     length: int) -> np.ndarray:
    """SC Roberts cross over a whole image."""
    corners = _corners(image)
    shape = corners["p00"].shape
    out = roberts_cross_kernel(
        engine, length=length,
        **{name: arr.ravel() for name, arr in corners.items()})
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# Mean filter
# ---------------------------------------------------------------------------
def mean_filter_float(image: np.ndarray) -> np.ndarray:
    """2x2 box filter (valid region)."""
    img = np.asarray(image, dtype=np.float64)
    return (img[:-1, :-1] + img[:-1, 1:] + img[1:, :-1] + img[1:, 1:]) / 4.0


def mean_filter_inputs(image: np.ndarray) -> Dict[str, np.ndarray]:
    """Named 2-D operand arrays for the tiled executor (output-grid shape)."""
    return _corners(image)


def mean_filter_kernel(engine: InMemorySCEngine, p00: np.ndarray,
                       p01: np.ndarray, p10: np.ndarray, p11: np.ndarray,
                       length: int) -> np.ndarray:
    """Flat 2x2 mean via a two-level scaled-add (MAJ) tree.

    The three 0.5 selects are mutually independent ``generate`` draws
    (independent of the operands as well) so each MAJ is an unbiased
    scaled addition.
    """
    streams = engine.generate_correlated(np.stack([p00, p01, p10, p11]),
                                         length)
    sa, sb, sc_, sd = (streams.select(k) for k in range(4))
    halves = [engine.generate(np.full(p00.size, 0.5), length)
              for _ in range(3)]
    lo = engine.maj(sa, sb, halves[0])     # (p00 + p01) / 2
    hi = engine.maj(sc_, sd, halves[1])    # (p10 + p11) / 2
    out = engine.maj(lo, hi, halves[2])    # average of averages
    return np.asarray(engine.to_binary(out))


def mean_filter_sc(engine: InMemorySCEngine, image: np.ndarray,
                   length: int) -> np.ndarray:
    """SC 2x2 mean filter over a whole image."""
    corners = _corners(image)
    shape = corners["p00"].shape
    out = mean_filter_kernel(
        engine, length=length,
        **{name: arr.ravel() for name, arr in corners.items()})
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# Gamma correction (Bernstein polynomial)
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=64)
def _gamma_bernstein(gamma: float, degree: int = 4) -> np.ndarray:
    """Least-squares Bernstein fit of ``x ** gamma`` on [0, 1].

    Memoised per process: the fit depends on ``(gamma, degree)`` alone,
    so a worker runs ``lstsq`` once per curve instead of once per tile.
    The shared result is read-only.
    """
    xs = np.linspace(0.0, 1.0, 256)
    target = xs ** gamma
    # Design matrix of Bernstein basis polynomials.
    from math import comb
    basis = np.stack([comb(degree, k) * xs ** k * (1 - xs) ** (degree - k)
                      for k in range(degree + 1)], axis=1)
    coeffs, *_ = np.linalg.lstsq(basis, target, rcond=None)
    coeffs = np.clip(coeffs, 0.0, 1.0)
    coeffs.setflags(write=False)
    return coeffs


def gamma_correct_float(image: np.ndarray, gamma: float = 0.45) -> np.ndarray:
    """Reference gamma correction ``x ** gamma``."""
    return np.asarray(image, dtype=np.float64) ** gamma


def gamma_correct_inputs(image: np.ndarray) -> Dict[str, np.ndarray]:
    """Named 2-D operand arrays for the tiled executor (pointwise filter)."""
    return {"image": np.asarray(image, dtype=np.float64)}


def gamma_correct_kernel(engine: InMemorySCEngine, image: np.ndarray,
                         length: int, gamma: float = 0.45,
                         degree: int = 4) -> np.ndarray:
    """Flat SC gamma correction via the Bernstein MUX network.

    ``degree`` independent copies of the pixel stream feed the select
    population count — evaluated as word-domain one-hot indicators
    (:meth:`Bitstream.exact_count`) — and the Bernstein coefficients
    ride in one correlated constant-stream stack, selected with bulk
    AND/OR.  No unpacking anywhere in the datapath.
    """
    flat = np.asarray(image, dtype=np.float64)
    b = _gamma_bernstein(gamma, degree)
    copies = [engine.generate(flat, length) for _ in range(degree)]
    indicators = Bitstream.exact_count(copies)
    coeffs = engine.generate_correlated(
        np.stack([np.full(flat.size, bk) for bk in b]), length)
    out = indicators[0] & coeffs.select(0)
    for k in range(1, degree + 1):
        out = out | (indicators[k] & coeffs.select(k))
    return np.asarray(engine.to_binary(out))


def gamma_correct_sc(engine: InMemorySCEngine, image: np.ndarray,
                     length: int, gamma: float = 0.45,
                     degree: int = 4) -> np.ndarray:
    """SC gamma correction over a whole image."""
    img = np.asarray(image, dtype=np.float64)
    out = gamma_correct_kernel(engine, img.ravel(), length, gamma=gamma,
                               degree=degree)
    return out.reshape(img.shape)


# ---------------------------------------------------------------------------
# Contrast stretching
# ---------------------------------------------------------------------------
def contrast_stretch_float(image: np.ndarray, lo: float = 0.2,
                           hi: float = 0.8) -> np.ndarray:
    """Saturating linear stretch of ``[lo, hi]`` onto ``[0, 1]``."""
    img = np.asarray(image, dtype=np.float64)
    return np.clip((img - lo) / (hi - lo), 0.0, 1.0)


def contrast_stretch_inputs(image: np.ndarray) -> Dict[str, np.ndarray]:
    """Named 2-D operand arrays for the tiled executor (pointwise filter)."""
    return {"image": np.asarray(image, dtype=np.float64)}


def contrast_stretch_kernel(engine: InMemorySCEngine, image: np.ndarray,
                            length: int, lo: float = 0.2,
                            hi: float = 0.8) -> np.ndarray:
    """Flat SC contrast stretch: subtract-then-divide on correlated streams.

    ``min(|x - lo|, hi - lo) / (hi - lo)`` for ``x > lo`` — built from the
    correlated XOR (subtract), AND (min) and CORDIV (divide) ops.  Pixels
    below ``lo`` clamp to 0 through the max-overlap XOR.
    """
    flat = np.asarray(image, dtype=np.float64)
    n = flat.size
    stacked = np.stack([flat, np.full(n, lo), np.full(n, hi)])
    streams = engine.generate_correlated(stacked, length)
    sx, slo, shi = (streams.select(k) for k in range(3))
    num = engine.abs_subtract(sx, slo)      # |x - lo|
    den = engine.abs_subtract(shi, slo)     # hi - lo (correlated => exact)
    num = engine.minimum(num, den)          # saturate the numerator
    out = engine.divide(num, den)           # CORDIV
    vals = np.asarray(engine.to_binary(out))
    # Below-lo pixels computed |x - lo| on the wrong side; mask them to 0
    # (the binary-domain staging knows the orientation bit, as in the
    # oriented-MAJ blend).
    return np.where(flat <= lo, 0.0, vals)


def contrast_stretch_sc(engine: InMemorySCEngine, image: np.ndarray,
                        length: int, lo: float = 0.2,
                        hi: float = 0.8) -> np.ndarray:
    """SC contrast stretch over a whole image."""
    img = np.asarray(image, dtype=np.float64)
    out = contrast_stretch_kernel(engine, img.ravel(), length, lo=lo, hi=hi)
    return out.reshape(img.shape)
