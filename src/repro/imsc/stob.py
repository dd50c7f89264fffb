"""In-memory stochastic-to-binary conversion (Sec. III-C).

Instead of clocking a CMOS counter for N cycles, the paper counts the '1's
of an output bit-stream in a single step: the stream drives per-row voltages
onto a *reference column* whose cells are all pre-programmed to LRS; the
accumulated bitline current is proportional to the popcount and is digitised
by the per-mat 8-bit ADC.

Cell models
-----------
``cell_model`` selects how device variability enters the accumulated
current (mirroring the engine's ``fault_domain`` oracle/fast-path split):

* ``'per-bit'`` (default) — the historical reference implementation: every
  ``(stream, position)`` cell gets an independent lognormal LRS draw (with
  read noise folded into the shape parameter) and the current is the
  bit-by-bit weighted sum.  This is the conformance oracle; it unpacks the
  payload and costs ``n_streams x N`` normal draws per conversion.
* ``'column'`` — the batched word-domain model: each stream in a batch maps
  to a reference column whose *realised mean* LRS conductance is drawn once
  per ``(length, batch-width)`` and cached (the hardware re-reads the same
  programmed column, so programming variability is frozen per column).  The
  current is then computed from the packed popcount ``k`` as

      I = V * (k * g_col * mu_read + eps),   eps ~ N(0, s(k))

  where ``s(k)`` is variance-matched so the *marginal* conversion error has
  exactly the per-bit model's mean and variance: ``s(k)^2 = k * var(G) -
  (k^2 / N) * var(P) * mu_read^2`` with ``G = P * R`` the per-read
  conductance, ``P`` the programmed (lognormal) part and ``R`` the
  multiplicative read noise.  Nothing unpacks: the only per-conversion work
  is a popcount over the packed payload plus one normal draw per stream.
  ``tests/test_imsc.py`` asserts mean/variance agreement with the oracle.

Both models push the current through the same :class:`~repro.reram.adc.Adc`.
ADCs are kept in a per-length map so mixed-length workloads accumulate into
one ``conversions`` total instead of silently resetting the counter when
the stream length changes.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple, Union

import numpy as np

from ..core.bitstream import Bitstream
from ..reram.adc import Adc, AdcParams, ISAAC_ADC
from ..reram.device import DEFAULT_DEVICE, DeviceParams

__all__ = ["InMemoryStoB", "CELL_MODELS"]

CELL_MODELS = ("per-bit", "column")


class InMemoryStoB:
    """Reference-column + ADC stochastic-to-binary converter.

    Parameters
    ----------
    params:
        Device model supplying LRS statistics and the read voltage.
    adc_params:
        ADC characteristics (defaults to the ISAAC-style 8-bit SAR).
    ideal_cells:
        If True, reference cells are noiseless (isolates ADC effects).
    cell_model:
        'per-bit' (default) samples an independent conductance for every
        stream bit — the conformance oracle.  'column' computes the current
        from the packed popcount with cached per-column draws and a
        variance-matched noise term; statistically equivalent, never
        unpacks (see module docs).
    """

    def __init__(self, params: DeviceParams = DEFAULT_DEVICE,
                 adc_params: AdcParams = ISAAC_ADC,
                 ideal_cells: bool = False,
                 rng: Union[np.random.Generator, int, None] = None,
                 cell_model: str = "per-bit"):
        if cell_model not in CELL_MODELS:
            raise ValueError(
                f"cell_model must be one of {CELL_MODELS}, got {cell_model!r}")
        self.params = params
        self.ideal_cells = ideal_cells
        self.cell_model = cell_model
        self._gen = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(rng))
        self._adc_params = adc_params
        # One ADC per stream length: full scale depends on N, and a shared
        # map keeps the conversions counter accumulating across lengths.
        self._adcs: Dict[int, Adc] = {}
        # cell_model='column': realised column-mean conductances, keyed by
        # (length, batch width) — the programmed column is drawn once and
        # re-read by every subsequent conversion of the same shape.
        self._columns: Dict[Tuple[int, int], np.ndarray] = {}

    def _adc_for(self, length: int) -> Adc:
        adc = self._adcs.get(length)
        if adc is None:
            full_scale = length * self.params.read_voltage * self.params.g_lrs
            adc = Adc(self._adc_params, full_scale, self._gen)
            self._adcs[length] = adc
        return adc

    # ------------------------------------------------------------------
    # Lognormal moments of the per-read cell conductance G = P * R
    # ------------------------------------------------------------------
    def _moments(self) -> Tuple[float, float, float, float]:
        """``(mu_p, var_p, mu_r, var_g)`` of the LRS conductance model."""
        g = self.params.g_lrs
        sp2 = self.params.lrs_sigma ** 2
        sr2 = self.params.read_noise_sigma ** 2
        s2 = sp2 + sr2
        mu_p = g * math.exp(sp2 / 2.0)
        var_p = g * g * math.exp(sp2) * (math.exp(sp2) - 1.0)
        mu_r = math.exp(sr2 / 2.0)
        var_g = g * g * math.exp(s2) * (math.exp(s2) - 1.0)
        return mu_p, var_p, mu_r, var_g

    def _column_means(self, length: int, width: int) -> np.ndarray:
        """Cached realised mean programmed conductance per reference column.

        The column's N cells are programmed once; its realised average is
        (by the CLT) a single Gaussian draw per column — ``width`` draws
        instead of ``width x N``.
        """
        key = (length, width)
        cols = self._columns.get(key)
        if cols is None:
            mu_p, var_p, _, _ = self._moments()
            cols = self._gen.normal(mu_p, math.sqrt(var_p / length), width)
            # A realised mean conductance is physically positive; the
            # Gaussian tail below zero is astronomically unlikely for any
            # sane (sigma, N) but clip defensively.
            np.clip(cols, mu_p * 1e-3, None, out=cols)
            self._columns[key] = cols
        return cols

    # ------------------------------------------------------------------
    # Currents
    # ------------------------------------------------------------------
    def column_current(self, stream: Bitstream) -> np.ndarray:
        """Accumulated reference-column current per stream (amperes).

        This is the per-bit oracle path (plus the noiseless ``ideal_cells``
        shortcut, which needs only the popcount); ``cell_model='column'``
        conversions go through :meth:`convert` directly.
        """
        v = self.params.read_voltage
        if self.ideal_cells:
            g = self.params.g_lrs
            return v * g * stream.popcount().astype(np.float64)
        # Per-cell programmed conductance (LRS lognormal) plus read noise.
        bits = stream.bits.astype(np.float64)
        ln_g = -np.log(self.params.lrs_mean)
        sigma = np.sqrt(self.params.lrs_sigma ** 2
                        + self.params.read_noise_sigma ** 2)
        g = np.exp(self._gen.normal(ln_g, sigma, bits.shape))
        return v * np.sum(bits * g, axis=-1)

    def _batch_current(self, popcount: np.ndarray, length: int) -> np.ndarray:
        """Column-model current from popcounts alone (no unpack).

        Mean ``k * g_col * mu_r`` uses the cached realised column mean; the
        additive Gaussian is variance-matched so the marginal distribution
        agrees with the per-bit oracle (see module docs).
        """
        v = self.params.read_voltage
        k = np.atleast_1d(np.asarray(popcount, dtype=np.float64)).ravel()
        width = k.size
        mu_p, var_p, mu_r, var_g = self._moments()
        cols = self._column_means(length, width)
        noise_var = k * var_g - (k * k / length) * var_p * mu_r * mu_r
        np.clip(noise_var, 0.0, None, out=noise_var)
        eps = self._gen.normal(0.0, 1.0, width) * np.sqrt(noise_var)
        current = v * (k * cols * mu_r + eps)
        shape = np.shape(popcount)
        return current.reshape(shape) if shape else current[0]

    def convert(self, stream: Bitstream) -> np.ndarray:
        """Recovered probabilities in ``[0, 1]`` (one per stream).

        Under ``cell_model='column'`` (or ``ideal_cells``) only the
        backend-routed popcount touches the payload, so packed batches
        never unpack.
        """
        adc = self._adc_for(stream.length)
        if self.cell_model == "column" and not self.ideal_cells:
            current = self._batch_current(stream.popcount(), stream.length)
        else:
            current = self.column_current(stream)
        return adc.to_fraction(current)

    @property
    def conversions(self) -> int:
        """Total ADC conversions performed so far, across all stream lengths."""
        return sum(adc.conversions for adc in self._adcs.values())
