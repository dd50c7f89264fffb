"""The all-in-memory stochastic computing engine.

:class:`InMemorySCEngine` is the vectorised, application-scale model of the
paper's accelerator.  It executes every SC stage with the *semantics and
fault sites* of the in-memory implementation:

* **SNG** — the IMSNG greater-than scan over TRNG bit-planes, evaluated
  bit-parallel over whole operand batches; every scouting-logic sensing step
  is a fault-injection site at its gate's derived rate.  IMSNG-opt has fewer
  fault sites than IMSNG-naive because the flag ANDs move into the (ideal)
  latch path — an effect the ablation benches expose.
* **SC ops** — one faulty sensing step per bulk-bitwise op: every
  single-step op is a row of one table (the :mod:`repro.core.ops` gate
  plus its sensed scouting-logic gate) run through one sensing helper,
  ``_sense``, which also builds the 3-step MUX.  The CORDIV and JK
  dividers share one latch recurrence with per-cycle read fault sites,
  parameterised by the flip-flop's per-bit step.
* **S-to-B** — the reference-column/ADC path of
  :class:`~repro.imsc.stob.InMemoryStoB`.  ``cell_model`` selects its
  device-variability model: ``'per-bit'`` (default) is the historical
  per-cell sampling oracle; ``'column'`` computes the column current from
  the packed popcount with cached per-column draws and a variance-matched
  noise term — statistically equivalent, never unpacks, and orders of
  magnitude cheaper on batched readouts (see :mod:`repro.imsc.stob`).

Every stage also books its cost into an :class:`~repro.energy.model
.EnergyLedger` (one booking helper: the first instance on the critical
path, the rest of the batch pipelined), so an application run yields
quality *and* latency/energy from one execution.  The engine duck-types
the SNG interface (``generate`` / ``generate_pair`` /
``generate_correlated``) so it drops into :class:`~repro.core.flow.ScFlow`
and the Monte-Carlo harness unchanged.

Execution domains and the seeding contract
------------------------------------------
All stream state flows through :class:`~repro.core.bitstream.Bitstream`
payloads in the active backend's layout, so under the ``packed`` backend
the whole engine — generation, logic ops, fault injection, the CORDIV
scan — runs on uint64 words without ever unpacking (the analog S-to-B
model joins them under ``cell_model='column'``; the per-bit cell model is
the one deliberate exception, sampling per-cell conductances in the bit
domain as the conformance oracle).  Batched pipelines slice operand
stacks with :meth:`~repro.core.bitstream.Bitstream.select` and read out
through :meth:`InMemorySCEngine.to_binary` straight from the payload.

``fault_domain`` selects how faults are *applied*:

* ``'word'`` (default) — fault masks are sampled in the bit domain (so the
  RNG consumption is identical to the oracle) but packed once and XOR-ed
  into the payload at word granularity; stream data never unpacks.
* ``'bit'`` — the historical per-bit reference implementation: the IMSNG
  greater-than scan, bit-flip application and the CORDIV recurrence all run
  one uint8 byte per bit.  This is the conformance oracle (and the
  benchmark baseline): for the same seed it is bit-identical to ``'word'``
  under every backend, which ``tests/test_backend_equivalence.py`` asserts.

``fault_sampling`` selects how fault masks are *sampled*:

* ``'dense'`` (default) — every flip site draws one full ``shape``-sized
  uniform array per sensing step (one Bernoulli trial per bit).  This is
  the bit-exact oracle: for a given seed its output is reproducible across
  releases and identical between ``fault_domain='word'`` and ``'bit'``.
* ``'sparse'`` — each flip site draws its flip *count* from
  ``Binomial(n_sites, p)`` and scatters that many uniformly chosen site
  indices straight into the payload (:meth:`Bitstream.flip_at` — bit
  index → (word, bit) shifts, no full-size uniform array, no unpack).
  The per-site flip probability and the mean/variance of the flip count
  are exactly those of the dense Bernoulli model, so faulty statistics
  (per-gate flip rates, faulty-app MSE) conform within Monte-Carlo noise —
  but the RNG draw sequence differs, so sparse runs are *statistically*
  rather than bit-wise comparable to dense runs.  At the paper's per-gate
  rates (~1e-3) this removes virtually all fault-model memory traffic;
  ``benchmarks/bench_faults.py`` guards the speedup.  Sparse sampling
  requires ``fault_domain='word'`` (the per-bit oracle is dense by
  definition).

The CORDIV/JK read flips follow the same axis: dense word-domain division
draws its two read masks per stream position (latch order, RNG-identical
to the oracle), sparse division draws one Binomial per operand stream and
scatters the read upsets directly into the packed payload.

RNG draw order is part of the engine's contract — two engines built with
the same seed produce bit-identical streams regardless of backend or fault
domain.  Specifically: TRNG planes are drawn before any fault mask; each
sensing step draws one mask of the full bit shape (``batch + (length,)``);
the faulty CORDIV draws its two read masks *per stream position*
(``x_i`` then ``y_i``), matching the latch-by-latch sensing order.  Fault-
free generation skips the per-step scan entirely and evaluates the
equivalent MSB-first comparison ``X > RN`` in one vectorised step — a pure
optimisation that consumes no additional randomness.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..core.bitstream import Bitstream
from ..core.encoding import quantize
from ..core import ops as scops
from ..energy.model import EnergyLedger
from ..energy.params import DEFAULT_RERAM_COSTS, ReRamStepCosts
from ..reram.device import DEFAULT_DEVICE, DeviceParams
from ..reram.faults import GateFaultRates
from .cost import imsng_conversion_cost, sc_op_cost, stob_cost
from .stob import InMemoryStoB

__all__ = ["InMemorySCEngine", "EngineFactory"]

#: The single-step bulk-bitwise ops by Table II row (``maj`` runs the
#: ``scaled_addition`` row): the :mod:`repro.core.ops` function that defines
#: the gate, and the scouting-logic gate whose sensing step is the op's one
#: fault site.  The row name is also the op's cost key in
#: :func:`~repro.imsc.cost.sc_op_cost`.
_BULK_OPS = {
    "multiplication": (scops.mul_and, "and"),
    "scaled_addition": (scops.scaled_add_maj, "maj3"),
    "approx_addition": (scops.add_or, "or"),
    "abs_subtraction": (scops.sub_xor, "xor"),
    "minimum": (scops.min_and, "and"),
    "maximum": (scops.max_or, "or"),
}


class InMemorySCEngine:
    """Vectorised in-ReRAM SC engine with fault injection and cost ledger.

    Parameters
    ----------
    segment_bits:
        IMSNG random-number width M (paper default 8).
    mode:
        'opt' (default) or 'naive' IMSNG variant.
    fault_rates:
        Per-gate scouting-logic error rates; ``None`` runs fault-free
        (Table IV's ✗ columns).
    trng_bias / trng_autocorr:
        Imperfections of the in-memory TRNG bit source.
    device / costs:
        Device parameters (for the S-to-B analog path) and step costs.
    ideal_stob:
        Bypass the ADC path with an exact popcount (for ablation).
    fault_domain:
        'word' applies fault masks in the backend's word layout; 'bit' is
        the per-bit conformance oracle (see module docs).  Both are
        bit-identical for the same seed.
    fault_sampling:
        'dense' draws one Bernoulli trial per bit per sensing step — the
        bit-exact oracle; 'sparse' draws the flip count from
        ``Binomial(n_sites, p)`` and scatters the sites directly into the
        payload — statistically conformant (same flip-rate mean/variance)
        and much faster at the paper's low gate rates, but not
        bit-reproducible against 'dense'.  Requires ``fault_domain='word'``.
    cell_model:
        S-to-B device-variability model: 'per-bit' (the oracle —
        bit-reproducible against earlier releases) or 'column' (batched
        popcount-based readout, statistically equivalent and much faster).

    The model-axis defaults ('word' / 'dense' / 'per-bit') are the
    paper-faithful oracle, so a bare engine keeps reproducing the pinned
    goldens; the package's fast defaults are resolved by
    :meth:`repro.config.RunConfig.merged_engine_kwargs`.
    """

    def __init__(self, segment_bits: int = 8, mode: str = "opt",
                 fault_rates: Optional[GateFaultRates] = None,
                 trng_bias: float = 0.004, trng_autocorr: float = 0.0,
                 device: DeviceParams = DEFAULT_DEVICE,
                 costs: ReRamStepCosts = DEFAULT_RERAM_COSTS,
                 ideal_stob: bool = False,
                 rng: Union[np.random.Generator, int, None] = None,
                 fault_domain: str = "word",
                 fault_sampling: str = "dense",
                 cell_model: str = "per-bit"):
        if mode not in ("naive", "opt"):
            raise ValueError("mode must be 'naive' or 'opt'")
        if fault_domain not in ("word", "bit"):
            raise ValueError("fault_domain must be 'word' or 'bit'")
        if fault_sampling not in ("dense", "sparse"):
            raise ValueError("fault_sampling must be 'dense' or 'sparse'")
        if fault_sampling == "sparse" and fault_domain == "bit":
            raise ValueError("fault_sampling='sparse' requires "
                             "fault_domain='word' (the per-bit oracle is "
                             "dense by definition)")
        self.segment_bits = segment_bits
        self.mode = mode
        self.fault_rates = fault_rates
        self.trng_bias = trng_bias
        self.trng_autocorr = trng_autocorr
        self.device = device
        self.costs = costs
        self.ideal_stob = ideal_stob
        self.fault_domain = fault_domain
        self.fault_sampling = fault_sampling
        self.cell_model = cell_model
        self._gen = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(rng))
        self._stob = InMemoryStoB(device, rng=self._gen,
                                  cell_model=cell_model)
        self.ledger = EnergyLedger()

    # ------------------------------------------------------------------
    # Fault helpers
    # ------------------------------------------------------------------
    def _rate(self, gate: str) -> float:
        if self.fault_rates is None:
            return 0.0
        return self.fault_rates.for_gate(gate)

    def _flip(self, bits: np.ndarray, gate: str) -> np.ndarray:
        """Per-bit oracle: flip each bit of an unpacked array at the gate rate."""
        p = self._rate(gate)
        if p <= 0.0:
            return bits
        mask = (self._gen.random(bits.shape) < p).astype(np.uint8)
        return bits ^ mask

    def _flip_batch(self, stream: Bitstream, gate: str) -> Bitstream:
        """Word-domain flip: dense masks draw the oracle's full-shape
        uniform array; sparse sampling scatters a Binomial flip count."""
        p = self._rate(gate)
        if p <= 0.0:
            return stream
        if self.fault_sampling == "sparse":
            return self._flip_sparse(stream, p)
        return stream.flip(self._gen.random(stream.shape) < p)

    def _flip_sparse(self, stream: Bitstream, p: float) -> Bitstream:
        """Sparse flip: Binomial count + uniformly chosen distinct sites.

        Statistically identical to per-site Bernoulli flips (the site count
        is Binomial(n, p) and sites form a uniform random subset, so the
        per-site flip probability is exactly ``p`` and the count variance
        exactly ``n p (1-p)``), but the cost scales with the *expected
        number of flips* instead of the number of sites.
        """
        n_sites = int(np.prod(stream.shape))
        k = int(self._gen.binomial(n_sites, p))
        if k == 0:
            return stream
        return stream.flip_at(self._flip_sites(n_sites, k))

    @staticmethod
    def _dedupe(sites: np.ndarray) -> np.ndarray:
        # Not np.unique: numpy >= 2.3 routes integer unique through a
        # hash table that measures ~14x slower than sort-and-mask at the
        # tens-of-thousands-of-sites scale the sparse sampler draws (it
        # dominated the first sparse profile).
        sites = np.sort(sites)
        return sites[np.concatenate(([True], sites[1:] != sites[:-1]))]

    def _flip_sites(self, n_sites: int, k: int) -> np.ndarray:
        """A uniformly random k-subset of sites by rejection of duplicates.

        At sparse-regime rates duplicates are vanishingly rare (expected
        collisions ~ k^2 / n), so this almost always costs one draw of k
        integers — never an O(n) permutation.
        """
        sites = self._dedupe(self._gen.integers(0, n_sites, size=k))
        while sites.size < k:
            extra = self._gen.integers(0, n_sites, size=k - sites.size)
            sites = self._dedupe(np.concatenate([sites, extra]))
        return sites

    # ------------------------------------------------------------------
    # TRNG bit-planes
    # ------------------------------------------------------------------
    def _trng_planes(self, shape: Tuple[int, ...]) -> np.ndarray:
        """M bit-planes of in-memory true-random bits."""
        p1 = 0.5 + self.trng_bias
        bits = (self._gen.random((self.segment_bits,) + shape) < p1)
        bits = bits.astype(np.uint8)
        rho = self.trng_autocorr
        if rho != 0.0:
            # Lag-1 correlation along the stream axis (last axis).
            copy = self._gen.random(bits.shape) < abs(rho)
            prev = bits[..., :-1]
            tgt = bits[..., 1:]
            repl = prev if rho > 0 else 1 - prev
            bits[..., 1:] = np.where(copy[..., 1:], repl, tgt)
        return bits

    def _operand_planes(self, codes: np.ndarray, length: int) -> np.ndarray:
        """Operand bit-planes broadcast along the stream axis, MSB first."""
        m = self.segment_bits
        planes = np.empty((m,) + codes.shape + (length,), dtype=np.uint8)
        for i in range(m):
            bit = ((codes >> (m - 1 - i)) & 1).astype(np.uint8)
            planes[i] = np.broadcast_to(bit[..., None], codes.shape + (length,))
        return planes

    def _rn_integers(self, rn_planes: np.ndarray) -> np.ndarray:
        """Collapse M bit-planes into MSB-first integers per stream position."""
        rn = np.zeros(rn_planes.shape[1:], dtype=np.int64)
        for i in range(self.segment_bits):
            rn = (rn << 1) | rn_planes[i]
        return rn

    def _gt_scan_bits(self, a_planes: np.ndarray,
                      rn_planes: np.ndarray) -> np.ndarray:
        """Per-bit oracle of the faulty greater-than scan (one gate per step)."""
        shape = a_planes.shape[1:]
        flag = np.ones(shape, dtype=np.uint8)
        gt = np.zeros(shape, dtype=np.uint8)
        naive = self.mode == "naive"
        for i in range(self.segment_bits):
            diff = self._flip(a_planes[i] ^ rn_planes[i], "xor")
            term = self._flip(a_planes[i] & diff, "and")
            if naive:
                # Flag AND is a sensed array op in the naive design.
                term = self._flip(term & flag, "and")
                flag = self._flip(flag & (1 - diff), "and")
            else:
                # Predicated sensing in the latch pair: ideal.
                term = term & flag
                flag = flag & (1 - diff)
            gt = self._flip(gt | term, "or")
        return gt

    def _gt_scan_words(self, codes: np.ndarray, rn_planes: np.ndarray,
                       length: int) -> Bitstream:
        """Word-domain faulty scan: identical draws, word-level traffic.

        Operand planes enter as per-element constant streams (one payload
        row instead of ``length`` repeated bytes); RN planes pack once per
        step.  Every ``_flip_batch`` consumes the same full-bit-shape draw
        the oracle does, so outputs are bit-identical for the same seed.
        """
        batch = codes.shape
        flag = Bitstream.ones(batch + (length,))
        gt = Bitstream.zeros(batch + (length,))
        backend = gt.backend
        naive = self.mode == "naive"
        m = self.segment_bits
        for i in range(m):
            a_i = Bitstream.constant((codes >> (m - 1 - i)) & 1, length,
                                     backend)
            rn_i = Bitstream._from_payload(
                backend.pack(np.ascontiguousarray(rn_planes[i])), length,
                backend)
            diff = self._flip_batch(self._broadcast(a_i ^ rn_i, batch), "xor")
            term = self._flip_batch(a_i & diff, "and")
            if naive:
                term = self._flip_batch(term & flag, "and")
                flag = self._flip_batch(flag & ~diff, "and")
            else:
                term = term & flag
                flag = flag & ~diff
            gt = self._flip_batch(gt | term, "or")
        return gt

    @staticmethod
    def _broadcast(stream: Bitstream, batch: Tuple[int, ...]) -> Bitstream:
        """Materialise a batch-broadcast payload (needed before fancy ops)."""
        if stream.batch_shape == batch:
            return stream
        data = np.broadcast_to(stream._data, batch + stream._data.shape[-1:])
        return Bitstream._from_payload(np.ascontiguousarray(data),
                                       stream.length, stream.backend)

    def _sbs_from_planes(self, codes: np.ndarray, rn_planes: np.ndarray,
                         length: int) -> Bitstream:
        """Stream payload for quantised codes vs RN planes.

        Fault-free word-domain runs collapse the MSB-first greater-than scan
        into one vectorised ``X > RN`` comparison (bit-identical, no extra
        RNG); faulty runs execute the per-step scan, and the ``'bit'``
        oracle always walks the historical per-bit scan (its ``_flip`` calls
        are no-ops without fault rates), preserving the seed code path as a
        like-for-like baseline.
        """
        if self.fault_rates is None and self.fault_domain == "word":
            rn = self._rn_integers(rn_planes)
            return Bitstream.compare(codes, rn)
        if self.fault_domain == "bit":
            a = self._operand_planes(codes, length)
            full = np.broadcast_to(
                rn_planes,
                (self.segment_bits,) + codes.shape + (length,))
            bits = self._gt_scan_bits(a, np.ascontiguousarray(full))
            return Bitstream(bits)
        return self._gt_scan_words(codes, rn_planes, length)

    # ------------------------------------------------------------------
    # SNG interface
    # ------------------------------------------------------------------
    def _codes(self, x) -> np.ndarray:
        return quantize(np.asarray(x, dtype=np.float64), self.segment_bits)

    def _book(self, unit: EnergyLedger, count: int) -> None:
        """Book ``count`` instances of ``unit``: the first on the critical
        path, the rest pipelined behind it."""
        self.ledger.merge(unit)
        if count > 1:
            self.ledger.merge(unit.scaled(count - 1), overlapped=True)

    def _book_conversions(self, count: int, length: int) -> None:
        # Energy scales with the stream footprint (one bit per column).
        self._book(imsng_conversion_cost(self.segment_bits, self.mode,
                                         self.costs, width=length), count)

    def _reshape_out(self, stream: Bitstream, x) -> Bitstream:
        return stream.reshape(*np.shape(x))

    def generate(self, x, length: int) -> Bitstream:
        """Independent SBS per element (fresh TRNG planes per element)."""
        codes = np.atleast_1d(self._codes(x))
        rn = self._trng_planes(codes.shape + (length,))
        out = self._sbs_from_planes(codes, rn, length)
        self._book_conversions(int(codes.size), length)
        return self._reshape_out(out, x)

    def generate_correlated(self, x, length: int) -> Bitstream:
        """One shared TRNG draw across the whole batch (SCC = +1)."""
        codes = np.atleast_1d(self._codes(x))
        rn1 = self._trng_planes((length,))
        rn = rn1.reshape((self.segment_bits,) + (1,) * codes.ndim + (length,))
        out = self._sbs_from_planes(codes, rn, length)
        self._book_conversions(int(codes.size), length)
        return self._reshape_out(out, x)

    def generate_pair(self, x, y, length: int,
                      correlated: bool) -> Tuple[Bitstream, Bitstream]:
        """Operand pair with per-element correlation control."""
        cx = np.atleast_1d(self._codes(x))
        cy = np.atleast_1d(self._codes(y))
        if cx.shape != cy.shape:
            raise ValueError("operand batches must share a shape")
        rnx = self._trng_planes(cx.shape + (length,))
        rny = rnx if correlated else self._trng_planes(cy.shape + (length,))
        bx = self._sbs_from_planes(cx, rnx, length)
        by = self._sbs_from_planes(cy, rny, length)
        self._book_conversions(2 * int(cx.size), length)
        return (self._reshape_out(bx, x), self._reshape_out(by, x))

    # ------------------------------------------------------------------
    # SC operations (faulty bulk-bitwise execution)
    # ------------------------------------------------------------------
    def _book_op(self, op: str, length: int, batch: int) -> None:
        self._book(sc_op_cost(op, length, self.costs, width=length), batch)

    def _unary_batch(self, s: Bitstream) -> int:
        return int(np.prod(s.batch_shape)) if s.batch_shape else 1

    def _sense(self, stream: Bitstream, gate: str) -> Bitstream:
        """One faulty scouting-logic sensing step producing ``stream``.

        Flips each bit at ``gate``'s rate in the configured domain — on the
        word payload by default, through ``.bits`` under the per-bit oracle
        (both draw the same full-shape mask).  A fault-free engine returns
        ``stream`` untouched and draws nothing.
        """
        if self.fault_rates is None:
            return stream
        if self.fault_domain == "bit":
            return Bitstream(self._flip(stream.bits, gate),
                             backend=stream.backend)
        return self._flip_batch(stream, gate)

    def _bulk(self, row: str, *streams: Bitstream) -> Bitstream:
        """One single-step bulk-bitwise op of :data:`_BULK_OPS`: the gate
        semantics from :mod:`repro.core.ops`, one sensed fault site on its
        output, and the row's cost booked per batch element."""
        op_fn, gate = _BULK_OPS[row]
        out = self._sense(op_fn(*streams), gate)
        x = streams[0]
        self._book_op(row, x.length, self._unary_batch(x))
        return out

    def multiply(self, x: Bitstream, y: Bitstream) -> Bitstream:
        return self._bulk("multiplication", x, y)

    def scaled_add(self, x: Bitstream, y: Bitstream,
                   r: Optional[Bitstream] = None) -> Bitstream:
        if r is None:
            r = self.generate(np.full(x.batch_shape or (1,), 0.5), x.length)
            r = r.reshape(*x.batch_shape)
        return self._bulk("scaled_addition", x, y, r)

    def approx_add(self, x: Bitstream, y: Bitstream) -> Bitstream:
        return self._bulk("approx_addition", x, y)

    def abs_subtract(self, x: Bitstream, y: Bitstream) -> Bitstream:
        return self._bulk("abs_subtraction", x, y)

    def minimum(self, x: Bitstream, y: Bitstream) -> Bitstream:
        return self._bulk("minimum", x, y)

    def maximum(self, x: Bitstream, y: Bitstream) -> Bitstream:
        return self._bulk("maximum", x, y)

    def maj(self, x: Bitstream, y: Bitstream, z: Bitstream) -> Bitstream:
        return self._bulk("scaled_addition", x, y, z)

    def divide(self, x: Bitstream, y: Bitstream) -> Bitstream:
        """CORDIV on the peripheral latches, one faulty read per bit."""
        return self._latch(x, y, scops.cordiv_step, scops.div_cordiv)

    def divide_jk(self, j: Bitstream, k: Bitstream) -> Bitstream:
        """JK-flip-flop division ``j / (j + k)`` with per-cycle read faults."""
        return self._latch(j, k, scops.jk_step, scops.div_jk)

    def _latch(self, x: Bitstream, y: Bitstream, step, word_op) -> Bitstream:
        """A sequential divider clocked on the peripheral latches.

        Every latch cycle reads one bit of each operand through the faulty
        sensing path, then clocks the ideal flip-flop:
        ``out_i, state = step(state, x_i, y_i)``.  The per-bit oracle walks
        exactly that recurrence.  The word domain flips whole payloads and
        runs ``word_op``: dense masks are drawn per stream position (``x_i``
        then ``y_i``, the latch-by-latch sensing order), so it consumes the
        RNG exactly like the oracle; under ``fault_sampling='sparse'`` each
        operand draws one Binomial flip count and scatters the read upsets
        straight into the packed payload.
        """
        if self.fault_domain == "bit":
            xb, yb = x.bits, y.bits
            out = np.empty_like(xb)
            state = np.zeros(xb.shape[:-1], dtype=np.uint8)
            for i in range(x.length):
                xi = self._flip(xb[..., i], "read")
                yi = self._flip(yb[..., i], "read")
                out[..., i], state = step(state, xi, yi)
            result = Bitstream(out, backend=x.backend)
        else:
            p_read = self._rate("read")
            if p_read > 0.0:
                x, y = self._read_flip_pair(x, y, p_read)
            result = word_op(x, y)
        self._book_op("division", x.length, self._unary_batch(x))
        return result

    def _read_flip_pair(self, x: Bitstream, y: Bitstream,
                        p_read: float) -> Tuple[Bitstream, Bitstream]:
        """Apply the sequential dividers' per-cycle read flips in the word
        domain, honouring the configured sampling mode."""
        if self.fault_sampling == "sparse":
            return (self._flip_sparse(x, p_read),
                    self._flip_sparse(y, p_read))
        bshape = x.batch_shape
        mx = np.empty(bshape + (x.length,), dtype=bool)
        my = np.empty(bshape + (x.length,), dtype=bool)
        for i in range(x.length):
            mx[..., i] = self._gen.random(bshape) < p_read
            my[..., i] = self._gen.random(bshape) < p_read
        return x.flip(mx), y.flip(my)

    def mux(self, sel: Bitstream, a: Bitstream, b: Bitstream) -> Bitstream:
        """2-to-1 MUX as three scouting-logic steps: 2 ANDs + OR.

        ``b`` when ``sel`` is 1.  Unlike the majority blend this is exact
        for any operand ordering and correlation, at 3x the sensing cost
        (and 3 fault sites instead of 1).
        """
        if self.fault_rates is None:
            out = scops.mux2(sel, a, b)
        else:
            t1 = self._sense(sel & b, "and")
            t2 = self._sense(~sel & a, "and")
            out = self._sense(t1 | t2, "or")
        self._book_op("mux2", a.length, self._unary_batch(a))
        return out

    def op(self, name: str, x: Bitstream, y: Bitstream, **kw) -> Bitstream:
        """Dispatch by Table II row name."""
        table = {
            "multiplication": self.multiply,
            "scaled_addition": self.scaled_add,
            "approx_addition": self.approx_add,
            "abs_subtraction": self.abs_subtract,
            "division": self.divide,
            "minimum": self.minimum,
            "maximum": self.maximum,
        }
        if name not in table:
            raise ValueError(f"unknown op {name!r}")
        return table[name](x, y, **kw)

    # ------------------------------------------------------------------
    # S-to-B
    # ------------------------------------------------------------------
    def to_binary(self, stream: Bitstream) -> np.ndarray:
        """In-memory S-to-B: reference column + ADC (or ideal popcount).

        Under ``cell_model='column'`` (and under ``ideal_stob``) only the
        backend-routed popcount touches the stream data — packed payloads
        never unpack.
        """
        n_vals = self._unary_batch(stream)
        self.ledger.merge(stob_cost(n_vals, self.costs, stream.length))
        if self.ideal_stob:
            return stream.value()
        return self._stob.convert(stream)

    # Alias so the engine satisfies the converter protocol of ScFlow.
    def convert(self, stream: Bitstream) -> np.ndarray:
        return self.to_binary(stream)

    def reset_ledger(self) -> None:
        self.ledger = EnergyLedger()


class EngineFactory:
    """Picklable per-chunk engine factory for the sharded accuracy harness.

    The Monte-Carlo harness (:func:`repro.core.accuracy.op_mse` /
    :func:`~repro.core.accuracy.sng_mse` with ``jobs=N``) shards its chunks
    over worker processes and hands each chunk a deterministic
    ``SeedSequence`` child; this wrapper turns engine constructor arguments
    into the ``factory(seed_sequence) -> sng`` callable those paths expect,
    so faulty Table-I/II style sweeps can opt into any engine axis —
    including ``fault_sampling='sparse'`` — without a bespoke closure
    (closures don't pickle)::

        op_mse("multiplication",
               EngineFactory(fault_rates=DEFAULT_FAULT_RATES,
                             fault_sampling="sparse"),
               length=256, jobs=8)

    A :class:`repro.config.RunConfig` supplies the model axes as
    ``EngineFactory(fault_rates=..., **cfg.merged_engine_kwargs())``.
    """

    def __init__(self, **engine_kwargs):
        if "rng" in engine_kwargs:
            raise ValueError("EngineFactory derives each chunk engine's rng "
                             "from the harness's SeedSequence; do not pass "
                             "'rng'")
        InMemorySCEngine(**engine_kwargs)   # validate eagerly, in the parent
        self.engine_kwargs = engine_kwargs

    def __call__(self, seed_seq: np.random.SeedSequence) -> InMemorySCEngine:
        return InMemorySCEngine(rng=np.random.default_rng(seed_seq),
                                **self.engine_kwargs)
