"""Bit-exact equivalence of the packed and unpacked execution backends.

Seeded property-style tests: random stream batches are built from the same
raw bits under every registered backend, each SC op is executed under each,
and the results are compared bit-for-bit (plus popcount/value recovery).
Odd lengths (1, 7, 127, 1000) exercise the packed backend's tail-word
masking; 64 hits the exact word boundary.

This file doubles as the conformance suite for new backends: register a
third backend and add its name to ``BACKENDS`` to get full coverage.
"""

import inspect

import numpy as np
import pytest

from repro.core import ops
from repro.core.backend import (
    PackedBackend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.core.bitstream import Bitstream
from repro.core.correlation import correlation_matrix, overlap_probability, scc
from repro.core.sng import ComparatorSng, IdealBitSource, SegmentSng, unary_stream
from repro.core.rng import Lfsr, SoftwareRng
from repro.apps import run_app
from repro.config import RunConfig
from repro.imsc.engine import InMemorySCEngine
from repro.reram.faults import DEFAULT_FAULT_RATES, GateFaultRates

BACKENDS = ("unpacked", "packed")
LENGTHS = (1, 7, 64, 127, 1000)
BATCH_SHAPES = ((), (3,), (2, 5))


def _rand_bits(rng, batch, length):
    return rng.integers(0, 2, size=batch + (length,), dtype=np.uint8)


def _streams(bits, name):
    with use_backend(name):
        return Bitstream(bits)


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------
class TestRegistry:
    def test_both_backends_registered(self):
        assert {"unpacked", "packed"} <= set(available_backends())

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("does-not-exist")

    def test_set_backend_switches_default(self):
        prev = get_backend()
        try:
            set_backend("packed")
            assert Bitstream([1, 0, 1]).backend.name == "packed"
        finally:
            set_backend(prev.name)

    def test_use_backend_restores_previous(self):
        before = get_backend()
        with use_backend("packed") as be:
            assert be.name == "packed"
            assert get_backend() is be
        assert get_backend() is before

    def test_explicit_backend_argument(self):
        bs = Bitstream([1, 0, 1, 1], backend="packed")
        assert bs.backend.name == "packed"
        assert list(bs.bits) == [1, 0, 1, 1]


# ----------------------------------------------------------------------
# Representation round-trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("batch", BATCH_SHAPES)
class TestRoundTrip:
    def test_bits_roundtrip(self, name, length, batch):
        bits = _rand_bits(np.random.default_rng(7), batch, length)
        bs = _streams(bits, name)
        assert bs.shape == bits.shape
        assert bs.length == length
        np.testing.assert_array_equal(bs.bits, bits)

    def test_packed_bytes_roundtrip(self, name, length, batch):
        bits = _rand_bits(np.random.default_rng(8), batch, length)
        bs = _streams(bits, name)
        again = Bitstream.from_packed(bs.packed(), length, backend=name)
        assert again == bs

    def test_popcount_and_values(self, name, length, batch):
        bits = _rand_bits(np.random.default_rng(9), batch, length)
        bs = _streams(bits, name)
        expect = bits.sum(axis=-1, dtype=np.int64)
        np.testing.assert_array_equal(bs.popcount(), expect)
        np.testing.assert_allclose(bs.value(), expect / length)
        np.testing.assert_allclose(bs.bipolar_value(), 2 * expect / length - 1)


# ----------------------------------------------------------------------
# Op-by-op equivalence
# ----------------------------------------------------------------------
BINARY_OPS = [
    ops.mul_and,
    ops.mul_xnor,
    ops.add_or,
    ops.sub_xor,
    ops.min_and,
    ops.max_or,
    ops.div_cordiv,
    ops.div_jk,
]

TERNARY_OPS = [
    ops.scaled_add_mux,
    ops.scaled_add_maj,
    lambda x, y, s: ops.mux2(s, x, y),
]


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("batch", BATCH_SHAPES)
class TestOpEquivalence:
    def _operands(self, length, batch, k, seed=123):
        rng = np.random.default_rng(seed + length + len(batch))
        return [_rand_bits(rng, batch, length) for _ in range(k)]

    @pytest.mark.parametrize("op", BINARY_OPS,
                             ids=lambda f: getattr(f, "__name__", "op"))
    def test_binary_op(self, length, batch, op):
        xb, yb = self._operands(length, batch, 2)
        results = {}
        for name in BACKENDS:
            with use_backend(name):
                out = op(Bitstream(xb), Bitstream(yb))
                assert out.backend.name == name
                results[name] = (out.bits.copy(), out.popcount().copy())
        ref_bits, ref_pop = results["unpacked"]
        for name in BACKENDS[1:]:
            np.testing.assert_array_equal(results[name][0], ref_bits,
                                          err_msg=f"{op} bits differ ({name})")
            np.testing.assert_array_equal(results[name][1], ref_pop)

    @pytest.mark.parametrize("op", TERNARY_OPS,
                             ids=("scaled_add_mux", "scaled_add_maj", "mux2"))
    def test_ternary_op(self, length, batch, op):
        xb, yb, sb = self._operands(length, batch, 3, seed=321)
        results = {}
        for name in BACKENDS:
            with use_backend(name):
                out = op(Bitstream(xb), Bitstream(yb), Bitstream(sb))
                results[name] = out.bits.copy()
        for name in BACKENDS[1:]:
            np.testing.assert_array_equal(results[name], results["unpacked"])

    def test_not_stream(self, length, batch):
        (xb,) = self._operands(length, batch, 1)
        results = {}
        for name in BACKENDS:
            with use_backend(name):
                results[name] = ops.not_stream(Bitstream(xb)).bits.copy()
        np.testing.assert_array_equal(results["packed"], results["unpacked"])
        np.testing.assert_array_equal(results["unpacked"], 1 - xb)

    def test_structural_ops(self, length, batch):
        (xb,) = self._operands(length, batch, 1, seed=555)
        for name in BACKENDS:
            bs = _streams(xb, name)
            np.testing.assert_array_equal(
                bs.roll(3).bits, np.roll(xb, 3, axis=-1))
            np.testing.assert_array_equal(bs.copy().bits, xb)
            if batch:
                flat = bs.reshape(int(np.prod(batch)))
                np.testing.assert_array_equal(
                    flat.bits, xb.reshape(-1, length))
                np.testing.assert_array_equal(bs[0].bits, xb[0])
            both = bs.concat(bs)
            assert both.length == 2 * length
            np.testing.assert_array_equal(
                both.bits, np.concatenate([xb, xb], axis=-1))


# ----------------------------------------------------------------------
# Generation equivalence: same seeds => identical streams on every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("length", (1, 7, 127, 256))
class TestGenerationEquivalence:
    def _collect(self, name, length):
        with use_backend(name):
            x = np.array([0.1, 0.5, 0.93])
            y = np.array([0.7, 0.2, 0.4])
            comp = ComparatorSng(SoftwareRng(8, seed=11),
                                 pair_source=SoftwareRng(8, seed=13))
            lfsr = ComparatorSng(Lfsr(seed=1))
            seg = SegmentSng(IdealBitSource(seed=17), segment_bits=8)
            out = [
                comp.generate(x, length).bits,
                comp.generate_correlated(x, length).bits,
                lfsr.generate(x, length).bits,
                seg.generate(x, length).bits,
                seg.generate_correlated(x, length).bits,
                unary_stream(x, length).bits,
                Bitstream.bernoulli(x, length, rng=23).bits,
            ]
            out.extend(comp.generate_pair(x, y, length, correlated=True)[0].bits
                       for _ in range(1))
            pair = seg.generate_pair(x, y, length, correlated=False)
            out.extend([pair[0].bits, pair[1].bits])
            return [a.copy() for a in out]

    def test_all_generators_bit_exact(self, length):
        reference = self._collect("unpacked", length)
        for name in BACKENDS[1:]:
            candidate = self._collect(name, length)
            assert len(candidate) == len(reference)
            for i, (got, want) in enumerate(zip(candidate, reference)):
                np.testing.assert_array_equal(
                    got, want, err_msg=f"generator #{i} differs on {name}")


# ----------------------------------------------------------------------
# Correlation metrics route through the backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("length", (7, 127, 512))
def test_scc_equivalence(length):
    rng = np.random.default_rng(99)
    xb = _rand_bits(rng, (4,), length)
    yb = _rand_bits(rng, (4,), length)
    vals = {}
    for name in BACKENDS:
        with use_backend(name):
            x, y = Bitstream(xb), Bitstream(yb)
            vals[name] = (overlap_probability(x, y), scc(x, y),
                          correlation_matrix(Bitstream(xb)))
    for got, want in zip(vals["packed"], vals["unpacked"]):
        np.testing.assert_allclose(got, want, rtol=0, atol=0)


# ----------------------------------------------------------------------
# Cross-backend interop
# ----------------------------------------------------------------------
def test_mixed_backend_operands_follow_left_operand():
    bits_a = np.array([1, 0, 1, 1, 0, 1, 0], dtype=np.uint8)
    bits_b = np.array([1, 1, 0, 1, 0, 0, 1], dtype=np.uint8)
    a = Bitstream(bits_a, backend="packed")
    b = Bitstream(bits_b, backend="unpacked")
    out = a & b
    assert out.backend.name == "packed"
    np.testing.assert_array_equal(out.bits, bits_a & bits_b)
    assert a == Bitstream(bits_a, backend="unpacked")  # cross-backend eq


def test_packed_canonical_tail_stays_zero():
    """NOT on an odd length must not leak ones into the tail word."""
    be = PackedBackend()
    bs = Bitstream(np.zeros(70, dtype=np.uint8), backend=be)
    inverted = ~bs
    assert int(inverted.popcount()) == 70
    double = ~inverted
    assert int(double.popcount()) == 0
    # Payload tail bits beyond N are zero in canonical form.
    raw = inverted._data
    assert int(np.bitwise_count(raw).sum()) == 70


# ----------------------------------------------------------------------
# Batched Bitstream ops: payload select, flip, constant, compare
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("length", (7, 64, 127))
class TestStreamBatch:
    def test_select_and_ops_match_bits(self, name, length):
        rng = np.random.default_rng(41)
        xb = _rand_bits(rng, (3, 5), length)
        yb = _rand_bits(rng, (3, 5), length)
        sx = Bitstream(xb, backend=name)
        sy = Bitstream(yb, backend=name)
        np.testing.assert_array_equal(sx.select(1).bits, xb[1])
        np.testing.assert_array_equal(sx.select(2).select(0).bits, xb[2][0])
        np.testing.assert_array_equal(sx.select((slice(1, 3), 4)).bits,
                                      xb[1:3, 4])
        assert sx.select(1).backend is sx.backend
        with pytest.raises(IndexError, match="storage axis"):
            sx.select((0, 0, 0))
        np.testing.assert_array_equal((sx & sy).bits, xb & yb)
        np.testing.assert_array_equal((sx | sy).bits, xb | yb)
        np.testing.assert_array_equal((sx ^ sy).bits, xb ^ yb)
        np.testing.assert_array_equal((~sx).bits, 1 - xb)
        np.testing.assert_array_equal(sx.popcount(),
                                      xb.sum(axis=-1, dtype=np.int64))
        np.testing.assert_array_equal(
            Bitstream.maj(sx, sy, ~sx).bits,
            (xb & yb) | (xb & (1 - xb)) | (yb & (1 - xb)))

    def test_flip_constant_compare(self, name, length):
        rng = np.random.default_rng(43)
        xb = _rand_bits(rng, (6,), length)
        mask = rng.random((6, length)) < 0.3
        got = Bitstream(xb, backend=name).flip(mask)
        np.testing.assert_array_equal(got.bits, xb ^ mask.astype(np.uint8))
        const = Bitstream.constant(np.array([0, 1, 1, 0]), length, name)
        np.testing.assert_array_equal(
            const.bits, np.array([0, 1, 1, 0], np.uint8)[:, None]
            * np.ones(length, np.uint8))
        codes = rng.integers(0, 256, size=(5,))
        rn = rng.integers(0, 256, size=(length,))
        cmp_ = Bitstream.compare(codes, rn, name)
        np.testing.assert_array_equal(
            cmp_.bits, (codes[:, None] > rn[None, :]).astype(np.uint8))


# ----------------------------------------------------------------------
# Faulty engine: word-domain flips vs the per-bit oracle
# ----------------------------------------------------------------------
# Rates chosen so every gate (including the CORDIV read latches) actually
# flips bits during the test.
_TEST_RATES = GateFaultRates(and2=0.02, or2=0.015, xor2=0.03, maj3=0.02,
                             read=0.01)


def _engine_recipe(backend_name, fault_domain, faulty=True, length=96,
                   seed=1234):
    """One fixed tour through every engine stage; returns raw bit arrays."""
    rates = _TEST_RATES if faulty else None
    with use_backend(backend_name):
        eng = InMemorySCEngine(fault_rates=rates, rng=seed,
                               fault_domain=fault_domain, ideal_stob=True)
        x = np.linspace(0.05, 0.95, 12).reshape(3, 4)
        y = x[::-1]
        out = []
        sx = eng.generate(x, length)
        sy = eng.generate_correlated(y, length)
        pa, pb = eng.generate_pair(x, y, length, correlated=True)
        out += [sx.bits, sy.bits, pa.bits, pb.bits]
        r = eng.generate(np.full(x.shape, 0.5), length)
        for op in (eng.multiply, eng.approx_add, eng.abs_subtract,
                   eng.minimum, eng.maximum, eng.divide):
            out.append(op(sy, sx).bits)
        out.append(eng.scaled_add(sx, sy, r).bits)
        out.append(eng.maj(sx, sy, r).bits)
        out.append(eng.mux(r, sx, sy).bits)
        out.append(np.asarray(eng.to_binary(sx)))
        return [np.array(a, copy=True) for a in out]


class TestFaultyEngineEquivalence:
    """Word-domain fault injection is bit-exact vs the per-bit oracle."""

    @pytest.mark.parametrize("mode", ("naive", "opt"))
    def test_gt_scan_domains_agree(self, mode):
        length = 77
        for name in BACKENDS:
            with use_backend(name):
                ref = None
                for domain in ("bit", "word"):
                    eng = InMemorySCEngine(mode=mode, fault_rates=_TEST_RATES,
                                           rng=7, fault_domain=domain)
                    got = eng.generate(np.linspace(0, 1, 9), length).bits
                    if ref is None:
                        ref = got
                    else:
                        np.testing.assert_array_equal(
                            got, ref, err_msg=f"{mode}/{name}/{domain}")

    @pytest.mark.parametrize("faulty", (False, True),
                             ids=("fault-free", "faulty"))
    def test_full_recipe_all_domains_and_backends(self, faulty):
        reference = _engine_recipe("unpacked", "bit", faulty)
        for name in BACKENDS:
            for domain in ("bit", "word"):
                got = _engine_recipe(name, domain, faulty)
                assert len(got) == len(reference)
                for i, (g, w) in enumerate(zip(got, reference)):
                    np.testing.assert_array_equal(
                        g, w,
                        err_msg=f"stage #{i} differs ({name}/{domain})")

    def test_fault_free_fast_path_matches_per_bit_scan(self):
        # The vectorised X > RN comparison must equal the historical
        # MSB-first scan bit for bit (same TRNG draws, no extra RNG).
        x = np.linspace(0.0, 1.0, 33)
        for name in BACKENDS:
            with use_backend(name):
                fast = InMemorySCEngine(rng=11, fault_domain="word")
                slow = InMemorySCEngine(rng=11, fault_domain="bit")
                np.testing.assert_array_equal(
                    fast.generate_correlated(x, 130).bits,
                    slow.generate_correlated(x, 130).bits)

    def test_no_unpack_on_packed_fast_path(self, monkeypatch):
        """Engine ops must never leave the word domain under `packed`.

        Covers the fault-free fast path AND word-domain fault injection;
        only the per-bit oracles (``fault_domain='bit'``,
        ``cell_model='per-bit'``) may unpack — the column S-to-B model
        reads out through the backend-routed popcount.
        """
        def boom(self, data, length):
            raise AssertionError("silent unpack on the packed hot path")

        monkeypatch.setattr(PackedBackend, "unpack", boom)
        with use_backend("packed"):
            for rates in (None, _TEST_RATES):
                eng = InMemorySCEngine(fault_rates=rates, rng=3,
                                       cell_model="column")
                x = eng.generate_correlated(np.linspace(0.1, 0.9, 8), 96)
                y = eng.generate(np.linspace(0.2, 0.8, 8), 96)
                r = eng.generate(np.full(8, 0.5), 96)
                eng.multiply(x, y)
                eng.maj(x, y, r)
                eng.mux(r, x, y)
                eng.abs_subtract(x, y)
                eng.divide(eng.minimum(x, y), eng.maximum(x, y))
                eng.to_binary(x)


# ----------------------------------------------------------------------
# run_app: sharded executor equivalence + quality pinned to seed values
# ----------------------------------------------------------------------
# Seeded quality of the *untiled* SC pipeline (length=64, size=24, seed=3).
#
# Two pin sets since the fast-path release:
#
# * ORACLE — recorded from the pre-refactor per-pixel implementation
#   (per-bit S-to-B, dense fault masks).  ``RunConfig.oracle()`` must keep
#   reproducing these bit-exactly forever: they are the bridge to every
#   pre-release trajectory.  Any drift means the oracle stream bits
#   changed.
# * FAST — recorded at the defaults flip under ``RunConfig.fast()``
#   (column S-to-B, sparse fault masks; the package default).  Any drift
#   means the fast-path draws changed.
#
# Both sets are backend-invariant (packed and unpacked produce identical
# streams) — only the cell_model/fault_sampling axes separate them.
PINNED_RUN_APP_ORACLE = {
    # (app, faulty): (ssim_pct, psnr_db)
    ("compositing", False): (92.0743228902705, 28.529692781849363),
    ("compositing", True): (90.15592830612565, 27.56678281921518),
    ("interpolation", False): (88.38105346722713, 28.35142099982967),
    ("interpolation", True): (79.76320811304551, 27.21821222058037),
    ("matting", False): (97.38044101019061, 35.28308203957352),
    ("matting", True): (94.61673326969256, 32.665413628096395),
}
PINNED_RUN_APP_FAST = {
    # (app, faulty): (ssim_pct, psnr_db)
    ("compositing", False): (91.98246556038569, 28.533232847609366),
    ("compositing", True): (91.08000989464522, 26.91474867552891),
    ("interpolation", False): (87.70983918927287, 28.196425303837763),
    ("interpolation", True): (81.14824629357494, 27.37768335136721),
    ("matting", False): (97.53157884218786, 35.58039388996416),
    ("matting", True): (94.21609220052596, 32.5457763920081),
}


class TestRunAppSharding:
    @pytest.mark.parametrize("faulty", (False, True),
                             ids=("fault-free", "faulty"))
    @pytest.mark.parametrize("app", ("compositing", "interpolation",
                                     "matting"))
    def test_quality_pinned_vs_seed_values(self, app, faulty):
        """Bare run_app (no config) runs the fast preset, pinned per seed."""
        r = run_app(app, "sc", length=64, size=24, seed=3, faulty=faulty)
        ssim, psnr = PINNED_RUN_APP_FAST[(app, faulty)]
        assert r.ssim_pct == pytest.approx(ssim, rel=1e-9)
        assert r.psnr_db == pytest.approx(psnr, rel=1e-9)

    @pytest.mark.parametrize("faulty", (False, True),
                             ids=("fault-free", "faulty"))
    @pytest.mark.parametrize("app", ("compositing", "interpolation",
                                     "matting"))
    def test_oracle_preset_reproduces_historical_pins(self, app, faulty):
        """RunConfig.oracle() is bit-exact vs the pre-release goldens."""
        r = run_app(app, "sc", length=64, size=24, seed=3, faulty=faulty,
                    config=RunConfig.oracle())
        ssim, psnr = PINNED_RUN_APP_ORACLE[(app, faulty)]
        assert r.ssim_pct == pytest.approx(ssim, rel=1e-9)
        assert r.psnr_db == pytest.approx(psnr, rel=1e-9)

    @pytest.mark.parametrize("app", ("compositing", "interpolation",
                                     "matting"))
    def test_jobs_do_not_change_output(self, app):
        base = run_app(app, "sc", length=32, size=20, seed=5, tile=8, jobs=1)
        fan = run_app(app, "sc", length=32, size=20, seed=5, tile=8, jobs=3)
        np.testing.assert_array_equal(base.output, fan.output)
        assert fan.ledger.energy_j == pytest.approx(base.ledger.energy_j)
        assert fan.ledger.latency_s == pytest.approx(base.ledger.latency_s)

    def test_faulty_tiled_matches_per_bit_oracle(self):
        # Explicit dense on the word side: the fast default would sample
        # sparse masks, and only dense word flips are bit-identical to
        # the per-bit domain oracle (which is dense by definition).
        word = run_app("matting", "sc", length=32, size=20, seed=9,
                       faulty=True, tile=8, jobs=2, fault_domain="word",
                       fault_sampling="dense")
        bit = run_app("matting", "sc", length=32, size=20, seed=9,
                      faulty=True, tile=8, jobs=1, fault_domain="bit")
        np.testing.assert_array_equal(word.output, bit.output)

    def test_sharding_rejected_off_sc(self):
        with pytest.raises(ValueError, match="'sc' backend only"):
            run_app("compositing", "float", tile=8)
        with pytest.raises(ValueError, match="'sc' backend only"):
            run_app("matting", "bincim", jobs=2)
        # jobs without a tile grid would silently run single-process.
        with pytest.raises(ValueError, match="requires a tile size"):
            run_app("matting", "sc", jobs=2)


# ----------------------------------------------------------------------
# Filter kernels: golden values, backend equivalence, sharding, no-unpack
# ----------------------------------------------------------------------
from repro.apps.executor import KERNELS, run_tiled  # noqa: E402
from repro.apps.filters import (  # noqa: E402
    contrast_stretch_float,
    contrast_stretch_inputs,
    contrast_stretch_sc,
    gamma_correct_float,
    gamma_correct_inputs,
    gamma_correct_sc,
    mean_filter_float,
    mean_filter_inputs,
    mean_filter_sc,
    roberts_cross_float,
    roberts_cross_inputs,
    roberts_cross_sc,
)
from repro.apps.images import natural_scene  # noqa: E402

# Seeded MSE(%) vs the float reference of each filter (natural_scene 12x12
# seed 21, N=128, engine rng=7, per-bit S-to-B), recorded at the batched
# word-domain kernel rewrite.  Identical under every backend; any drift
# means the stream bits (or the S-to-B draws) changed.
PINNED_FILTER_MSE = {
    "roberts_cross": 0.07985303397144504,
    "mean_filter": 0.061745319601497414,
    "gamma_correct": 0.1123982305017882,
    "contrast_stretch": 0.2043449752650328,
}

_FILTER_FNS = {
    "roberts_cross": (roberts_cross_sc, roberts_cross_float),
    "mean_filter": (mean_filter_sc, mean_filter_float),
    "gamma_correct": (gamma_correct_sc, gamma_correct_float),
    "contrast_stretch": (contrast_stretch_sc, contrast_stretch_float),
}


class TestFilterKernels:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("filt", sorted(PINNED_FILTER_MSE))
    def test_golden_mse_pinned_on_every_backend(self, name, filt):
        image = natural_scene(12, 12, np.random.default_rng(21))
        sc_fn, ref_fn = _FILTER_FNS[filt]
        with use_backend(name):
            eng = InMemorySCEngine(rng=7)
            out = sc_fn(eng, image, 128)
        mse = float(np.mean((out - ref_fn(image)) ** 2)) * 100.0
        assert mse == pytest.approx(PINNED_FILTER_MSE[filt], rel=1e-9)

    @pytest.mark.parametrize("filt", sorted(PINNED_FILTER_MSE))
    def test_tiled_jobs_do_not_change_output(self, filt):
        image = natural_scene(20, 20, np.random.default_rng(5))
        inputs = {
            "roberts_cross": roberts_cross_inputs,
            "mean_filter": mean_filter_inputs,
            "gamma_correct": gamma_correct_inputs,
            "contrast_stretch": contrast_stretch_inputs,
        }[filt](image)
        kwargs = {"gamma_correct": {"gamma": 0.5},
                  "contrast_stretch": {"lo": 0.25, "hi": 0.75}}.get(filt, {})
        with use_backend("packed"):
            base, led1 = run_tiled(filt, inputs, 32, tile=8, jobs=1, seed=5,
                                   engine_kwargs={"cell_model": "column"},
                                   kernel_kwargs=kwargs)
            fan, led3 = run_tiled(filt, inputs, 32, tile=8, jobs=3, seed=5,
                                  engine_kwargs={"cell_model": "column"},
                                  kernel_kwargs=kwargs)
        np.testing.assert_array_equal(base, fan)
        assert led3.energy_j == pytest.approx(led1.energy_j)
        assert led3.latency_s == pytest.approx(led1.latency_s)


# ----------------------------------------------------------------------
# Every registered kernel stays in the word domain
# ----------------------------------------------------------------------
def _kernel_inputs(kernel, rng):
    """Random 8x8 operand planes for every array parameter of a kernel."""
    params = inspect.signature(KERNELS[kernel]).parameters.values()
    return {p.name: rng.random((8, 8)) for p in params
            if p.default is p.empty and p.name not in ("engine", "length")}


@pytest.mark.parametrize("faults", ("fault-free", "sparse-faults"))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_no_unpack_on_packed_kernels(kernel, faults, monkeypatch):
    """Operand stacks split with ``Bitstream.select`` (a payload slice), the
    sparse fault scatter and the column S-to-B readout never unpack: a
    packed tiled run completes with ``PackedBackend.unpack`` disabled."""
    def boom(self, data, length):
        raise AssertionError(f"silent unpack on the packed {kernel} path")

    engine_kwargs = {"cell_model": "column"}
    if faults == "sparse-faults":
        engine_kwargs.update(fault_rates=DEFAULT_FAULT_RATES,
                             fault_sampling="sparse")
    inputs = _kernel_inputs(kernel, np.random.default_rng(2))
    monkeypatch.setattr(PackedBackend, "unpack", boom)
    with use_backend("packed"):
        out, _ = run_tiled(kernel, inputs, 64, tile=4, jobs=1, seed=1,
                           engine_kwargs=engine_kwargs)
    assert out.shape == (8, 8)
