"""Sparse fault-mask sampling: scatter primitive, statistical conformance
against the dense oracle, faulty-mode golden values, executor fixes.

Contract under test (see :mod:`repro.imsc.engine`):

* ``fault_sampling='dense'`` stays the bit-exact oracle — its seeded
  faulty filter MSEs are pinned here per backend (the faulty ``run_app``
  quality values are pinned in ``tests/test_backend_equivalence.py``);
* ``fault_sampling='sparse'`` is *statistically* conformant: per-gate flip
  rates match in mean and variance, and seeded faulty-app quality agrees
  within a pinned tolerance band — but the RNG draw sequence differs, so
  no bit-identity is promised.
"""

import numpy as np
import pytest

from repro.apps import run_app
from repro.apps.executor import run_tiled
from repro.apps.filters import (
    contrast_stretch_float,
    contrast_stretch_inputs,
    contrast_stretch_sc,
    gamma_correct_float,
    gamma_correct_sc,
    mean_filter_float,
    mean_filter_sc,
    roberts_cross_float,
    roberts_cross_sc,
)
from repro.apps.images import natural_scene
from repro.core.backend import PackedBackend, use_backend
from repro.core.bitstream import Bitstream
from repro.imsc.engine import EngineFactory, InMemorySCEngine
from repro.reram.faults import DEFAULT_FAULT_RATES, GateFaultRates

BACKENDS = ("unpacked", "packed")
LENGTHS = (1, 7, 64, 127, 1000)
BATCH_SHAPES = ((), (3,), (2, 5))


# ----------------------------------------------------------------------
# Bitstream.flip_at / backend scatter_flip
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("batch", BATCH_SHAPES)
class TestFlipAt:
    def test_matches_dense_mask(self, name, length, batch):
        rng = np.random.default_rng(31)
        bits = rng.integers(0, 2, size=batch + (length,), dtype=np.uint8)
        sb = Bitstream(bits, backend=name)
        n = int(np.prod(sb.shape))
        sites = rng.choice(n, size=min(n, 17), replace=False)
        mask = np.zeros(n, dtype=np.uint8)
        mask[sites] = 1
        got = sb.flip_at(sites).bits
        np.testing.assert_array_equal(got, bits ^ mask.reshape(sb.shape))
        # The source payload is never mutated.
        np.testing.assert_array_equal(sb.bits, bits)

    def test_duplicates_cancel(self, name, length, batch):
        rng = np.random.default_rng(32)
        bits = rng.integers(0, 2, size=batch + (length,), dtype=np.uint8)
        sb = Bitstream(bits, backend=name)
        n = int(np.prod(sb.shape))
        sites = rng.integers(0, n, size=9)
        twice = np.concatenate([sites, sites])
        np.testing.assert_array_equal(sb.flip_at(twice).bits, bits)

    def test_empty_and_bounds(self, name, length, batch):
        bits = np.zeros(batch + (length,), dtype=np.uint8)
        sb = Bitstream(bits, backend=name)
        assert sb.flip_at(np.empty(0, dtype=np.int64)) is sb
        n = int(np.prod(sb.shape))
        with pytest.raises(IndexError, match="flip sites"):
            sb.flip_at(np.array([n]))
        with pytest.raises(IndexError, match="flip sites"):
            sb.flip_at(np.array([-1]))


def test_packed_flip_at_keeps_canonical_tail():
    """Scattered flips near the stream end must not touch tail-word bits."""
    sb = Bitstream.zeros((2, 70), "packed")
    flipped = sb.flip_at(np.array([69, 70 + 69]))  # last valid bit per row
    np.testing.assert_array_equal(flipped.popcount(), [1, 1])
    # NOT-ing twice exposes any tail contamination as extra popcount.
    assert int((~(~flipped)).popcount().sum()) == 2


# ----------------------------------------------------------------------
# Engine validation
# ----------------------------------------------------------------------
class TestFaultSamplingValidation:
    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError, match="fault_sampling"):
            InMemorySCEngine(fault_sampling="bogus")

    def test_sparse_requires_word_domain(self):
        with pytest.raises(ValueError, match="fault_domain='word'"):
            InMemorySCEngine(fault_sampling="sparse", fault_domain="bit")

    def test_engine_factory_validates_eagerly_and_rejects_rng(self):
        with pytest.raises(ValueError, match="fault_sampling"):
            EngineFactory(fault_sampling="bogus")
        with pytest.raises(ValueError, match="rng"):
            EngineFactory(rng=3)
        factory = EngineFactory(fault_rates=DEFAULT_FAULT_RATES,
                                fault_sampling="sparse")
        eng = factory(np.random.SeedSequence(5))
        assert eng.fault_sampling == "sparse"
        assert eng.fault_rates is DEFAULT_FAULT_RATES


# ----------------------------------------------------------------------
# Statistical conformance: sparse vs dense flip rates
# ----------------------------------------------------------------------
class TestFlipRateConformance:
    """Sparse and dense sampling agree on flip-count mean and variance."""

    @pytest.mark.parametrize("p", (1e-3, 5e-3, 0.02))
    def test_mean_and_variance_match_bernoulli(self, p):
        rates = GateFaultRates(and2=p, or2=p, xor2=p, maj3=p, read=p)
        batch, length, trials = (64,), 2048, 80
        n = batch[0] * length
        for mode in ("dense", "sparse"):
            eng = InMemorySCEngine(fault_rates=rates, rng=11,
                                   fault_sampling=mode)
            zero = Bitstream.zeros(batch + (length,))
            counts = np.array([
                int(eng._flip_batch(zero, "and").popcount().sum())
                for _ in range(trials)], dtype=np.float64)
            mean, var = counts.mean(), counts.var(ddof=1)
            # Bernoulli model: E = n p, Var = n p (1-p).  The variance
            # estimate over `trials` runs has relative sd ~ sqrt(2/trials)
            # ~ 16%; the bands below leave ~3-sigma headroom.
            assert mean == pytest.approx(n * p, rel=0.1), mode
            assert var == pytest.approx(n * p * (1 - p), rel=0.55), mode

    def test_sparse_sites_are_spread_across_streams(self):
        # Guards the flat-index -> (stream, bit) mapping: flips must land
        # in distinct streams, not pile into the first payload rows.
        p = 0.01
        rates = GateFaultRates(and2=p, or2=p, xor2=p, maj3=p, read=p)
        eng = InMemorySCEngine(fault_rates=rates, rng=13,
                               fault_sampling="sparse")
        zero = Bitstream.zeros((32, 4096))
        per_stream = sum(eng._flip_batch(zero, "and").popcount()
                         for _ in range(10))
        assert int(np.count_nonzero(per_stream)) == 32
        assert per_stream.mean() == pytest.approx(10 * 4096 * p, rel=0.15)

    @pytest.mark.parametrize("divider", ("cordiv", "jk"))
    def test_sequential_divider_read_flips_conform(self, divider):
        # Sparse read upsets perturb the quotient like dense ones do.
        rates = GateFaultRates(and2=0.0, or2=0.0, xor2=0.0, maj3=0.0,
                               read=0.01)
        vals = {}
        for mode in ("dense", "sparse"):
            eng = InMemorySCEngine(fault_rates=rates, rng=17,
                                   fault_sampling=mode, ideal_stob=True)
            x = np.full(256, 0.3)
            y = np.full(256, 0.75)
            sx, sy = eng.generate_pair(x, y, 512, correlated=True)
            fn = eng.divide if divider == "cordiv" else eng.divide_jk
            vals[mode] = float(np.mean(fn(sx, sy).value()))
        assert vals["sparse"] == pytest.approx(vals["dense"], abs=0.02)


# ----------------------------------------------------------------------
# JK divider: the dense word path matches the per-bit oracle
# ----------------------------------------------------------------------
class TestDivideJk:
    def test_dense_word_matches_bit_oracle(self):
        rates = GateFaultRates(and2=0.02, or2=0.015, xor2=0.03, maj3=0.02,
                               read=0.01)
        for name in BACKENDS:
            with use_backend(name):
                ref = None
                for domain in ("bit", "word"):
                    eng = InMemorySCEngine(fault_rates=rates, rng=23,
                                           fault_domain=domain)
                    j = eng.generate(np.linspace(0.1, 0.6, 7), 97)
                    k = eng.generate(np.linspace(0.2, 0.7, 7), 97)
                    got = eng.divide_jk(j, k).bits
                    if ref is None:
                        ref = got
                    else:
                        np.testing.assert_array_equal(
                            got, ref, err_msg=f"{name}/{domain}")

    def test_fault_free_value(self):
        eng = InMemorySCEngine(rng=29, ideal_stob=True)
        j = eng.generate(np.full(128, 0.2), 2048)
        k = eng.generate(np.full(128, 0.3), 2048)
        got = float(np.mean(eng.divide_jk(j, k).value()))
        assert got == pytest.approx(0.4, abs=0.03)  # j / (j + k)


# ----------------------------------------------------------------------
# Faulty-mode golden values: the dense oracle stays pinned per backend
# ----------------------------------------------------------------------
# Seeded MSE(%) vs the float reference of each filter under the derived
# DEFAULT_FAULT_RATES (natural_scene 12x12 seed 21, N=128, engine rng=7,
# per-bit S-to-B, dense word-domain fault sampling), recorded at the sparse
# fault-sampling introduction.  Identical under every backend; any drift
# means the faulty stream bits (or the fault-model RNG consumption)
# changed.
PINNED_FAULTY_FILTER_MSE = {
    "roberts_cross": 0.28964678487447165,
    "mean_filter": 0.09905166669686759,
    "gamma_correct": 0.17946157037309618,
    "contrast_stretch": 0.1987359245095738,
}

_FILTER_FNS = {
    "roberts_cross": (roberts_cross_sc, roberts_cross_float),
    "mean_filter": (mean_filter_sc, mean_filter_float),
    "gamma_correct": (gamma_correct_sc, gamma_correct_float),
    "contrast_stretch": (contrast_stretch_sc, contrast_stretch_float),
}


class TestFaultyGoldens:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("filt", sorted(PINNED_FAULTY_FILTER_MSE))
    def test_dense_faulty_filter_mse_pinned(self, name, filt):
        image = natural_scene(12, 12, np.random.default_rng(21))
        sc_fn, ref_fn = _FILTER_FNS[filt]
        with use_backend(name):
            eng = InMemorySCEngine(rng=7, fault_rates=DEFAULT_FAULT_RATES)
            out = sc_fn(eng, image, 128)
        mse = float(np.mean((out - ref_fn(image)) ** 2)) * 100.0
        assert mse == pytest.approx(PINNED_FAULTY_FILTER_MSE[filt], rel=1e-9)

    @pytest.mark.parametrize("app", ("matting", "interpolation"))
    def test_sparse_app_quality_within_band_of_dense(self, app):
        """Seeded faulty-app quality: sparse within a pinned band of dense.

        Observed deltas across seeds are <= ~0.8 SSIM points / 0.5 dB;
        the band leaves ~2.5x headroom without masking real regressions.
        """
        vals = {}
        with use_backend("packed"):
            for mode in ("dense", "sparse"):
                r = run_app(app, "sc", length=64, size=24, seed=3,
                            faulty=True, fault_sampling=mode)
                vals[mode] = (r.ssim_pct, r.psnr_db)
        assert vals["sparse"][0] == pytest.approx(vals["dense"][0], abs=2.0)
        assert vals["sparse"][1] == pytest.approx(vals["dense"][1], abs=1.5)

    def test_sparse_is_seed_deterministic(self):
        a = run_app("matting", "sc", length=32, size=16, seed=11,
                    faulty=True, fault_sampling="sparse")
        b = run_app("matting", "sc", length=32, size=16, seed=11,
                    faulty=True, fault_sampling="sparse")
        np.testing.assert_array_equal(a.output, b.output)


# ----------------------------------------------------------------------
# No unpack on the sparse packed path
# ----------------------------------------------------------------------
def test_no_unpack_on_sparse_packed_path(monkeypatch):
    """Sparse fault injection must scatter into words, never unpack."""
    def boom(self, data, length):
        raise AssertionError("silent unpack on the sparse packed path")

    monkeypatch.setattr(PackedBackend, "unpack", boom)
    rates = GateFaultRates(and2=0.01, or2=0.01, xor2=0.01, maj3=0.01,
                           read=0.01)
    with use_backend("packed"):
        eng = InMemorySCEngine(fault_rates=rates, rng=37,
                               fault_sampling="sparse", cell_model="column")
        x = eng.generate_correlated(np.linspace(0.1, 0.9, 8), 96)
        y = eng.generate(np.linspace(0.2, 0.8, 8), 96)
        r = eng.generate(np.full(8, 0.5), 96)
        eng.multiply(x, y)
        eng.maj(x, y, r)
        eng.mux(r, x, y)
        eng.divide(eng.minimum(x, y), eng.maximum(x, y))
        eng.divide_jk(x, y)
        eng.to_binary(x)


# ----------------------------------------------------------------------
# Executor satellites: worker cap + upfront kwarg validation
# ----------------------------------------------------------------------
class TestPoolMapWorkerCap:
    def test_workers_capped_at_task_count(self, monkeypatch):
        # pool_map's one-shot path now goes through serve.pool.WorkerPool;
        # the worker cap must survive the extraction.
        seen = {}

        import repro.apps.executor as executor
        import repro.serve.pool as serve_pool

        real_pool = serve_pool.WorkerPool

        class RecordingPool(real_pool):
            def __init__(self, jobs, **kw):
                seen["jobs"] = jobs
                super().__init__(jobs, **kw)

        monkeypatch.setattr(serve_pool, "WorkerPool", RecordingPool)
        out = executor.pool_map(abs, [-1, -2, -3], jobs=8)
        assert out == [1, 2, 3]
        assert seen["jobs"] == 3

    def test_single_task_runs_in_process(self, monkeypatch):
        import repro.apps.executor as executor
        import repro.serve.pool as serve_pool

        def no_pool(*a, **kw):
            raise AssertionError("a single task must not spawn a pool")

        monkeypatch.setattr(serve_pool, "WorkerPool", no_pool)
        assert executor.pool_map(abs, [-7], jobs=4) == [7]
        assert executor.pool_map(abs, [], jobs=4) == []


class TestRunTiledValidation:
    def _inputs(self):
        image = natural_scene(8, 8, np.random.default_rng(2))
        return contrast_stretch_inputs(image)

    def test_unknown_engine_kwarg_named_in_parent(self):
        with pytest.raises(ValueError, match="fault_sampling_typo"):
            run_tiled("contrast_stretch", self._inputs(), 32, tile=4,
                      engine_kwargs={"fault_sampling_typo": "sparse"})

    def test_engine_rng_rejected(self):
        with pytest.raises(ValueError, match="SeedSequence"):
            run_tiled("contrast_stretch", self._inputs(), 32, tile=4,
                      engine_kwargs={"rng": 3})

    def test_bad_engine_value_rejected_in_parent(self):
        with pytest.raises(ValueError, match="fault_sampling"):
            run_tiled("contrast_stretch", self._inputs(), 32, tile=4,
                      engine_kwargs={"fault_sampling": "bogus"})

    def test_unknown_kernel_kwarg_named_in_parent(self):
        with pytest.raises(ValueError, match="gamma"):
            run_tiled("contrast_stretch", self._inputs(), 32, tile=4,
                      kernel_kwargs={"gamma": 0.5})

    def test_kernel_kwarg_input_collision_rejected(self):
        with pytest.raises(ValueError, match="collides"):
            run_tiled("contrast_stretch", self._inputs(), 32, tile=4,
                      kernel_kwargs={"image": np.zeros(4)})

    def test_unknown_input_name_rejected_in_parent(self):
        with pytest.raises(ValueError, match="unknown input"):
            run_tiled("contrast_stretch",
                      {"picture": natural_scene(
                          8, 8, np.random.default_rng(2))}, 32, tile=4)

    def test_missing_required_input_rejected_in_parent(self):
        # Previously surfaced only as a pickled in-worker TypeError (and,
        # via the serving scheduler, consumed pool slots before failing).
        scene = natural_scene(8, 8, np.random.default_rng(2))
        with pytest.raises(ValueError, match="missing required.*foreground"):
            run_tiled("matting",
                      {"composite": scene, "background": scene * 0.5},
                      32, tile=4)

    def test_valid_kwargs_still_run(self):
        out, _ = run_tiled(
            "contrast_stretch", self._inputs(), 32, tile=4,
            engine_kwargs={"fault_rates": DEFAULT_FAULT_RATES,
                           "fault_sampling": "sparse"},
            kernel_kwargs={"lo": 0.25, "hi": 0.75})
        assert out.shape == (8, 8)
        assert np.all((out >= 0.0) & (out <= 1.0))
