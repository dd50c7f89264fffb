"""Unit tests for repro.imsc: GT network, IMSNG unit, engine, S-to-B, cost."""

import numpy as np
import pytest

from repro.core.bitstream import Bitstream
from repro.core.correlation import scc
from repro.imsc.cost import (
    ReRamScDesign,
    imsng_conversion_cost,
    sc_op_cost,
    stob_cost,
)
from repro.imsc.engine import InMemorySCEngine
from repro.imsc.gtnetwork import build_gt_xag, gt_reference
from repro.imsc.imsng import ImsngUnit
from repro.imsc.stob import InMemoryStoB
from repro.reram.faults import DEFAULT_FAULT_RATES


class TestGtNetwork:
    def test_xag_matches_reference_exhaustive_4bit(self):
        xag = build_gt_xag(4)
        a_vals = np.arange(16)
        for b in range(16):
            ins = {}
            for i in range(4):
                ins[f"a{i}"] = ((a_vals >> i) & 1).astype(np.uint8)
                ins[f"b{i}"] = np.full(16, (b >> i) & 1, dtype=np.uint8)
            out = xag.evaluate(ins)["gt"]
            assert np.array_equal(out, (a_vals > b).astype(np.uint8))

    def test_reference_bitplanes(self):
        gen = np.random.default_rng(0)
        a = gen.integers(0, 256, 500)
        b = gen.integers(0, 256, 500)
        ap = np.stack([((a >> (7 - i)) & 1).astype(np.uint8) for i in range(8)])
        bp = np.stack([((b >> (7 - i)) & 1).astype(np.uint8) for i in range(8)])
        assert np.array_equal(gt_reference(ap, bp), (a > b).astype(np.uint8))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gt_reference(np.zeros((4, 2)), np.zeros((4, 3)))

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            build_gt_xag(0)


class TestImsngUnit:
    @pytest.mark.parametrize("mode", ["naive", "opt"])
    def test_conversion_value(self, mode):
        u = ImsngUnit(width=2048, mode=mode, rng=0)
        res = u.convert(0.62)
        assert abs(res.bits.mean() - 0.62) < 0.05

    def test_opt_command_counts(self):
        u = ImsngUnit(width=64, mode="opt", rng=1)
        res = u.convert(0.5)
        kinds = [c.kind for c in res.commands]
        assert kinds.count("sl") == 3 * u.segment_bits
        assert kinds.count("write") == 1
        assert kinds.count("latch") == u.segment_bits

    def test_naive_command_counts(self):
        u = ImsngUnit(width=64, mode="naive", rng=1)
        res = u.convert(0.5)
        kinds = [c.kind for c in res.commands]
        assert kinds.count("sl") == 5 * u.segment_bits
        # 2 writes per bit + 2 state-row initialisations.
        assert kinds.count("write") == 2 * u.segment_bits + 2

    def test_modes_agree_fault_free(self):
        a = ImsngUnit(width=4096, mode="naive", rng=7).convert(0.31)
        b = ImsngUnit(width=4096, mode="opt", rng=7).convert(0.31)
        assert abs(a.bits.mean() - b.bits.mean()) < 0.04

    def test_faulty_conversion_degrades(self):
        clean = ImsngUnit(width=8192, rng=3).convert(0.5).bits.mean()
        noisy = ImsngUnit(width=8192, rng=3,
                          fault_rates=DEFAULT_FAULT_RATES.scaled(10))
        val = noisy.convert(0.5).bits.mean()
        assert abs(val - 0.5) < 0.2   # degraded but not destroyed

    def test_expected_counts(self):
        assert ImsngUnit(mode="opt").expected_counts()["sense"] == 24
        assert ImsngUnit(mode="naive").expected_counts()["sense"] == 40

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ImsngUnit(mode="fast")


class TestEngineGeneration:
    def test_values(self):
        e = InMemorySCEngine(rng=0)
        s = e.generate(np.array([0.2, 0.5, 0.9]), 2048)
        assert np.allclose(s.value(), [0.2, 0.5, 0.9], atol=0.05)

    def test_pair_correlation_control(self):
        e = InMemorySCEngine(rng=1)
        a, b = e.generate_pair(0.4, 0.7, 4096, correlated=True)
        assert float(scc(a, b)) > 0.9
        a2, b2 = e.generate_pair(0.4, 0.7, 4096, correlated=False)
        assert abs(float(scc(a2, b2))) < 0.15

    def test_correlated_batch_identical_for_equal_values(self):
        e = InMemorySCEngine(rng=2)
        s = e.generate_correlated(np.array([0.5, 0.5]), 512)
        assert np.array_equal(s.bits[0], s.bits[1])

    def test_naive_mode_has_more_fault_sites(self):
        # With exaggerated AND-gate faults, the naive design (whose flag
        # ANDs are sensed) degrades more than opt (latch-predicated).
        rates = DEFAULT_FAULT_RATES.scaled(20)
        errs = {}
        for mode in ("naive", "opt"):
            e = InMemorySCEngine(mode=mode, fault_rates=rates, rng=3)
            s = e.generate(np.full(400, 0.5), 256)
            errs[mode] = float(np.mean(np.abs(s.value() - 0.5)))
        assert errs["naive"] > errs["opt"]

    def test_trng_bias_shifts_values(self):
        clean = InMemorySCEngine(trng_bias=0.0, rng=4)
        skew = InMemorySCEngine(trng_bias=0.15, rng=4)
        v0 = float(np.mean(clean.generate(np.full(200, 0.5), 512).value()))
        v1 = float(np.mean(skew.generate(np.full(200, 0.5), 512).value()))
        assert v1 < v0


class TestEngineOps:
    def test_op_dispatch_and_semantics(self):
        e = InMemorySCEngine(rng=5)
        x, y = e.generate_pair(0.6, 0.3, 8192, correlated=True)
        assert float(e.op("abs_subtraction", x, y).value()) == pytest.approx(
            0.3, abs=0.04)
        assert float(e.op("minimum", x, y).value()) == pytest.approx(
            0.3, abs=0.04)
        assert float(e.op("maximum", x, y).value()) == pytest.approx(
            0.6, abs=0.04)

    def test_divide(self):
        e = InMemorySCEngine(rng=6)
        x, y = e.generate_pair(0.2, 0.8, 8192, correlated=True)
        assert float(e.divide(x, y).value()) == pytest.approx(0.25, abs=0.05)

    def test_mux_blend(self):
        e = InMemorySCEngine(rng=7)
        a = e.generate(0.9, 8192)
        b = e.generate(0.1, 8192)
        sel = e.generate(0.25, 8192)
        out = e.mux(sel, a, b)
        assert float(out.value()) == pytest.approx(
            0.75 * 0.9 + 0.25 * 0.1, abs=0.04)

    def test_unknown_op(self):
        e = InMemorySCEngine(rng=0)
        s = e.generate(0.5, 64)
        with pytest.raises(ValueError):
            e.op("modulo", s, s)

    def test_scaled_add_default_half_stream(self):
        e = InMemorySCEngine(rng=8)
        x, y = e.generate_pair(0.9, 0.1, 8192, correlated=False)
        out = e.scaled_add(x, y)
        assert float(out.value()) == pytest.approx(0.5, abs=0.04)

    def test_ledger_accumulates(self):
        e = InMemorySCEngine(rng=9)
        x, y = e.generate_pair(0.5, 0.5, 256, correlated=False)
        e.multiply(x, y)
        assert e.ledger.energy_j > 0
        assert e.ledger.latency_s > 0
        e.reset_ledger()
        assert e.ledger.energy_j == 0


class TestStoB:
    def test_recovery_accuracy(self):
        stob = InMemoryStoB(rng=0)
        s = Bitstream.bernoulli(np.full(50, 0.6), 256, rng=1)
        out = stob.convert(s)
        assert np.allclose(out, s.value(), atol=0.08)

    def test_ideal_cells_tighter(self):
        s = Bitstream.bernoulli(np.full(200, 0.5), 256, rng=2)
        noisy = InMemoryStoB(rng=3).convert(s)
        ideal = InMemoryStoB(ideal_cells=True, rng=3).convert(s)
        err_noisy = np.abs(noisy - s.value()).mean()
        err_ideal = np.abs(ideal - s.value()).mean()
        assert err_ideal <= err_noisy + 1e-6

    def test_current_monotone_in_popcount(self):
        stob = InMemoryStoB(ideal_cells=True, rng=4)
        lo = Bitstream(np.r_[np.ones(10), np.zeros(54)].astype(np.uint8))
        hi = Bitstream(np.r_[np.ones(40), np.zeros(24)].astype(np.uint8))
        assert stob.column_current(hi) > stob.column_current(lo)

    def test_engine_to_binary(self):
        e = InMemorySCEngine(rng=10)
        s = e.generate(np.full(20, 0.3), 256)
        out = e.to_binary(s)
        assert np.allclose(out, 0.3, atol=0.1)

    def test_adc_map_survives_length_changes(self):
        # Regression: changing the stream length used to discard the cached
        # ADC, silently zeroing the conversions counter — mixed-length
        # workloads under-reported ADC cost.
        stob = InMemoryStoB(rng=6)
        s64 = Bitstream.bernoulli(np.full(10, 0.5), 64, rng=1)
        s128 = Bitstream.bernoulli(np.full(5, 0.5), 128, rng=2)
        stob.convert(s64)
        assert stob.conversions == 10
        stob.convert(s128)
        assert stob.conversions == 15
        stob.convert(s64)
        assert stob.conversions == 25

    def test_invalid_cell_model_rejected(self):
        with pytest.raises(ValueError, match="cell_model"):
            InMemoryStoB(cell_model="per-word")
        with pytest.raises(ValueError, match="cell_model"):
            InMemorySCEngine(cell_model="per-word")

    def test_column_model_recovery_accuracy(self):
        stob = InMemoryStoB(rng=0, cell_model="column")
        s = Bitstream.bernoulli(np.full(50, 0.6), 256, rng=1)
        out = stob.convert(s)
        assert np.allclose(out, s.value(), atol=0.08)

    def test_column_model_accepts_streambatch(self):
        bits = np.random.default_rng(2).integers(0, 2, (6, 128), np.uint8)
        sb = Bitstream(bits, backend="packed")
        vals = InMemoryStoB(rng=3, cell_model="column").convert(sb)
        assert vals.shape == (6,)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_column_matches_per_bit_statistics(self):
        # The column model is variance-matched: the recovered values must
        # agree with the per-bit oracle in mean and spread (not bit-wise).
        s = Bitstream.bernoulli(np.full(8000, 0.37), 256, rng=4)
        per_bit = InMemoryStoB(rng=5, cell_model="per-bit").convert(s)
        column = InMemoryStoB(rng=6, cell_model="column").convert(s)
        assert column.mean() == pytest.approx(per_bit.mean(), abs=0.003)
        assert column.std() == pytest.approx(per_bit.std(), rel=0.08)

    def test_column_caches_reused_across_conversions(self):
        stob = InMemoryStoB(rng=7, cell_model="column")
        s = Bitstream.bernoulli(np.full(20, 0.5), 128, rng=8)
        stob.convert(s)
        cols = dict(stob._columns)
        stob.convert(s)
        assert list(stob._columns) == list(cols)
        for key, arr in cols.items():
            assert stob._columns[key] is arr
        assert stob.conversions == 40

    def test_engine_column_cell_model(self):
        e = InMemorySCEngine(rng=11, cell_model="column")
        s = e.generate(np.full(30, 0.3), 256)
        out = e.to_binary(s)
        assert np.allclose(out, 0.3, atol=0.1)

    def test_engine_to_binary_accepts_streambatch(self):
        e = InMemorySCEngine(rng=12, cell_model="column")
        sb = e.generate_correlated(np.full((2, 15), 0.4), 256)
        out = e.to_binary(sb)
        assert out.shape == (2, 15)
        assert np.allclose(out, 0.4, atol=0.1)
        assert e.ledger.energy_j > 0


class TestCostModel:
    def test_paper_anchor_naive(self):
        led = imsng_conversion_cost(8, "naive")
        assert led.latency_ns == pytest.approx(395.4, rel=0.01)
        assert led.energy_nj == pytest.approx(10.23, rel=0.01)

    def test_paper_anchor_opt(self):
        led = imsng_conversion_cost(8, "opt")
        assert led.latency_ns == pytest.approx(78.2, rel=0.01)
        assert led.energy_nj == pytest.approx(3.42, rel=0.02)

    def test_width_scales_energy_not_latency(self):
        full = imsng_conversion_cost(8, "opt")
        half = imsng_conversion_cost(8, "opt", width=128)
        assert half.latency_ns == pytest.approx(full.latency_ns)
        assert half.energy_nj == pytest.approx(full.energy_nj / 2, rel=0.01)

    def test_single_cycle_ops(self):
        for op in ("multiplication", "scaled_addition", "abs_subtraction",
                   "minimum", "maximum"):
            led = sc_op_cost(op)
            assert led.latency_ns == pytest.approx(2.488, rel=0.01)

    def test_division_scales_with_length(self):
        l128 = sc_op_cost("division", length=128).latency_ns
        l256 = sc_op_cost("division", length=256).latency_ns
        assert l256 == pytest.approx(2 * l128, rel=0.01)

    def test_mux_three_cycles(self):
        assert sc_op_cost("mux2").latency_ns == pytest.approx(
            3 * 2.488, rel=0.01)

    def test_table3_reram_rows(self):
        rows = ReRamScDesign().table_rows()
        assert rows["Multiplication"]["latency_ns"] == pytest.approx(80.8, rel=0.01)
        assert rows["Multiplication"]["energy_nj"] == pytest.approx(3.50, rel=0.03)
        assert rows["Division"]["latency_ns"] == pytest.approx(12544.0, rel=0.01)
        assert rows["Division"]["energy_nj"] == pytest.approx(4.48, rel=0.03)

    def test_stob_cost_counts_values(self):
        one = stob_cost(1)
        many = stob_cost(10)
        assert many.energy_j > one.energy_j
        assert many.latency_s > one.latency_s

    def test_throughput_positive(self):
        d = ReRamScDesign()
        assert d.throughput_ops_per_s("multiplication") > 0
        assert d.throughput_ops_per_s("multiplication", parallel_flows=4) == \
            pytest.approx(4 * d.throughput_ops_per_s("multiplication"))

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            sc_op_cost("transmogrify")
