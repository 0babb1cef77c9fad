"""Container invariants for bit and sample frames."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vsatlink.frames
from vsatlink import (
    AutomaticGainControl,
    BitFrame,
    ComplexFrame,
    DcOffsetCompensator,
    ImpairmentConfig,
    LinkGains,
    ModemConfig,
    ParameterError,
    SalehParams,
    SatelliteChannel,
    estimate_psd,
    generate_bits,
    phase_freq_correct,
    phase_freq_offset,
    qam_demodulate,
    qam_modulate,
    rx_match,
    saleh_amplify,
    tx_shape,
)
from vsatlink.frames import PowerSum


class TestBitFrame:
    def test_accepts_binary(self):
        f = BitFrame(np.array([0, 1, 1, 0]))
        assert len(f) == 4

    def test_rejects_non_binary(self):
        with pytest.raises(ParameterError):
            BitFrame(np.array([0, 2, 1]))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            BitFrame(np.array([], dtype=int))


class TestMeanPower:
    """``mean_power`` sums leaf by leaf, without the frame-sized temporary of
    ``np.mean(np.abs(x) ** 2)``, and must equal it bit for bit."""

    @staticmethod
    def _samples(n, seed, zeros):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-3, 3, n)
        x[rng.random(n) < zeros] = 0.0
        return x

    @staticmethod
    def _numpy_mean(x):
        return float(np.mean(np.abs(x) ** 2)) if x.size else 0.0

    @given(n=st.integers(0, 300_000), seed=st.integers(0, 2**32 - 1),
           zeros=st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_equals_numpy_mean(self, n, seed, zeros):
        x = self._samples(n, seed, zeros)
        assert ComplexFrame(x, 50e3).mean_power == self._numpy_mean(x)

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("n", [65535, 65536, 65537, 2_000_240])
    def test_block_lengths_and_block_sizes(self, n, block, monkeypatch):
        # 2_000_240 samples: a 1e6-bit 16-QAM waveform; BLOCK_SAMPLES does not
        # set the leaf, so 1 and 7 change nothing
        if block is not None:
            monkeypatch.setattr(vsatlink.frames, "BLOCK_SAMPLES", block)
        x = self._samples(n, n, zeros=0.05)
        assert ComplexFrame(x, 50e3).mean_power == self._numpy_mean(x)

    @given(n=st.integers(0, 200_000), seed=st.integers(0, 2**32 - 1),
           pieces=st.lists(st.integers(1, 70_000), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_power_sum_fed_in_pieces_equals_mean_power(self, n, seed, pieces):
        # the leaves are fixed by n, so pieces that cut them change nothing
        x = self._samples(n, seed, zeros=0.05)
        power, start = PowerSum(n), 0
        while start < n:
            for size in pieces:
                power.add(x[start : start + size])
                start += size
        assert power.mean == ComplexFrame(x, 50e3).mean_power

    def test_power_sum_refuses_samples_past_its_stream(self):
        power = PowerSum(3)
        power.add(np.ones(3, dtype=complex))
        with pytest.raises(ParameterError, match="more than the 3 samples"):
            power.add(np.ones(1, dtype=complex))


class TestComplexFrame:
    def test_power_and_clock(self):
        f = ComplexFrame(np.array([3 + 4j, 0j]), 50e3)
        assert f.mean_power == pytest.approx(12.5)
        assert f.start_sample == 0

    def test_rejects_nonpositive_rate(self):
        for rate in (0.0, math.inf, math.nan):  # an infinite rate would rotate by 0 rad
            with pytest.raises(ParameterError):
                ComplexFrame(np.array([1j]), rate)

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            ComplexFrame(np.array([np.nan + 0j]), 50e3)
        with pytest.raises(ParameterError):
            ComplexFrame(np.array([np.inf + 0j]), 50e3)

    def test_with_samples_keeps_clock(self):
        f = ComplexFrame(np.ones(4, dtype=complex), 50e3, start_sample=100)
        g = f.with_samples(np.zeros(4, dtype=complex))
        assert g.start_sample == 100
        assert g.sample_rate_hz == 50e3


class TestBoundaryChecks:
    """Outside data is checked where it enters, and at the two stages that
    can turn a finite frame into NaN/Inf."""

    def test_with_samples_rejects_nan(self):
        f = ComplexFrame(np.ones(1, dtype=complex), 50e3)
        with pytest.raises(ParameterError):
            f.with_samples(np.array([np.nan]))

    def test_twta_overflow_rejected(self):
        # |x|^2 overflows inside the TWTA and its AM/PM term turns into NaN
        x = ComplexFrame(np.array([1e160, 1]), 50e3)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ParameterError):
            saleh_amplify(x, SalehParams())

    def test_channel_run_overflow_rejected(self):
        channel = SatelliteChannel(LinkGains(), SalehParams(), ImpairmentConfig())
        x = ComplexFrame(np.array([1e160, 1]), 50e3)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ParameterError):
            channel.run(x)


def _assert_samples(f, rate, start):
    assert f.samples.ndim == 1 and f.samples.dtype == np.complex128
    assert type(f.sample_rate_hz) is float and f.sample_rate_hz == rate
    assert f.start_sample == start


class TestUncheckedStages:
    """Stages that skip the frame check still hand out what the check made."""

    CFG = ModemConfig()

    def test_bit_stages(self):
        bits = generate_bits(4000, 3)
        assert bits.bits.ndim == 1 and bits.bits.dtype == np.int8
        assert set(np.unique(bits.bits)) == {0, 1}
        rx = qam_demodulate(qam_modulate(bits, self.CFG), self.CFG)
        assert rx.bits.ndim == 1 and rx.bits.dtype == np.int8
        assert np.array_equal(rx.bits, bits.bits)

    def test_modem_stages(self):
        cfg = self.CFG
        symbols = qam_modulate(generate_bits(4000, 4), cfg)
        _assert_samples(symbols, cfg.symbol_rate_hz, 0)
        wave = tx_shape(symbols, cfg)
        _assert_samples(wave, cfg.sample_rate_hz, 0)
        _assert_samples(rx_match(wave, cfg), cfg.symbol_rate_hz, 0)

    def test_sample_wise_stages_keep_the_clock(self):
        rng = np.random.default_rng(5)
        x = ComplexFrame(rng.standard_normal(3000) + 1j * rng.standard_normal(3000),
                         50e3, start_sample=123)
        impairments = ImpairmentConfig(iq_amplitude_imbalance_db=0.5, dc_offset_i=0.1)
        outputs = [
            phase_freq_offset(x, 10.0, 3.0),
            phase_freq_correct(x, 10.0, 3.0),
            SatelliteChannel(LinkGains(), SalehParams.linear(), impairments,
                             mode="normalized").run(x)[0],
            DcOffsetCompensator().process(x),
            AutomaticGainControl(10.0).process(x),
        ]
        for out in outputs:
            _assert_samples(out, 50e3, 123)
            assert len(out) == len(x)


_CFG = ModemConfig()
_WAVE = ComplexFrame(np.random.default_rng(6).standard_normal(4000) + 0.5j,
                     _CFG.sample_rate_hz, start_sample=17)
_BITS = generate_bits(4000, 7)
_SYMBOLS = ComplexFrame(3 * _WAVE.samples, _CFG.symbol_rate_hz)
_IMPAIRMENTS = ImpairmentConfig(phase_offset_deg=15.0, freq_offset_hz=2.0,
                                noise_temperature_k=45.0, iq_amplitude_imbalance_db=0.5,
                                dc_offset_i=0.1, seed=3)


@pytest.mark.parametrize("stage, x", [
    (lambda x: saleh_amplify(x, SalehParams()), _WAVE),
    (lambda x: phase_freq_offset(x, 15.0, 2.0), _WAVE),
    (lambda x: phase_freq_correct(x, 15.0, 2.0), _WAVE),
    (lambda x: SatelliteChannel(LinkGains(), SalehParams(), _IMPAIRMENTS).run(x), _WAVE),
    (lambda x: SatelliteChannel(LinkGains(), SalehParams.linear(), ImpairmentConfig(),
                                mode="normalized", target_es_n0_db=10.0).run(x), _WAVE),
    (lambda x: DcOffsetCompensator().process(x), _WAVE),
    (lambda x: AutomaticGainControl(10.0).process(x), _WAVE),
    (lambda x: tx_shape(x, _CFG), _SYMBOLS),
    (lambda x: rx_match(x, _CFG), _WAVE),
    (lambda x: qam_modulate(x, _CFG), _BITS),
    (lambda x: qam_demodulate(x, _CFG), _SYMBOLS),
    (lambda x: estimate_psd(x, 256), _WAVE),
], ids=["saleh_amplify", "phase_freq_offset", "phase_freq_correct", "SatelliteChannel.run",
        "SatelliteChannel.run-identity", "DcOffsetCompensator.process",
        "AutomaticGainControl.process", "tx_shape", "rx_match", "qam_modulate",
        "qam_demodulate", "estimate_psd"])
def test_public_stage_leaves_its_input_unchanged(stage, x):
    # a library caller may reuse its frame after handing it to a stage
    data = x.bits if isinstance(x, BitFrame) else x.samples
    before = data.copy()
    stage(x)
    assert np.array_equal(data, before)
