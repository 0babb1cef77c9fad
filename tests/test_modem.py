"""Modem tests: bit source, QAM mapping, RRC shaping and matched filtering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vsatlink import (
    BitFrame,
    ComplexFrame,
    FramingError,
    InsufficientDataError,
    ModemConfig,
    ParameterError,
    constellation_points,
    generate_bits,
    phase_freq_correct,
    qam_demodulate,
    qam_modulate,
    rrc_taps,
    rx_match,
    tx_shape,
)
from vsatlink.modem import FFT_BLOCK_SYMBOLS, RxMatcher, TxShaper

CFG = ModemConfig()
SPS = CFG.samples_per_symbol
SPAN = CFG.filter_span_symbols
# symbols (outputs for rx_match) per FFT block at the default span, and
# lengths on either side of one, two and three block edges
BLOCK = FFT_BLOCK_SYMBOLS - SPAN
BLOCK_EDGES = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 3 * BLOCK + 7]
# tx_shape's blocks count output rows, n + SPAN for n symbols: symbol counts
# whose rows fall on either side of one and two block edges
TX_BLOCK_EDGES = [BLOCK - SPAN - 1, BLOCK - SPAN, BLOCK - SPAN + 1, 2 * BLOCK - SPAN + 1]


class TestGenerateBits:
    def test_mean_within_binomial_interval(self):
        # 1e6 draws at p=0.5: +-4 sigma is +-0.002
        bits = generate_bits(10**6, 42)
        assert 0.498 <= bits.bits.mean() <= 0.502

    def test_deterministic_per_seed(self):
        a = generate_bits(1000, 7)
        b = generate_bits(1000, 7)
        assert np.array_equal(a.bits, b.bits)

    def test_invalid_count(self):
        with pytest.raises(ParameterError):
            generate_bits(0, 0)

    def test_bits_are_uniform_draws_below_one_half(self):
        expected = np.random.default_rng(13).random(1000) < 0.5
        bits = generate_bits(1000, 13).bits
        assert bits.dtype == np.int8
        assert np.array_equal(bits, expected)


class TestQamMapping:
    def test_full_label_table_matches_reference(self):
        for bits, expected in oracles.all_labelled_points():
            sym = qam_modulate(BitFrame(np.array(bits)), CFG)
            assert sym.samples[0] == expected

    def test_spot_examples(self):
        sym = qam_modulate(BitFrame(np.array([0, 0, 0, 0, 1, 0, 1, 0])), CFG)
        assert sym.samples[0] == -3 - 3j
        assert sym.samples[1] == 3 + 3j

    def test_round_trip_all_patterns(self):
        for v in range(16):
            bits = np.array([(v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1])
            out = qam_demodulate(qam_modulate(BitFrame(bits), CFG), CFG)
            assert np.array_equal(out.bits, bits)

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=400).filter(lambda b: len(b) % 4 == 0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, bits):
        frame = BitFrame(np.array(bits))
        out = qam_demodulate(qam_modulate(frame, CFG), CFG)
        assert np.array_equal(out.bits, frame.bits)

    def test_framing_error(self):
        with pytest.raises(FramingError):
            qam_modulate(BitFrame(np.array([1, 0, 1])), CFG)

    def test_gray_property_all_adjacent_pairs(self):
        # neighbouring lattice points (distance = min_distance) differ in one bit
        pts = {p: b for b, p in oracles.all_labelled_points()}
        for p, bits in pts.items():
            for step in (2, 2j, -2, -2j):
                q = p + step
                if q in pts:
                    ham = sum(a != b for a, b in zip(bits, pts[q]))
                    assert ham == 1, f"{p} -> {q} differs in {ham} bits"

    def test_mean_constellation_energy_is_ten(self):
        pts = constellation_points(CFG)
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(10.0, abs=1e-12)

    def test_nearest_decision(self):
        f = ComplexFrame(np.array([2.7 + 3.4j]), CFG.symbol_rate_hz)
        assert np.array_equal(qam_demodulate(f, CFG).bits, [1, 0, 1, 0])

    def test_boundary_tie_rounds_to_lower_level(self):
        f = ComplexFrame(np.array([0 + 0j]), CFG.symbol_rate_hz)
        assert np.array_equal(qam_demodulate(f, CFG).bits, [0, 1, 0, 1])

    def test_clamping_to_outer_level(self):
        f = ComplexFrame(np.array([100 + 100j]), CFG.symbol_rate_hz)
        assert np.array_equal(qam_demodulate(f, CFG).bits, [1, 0, 1, 0])

    def test_64qam_round_trip(self):
        cfg = ModemConfig(m_ary=64)
        bits = generate_bits(6 * 500, 9)
        out = qam_demodulate(qam_modulate(bits, cfg), cfg)
        assert np.array_equal(out.bits, bits.bits)

    def test_m_ary_must_be_power_of_four(self):
        with pytest.raises(ParameterError):
            ModemConfig(m_ary=32)

    def test_largest_integers_are_accepted(self):
        cfg = ModemConfig(m_ary=4096, samples_per_symbol=64, filter_span_symbols=256)
        assert constellation_points(cfg).size == 4096

    @pytest.mark.parametrize("m_ary", [4, 16, 64])
    @pytest.mark.parametrize("gray", [True, False])
    def test_modulate_is_a_lookup_in_the_label_table(self, m_ary, gray):
        cfg = ModemConfig(m_ary=m_ary, gray_coding=gray)
        k = cfg.bits_per_symbol
        labels = np.arange(m_ary)
        bits = ((labels[:, None] >> np.arange(k - 1, -1, -1)) & 1).reshape(-1)
        sym = qam_modulate(BitFrame(bits), cfg)
        assert np.array_equal(sym.samples, constellation_points(cfg))
        assert np.array_equal(qam_demodulate(sym, cfg).bits, bits)


class TestNaturalBinaryMapping:
    CFG = ModemConfig(gray_coding=False)

    def test_label_table_is_natural_binary(self):
        levels = [-3.0, -1.0, 1.0, 3.0]
        table = [complex(levels[v >> 2], levels[v & 3]) for v in range(16)]
        assert np.array_equal(constellation_points(self.CFG), table)

    def test_decisions_on_boundaries_and_outside_the_grid(self):
        f = ComplexFrame(np.array([0 + 0j, -2 + 2j, 100 - 100j]), self.CFG.symbol_rate_hz)
        # ties go to the lower level (label 01 per axis at 0, 00 at -2, 10 at +2)
        assert np.array_equal(qam_demodulate(f, self.CFG).bits,
                              [0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0])

    @pytest.mark.parametrize("m_ary", [16, 64])
    def test_round_trip(self, m_ary):
        cfg = ModemConfig(m_ary=m_ary, gray_coding=False)
        bits = generate_bits(cfg.bits_per_symbol * 500, 11)
        out = qam_demodulate(qam_modulate(bits, cfg), cfg)
        assert np.array_equal(out.bits, bits.bits)


class TestRrcTaps:
    def test_tap_count(self):
        assert rrc_taps(CFG).size == SPAN * SPS + 1

    def test_even_symmetry(self):
        h = rrc_taps(CFG)
        assert np.allclose(h, h[::-1], atol=1e-15)

    def test_unit_energy(self):
        h = rrc_taps(CFG)
        assert np.sum(h**2) == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_synthesis(self):
        h = rrc_taps(CFG)
        ref = oracles.rrc_reference_taps(0.2, SPS, SPAN)
        assert np.allclose(h, ref, atol=1e-12)

    def test_singularity_taps_are_finite(self):
        # rolloff 0.2 at 8 sps: t = +-1/(4*0.2) = +-1.25 symbol periods lies
        # exactly on the grid
        assert (CFG.rolloff, SPS) == (0.2, 8)
        h = rrc_taps(CFG)
        assert np.isfinite(h).all()

    def test_cascade_isi_below_1e3(self):
        isi = oracles.cascade_isi_profile(rrc_taps(CFG), SPS)
        assert isi.max() <= 1e-3

    def test_rejects_zero_rolloff(self):
        with pytest.raises(ParameterError):
            ModemConfig(rolloff=0.0)

    def test_rejects_odd_span(self):
        with pytest.raises(ParameterError):
            ModemConfig(filter_span_symbols=9)


class TestShapingCascade:
    def test_impulse_response_is_tap_sequence(self):
        sym = ComplexFrame(np.array([1.0 + 0j]), CFG.symbol_rate_hz)
        out = tx_shape(sym, CFG)
        h = rrc_taps(CFG)
        assert np.allclose(out.samples[: h.size], h, atol=1e-15)
        assert not out.samples[h.size :].any()  # zero-stuffing remainder

    def test_output_length_and_rate(self):
        n = 100
        sym = ComplexFrame(np.ones(n, dtype=complex), CFG.symbol_rate_hz)
        out = tx_shape(sym, CFG)
        assert len(out) == n * SPS + SPAN * SPS
        assert out.sample_rate_hz == pytest.approx(CFG.sample_rate_hz)

    def test_loopback_within_isi_bound(self):
        """Worst-case loopback error obeys the convolution-oracle bound."""
        bits = generate_bits(20000, 5)
        s = qam_modulate(bits, CFG)
        y = rx_match(tx_shape(s, CFG), CFG)
        err = np.abs(y.samples[SPAN : SPAN + len(s)] - s.samples)

        isi = oracles.cascade_isi_profile(rrc_taps(CFG), SPS)
        worst_case = 2.0 * isi.sum() * 3.0 * np.sqrt(2.0)  # both lag signs, outer symbol
        assert err.max() <= worst_case

        # rms matches the ISI-power prediction: per axis var = sum(r_k^2) * E[L^2]
        predicted_rms = np.sqrt(2.0 * 2.0 * np.sum(isi**2) * 5.0)
        assert np.sqrt(np.mean(err**2)) == pytest.approx(predicted_rms, rel=0.25)

    def test_loopback_4qam_within_1e3_rms(self):
        cfg = ModemConfig(m_ary=4)
        bits = generate_bits(10000, 6)
        s = qam_modulate(bits, cfg)
        y = rx_match(tx_shape(s, cfg), cfg)
        err = np.abs(y.samples[SPAN : SPAN + len(s)] - s.samples)
        assert np.sqrt(np.mean(err**2)) <= 1e-3

    def test_loopback_bits_recover_exactly(self):
        bits = generate_bits(40000, 11)
        s = qam_modulate(bits, CFG)
        y = rx_match(tx_shape(s, CFG), CFG)
        trimmed = ComplexFrame(y.samples[SPAN : SPAN + len(s)], CFG.symbol_rate_hz)
        assert np.array_equal(qam_demodulate(trimmed, CFG).bits, bits.bits)

    def test_first_valid_symbol_index_is_span(self):
        marker = np.zeros(80, dtype=complex)
        marker[0] = 3 + 3j
        y = rx_match(tx_shape(ComplexFrame(marker, CFG.symbol_rate_hz), CFG), CFG)
        peak = int(np.argmax(np.abs(y.samples)))
        assert peak == SPAN

    def test_rx_dc_gain(self):
        """Filter DC gain equals the tap sum (~ tap_sum^2 / sqrt(sps))."""
        h = rrc_taps(CFG)
        n = 4000
        dc = ComplexFrame(np.full(n, 2.0 + 0j), CFG.sample_rate_hz)
        y = rx_match(dc, CFG)
        steady = y.samples[len(y) // 2]
        assert steady == pytest.approx(2.0 * h.sum(), rel=1e-6)
        assert steady == pytest.approx(2.0 * h.sum() ** 2 / np.sqrt(SPS), rel=1e-2)

    def test_rx_match_insufficient_data(self):
        short = ComplexFrame(np.ones(SPAN * SPS, dtype=complex), CFG.sample_rate_hz)
        with pytest.raises(InsufficientDataError):
            rx_match(short, CFG)

    def test_rate_mismatch_rejected(self):
        sym = ComplexFrame(np.ones(16, dtype=complex), 1234.0)
        with pytest.raises(ParameterError):
            tx_shape(sym, CFG)
        with pytest.raises(ParameterError):
            rx_match(sym, CFG)


class TestPolyphaseOracles:
    """The polyphase filters against plain full-rate convolution."""

    @pytest.mark.parametrize("sps", [2, 4, 8])
    @pytest.mark.parametrize("span", [2, 10, 30])
    def test_tx_shape_equals_zero_stuffed_convolution(self, sps, span):
        cfg = ModemConfig(samples_per_symbol=sps, filter_span_symbols=span)
        rng = np.random.default_rng(sps * 100 + span)
        s = rng.standard_normal(53) + 1j * rng.standard_normal(53)
        up = np.zeros(s.size * sps, dtype=complex)
        up[::sps] = s
        expected = np.convolve(up, rrc_taps(cfg))
        out = tx_shape(ComplexFrame(s, cfg.symbol_rate_hz), cfg).samples
        assert out.shape == expected.shape
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sps", [2, 4, 8])
    @pytest.mark.parametrize("span", [2, 10, 30])
    def test_rx_match_equals_decimated_convolution(self, sps, span):
        cfg = ModemConfig(samples_per_symbol=sps, filter_span_symbols=span)
        h = rrc_taps(cfg)
        rng = np.random.default_rng(sps * 100 + span)
        # every input length modulo sps, starting just past the group delay
        for n in range(span * sps + 1, span * sps + 2 * sps + 2):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            expected = np.convolve(x, h)[::sps]
            out = rx_match(ComplexFrame(x, cfg.sample_rate_hz), cfg).samples
            assert out.shape == expected.shape
            assert np.allclose(out, expected, rtol=0, atol=1e-12)

    @staticmethod
    def _check_tx(cfg, n, seed):
        h = rrc_taps(cfg)
        sps = cfg.samples_per_symbol
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        up = np.zeros(s.size * sps, dtype=complex)
        up[::sps] = s
        expected = np.convolve(up, h)
        out = tx_shape(ComplexFrame(s, cfg.symbol_rate_hz), cfg).samples
        assert out.shape == expected.shape
        assert np.allclose(out, expected, rtol=0, atol=1e-12)
        assert not out[(n - 1) * sps + h.size :].any()  # no tap reaches these

    @staticmethod
    def _check_rx(cfg, n, seed):
        """Both ends of the input lengths that give ``n`` output symbols."""
        h = rrc_taps(cfg)
        sps = cfg.samples_per_symbol
        span = cfg.filter_span_symbols
        rng = np.random.default_rng(seed)
        for length in ((n - span - 1) * sps + 1, (n - span) * sps):
            x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            expected = np.convolve(x, h)[::sps]
            out = rx_match(ComplexFrame(x, cfg.sample_rate_hz), cfg).samples
            assert out.shape == expected.shape == (n,)
            assert np.allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sps", [2, 8, 64])
    @pytest.mark.parametrize("n", BLOCK_EDGES + TX_BLOCK_EDGES)
    def test_tx_shape_across_fft_blocks(self, sps, n):
        self._check_tx(ModemConfig(samples_per_symbol=sps), n, sps + n)

    @pytest.mark.parametrize("sps", [2, 8, 64])
    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_rx_match_across_fft_blocks(self, sps, n):
        self._check_rx(ModemConfig(samples_per_symbol=sps), n, sps + n)

    @pytest.mark.parametrize("sps", [2, 8])
    def test_longest_span_at_a_short_length(self, sps):
        cfg = ModemConfig(samples_per_symbol=sps, filter_span_symbols=256)
        self._check_tx(cfg, 53, sps)
        self._check_rx(cfg, 2 * 256 + 53, sps)  # inputs ~53 symbols past the group delay


class TestStreamingFilters:
    """``TxShaper`` and ``RxMatcher`` fed in pieces give the whole-frame
    filters' output bit for bit: their segments are counted from the first
    input row, whatever the pieces."""

    @staticmethod
    def _fed(stream, x, pieces):
        out, start = [], 0
        while start < x.size:
            for size in pieces:
                out += [piece.reshape(-1) for piece in stream.feed(x[start : start + size])]
                start += size
        return np.concatenate(out)

    @pytest.mark.parametrize("sps", [3, 8])
    @pytest.mark.parametrize("n", [1, 5] + TX_BLOCK_EDGES)
    @pytest.mark.parametrize("pieces", [[1, 7], [BLOCK], [BLOCK + 1, 5000]])
    def test_tx_shaper_equals_tx_shape(self, sps, n, pieces):
        cfg = ModemConfig(samples_per_symbol=sps)
        rng = np.random.default_rng(n)
        s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expected = tx_shape(ComplexFrame(s, cfg.symbol_rate_hz), cfg).samples
        assert np.array_equal(self._fed(TxShaper(n, cfg), s, pieces), expected)

    @pytest.mark.parametrize("sps", [3, 8])
    @pytest.mark.parametrize("n", BLOCK_EDGES)
    @pytest.mark.parametrize("pieces", [[1000, 7], [FFT_BLOCK_SYMBOLS * 8], [65536]])
    @pytest.mark.parametrize("derotate", [None, (15.0, 2.0)])
    def test_rx_matcher_equals_rx_match(self, sps, n, pieces, derotate):
        cfg = ModemConfig(samples_per_symbol=sps)
        length = (n - cfg.filter_span_symbols) * sps
        rng = np.random.default_rng(n)
        x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        frame = ComplexFrame(x, cfg.sample_rate_hz, start_sample=123_457)
        expected = rx_match(frame, cfg, derotate=derotate).samples
        matcher = RxMatcher(length, cfg, derotate=derotate, start_sample=123_457)
        assert np.array_equal(self._fed(matcher, x, pieces), expected)

    def test_rx_matcher_needs_more_than_the_group_delay(self):
        with pytest.raises(InsufficientDataError):
            RxMatcher(SPAN * SPS, CFG)


class TestDerotatingMatchedFilter:
    """``rx_match(..., derotate=(p, f))`` filters the de-rotated waveform
    without making it."""

    @given(
        n=st.integers(SPAN * SPS + 1, 70_000),
        start=st.integers(0, 10**8),
        phase=st.floats(-360.0, 360.0),
        freq=st.floats(-1e4, 1e4),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_filtering_the_corrected_waveform(self, n, start, phase, freq):
        rng = np.random.default_rng(n)
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = ComplexFrame(samples, CFG.sample_rate_hz, start_sample=start)
        expected = rx_match(phase_freq_correct(x, phase, freq), CFG).samples
        kept = samples.copy()
        out = rx_match(x, CFG, derotate=(phase, freq)).samples
        assert np.array_equal(out, expected)
        assert np.array_equal(x.samples, kept)


def test_symbol_and_sample_rates():
    # 4 bits/symbol at 40 us per bit -> 6.25 ksym/s; x8 oversampling -> 50 kHz
    assert CFG.symbol_rate_hz == pytest.approx(6250.0)
    assert CFG.sample_rate_hz == pytest.approx(50000.0)
