"""Analysis tests: BER sink, Welch PSD, constellation capture, closed-form BER."""

import numpy as np
import pytest
from scipy import signal

import oracles
from vsatlink import (
    BitFrame,
    ComplexFrame,
    InsufficientDataError,
    ModemConfig,
    ParameterError,
    constellation_snapshot,
    estimate_psd,
    generate_bits,
    measure_ber,
    qam_modulate,
    theoretical_qam_ber,
    tx_shape,
)
from vsatlink.analysis import WelchSum

FS = 50_000.0


def bitarr(*bits):
    return BitFrame(np.array(bits, dtype=np.int8))


class TestMeasureBer:
    def test_identical_streams(self):
        a = generate_bits(1000, 1)
        report = measure_ber(a, a, delay_bits=0)
        assert report.ber == 0.0
        assert report.bits_compared == 1000

    def test_complemented_stream(self):
        a = generate_bits(1000, 2)
        b = BitFrame(1 - a.bits)
        assert measure_ber(a, b, delay_bits=0).ber == 1.0

    def test_single_flip_in_1000(self):
        a = generate_bits(1000, 3)
        flipped = a.bits.copy()
        flipped[123] ^= 1
        report = measure_ber(a, BitFrame(flipped), delay_bits=0)
        assert report.ber == pytest.approx(0.001)
        assert report.bit_errors == 1

    def test_explicit_delay_alignment(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2, 5000).astype(np.int8)
        delayed = np.concatenate([rng.integers(0, 2, 40).astype(np.int8), a])
        report = measure_ber(BitFrame(a), BitFrame(delayed), delay_bits=40)
        assert report.ber == 0.0
        assert report.alignment_delay_bits == 40

    def test_empty_overlap_raises(self):
        a = bitarr(*([1] * 10))
        with pytest.raises(InsufficientDataError):
            measure_ber(a, a, delay_bits=10)

    def test_report_invariant(self):
        a = generate_bits(2000, 7)
        b = generate_bits(2000, 8)
        report = measure_ber(a, b, delay_bits=0)
        assert report.ber == report.bit_errors / report.bits_compared


class TestEstimatePsd:
    def test_tone_peaks_at_its_frequency(self):
        f0 = 5_000.0
        n = np.arange(2**14)
        x = ComplexFrame(np.exp(2j * np.pi * f0 * n / FS), FS)
        spec = estimate_psd(x, 1024)
        peak = spec.frequencies_hz[int(np.argmax(spec.psd_w_per_hz))]
        assert peak == pytest.approx(f0, abs=spec.resolution_bw_hz)

    def test_parseval_normalization(self):
        rng = np.random.default_rng(9)
        x = ComplexFrame(rng.standard_normal(2**16) + 1j * rng.standard_normal(2**16), FS)
        spec = estimate_psd(x, 512)
        df = FS / 512
        assert np.sum(spec.psd_w_per_hz) * df == pytest.approx(x.mean_power, rel=0.01)

    def test_white_noise_flat_within_10_percent(self):
        rng = np.random.default_rng(10)
        n = 2**20  # ~8k averaged segments of 256 at 50% overlap
        sigma2 = 2.0
        x = np.sqrt(sigma2 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        spec = estimate_psd(ComplexFrame(x, FS), 256)
        expected = sigma2 / FS
        assert np.max(np.abs(spec.psd_w_per_hz - expected)) <= 0.10 * expected

    def test_two_sided_axis(self):
        x = ComplexFrame(np.ones(4096, dtype=complex), FS)
        spec = estimate_psd(x, 512)
        assert spec.frequencies_hz[0] == pytest.approx(-FS / 2)
        assert np.all(np.diff(spec.frequencies_hz) > 0)
        assert np.all(spec.psd_w_per_hz >= 0)

    @pytest.mark.parametrize("n, segment_len, pieces", [
        (100_000, 1024, [511, 512, 513, 8192, 8193, 65536]),
        # one group's span (15 steps and a segment) and either side of it
        (8704, 1024, [8703, 8704, 8705, 1]),
        (8705, 1024, [8704, 1]),
        (4097, 256, [1, 7, 128, 2049]),
        (300, 3, [1, 2, 299]),
    ])
    def test_welch_sum_fed_in_pieces_equals_estimate_psd(self, n, segment_len, pieces):
        # the segments and their groups are counted from the stream's first
        # sample, so pieces that cut a segment or a group change nothing
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expected = estimate_psd(ComplexFrame(x, FS), segment_len)
        welch, start = WelchSum(n, segment_len, FS), 0
        while start < n:
            for size in pieces:
                welch.add(x[start : start + size])
                start += size
        got = welch.estimate()
        assert np.array_equal(got.psd_w_per_hz, expected.psd_w_per_hz)
        assert np.array_equal(got.frequencies_hz, expected.frequencies_hz)
        assert got.resolution_bw_hz == expected.resolution_bw_hz

    def test_welch_sum_of_a_partial_stream_is_refused(self):
        welch = WelchSum(4096, 256, FS)
        welch.add(np.ones(4000, dtype=complex))
        with pytest.raises(ParameterError, match="segments"):
            welch.estimate()

    def test_segment_longer_than_data_rejected(self):
        with pytest.raises(ParameterError):
            estimate_psd(ComplexFrame(np.ones(100, dtype=complex), FS), 256)

    @pytest.mark.parametrize("segment_len", [1, 0, -4])
    def test_segment_shorter_than_two_rejected(self, segment_len):
        with pytest.raises(ParameterError):
            estimate_psd(ComplexFrame(np.ones(100, dtype=complex), FS), segment_len)



class TestWelchOracle:
    """estimate_psd against scipy.signal.welch with the same settings."""

    @pytest.mark.parametrize("n, segment_len", [
        (20_000, 256),
        (20_000, 255),   # odd segment: the step rounds up to 128
        (1000, 2),       # the shortest segment
        (1024, 1024),    # a single segment covering the whole frame
        (20_077, 300),   # frame length off the segment step grid
        (40_000, 1024),  # more segments than one FFT block
    ])
    def test_matches_scipy_welch(self, n, segment_len):
        rng = np.random.default_rng(n + segment_len)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        freqs, psd = signal.welch(
            x, fs=FS, window="hann", nperseg=segment_len,
            noverlap=segment_len // 2, detrend=False,
            return_onesided=False, scaling="density",
        )
        spec = estimate_psd(ComplexFrame(x, FS), segment_len)
        assert np.array_equal(spec.frequencies_hz, np.fft.fftshift(freqs))
        assert np.allclose(spec.psd_w_per_hz, np.fft.fftshift(psd).real, rtol=1e-12, atol=0)


class TestOccupiedBand:
    def test_tx_spectrum_shape(self):
        """RRC-shaped 16-QAM: half-power at +-Rs/2, negligible power past
        (1+rolloff)/2 * Rs."""
        cfg = ModemConfig()
        bits = generate_bits(80_000, 11)
        wave = tx_shape(qam_modulate(bits, cfg), cfg)
        spec = estimate_psd(wave, 1024)
        f, p = spec.frequencies_hz, spec.psd_w_per_hz
        rs = cfg.symbol_rate_hz

        inband = p[np.abs(f) < 0.4 * rs]
        level = np.median(inband)
        # half-power frequency within 5% of Rs/2 (positive side)
        pos = f > 0
        half_idx = np.argmin(np.abs(p[pos] - 0.5 * level))
        f_half = f[pos][half_idx]
        assert f_half == pytest.approx(rs / 2, rel=0.05)
        # out-of-band relative power <= -40 dB
        df = FS / 1024
        oob = np.abs(f) > 0.6 * rs
        oob_fraction = np.sum(p[oob]) * df / wave.mean_power
        assert oob_fraction <= 1e-4


class TestConstellationSnapshot:
    def test_clean_grid(self):
        cfg = ModemConfig()
        bits = generate_bits(4096, 12)
        sym = qam_modulate(bits, cfg)
        pts = constellation_snapshot(sym, 1024)
        assert pts.shape == (1024, 2)
        uniques = {(re, im) for re, im in pts}
        grid = {(float(i), float(q)) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)}
        assert uniques == grid

    def test_rotated_grid(self):
        cfg = ModemConfig()
        bits = generate_bits(4096, 13)
        sym = qam_modulate(bits, cfg)
        rot = ComplexFrame(sym.samples * np.exp(1j * np.deg2rad(15)), sym.sample_rate_hz)
        pts = constellation_snapshot(rot, 512)
        z = pts[:, 0] + 1j * pts[:, 1]
        grid = np.array([complex(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)])
        rotated = grid * np.exp(1j * np.deg2rad(15))
        for point in z:
            assert np.min(np.abs(point - rotated)) < 1e-12

    def test_spinning_cloud_forms_rings(self):
        cfg = ModemConfig()
        bits = generate_bits(40_000, 14)
        sym = qam_modulate(bits, cfg)
        n = np.arange(len(sym))
        spun = ComplexFrame(
            sym.samples * np.exp(2j * np.pi * 2.0 * n / cfg.symbol_rate_hz),
            sym.sample_rate_hz,
        )
        pts = constellation_snapshot(spun, 8000)
        z = pts[:, 0] + 1j * pts[:, 1]
        radii = np.array([np.sqrt(2), np.sqrt(10), np.sqrt(18)])
        assert np.all(np.min(np.abs(np.abs(z)[:, None] - radii), axis=1) < 1e-9)
        # angles cover the circle (a ring, not a cluster)
        angles = np.angle(z[np.abs(np.abs(z) - np.sqrt(18)) < 1e-9])
        assert np.ptp(angles) > 0.9 * 2 * np.pi

    def test_max_points_validated(self):
        with pytest.raises(ParameterError):
            constellation_snapshot(ComplexFrame(np.ones(4, dtype=complex), FS), 0)


class TestTheoreticalBer:
    def test_vanishes_at_high_snr(self):
        assert theoretical_qam_ber(60.0, 16) < 1e-300

    def test_monotone_decreasing(self):
        values = [theoretical_qam_ber(db, 16) for db in np.arange(0, 20, 0.5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("db", [12.0, 14.0, 16.0, 18.0])
    def test_matches_exact_enumeration_within_10_percent(self, db):
        approx = theoretical_qam_ber(db, 16)
        exact = oracles.qam16_awgn_ber_exact(db)
        if exact <= 1e-2:
            assert approx == pytest.approx(exact, rel=0.10)

    def test_m16_closed_form(self):
        from scipy.special import erfc

        es_n0 = 10 ** (14.0 / 10)
        assert theoretical_qam_ber(14.0, 16) == pytest.approx(
            (3 / 8) * erfc(np.sqrt(es_n0 / 10)), rel=1e-12
        )

    def test_non_square_rejected(self):
        with pytest.raises(ParameterError):
            theoretical_qam_ber(10.0, 32)
